"""Command-line interface: bench, eval, validate, aggregate, scatter.

Exit codes: 0 success, 1 usage error, 2 validation or aggregation
mismatch, 3 I/O error. Given identical arguments, every command writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .averaging import StepStrategy, StrategyKind, averaged_derivative
from .bench import (
    CANONICAL_VARIANTS,
    MethodVariant,
    RunConfig,
    VariantKind,
    aggregate_case_average,
    format_h,
    load_reference_tables,
    mark_minima,
    optimal_shift_report,
    render,
    run_case,
    scatter_data,
    split_single_averaged,
    substream_seed,
)
from .diffcore import LdiSignMode, MethodId, QuadratureMode
from .errors import (
    AggregationError,
    DomainError,
    InvalidIntervalError,
    InvalidStepError,
    InvalidStrategyError,
    StepavgError,
)
from .functions import FunctionId, case_table, d1_exact, function_handle, validate_case_table

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_MISMATCH = 2
_EXIT_IO = 3

_METHODS = {"afd": MethodId.AFD, "re": MethodId.RE, "ldi": MethodId.LDI}
_VARIANTS = {"single": VariantKind.SINGLE, "mc": VariantKind.AVG_MC,
             "ed": VariantKind.AVG_ED, "lds": VariantKind.AVG_LDS}
_QUADRATURES = {"paper": QuadratureMode.PAPER_VERBATIM,
                "corrected": QuadratureMode.CORRECTED_COMPOSITE}
_SIGNS = {"corrected": LdiSignMode.CORRECTED, "paper": LdiSignMode.PAPER_VERBATIM}
_FUNCTIONS = {f.value: f for f in FunctionId}

PAPER_SCALE_SAMPLES = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with status 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_cases(text: str) -> tuple:
    try:
        ids = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--cases: bad case list {text!r}")
    if not ids or any(i < 1 or i > 19 for i in ids):
        raise argparse.ArgumentTypeError(f"--cases: ids must be in 1..19, got {text!r}")
    return ids


def _parse_seed(text: str) -> int:
    """A run seed: numpy's SeedSequence takes only non-negative ints."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _parse_h_grid(text: str) -> tuple:
    """start:stop:factor, a geometric grid from start down to stop."""
    try:
        start_s, stop_s, factor_s = text.split(":")
        start, stop, factor = float(start_s), float(stop_s), float(factor_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--h-grid: expected start:stop:factor, got {text!r}")
    if start <= 0 or stop <= 0 or start < stop or factor <= 1:
        raise argparse.ArgumentTypeError(
            f"--h-grid: need start >= stop > 0 and factor > 1, got {text!r}")
    grid = []
    h = start
    while h >= stop * (1.0 - 1e-12):
        grid.append(h)
        h = start / factor ** len(grid)
    return tuple(grid)


def _csv_list(choices, flag):
    def parse(text):
        items = []
        for tok in text.split(","):
            if tok not in choices:
                raise argparse.ArgumentTypeError(
                    f"{flag}: unknown value {tok!r} (choose from {', '.join(choices)})")
            items.append(choices[tok])
        return items
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stepavg",
                     description="Derivative-estimator error benchmark with step-size averaging.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, with_cases):
        if with_cases:
            p.add_argument("--cases", type=_parse_cases,
                           default=tuple(range(1, 20)),
                           help="comma-separated case ids, default all 19")
            p.add_argument("--methods", type=_csv_list(_METHODS, "--methods"),
                           default=None, help="afd,re,ldi (default all)")
            p.add_argument("--variants", type=_csv_list(_VARIANTS, "--variants"),
                           default=None,
                           help="single,mc,ed,lds; default: the canonical seven rows")
            p.add_argument("--h-grid", type=_parse_h_grid,
                           default=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8),
                           help="start:stop:factor, default 1e-3:1e-8:10")
        p.add_argument("--samples", type=int, default=10**4,
                       help="steps per averaged estimate, default 10000")
        p.add_argument("--seed", type=_parse_seed, default=0, help="run seed, default 0")
        p.add_argument("--quadrature", choices=sorted(_QUADRATURES),
                       default="paper", help="LDI quadrature weights")
        p.add_argument("--ldi-sign", choices=sorted(_SIGNS), default="corrected",
                       help="LDI kernel sign")
        p.add_argument("--paper-scale", action="store_true",
                       help=f"use {PAPER_SCALE_SAMPLES} samples per estimate")

    p_bench = sub.add_parser("bench", help="run the error benchmark and write tables")
    add_run_flags(p_bench, with_cases=True)
    p_bench.add_argument("--format", choices=("csv", "md"), default="csv")
    p_bench.add_argument("--out", default="bench_out", help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate one estimator at one point")
    p_eval.add_argument("--fn", required=True, choices=sorted(_FUNCTIONS))
    p_eval.add_argument("--x", required=True, type=float)
    p_eval.add_argument("--method", required=True, choices=sorted(_METHODS))
    p_eval.add_argument("--variant", default="single", choices=sorted(_VARIANTS))
    p_eval.add_argument("--h", required=True, type=float)
    add_run_flags(p_eval, with_cases=False)

    sub.add_parser("validate", help="check the case table against published magnitudes")

    p_agg = sub.add_parser("aggregate", help="average per-case reference tables")
    p_agg.add_argument("--fixtures", default=None,
                       help="directory of per-case CSV tables (default: packaged)")
    p_agg.add_argument("--format", choices=("csv", "md"), default="csv")
    p_agg.add_argument("--out", default=None, help="output directory (default: stdout)")

    p_sc = sub.add_parser("scatter", help="emit per-case derivative magnitudes")
    p_sc.add_argument("--out", default=None, help="output directory (default: stdout)")

    return parser


def _select_variants(args) -> tuple:
    if args.methods is None and args.variants is None:
        return CANONICAL_VARIANTS
    methods = args.methods or list(_METHODS.values())
    if args.variants is None:
        return tuple(v for v in CANONICAL_VARIANTS if v.method in methods)
    return tuple(MethodVariant(m, v) for m in methods for v in args.variants)


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _cmd_bench(args) -> int:
    samples = PAPER_SCALE_SAMPLES if args.paper_scale else args.samples
    try:
        cfg = RunConfig(
            case_ids=args.cases,
            variants=_select_variants(args),
            h_grid=args.h_grid,
            n_samples=samples,
            seed=args.seed,
            qmode=_QUADRATURES[args.quadrature],
            smode=_SIGNS[args.ldi_sign],
            output_format=args.format,
        )
    except ValueError as exc:
        print(f"stepavg: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    cases = {c.case_id: c for c in case_table()}
    ext = cfg.output_format
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        tables = []
        shift_lines = ["case_id,averaged,single,argmin_h_averaged,argmin_h_single,direction"]
        for cid in cfg.case_ids:
            table = run_case(cases[cid], cfg)
            tables.append(table)
            _write(out / f"case_{cid:02d}.{ext}", render(table, ext))
            single, averaged = split_single_averaged(table)
            if single.row_labels and averaged.row_labels:
                for entry in optimal_shift_report(single, averaged):
                    shift_lines.append(
                        f"{cid},{entry.averaged_label},{entry.single_label},"
                        f"{format_h(entry.h_averaged)},{format_h(entry.h_single)},"
                        f"{entry.direction}")
        averaged_table = mark_minima(aggregate_case_average(tables))
        _write(out / f"case_averaged.{ext}", render(averaged_table, ext))
        shift_text = "\n".join(shift_lines) + "\n"
        if ext == "md":
            rows = [ln.split(",") for ln in shift_lines]
            shift_text = "\n".join(
                ["| " + " | ".join(rows[0]) + " |", "|" + "---|" * len(rows[0])]
                + ["| " + " | ".join(r) + " |" for r in rows[1:]]) + "\n"
        _write(out / f"shift_report.{ext}", shift_text)
    except OSError as exc:
        print(f"stepavg: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    print(f"wrote {len(cfg.case_ids)} case tables, case_averaged.{ext} and "
          f"shift_report.{ext} to {out}")
    return _EXIT_OK


def _cmd_eval(args) -> int:
    fn = _FUNCTIONS[args.fn]
    method = _METHODS[args.method]
    kind = _VARIANTS[args.variant]
    samples = PAPER_SCALE_SAMPLES if args.paper_scale else args.samples
    variant = MethodVariant(method, kind)
    try:
        # d1_exact checks the domain, so a bad x fails before f is sampled
        truth = d1_exact(fn, args.x)
        if kind is VariantKind.SINGLE:
            strategy = StepStrategy(StrategyKind.SINGLE)
        else:
            seed = substream_seed(args.seed, 0, variant, args.h)
            strategy = StepStrategy(StrategyKind(kind.value), sample_count=samples,
                                    seed=seed)
        result = averaged_derivative(method, function_handle(fn), args.x, args.h,
                                     strategy, _QUADRATURES[args.quadrature],
                                     _SIGNS[args.ldi_sign])
    except (DomainError, InvalidStepError, InvalidStrategyError,
            InvalidIntervalError) as exc:
        # an empty window means h is below half an ulp of x
        print(f"stepavg: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    print(f"estimate,{result.mean!r}")
    print(f"truth,{truth!r}")
    print(f"abs_error,{abs(result.mean - truth)!r}")
    print(f"predicted_sigma,{result.predicted_sigma!r}")
    return _EXIT_OK


def _cmd_validate(args) -> int:
    checks = validate_case_table()
    cases = {c.case_id: c for c in case_table()}
    all_ok = True
    for check in checks:
        case = cases[check.case_id]
        status = "pass" if check.ok else "FAIL"
        all_ok &= check.ok
        print(f"case {check.case_id:2d}: |f'|={check.d1_computed:.6g} vs {case.d1_text}, "
              f"|f''|={check.d2_computed:.6g} vs {case.d2_text}: {status}")
    return _EXIT_OK if all_ok else _EXIT_MISMATCH


def _cmd_aggregate(args) -> int:
    try:
        tables = load_reference_tables(args.fixtures)
        if not tables:
            print(f"stepavg: no fixture tables found in {args.fixtures!r}",
                  file=sys.stderr)
            return _EXIT_MISMATCH
        averaged = mark_minima(aggregate_case_average(tables))
    except (AggregationError, ValueError) as exc:
        print(f"stepavg: aggregation mismatch: {exc}", file=sys.stderr)
        return _EXIT_MISMATCH
    except OSError as exc:
        print(f"stepavg: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    text = render(averaged, args.format)
    if args.out is None:
        sys.stdout.write(text)
        return _EXIT_OK
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write(out / f"case_averaged.{args.format}", text)
    except OSError as exc:
        print(f"stepavg: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


def _cmd_scatter(args) -> int:
    lines = ["case_id,log10_d1,log10_d2"]
    for cid, d1, d2 in scatter_data(case_table()):
        lines.append(f"{cid},{d1!r},{d2!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return _EXIT_OK
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "scatter.csv", text)
    except OSError as exc:
        print(f"stepavg: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


_COMMANDS = {
    "bench": _cmd_bench,
    "eval": _cmd_eval,
    "validate": _cmd_validate,
    "aggregate": _cmd_aggregate,
    "scatter": _cmd_scatter,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a window that leaves f's domain shows as a NonFiniteEstimateError
        # or an inf cell, so numpy's warnings would only repeat it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _COMMANDS[args.command](args)
    except StepavgError as exc:
        print(f"stepavg: {exc}", file=sys.stderr)
        return _EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
