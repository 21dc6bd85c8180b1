"""Benchmark harness: error tables over cases, method variants and steps.

A run sweeps the 19-case table (or a subset) against a list of method
variants and a grid of nominal steps, records absolute errors against
the exact derivative, marks per-row minima, aggregates the per-case
tables into a case-averaged table, and reports how averaging shifts the
error-optimal step. Tables render to CSV or Markdown with cells at two
significant digits.

Reference error tables (19 transcribed per-case tables) ship with the
package as CSV fixtures so the aggregation, minima and shift logic can
be checked against known data independently of live runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .averaging import StepStrategy, StrategyKind, averaged_derivative
from .diffcore import LdiSignMode, MethodId, QuadratureMode
from .errors import AggregationError, InvalidIntervalError, NonFiniteEstimateError
from .functions import FunctionCase, d1_exact, d2_exact, function_handle, function_name

__all__ = [
    "VariantKind",
    "MethodVariant",
    "CANONICAL_VARIANTS",
    "RunConfig",
    "ErrorTable",
    "ShiftEntry",
    "abs_error",
    "substream_seed",
    "run_case",
    "aggregate_case_average",
    "mark_minima",
    "split_single_averaged",
    "optimal_shift_report",
    "scatter_data",
    "format_h",
    "format_cell",
    "render",
    "load_error_table",
    "load_reference_tables",
]

DEFAULT_H_GRID = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


class VariantKind(Enum):
    SINGLE = "single"
    AVG_MC = "mc"
    AVG_ED = "ed"
    AVG_LDS = "lds"


_STRATEGY_KIND = {
    VariantKind.SINGLE: StrategyKind.SINGLE,
    VariantKind.AVG_MC: StrategyKind.MC_UNIFORM,
    VariantKind.AVG_ED: StrategyKind.EQUIDISTANT,
    VariantKind.AVG_LDS: StrategyKind.LOW_DISCREPANCY,
}

_VARIANT_TAG = {
    VariantKind.AVG_MC: "MC",
    VariantKind.AVG_ED: "ED",
    VariantKind.AVG_LDS: "LDS",
}


@dataclass(frozen=True)
class MethodVariant:
    """A base method together with a step-averaging variant."""

    method: MethodId
    variant: VariantKind

    @property
    def label(self) -> str:
        """Row label: AFD, AFD_MC_AV, AFD_ED_AV, RE, RE_AV, LDI, LDI_AV, ...

        Single variants use the bare method name. AFD spells out the
        averaging strategy; RE and LDI abbreviate their default
        McUniform averaging to _AV and spell out the rest.
        """
        if self.variant is VariantKind.SINGLE:
            return self.method.value
        tag = _VARIANT_TAG[self.variant]
        if self.method is MethodId.AFD:
            return f"AFD_{tag}_AV"
        if self.variant is VariantKind.AVG_MC:
            return f"{self.method.value}_AV"
        return f"{self.method.value}_{tag}_AV"


# The seven variants benchmarked by default, in row order.
CANONICAL_VARIANTS = (
    MethodVariant(MethodId.AFD, VariantKind.SINGLE),
    MethodVariant(MethodId.AFD, VariantKind.AVG_MC),
    MethodVariant(MethodId.AFD, VariantKind.AVG_ED),
    MethodVariant(MethodId.RE, VariantKind.SINGLE),
    MethodVariant(MethodId.RE, VariantKind.AVG_MC),
    MethodVariant(MethodId.LDI, VariantKind.SINGLE),
    MethodVariant(MethodId.LDI, VariantKind.AVG_MC),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run depends on; results are pure in this."""

    case_ids: Sequence[int] = tuple(range(1, 20))
    variants: Sequence[MethodVariant] = CANONICAL_VARIANTS
    h_grid: Sequence[float] = DEFAULT_H_GRID
    n_samples: int = 10**4
    seed: int = 0
    qmode: QuadratureMode = QuadratureMode.PAPER_VERBATIM
    smode: LdiSignMode = LdiSignMode.CORRECTED
    output_format: str = "csv"

    def __post_init__(self):
        grid = tuple(float(h) for h in self.h_grid)
        if not grid or any(h <= 0.0 for h in grid):
            raise ValueError(f"h grid must be positive, got {grid}")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"h grid must be strictly decreasing, got {grid}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.output_format not in ("csv", "md"):
            raise ValueError(f"unknown output format {self.output_format!r}")


@dataclass(frozen=True, eq=False)
class ErrorTable:
    """A labelled matrix of absolute errors, one row per variant.

    minima, when set, holds the column index of each row's smallest
    cell. Non-finite cells mark overflowed or out-of-domain evaluations
    and render as "inf".
    """

    title: str
    row_labels: Sequence[str]
    col_labels: Sequence[float]
    cells: np.ndarray
    minima: Optional[Sequence[int]] = None

    def row(self, label: str) -> np.ndarray:
        return self.cells[list(self.row_labels).index(label)]


def abs_error(approx: float, truth: float) -> float:
    """|approx - truth|; non-finite inputs yield an inf (flagged) cell."""
    if not (math.isfinite(approx) and math.isfinite(truth)):
        return math.inf
    return abs(approx - truth)


_METHOD_INDEX = {MethodId.AFD: 0, MethodId.RE: 1, MethodId.LDI: 2}
_VARIANT_INDEX = {VariantKind.SINGLE: 0, VariantKind.AVG_MC: 1,
                  VariantKind.AVG_ED: 2, VariantKind.AVG_LDS: 3}


def substream_seed(seed: int, case_id: int, variant: MethodVariant,
                   h: float) -> int:
    """Derive the RNG seed for one (case, variant, h) evaluation.

    Mixing the run seed with the full coordinate (including the bit
    pattern of h) gives every cell its own reproducible stream, so
    results do not depend on evaluation order.
    """
    h_bits = int(np.float64(h).view(np.uint64))
    seq = np.random.SeedSequence([
        int(seed),
        int(case_id),
        _METHOD_INDEX[variant.method],
        _VARIANT_INDEX[variant.variant],
        h_bits,
    ])
    return int(seq.generate_state(1, np.uint64)[0])


def run_case(case: FunctionCase, cfg: RunConfig) -> ErrorTable:
    """Error table for one case over cfg.variants x cfg.h_grid.

    Deterministic given cfg.seed; estimator domain failures, non-finite
    estimates and LDI windows [x-h, x+h] that round to one point (h
    below half an ulp of x) become inf cells rather than aborting the run.
    """
    f = function_handle(case.fn)
    truth = d1_exact(case.fn, case.x)
    cells = np.empty((len(cfg.variants), len(cfg.h_grid)))
    for i, variant in enumerate(cfg.variants):
        for j, h in enumerate(cfg.h_grid):
            strategy = _strategy_for(variant, cfg, case.case_id, h)
            try:
                result = averaged_derivative(variant.method, f, case.x, h,
                                             strategy, cfg.qmode, cfg.smode)
                cells[i, j] = abs_error(result.mean, truth)
            except (NonFiniteEstimateError, InvalidIntervalError):
                cells[i, j] = math.inf
    table = ErrorTable(
        title=f"case {case.case_id}: {function_name(case.fn)} at x={case.x:g}",
        row_labels=tuple(v.label for v in cfg.variants),
        col_labels=tuple(cfg.h_grid),
        cells=cells,
    )
    return mark_minima(table)


def _strategy_for(variant: MethodVariant, cfg: RunConfig, case_id: int,
                  h: float) -> StepStrategy:
    kind = _STRATEGY_KIND[variant.variant]
    if kind is StrategyKind.SINGLE:
        return StepStrategy(kind)
    seed = substream_seed(cfg.seed, case_id, variant, h)
    return StepStrategy(kind, sample_count=cfg.n_samples, seed=seed)


def aggregate_case_average(tables: Sequence[ErrorTable]) -> ErrorTable:
    """Cell-wise arithmetic mean of tables sharing identical labels."""
    if not tables:
        raise AggregationError("no tables to aggregate")
    first = tables[0]
    for t in tables[1:]:
        if tuple(t.row_labels) != tuple(first.row_labels) or \
                tuple(t.col_labels) != tuple(first.col_labels):
            raise AggregationError(
                f"label mismatch between {first.title!r} and {t.title!r}")
    cells = np.mean(np.stack([t.cells for t in tables]), axis=0)
    return ErrorTable(
        title=f"case average over {len(tables)} tables",
        row_labels=tuple(first.row_labels),
        col_labels=tuple(first.col_labels),
        cells=cells,
    )


def mark_minima(table: ErrorTable) -> ErrorTable:
    """Record each row's minimum column; ties break toward larger h.

    Columns are ordered by decreasing h, so the leftmost minimal cell
    (np.argmin's first occurrence) is the tie-break winner.
    """
    minima = tuple(int(np.argmin(row)) for row in table.cells)
    return replace(table, minima=minima)


def split_single_averaged(table: ErrorTable):
    """Split a table's rows into single-method and averaged tables."""
    single_idx = [i for i, lab in enumerate(table.row_labels) if "_" not in lab]
    avg_idx = [i for i in range(len(table.row_labels)) if i not in single_idx]

    def take(indices, suffix):
        sub = ErrorTable(
            title=f"{table.title} ({suffix})",
            row_labels=tuple(table.row_labels[i] for i in indices),
            col_labels=tuple(table.col_labels),
            cells=table.cells[indices],
        )
        return mark_minima(sub)

    return take(single_idx, "single"), take(avg_idx, "averaged")


@dataclass(frozen=True)
class ShiftEntry:
    """Where one averaged variant's best h sits relative to its base."""

    averaged_label: str
    single_label: str
    h_single: float
    h_averaged: float
    direction: str  # "smaller" | "equal" | "larger"


def optimal_shift_report(single: ErrorTable,
                         averaged: ErrorTable) -> list:
    """Compare argmin-h of each averaged row against its base method row.

    Rows pair by method name prefix (AFD_MC_AV -> AFD). Directions refer
    to the h value: "smaller" means the averaged variant attains its
    best error at a smaller step than the single variant.
    """
    if tuple(single.col_labels) != tuple(averaged.col_labels):
        raise AggregationError("shift report needs matching h columns")
    single = single if single.minima is not None else mark_minima(single)
    averaged = averaged if averaged.minima is not None else mark_minima(averaged)
    report = []
    for i, label in enumerate(averaged.row_labels):
        base = label.split("_")[0]
        j = list(single.row_labels).index(base)
        h_single = float(single.col_labels[single.minima[j]])
        h_avg = float(averaged.col_labels[averaged.minima[i]])
        if h_avg < h_single:
            direction = "smaller"
        elif h_avg == h_single:
            direction = "equal"
        else:
            direction = "larger"
        report.append(ShiftEntry(label, base, h_single, h_avg, direction))
    return report


def scatter_data(cases: Sequence[FunctionCase]) -> list:
    """(case_id, log10 |f'|, log10 |f''|) per case, computed exactly."""
    points = []
    for case in cases:
        d1 = abs(d1_exact(case.fn, case.x))
        d2 = abs(d2_exact(case.fn, case.x))
        points.append((case.case_id, math.log10(d1), math.log10(d2)))
    return points


def format_h(h: float) -> str:
    """Column label for a step: 1e-3, 3e-4, 2e0, ..."""
    mantissa, exponent = f"{h:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def format_cell(value: float) -> str:
    """Cell text at two significant digits: 0.00123 -> '1.2e-3'."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    mantissa, exponent = f"{value:.1e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def render(table: ErrorTable, output_format: str = "csv") -> str:
    """Render a table as CSV or a Markdown pipe table.

    Markdown wraps each row's minimum cell in ** when minima are marked.
    An empty table renders as its header only.
    """
    header = ["h"] + [format_h(h) for h in table.col_labels]
    rows = []
    for i, label in enumerate(table.row_labels):
        cells = [format_cell(v) for v in table.cells[i]]
        if output_format == "md" and table.minima is not None:
            k = table.minima[i]
            cells[k] = f"**{cells[k]}**"
        rows.append([label] + cells)
    if output_format == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
    else:
        lines = [",".join(header)] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def load_error_table(path) -> ErrorTable:
    """Read a table back from the CSV layout written by render."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    col_labels = tuple(float(tok) for tok in lines[0].split(",")[1:])
    row_labels = []
    cells = []
    for line in lines[1:]:
        tokens = line.split(",")
        row_labels.append(tokens[0])
        cells.append([float(tok) for tok in tokens[1:]])
    return ErrorTable(
        title=path.stem,
        row_labels=tuple(row_labels),
        col_labels=col_labels,
        cells=np.array(cells, dtype=float),
    )


# bench output directories hold these two files next to the per-case
# tables; neither is a per-case error table, so the loader skips them
_NON_CASE_STEMS = frozenset({"case_averaged", "shift_report"})


def _case_table_paths(directory) -> list:
    return [p for p in sorted(Path(directory).glob("*.csv"))
            if p.stem not in _NON_CASE_STEMS]


def load_reference_tables(directory=None) -> list:
    """Load the per-case reference tables (packaged fixtures by default).

    Returns the tables sorted by file name, case_01 .. case_19.  A bench
    output directory works too: its case_averaged and shift_report files
    are ignored so only the per-case tables are read.
    """
    if directory is None:
        root = resources.files("stepavg").joinpath("data/appendix_tables")
        with resources.as_file(root) as concrete:
            return [load_error_table(p) for p in _case_table_paths(concrete)]
    return [load_error_table(p) for p in _case_table_paths(directory)]
