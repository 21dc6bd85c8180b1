"""Command-line interface: parsing, exit codes, artifact layout."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stepavg
from stepavg import MethodId, VariantKind, afd
from stepavg.bench import load_error_table
from stepavg.cli import _parse_h_grid, _select_variants, build_parser, main


def parse(argv):
    return build_parser().parse_args(argv)


# --- argument parsing ---

def test_bench_flag_mapping():
    args = parse([
        "bench", "--cases", "1,5", "--methods", "afd,re", "--variants", "mc",
        "--h-grid", "1e-2:1e-3:10", "--samples", "77", "--seed", "9",
        "--quadrature", "corrected", "--ldi-sign", "paper", "--format", "md",
        "--out", "somewhere",
    ])
    assert args.cases == (1, 5)
    assert args.methods == [MethodId.AFD, MethodId.RE]
    assert args.variants == [VariantKind.AVG_MC]
    assert args.h_grid == (1e-2, 1e-3)
    assert args.samples == 77
    assert args.seed == 9
    assert args.quadrature == "corrected"
    assert args.ldi_sign == "paper"
    assert args.format == "md"
    assert args.out == "somewhere"
    selected = _select_variants(args)
    assert [v.label for v in selected] == ["AFD_MC_AV", "RE_AV"]


def test_default_variant_selection_is_canonical():
    args = parse(["bench"])
    assert [v.label for v in _select_variants(args)] == [
        "AFD", "AFD_MC_AV", "AFD_ED_AV", "RE", "RE_AV", "LDI", "LDI_AV"]


def test_methods_only_filters_canonical_rows():
    args = parse(["bench", "--methods", "re"])
    assert [v.label for v in _select_variants(args)] == ["RE", "RE_AV"]


def test_h_grid_parser_produces_exact_decades():
    grid = _parse_h_grid("1e-3:1e-8:10")
    assert grid == (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


@pytest.mark.parametrize("bad", ["1e-3", "1e-3:1e-8", "a:b:c",
                                 "1e-8:1e-3:10", "1e-3:1e-8:1", "0:1e-8:10"])
def test_h_grid_parser_rejects_malformed_specs(bad):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--h-grid", bad])
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["bench", "--nope"],
    ["bench", "--cases", "0"], ["bench", "--cases", "1,99"],
    ["bench", "--methods", "newton"], ["eval", "--fn", "cos"],
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    ["bench", "--seed", "-1"],
    ["eval", "--fn", "cos", "--x", "1.47", "--method", "afd", "--variant",
     "mc", "--h", "1e-5", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: stepavg {argv[0]}")
    assert lines[-1] == (f"stepavg {argv[0]}: error: argument --seed: "
                         "must be non-negative, got -1")


def test_help_exits_0():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


# --- validate ---

def test_validate_passes_all_cases(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 19
    assert all(line.endswith("pass") for line in lines)


# --- eval ---

def test_eval_single_matches_direct_call(capsys):
    code = main(["eval", "--fn", "cos", "--x", "1.47", "--method", "afd",
                 "--h", "1e-5"])
    assert code == 0
    out = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
    assert float(out["estimate"]) == float(afd(np.cos, 1.47, 1e-5))
    assert float(out["predicted_sigma"]) == 0.0
    assert float(out["abs_error"]) >= 0.0


def test_eval_averaged_is_deterministic(capsys):
    argv = ["eval", "--fn", "cos", "--x", "1.47", "--method", "afd",
            "--variant", "mc", "--h", "1e-7", "--samples", "500", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "estimate," in first


@pytest.mark.parametrize("bad", [
    (["--x", "nan", "--h", "1e-5"], "cos is undefined at x=nan"),
    (["--x", "1.47", "--h", "inf"], "step h must be positive and finite, got h=inf"),
    (["--x", "1.47", "--h", "inf", "--variant", "mc"],
     "base step h must be positive and finite, got inf"),
])
def test_eval_nonfinite_input_fails_with_one_line(bad, capsys):
    argv, message = bad
    code = main(["eval", "--fn", "cos", "--method", "afd", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"stepavg: {message}"]


def test_eval_zero_samples_is_a_usage_error(capsys):
    code = main(["eval", "--fn", "cos", "--x", "1.47", "--method", "afd",
                 "--variant", "mc", "--h", "1e-5", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["stepavg: sample_count must be >= 1, got 0"]


def test_eval_nonfinite_estimate_is_a_mismatch(capsys):
    # x - h leaves ln's domain, so the estimate itself is nan; main
    # silences numpy's warning, which the suite's filter would make an error
    code = main(["eval", "--fn", "ln", "--x", "0.001", "--method", "afd",
                 "--h", "0.01"])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert "non-finite" in captured.err


@pytest.mark.parametrize("extra", [
    ["--method", "afd"],
    ["--method", "ldi", "--variant", "mc", "--samples", "100"],
])
def test_eval_nonfinite_estimate_leaks_no_numpy_warning(extra):
    # -W error would turn a leaked RuntimeWarning into a traceback
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stepavg.cli", "eval", "--fn", "ln",
         "--x", "0.001", "--h", "0.01", *extra],
        env=dict(os.environ,
                 PYTHONPATH=str(Path(stepavg.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert len(run.stderr.splitlines()) == 1
    assert "non-finite" in run.stderr


def test_eval_window_below_half_an_ulp_is_a_usage_error(capsys):
    code = main(["eval", "--fn", "laguerre7", "--x", "17.65", "--method", "ldi",
                 "--h", "1e-16"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["stepavg: need a < b, got a=17.65, b=17.65"]


def test_eval_out_of_domain_x_fails_before_sampling(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--fn", "ln", "--x", "-1", "--method", "afd",
                     "--variant", "mc", "--h", "1e-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["stepavg: ln is undefined at x=-1.0"]


# --- bench ---

def bench_args(out_dir, extra=()):
    return ["bench", "--cases", "10,12", "--methods", "afd", "--samples",
            "200", "--h-grid", "1e-3:1e-5:10", "--out", str(out_dir), *extra]


def test_bench_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(bench_args(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["case_10.csv", "case_12.csv", "case_averaged.csv",
                     "shift_report.csv"]
    shift = (out / "shift_report.csv").read_text().splitlines()
    assert shift[0] == ("case_id,averaged,single,argmin_h_averaged,"
                        "argmin_h_single,direction")
    assert len(shift) == 5  # two averaged variants per case
    assert all(ln.split(",")[-1] in ("smaller", "equal", "larger")
               for ln in shift[1:])


def test_bench_output_is_byte_identical_across_runs(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(bench_args(out_a)) == 0
    assert main(bench_args(out_b)) == 0
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_bench_markdown_bolds_minima(tmp_path, capsys):
    out = tmp_path / "md"
    assert main(bench_args(out, extra=("--format", "md"))) == 0
    text = (out / "case_10.md").read_text()
    assert text.startswith("| h |")
    assert "**" in text


def test_bench_zero_samples_is_a_usage_error(tmp_path, capsys):
    assert main(["bench", "--samples", "0", "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["stepavg: n_samples must be >= 1, got 0"]
    assert not (tmp_path / "run").exists()


def test_bench_collapsed_ldi_window_is_an_inf_cell(tmp_path, capsys):
    # at x = 17.65, x +- h rounds to x for h = 1e-15 and 1e-16
    out = tmp_path / "run"
    assert main(["bench", "--cases", "4", "--methods", "ldi", "--samples", "50",
                 "--h-grid", "1e-14:1e-16:10", "--out", str(out)]) == 0
    table = load_error_table(out / "case_04.csv")
    assert table.row_labels == ("LDI", "LDI_AV")
    assert np.isfinite(table.cells[:, 0]).all()
    assert np.isinf(table.cells[:, 1:]).all()


def test_bench_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(bench_args(blocker)) == 3


# --- aggregate ---

def test_aggregate_packaged_fixtures_to_stdout(capsys):
    assert main(["aggregate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8"
    assert lines[1].startswith("AFD,2.1e-3,")
    assert len(lines) == 8


def test_aggregate_empty_fixture_directory_exits_2(tmp_path, capsys):
    assert main(["aggregate", "--fixtures", str(tmp_path)]) == 2


def test_aggregate_mismatched_fixtures_exit_2(tmp_path, capsys):
    (tmp_path / "one.csv").write_text("h,1e-3\nAFD,1.0e-1\n")
    (tmp_path / "two.csv").write_text("h,1e-3\nRE,1.0e-1\n")
    assert main(["aggregate", "--fixtures", str(tmp_path)]) == 2


def test_aggregate_writes_file_when_out_given(tmp_path, capsys):
    assert main(["aggregate", "--out", str(tmp_path / "agg")]) == 0
    text = (tmp_path / "agg" / "case_averaged.csv").read_text()
    assert text.splitlines()[0] == "h,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8"


def test_aggregate_accepts_bench_output_directory(tmp_path, capsys):
    # the natural round trip: bench into an output directory, then point
    # aggregate at it; the case_averaged and shift_report files must not
    # confuse the fixture loader.  Cells are compared loosely because the
    # CSV keeps two significant digits, so the re-aggregated mean can
    # move in the last displayed digit.
    out = tmp_path / "run"
    assert main(bench_args(out)) == 0
    bench_agg = load_error_table(out / "case_averaged.csv")
    capsys.readouterr()
    assert main(["aggregate", "--fixtures", str(out)]) == 0
    text = capsys.readouterr().out
    (tmp_path / "recomputed.csv").write_text(text)
    recomputed = load_error_table(tmp_path / "recomputed.csv")
    assert recomputed.row_labels == bench_agg.row_labels
    assert recomputed.col_labels == bench_agg.col_labels
    assert np.allclose(recomputed.cells, bench_agg.cells, rtol=0.1)


# --- scatter ---

def test_scatter_writes_one_point_per_case(tmp_path, capsys):
    assert main(["scatter", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scatter.csv").read_text().splitlines()
    assert lines[0] == "case_id,log10_d1,log10_d2"
    assert len(lines) == 20
    assert lines[16].startswith("16,0.0,")
