"""stepavg benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload {desk,paper,pointwise} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the stepavg sources are taken from ``src/`` next to
this directory, and the program exits 2 without a result when they are
missing. Each invocation spawns one fresh interpreter that sets up (imports
stepavg and builds the case table) and runs the workload for at most about
S seconds (at least one operation; no operation starts that the last one's
duration says would end past S), so peak RSS and set-up time belong to
that workload alone. SETUP_PROBES more fresh interpreters only set up, half
before the workload and half after it, so that the median set-up time
samples the machine over the same window as the workload. All work is one
closed loop with one caller; BLAS keeps its default thread count.

Workloads:
  desk       ``stepavg bench`` with its defaults (19 cases x 7 variants x 6
             steps, N = 1e4), passes back to back. Its largest array, the
             1.3 MB LDI node matrix, fits in L3: compute cost per cell.
  paper      the same with --paper-scale (N = 1e6): a 128 MB node matrix,
             at least 4x L3, so memory traffic, fsum over 1e6 values and
             Horner over 8e6 points dominate. One pass is about 30 s.
  pointwise  a seeded stream of single ``averaged_derivative`` calls
             (function, x, method, strategy, quadrature, h log-uniform in
             [1e-9, 1e-2], N log-uniform in [2, 1000]): the fixed cost of a
             call (validation, step generation, dispatch, small reductions).

An operation is a bench pass on desk and paper and a call on pointwise.
With --trace 0 the result holds the end-to-end metrics: median operation
latency, operations per second, peak RSS and set-up time. The lines above
it name them as the workload reads them (bench_wall_s; calls_per_s,
call_p50_us) with sample counts, and add call_p99_us on pointwise and
failed_frac everywhere, which are reported but not bounded. With
--trace 1 the run alternates untraced and traced operations; hooks on each
layer's public functions (spans.py) give per-layer busy and self times and
work counts per traced operation, plus the tracing overhead.

Every operation's output is checked against digests in expected.json
(regenerate with record.py only when a change is meant to alter output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

WORKLOADS = ("desk", "paper", "pointwise")
# The program's own seed (bench --seed; the pointwise stream seed) is the
# workload seed modulo this, so every run is checked against a digest
# recorded in expected.json, whatever seed it is given.
RECORDED_SEEDS = 12
SETUP_PROBES = 40
# Nominal wall time of one operation at the baseline (a block of calls on
# pointwise). The workload process may overrun --seconds by the operations
# a run must make (one, two when traced) or by one that starts just before
# the end, so its timeout allows 3x their nominal time, at least 60 s.
NOMINAL_OP_S = {"desk": 0.4, "paper": 31.0, "pointwise": 0.7}

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_COUNT = "count/op"
PER_LAYER = {
    "averaging.compensated_mean.calls": _COUNT,
    "averaging.compensated_mean.busy_s": "s/op",
    "averaging.compensated_mean.values": _COUNT,
    "averaging.averaged_derivative.calls": _COUNT,
    "averaging.averaged_derivative.self_s": "s/op",
    "averaging.make_steps.calls": _COUNT,
    "averaging.make_steps.busy_s": "s/op",
    "averaging.make_steps.steps": _COUNT,
    "diffcore.boole16.self_s": "s/op",
    "diffcore.boole16.nodes": _COUNT,
    "diffcore.boole16.node_bytes": "B_computed/op",
    "diffcore.ldi.self_s": "s/op",
    "diffcore.ldi.estimates": _COUNT,
    "diffcore.afd.self_s": "s/op",
    "diffcore.afd.estimates": _COUNT,
    "diffcore.richardson5.self_s": "s/op",
    "diffcore.richardson5.estimates": _COUNT,
    **{f"functions.{fn}.{kind}": unit
       for fn in ("cos", "exp", "ln", "atan", "laguerre7")
       for kind, unit in (("busy_s", "s/op"), ("points", _COUNT))},
    "bench.run_case.calls": _COUNT,
    "bench.run_case.self_s": "s/op",
    "bench.substream_seed.calls": _COUNT,
    "bench.substream_seed.busy_s": "s/op",
    "bench.render.calls": _COUNT,
    "bench.render.busy_s": "s/op",
    "bench.render.bytes": "B/op",
    "cli.main.self_s": "s/op",
    "bench.inf_cells": _COUNT,
    "bench.wasted_estimates": _COUNT,
    "trace.untraced_op_s": "s/op",
    "trace.traced_op_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.overhead_frac": "ratio",
}


_PLURAL = {"pass": "passes", "call": "calls"}


class WorkerError(RuntimeError):
    """A benchmark subprocess failed, timed out or printed no result."""


def spawn_worker(config: dict, timeout: float) -> dict:
    """Run worker.py with config in a fresh interpreter; return its JSON."""
    argv = [sys.executable, str(WORKER), str(SRC)]
    start_ns = time.perf_counter_ns()
    with subprocess.Popen(argv + [str(start_ns), json.dumps(config)],
                          stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{config['workload']} worker exceeded {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{config['workload']} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD's commit id, or None outside a git checkout."""
    if not (ROOT / ".git").exists():   # keep git from finding an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/stepavg (relative paths and bytes): the code measured."""
    digest = hashlib.sha256()
    package = SRC / "stepavg"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def l3_size() -> str | None:
    """L3 size of cpu0 as the kernel reports it, e.g. '32768K'."""
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def manifest(args, result: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.seed % RECORDED_SEEDS,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": result["params"],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3": l3_size(),
    }


def print_end_to_end(result: dict, setups: list) -> dict:
    latency, unit = result["latency_s"], result["unit"]
    n = latency["count"]
    rss_mb = result["peak_rss_kb"] / 1024
    setup_s = statistics.median(setups)
    if unit == "pass":
        print(f"bench_wall_s  {latency['p50']:.6g} s  median of {n} passes "
              f"(p25 {latency['p25']:.6g}, p75 {latency['p75']:.6g})")
    else:
        print(f"calls_per_s   {result['ops_per_s']:.6g} 1/s  over {n} calls")
        print(f"call_p50_us   {latency['p50'] * 1e6:.6g} us  of {n} calls")
        print(f"call_p99_us   {latency['p99'] * 1e6:.6g} us  of {n} calls")
    print(f"peak_rss_mb   {rss_mb:.6g} MB  workload process")
    print(f"setup_s       {setup_s:.6g} s  median of {len(setups)} process starts")
    print(f"failed_frac   {result['failed'] / result['attempted']:.6g}  "
          f"{result['failed']} of {result['attempted']} {_PLURAL[unit]}")
    return {
        "op_p50_s": latency["p50"],
        "ops_per_s": result["ops_per_s"],
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def print_per_layer(result: dict) -> dict:
    trace = result["trace"]
    layers = dict(trace["layers"])
    overhead = trace["traced_op_s"] - trace["untraced_op_s"]
    layers["trace.untraced_op_s"] = trace["untraced_op_s"]
    layers["trace.traced_op_s"] = trace["traced_op_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / trace["untraced_op_s"]
    unit = result["unit"]
    print(f"tracing overhead {overhead:.6g} s per {unit} ({layers['trace.overhead_frac']:+.2%}): "
          f"{trace['traced_ops']} traced vs {trace['untraced_ops']} untraced {_PLURAL[unit]}")
    print(f"per {unit} (traced):")
    for name in sorted(layers):
        print(f"  {name:44s} {layers[name]:.6g}")
    print("call edges, per traced op (parent -> child: calls, busy s):")
    for edge in trace["edges"]:
        print(f"  {edge['parent'] or '(benchmark)'} -> {edge['child']}: "
              f"{edge['calls']:.6g}, {edge['busy_s']:.6g}")
    print("hook sites: " + json.dumps(trace["sites"], sort_keys=True))
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stepavg" / "__init__.py").is_file():
        print(f"perfbench: no stepavg sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    min_ops = 2 if args.trace else 1
    timeout = args.seconds + max(60.0, 3 * min_ops * NOMINAL_OP_S[args.workload])
    def probe_setups(count):
        return [spawn_worker({"workload": "setup"}, 30.0)["setup_s"] for _ in range(count)]

    try:
        setups = probe_setups(SETUP_PROBES // 2)
        config = {"workload": args.workload, "input_seed": args.seed % RECORDED_SEEDS,
                  "seconds": args.seconds, "trace": args.trace, "work_dir": str(work)}
        result = spawn_worker(config, timeout)
        setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    setups.append(result["setup_s"])

    print(f"perfbench {args.workload} seed {args.seed}: "
          f"{result['attempted']} {_PLURAL[result['unit']]}, output digest {result['digest']}")
    print("manifest " + json.dumps(manifest(args, result), sort_keys=True))
    if result["capped"]:
        print(f"note: stopped at the pointwise block cap before {args.seconds} s")
    if args.trace:
        metrics = print_per_layer(result)
        units = PER_LAYER
    else:
        metrics = print_end_to_end(result, setups)
        units = END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
