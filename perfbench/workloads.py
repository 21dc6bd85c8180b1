"""The workloads, their correctness checks and their measurements.

desk and paper time whole ``stepavg bench`` passes through the in-process
CLI entry point, each pass writing to a fresh directory whose CSVs are
hashed in name order with sha256. pointwise times single
``averaged_derivative`` calls drawn from a seeded stream, in blocks of
BLOCK_CALLS; each block's means (float64 bytes, in call order) are hashed.
Every digest is compared with the one recorded in expected.json.

config["input_seed"] is the CLI seed on desk and paper and the stream
seed on pointwise; run.py maps every workload seed onto one of the
recorded input seeds. A traced run alternates untraced and traced operations,
so its tracing overhead is measured under the same conditions.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import math
import shutil
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from stepavg import averaging, cli, diffcore, functions

import spans

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

BENCH_FLAGS = {"desk": (), "paper": ("--paper-scale",)}

BLOCK_CALLS = 16384
# Caps a pointwise run at ~2.1M calls, ~2x what a 30 s run makes at the
# baseline rate (~33k calls/s); expected.json holds a digest for each block.
MAX_BLOCKS = 128
# Call latencies go into a histogram with HIST_STEPS log-spaced buckets per
# doubling (0.54% wide) from 1 ns to 2**32 ns, so peak RSS does not grow
# with the number of calls made; percentiles interpolate within a bucket.
HIST_STEPS = 128
HIST_BUCKETS = 32 * HIST_STEPS

# (registry name, lowest x, highest x); ln stays >= 0.05 so that the
# widest stencil, x - 2 * 1.5 * 1e-2, is still inside its domain.
POINT_FUNCTIONS = (("cos", -10.0, 10.0), ("exp", -10.0, 10.0), ("ln", 0.05, 20.0),
                   ("atan", -10.0, 10.0), ("laguerre7", 0.0, 20.0))
POINT_METHODS = ("AFD", "RE", "LDI")
POINT_STRATEGIES = ("single", "mc", "ed", "lds")
POINT_QUADRATURES = ("paper", "corrected")
POINT_H = (-9.0, -2.0)        # log10 range of the nominal step
POINT_N = (2, 1000)           # range of the sample count, drawn log-uniform


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------- desk, paper

def bench_argv(workload: str, seed: int, out: Path) -> list:
    return ["bench", "--seed", str(seed), *BENCH_FLAGS[workload], "--out", str(out)]


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def bench_pass(workload: str, seed: int, out: Path):
    """Time one in-process bench pass; return (wall s, exit code, digest)."""
    argv = bench_argv(workload, seed, out)
    with redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    digest = output_digest(out) if code == 0 else None
    shutil.rmtree(out, ignore_errors=True)
    return wall, code, digest


def run_bench(config: dict, tracer) -> dict:
    workload, seed = config["workload"], config["input_seed"]
    expected = None if config.get("record") else load_expected()[workload][str(seed)]
    work = Path(config["work_dir"])
    passes = {False: [], True: []}
    failed = 0
    deadline = time.perf_counter() + config["seconds"]
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        with spans.installed(tracer) if traced else nullcontext():
            wall, code, digest = bench_pass(workload, seed, work / f"pass_{index}")
        passes[traced].append(wall)
        if code != 0 or (expected is not None and digest != expected):
            failed += 1
            print(f"perfbench: {workload} pass {index} failed: exit {code}, "
                  f"digest {digest} != expected {expected}", file=sys.stderr)
        index += 1
        if time.perf_counter() + wall > deadline and (tracer is None or index >= 2):
            break
    return {
        "peak_rss_kb": peak_rss_kb(),
        "params": {"argv": bench_argv(workload, seed, Path("OUT"))},
        "unit": "pass",
        "attempted": index,
        "failed": failed,
        "digest": digest,
        "walls": {traced: [sum(w), len(w)] for traced, w in passes.items()},
        "latency_s": percentile_summary(np.array(passes[False])),
    }


# ------------------------------------------------------------------ pointwise

def pointwise_block(seed: int, block: int) -> list:
    """The block-th BLOCK_CALLS call arguments of the stream for seed."""
    rng = np.random.default_rng([seed, block])
    size = BLOCK_CALLS
    fn = rng.integers(len(POINT_FUNCTIONS), size=size)
    lo = np.array([f[1] for f in POINT_FUNCTIONS])
    hi = np.array([f[2] for f in POINT_FUNCTIONS])
    x = lo[fn] + (hi - lo)[fn] * rng.random(size)
    method = rng.integers(len(POINT_METHODS), size=size)
    kind = rng.integers(len(POINT_STRATEGIES), size=size)
    quad = rng.integers(len(POINT_QUADRATURES), size=size)
    h = 10.0 ** rng.uniform(*POINT_H, size)
    n = np.rint(10.0 ** rng.uniform(math.log10(POINT_N[0]), math.log10(POINT_N[1]), size))
    mc_seed = rng.integers(2**62, size=size)

    fids = [functions.FunctionId(f[0]) for f in POINT_FUNCTIONS]
    methods = [diffcore.MethodId(m) for m in POINT_METHODS]
    kinds = [averaging.StrategyKind(k) for k in POINT_STRATEGIES]
    quads = [diffcore.QuadratureMode(q) for q in POINT_QUADRATURES]
    single = averaging.StrategyKind.SINGLE
    calls = []
    for f, xv, m, k, q, hv, nv, sv in zip(fn.tolist(), x.tolist(), method.tolist(),
                                          kind.tolist(), quad.tolist(), h.tolist(),
                                          n.astype(np.int64).tolist(), mc_seed.tolist()):
        strategy = kinds[k]
        calls.append((methods[m], fids[f], xv, hv, strategy,
                      1 if strategy is single else nv, sv, quads[q]))
    return calls


def run_pointwise(config: dict, tracer) -> dict:
    seed = config["input_seed"]
    expected = None if config.get("record") else load_expected()["pointwise"][str(seed)]
    histogram = np.zeros(HIST_BUCKETS, dtype=np.int64)
    block_ns = np.empty(BLOCK_CALLS, dtype=np.int64)
    means = np.empty(BLOCK_CALLS)
    stream = hashlib.sha256()
    block_digests = []
    walls = {False: [0.0, 0], True: [0.0, 0]}   # [wall s, calls] per traced flag
    clock = time.perf_counter_ns
    failed = count = 0
    capped = False
    deadline = time.perf_counter() + config["seconds"]
    for block in range(MAX_BLOCKS):
        began = time.perf_counter()
        calls = pointwise_block(seed, block)
        traced = tracer is not None and block % 2 == 1
        with spans.installed(tracer) if traced else nullcontext():
            handles = {fid: functions.function_handle(fid) for fid in functions.FunctionId}
            average = averaging.averaged_derivative
            strategy = averaging.StepStrategy
            errors = 0
            block_start = clock()
            for j, (method, fid, x, h, kind, n, mc_seed, quad) in enumerate(calls):
                f = handles[fid]
                start = clock()
                try:
                    means[j] = average(method, f, x, h, strategy(kind, n, mc_seed), quad).mean
                except Exception:
                    means[j] = math.nan
                    errors += 1
                block_ns[j] = clock() - start
            walls[traced][0] += (clock() - block_start) / 1e9
            walls[traced][1] += len(calls)
        count += len(calls)
        if not traced:
            histogram += np.bincount(histogram_bucket(block_ns), minlength=HIST_BUCKETS)
        raw = means.tobytes()
        stream.update(raw)
        digest = hashlib.sha256(raw).hexdigest()[:16]
        block_digests.append(digest)
        if expected is not None and digest != expected[block]:
            failed += len(calls)
            print(f"perfbench: pointwise block {block} failed ({errors} raised): "
                  f"digest {digest} != expected {expected[block]}", file=sys.stderr)
        else:
            failed += errors
        now = time.perf_counter()
        if now + (now - began) > deadline and (tracer is None or block >= 1):
            break
    else:
        capped = True
    return {
        "peak_rss_kb": peak_rss_kb(),
        "params": {"stream_seed": seed, "block_calls": BLOCK_CALLS, "max_blocks": MAX_BLOCKS,
                   "functions": POINT_FUNCTIONS, "log10_h": POINT_H, "n": POINT_N},
        "unit": "call",
        "attempted": count,
        "failed": failed,
        "capped": capped,
        "digest": stream.hexdigest(),
        "block_digests": block_digests,
        "walls": walls,
        "latency_s": histogram_summary(histogram),
    }


# ----------------------------------------------------------------- reporting

def percentile_summary(values: np.ndarray) -> dict:
    return {"count": int(values.size),
            "p25": float(np.percentile(values, 25)),
            "p50": float(np.percentile(values, 50)),
            "p75": float(np.percentile(values, 75)),
            "p99": float(np.percentile(values, 99))}


def histogram_bucket(ns: np.ndarray) -> np.ndarray:
    log2 = np.log2(np.maximum(ns, 1))
    return np.minimum((log2 * HIST_STEPS).astype(np.int64), HIST_BUCKETS - 1)


def histogram_percentile(histogram: np.ndarray, q: float) -> float:
    """The q-th percentile in seconds, interpolated linearly inside its bucket."""
    cumulative = np.cumsum(histogram)
    target = q / 100 * cumulative[-1]
    bucket = int(np.searchsorted(cumulative, target))
    inside = (target - (cumulative[bucket] - histogram[bucket])) / histogram[bucket]
    lo, hi = 2.0 ** (bucket / HIST_STEPS), 2.0 ** ((bucket + 1) / HIST_STEPS)
    return float(lo + (hi - lo) * inside) / 1e9


def histogram_summary(histogram: np.ndarray) -> dict:
    summary = {f"p{q}": histogram_percentile(histogram, q) for q in (25, 50, 75, 99)}
    return {"count": int(histogram.sum()), **summary}


def layer_metrics(tracer, ops: int) -> dict:
    """Per-span and per-counter totals divided by the traced op count."""
    metrics = {}
    for name, totals in tracer.spans.items():
        metrics[f"{name}.calls"] = totals.calls / ops
        metrics[f"{name}.busy_s"] = totals.busy_ns / 1e9 / ops
        metrics[f"{name}.self_s"] = totals.self_ns / 1e9 / ops
    for name, value in tracer.counts.items():
        metrics[name] = value / ops
    metrics["diffcore.boole16.node_bytes"] = metrics.get("diffcore.boole16.nodes", 0) * 8
    return metrics


def blas_info() -> dict:
    """OpenBLAS build version and the thread count it runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def peak_rss_kb() -> int:
    """VmHWM of this process: its RSS high-water mark since exec.

    Read as soon as the last operation ends, before the run's own
    summarising allocates anything."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(config: dict) -> dict:
    """Run one workload in this process and summarise it."""
    tracer = spans.Tracer() if config["trace"] else None
    runner = run_pointwise if config["workload"] == "pointwise" else run_bench
    raw = runner(config, tracer)
    result = {key: raw[key] for key in
              ("params", "unit", "attempted", "failed", "digest", "peak_rss_kb")}
    result["capped"] = raw.get("capped", False)
    result["numpy"] = np.__version__
    result["blas"] = blas_info()
    if config.get("record"):
        result["record"] = raw.get("block_digests", raw["digest"])
        return result
    (untraced_s, untraced_ops), (traced_s, traced_ops) = raw["walls"][False], raw["walls"][True]
    if tracer is None:
        result["latency_s"] = raw["latency_s"]
        result["ops_per_s"] = untraced_ops / untraced_s
        return result
    result["trace"] = {
        "untraced_op_s": untraced_s / untraced_ops, "untraced_ops": untraced_ops,
        "traced_op_s": traced_s / traced_ops, "traced_ops": traced_ops,
        "layers": layer_metrics(tracer, traced_ops),
        "edges": [{"parent": parent, "child": child, "calls": t.calls / traced_ops,
                   "busy_s": t.busy_ns / 1e9 / traced_ops}
                  for (parent, child), t in sorted(tracer.edges.items(),
                                                   key=lambda e: (e[0][0] or "", e[0][1]))],
        "sites": tracer.sites,
    }
    return result
