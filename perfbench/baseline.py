"""Run the benchmark in two sets of ten seeds and record medians and spreads.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each set runs run.py untraced once per seed 0-9 on every workload in
BENCHMARK.json, at its run_seconds; the second set starts after the first
has ended, so the pair shows how far the machine drifts between sets. A
metric's spread is the distance between the first and third quartile of
a set's values, as statistics.quantiles(values, n=4) gives them, divided
by their median. A spread that is not below a third of the metric's bound,
or a second median worse than the first by more than the bound, is flagged
and makes the exit status 1. One traced run per workload at seed 7 then
gives the per-layer numbers. --out writes every value with the run
manifest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
SEEDS = range(10)
SETS = 2
TRACE_SEED = 7


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["manifest"] = next(json.loads(line[len("manifest "):])
                              for line in lines if line.startswith("manifest "))
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output check: {proc.stderr}")
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def drift(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    record = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {w: {} for w in workloads}}
    steady = True
    for index in range(SETS):
        for workload in workloads:
            runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
            record.setdefault("manifest", runs[0]["manifest"])
            entry = {"attempted": [r["attempted"] for r in runs],
                     "failed": [r["failed"] for r in runs], "end_to_end": {}}
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                stats = spread([r["metrics"][name]["value"] for r in runs])
                entry["end_to_end"][name] = stats
                flags = []
                if stats["spread"] >= bound / 3:
                    flags.append("spread not below bound/3")
                if index > 0:
                    first = record["workloads"][workload]["sets"][0]["end_to_end"][name]
                    stats["drift"] = drift(first["median"], stats["median"], metric["better"])
                    if stats["drift"] > bound:
                        flags.append("median drifted past bound")
                steady = steady and not flags
                print(f"set {index + 1} {workload:10s} {name:12s} median {stats['median']:.6g}  "
                      f"spread {stats['spread']:.4f}  drift {stats.get('drift', 0):+.4f}  "
                      f"bound {bound}" + "".join(f"  <-- {flag}" for flag in flags), flush=True)
            record["workloads"][workload].setdefault("sets", []).append(entry)
    for workload in workloads:
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload].update(trace_seed=TRACE_SEED, per_layer=per_layer)
        print(f"{workload:10s} tracing overhead {per_layer['trace.overhead_frac']:+.2%} per op",
              flush=True)
    if args.out:
        with open(args.out, "w") as out:
            out.write(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
