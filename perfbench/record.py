"""Regenerate expected.json: the output digests of every recorded seed.

    python3 perfbench/record.py

desk and paper record the sha256 of one bench pass's CSVs per seed;
pointwise records the truncated sha256 of every block of its call stream,
up to the block cap. Run it only for a change that is meant to alter the
program's output, and say so with the change: a benchmark run fails every
operation whose digest differs from the recorded one. The paper seeds take
about 30 s each and the pointwise seeds about a minute each.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

_SECONDS = {"desk": 0, "paper": 0, "pointwise": 1e9}   # one pass; every block


def record(workload: str, seed: int):
    work = run.WORK / f"record_{workload}_{seed}"
    config = {"workload": workload, "input_seed": seed, "seconds": _SECONDS[workload],
              "trace": 0, "record": True, "work_dir": str(work)}
    try:
        return run.spawn_worker(config, timeout=900.0)["record"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    path = run.HERE / "expected.json"
    expected = {workload: {str(seed): record(workload, seed)
                           for seed in range(run.RECORDED_SEEDS)}
                for workload in run.WORKLOADS}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(run.WORKLOADS) * run.RECORDED_SEEDS} digests in {path}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
