"""One benchmark process: set up stepavg, run one workload, print a JSON result.

Invoked by run.py as

    python3 worker.py SRC_DIR START_NS CONFIG_JSON

START_NS is the parent's time.perf_counter_ns() (CLOCK_MONOTONIC, shared
by all processes) taken just before this process was spawned, so set-up
time counts from process start. Nothing but sys and time is imported
before stepavg: numpy's import is part of stepavg's set-up cost.
"""

import sys
import time


def _setup(src: str, start_ns: int) -> float:
    sys.path.insert(0, src)
    import stepavg
    from stepavg.functions import case_table

    case_table()
    elapsed = (time.perf_counter_ns() - start_ns) / 1e9
    if not stepavg.__file__.startswith(src):
        raise SystemExit(f"perfbench: imported stepavg from {stepavg.__file__}, not {src}")
    return elapsed


def main() -> int:
    src, start_ns, config = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    setup_s = _setup(src, start_ns)

    import json

    config = json.loads(config)
    if config["workload"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    result = workloads.run(config)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
