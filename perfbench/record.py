"""Record the campaign means that the benchmark's output check compares with.

    python3 perfbench/record.py [workload ...]

Runs each campaign seed of the named workloads (default: all) once and
rewrites their entries in expected.json. Re-record only for a change meant to
move iteration or F-evaluation means, and say so where the change is
described. A recorded campaign must itself pass the rest of the check.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from run import SRC
from workloads import EXPECTED_PATH, WORKLOADS, check_campaign, summary_means


def record(workload):
    from moprox.bench import run_campaign

    workload.register()
    problem = workload.build()
    entry = {"trials": workload.trials, "algorithms": list(workload.algorithms), "seeds": {}}
    for seed in workload.seeds:
        started = perf_counter()
        summary = run_campaign(workload.spec(seed))
        wall = perf_counter() - started
        entry["seeds"][str(seed)] = summary_means(summary)
        errors = check_campaign(workload, seed, summary, problem, {workload.name: entry})
        if errors:
            raise SystemExit(f"{workload.name} seed {seed}: " + "; ".join(errors))
        iters = sum(row["iterations"] for row in summary.raw)
        print(f"{workload.name} seed {seed}: {wall:.2f} s, {iters} iterations", flush=True)
    return entry


def main(names):
    sys.path.insert(0, SRC)
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh)
    for name in names or sorted(WORKLOADS):
        expected[name] = record(WORKLOADS[name])
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
