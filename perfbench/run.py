"""Seeded campaign benchmark for moprox.

    python3 perfbench/run.py --workload markowitz --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; moprox is imported from ``src/``.
With ``--trace 0`` the run times whole campaigns and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced campaigns and
prints the per-layer metrics, read from spans recorded around each layer's
public functions (see spans.py). Either way every campaign's outputs are
checked (see workloads.py), the environment is printed, and the last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(counted in solves; a solve fails when its campaign raised or failed the
check) and ``metrics``. A copy of the result, and in traced runs the spans
of the last traced campaign, go to ``perfbench/out/``.

Times are reported at a fixed reference speed. On a shared host the same
code runs up to twice as slow for minutes at a time, and all code alike. So
the run times a fixed reference probe, which runs no moprox code, about four
times a second between solves and after each campaign, takes those probes'
time out of the campaign times, and scales every time it reports, except
setup_s, by ``REFERENCE_S`` over the median probe time of the run. The
printout also gives the unscaled median campaign time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from spans import Tracer, layer_totals
from workloads import WORKLOADS, check_campaign, load_expected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "campaign_s": "s",
    "us_per_iter": "us",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
PER_LAYER_UNITS = {
    "bench.self_ms_per_trial": "ms/trial",
    "solvers.self_us_per_iter": "us/iter",
    "solvers.iterations": "count",
    "solvers.face_stops": "count",
    "bb.us_per_call": "us/call",
    "bb.self_us_per_iter": "us/iter",
    "direction.us_per_call": "us/call",
    "direction.self_us_per_iter": "us/iter",
    "direction.solves_per_iter": "1/iter",
    "direction.prox_per_iter": "1/iter",
    "prox.us_per_call": "us/call",
    "prox.calls_per_iter": "1/iter",
    "prox.self_us_per_iter": "us/iter",
    "problems.self_us_per_iter": "us/iter",
    "problems.calls_per_iter": "1/iter",
    "problems.F_evals_per_iter": "1/iter",
    "problems.grad_evals_per_iter": "1/iter",
    "linesearch.us_per_call": "us/call",
    "linesearch.self_us_per_iter": "us/iter",
    "linesearch.backtracks_per_iter": "1/iter",
    "trace_overhead": "ratio",
}

SETUP_REPEATS = 5
# a fresh interpreter times ``import moprox`` plus building the workload's
# instance; argv is (src dir, benchmark dir, workload name)
_SETUP_SCRIPT = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
t0 = time.perf_counter()
import moprox
workloads.WORKLOADS[sys.argv[3]].build()
print(repr(time.perf_counter() - t0))
"""


# reported times are those of a machine on which reference_probe takes this long
REFERENCE_S = 0.02
PROBE_EVERY_S = 0.25


def reference_probe():
    """Seconds for a fixed mix of Python calls and small numpy operations,
    the kind of work a moprox iteration does, on no moprox code."""
    v = np.linspace(-1.0, 1.0, 8)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(1200):
        u = np.sort(v)[::-1]
        acc += float(np.cumsum(u)[3]) + float(np.dot(u, v)) + sum(range(10))
        v = np.clip(v * 0.999, -1.0, 1.0)
    return perf_counter() - t0


class Probes:
    """Reference probes taken through a run; their median sets its speed."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent probing, to take out of campaign times
        self._last = perf_counter()

    def take(self):
        started = perf_counter()
        self.samples.append(reference_probe())
        self._last = perf_counter()
        self.spent += self._last - started

    def take_if_due(self):
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()

    @property
    def scale(self):
        return REFERENCE_S / statistics.median(self.samples)


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "cpu": cpu or platform.processor(),
    }


def measure_setup(workload_name):
    """Median over fresh interpreters of import plus instance build, in s.

    Not scaled by the reference probe: importing is file and page-fault work,
    which does not slow down with the probe. One interpreter runs first,
    untimed, so that bytecode caches are written."""
    command = [sys.executable, "-c", _SETUP_SCRIPT, SRC, HERE, workload_name]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        )
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail_percentile(solves_per_campaign):
    """The highest percentile with at least 10 of a campaign's solves beyond it."""
    return max(0.0, 100.0 * (1.0 - 10.0 / solves_per_campaign))


class Campaigns:
    """Runs and checks the campaigns of one benchmark run."""

    def __init__(self, workload, seed):
        from moprox import bench

        self.bench = bench
        self.workload = workload
        self.campaign_seed = workload.campaign_seed(seed)
        workload.register()
        self.spec = workload.spec(self.campaign_seed)
        self.problem = workload.build()
        self.expected = load_expected()
        self.solves = self.spec.trials * len(self.spec.algorithms)
        self.attempted = 0
        self.failed = 0
        self.hard = 0
        self.errors = []
        self.walls = []  # seconds per passing campaign, probes taken out
        self.probes = Probes()

    def warm_up(self):
        """One untimed one-trial campaign, so lazy imports and caches are done."""
        self.bench.run_campaign(self.workload.spec(self.campaign_seed, trials=1))

    def run(self, tracer=None):
        """Run, time and check one campaign; returns its summary, or None if it
        raised or failed the check."""
        self.attempted += self.solves
        probing = self.probes.spent
        try:
            started = perf_counter()
            if tracer is None:
                summary = self.bench.run_campaign(self.spec)
            else:
                with tracer:
                    summary = self.bench.run_campaign(self.spec)
            wall = perf_counter() - started - (self.probes.spent - probing)
        except Exception:
            traceback.print_exc()
            errors = ["campaign raised; traceback on stderr"]
        else:
            errors = check_campaign(
                self.workload, self.campaign_seed, summary, self.problem, self.expected
            )
        if errors:
            self.failed += self.solves
            self.hard += self.solves
            self.errors.extend(errors)
            return None
        self.hard += summary.hard_failures
        self.walls.append(wall)
        for _ in range(3):
            self.probes.take()
        return summary

    @property
    def fail_rate(self):
        return self.hard / self.attempted


def repeat_for(seconds, step):
    """Call step() until another call would likely end after ``seconds``.

    Always calls it once; stops early when it returns False.
    """
    started = perf_counter()
    costs = []
    while True:
        t0 = perf_counter()
        if not step():
            return
        costs.append(perf_counter() - t0)
        if perf_counter() - started + statistics.median(costs) > seconds:
            return


def untraced_run(campaigns, seconds):
    """End-to-end metrics (all but setup_s) and details for the printout:
    medians over the run's repeats of the campaign, scaled by the probes."""
    bench = campaigns.bench
    solve = bench.solve
    calls = []  # (algorithm, seconds) per solve() call of the current campaign

    def timed_solve(*args, **kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        t0 = perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            calls.append((cfg.algorithm, perf_counter() - t0))
            campaigns.probes.take_if_due()

    iterations = []
    solve_times = {}  # algorithm -> unscaled seconds per solve() call

    def step():
        calls.clear()
        summary = campaigns.run()
        if summary is None:
            return False
        iterations.append(sum(row["iterations"] for row in summary.raw))
        for algo, t in calls:
            solve_times.setdefault(algo, []).append(t)
        return True

    bench.solve = timed_solve
    try:
        campaigns.warm_up()
        repeat_for(seconds, step)
    finally:
        bench.solve = solve
    if not campaigns.walls:
        return None, {}
    scale = campaigns.probes.scale
    tail_p = tail_percentile(campaigns.solves)
    all_solves = [t for times in solve_times.values() for t in times]
    campaign_s = scale * statistics.median(campaigns.walls)
    metrics = {
        "campaign_s": campaign_s,
        "us_per_iter": 1e6 * campaign_s / iterations[0],
        # per algorithm first: with two algorithms whose solves differ 20x in
        # time (markowitz) a pooled median falls in the gap between them
        "solve_ms_p50": 1e3 * scale * statistics.median(
            statistics.median(times) for times in solve_times.values()
        ),
        "solve_ms_tail": 1e3 * scale * float(np.percentile(all_solves, tail_p)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - campaigns.fail_rate,
    }
    details = {
        "campaigns": len(campaigns.walls),
        "campaign_s_unscaled": statistics.median(campaigns.walls),
        "probes": len(campaigns.probes.samples),
        "probe_ms_median": 1e3 * statistics.median(campaigns.probes.samples),
        "iterations_per_campaign": iterations[0],
        "solve_ms_tail_percentile": tail_p,
        "solve_samples": len(all_solves),
    }
    return metrics, details


def layer_metrics(tracer, summary, scale):
    """Per-layer metrics of one traced campaign (all but trace_overhead),
    with span times multiplied by ``scale``."""
    totals = layer_totals(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    for entry in totals.values():
        entry["self_s"] *= scale
        entry["total_s"] *= scale
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    layer = {name: totals.get(name, empty) for name in
             ("bench", "solvers", "bb", "direction", "prox", "problems", "linesearch")}
    iters = sum(row["iterations"] for row in summary.raw)
    reports = [report for by_algo in summary.reports for report in by_algo.values()]

    def per_iter(value):
        return value / iters

    def per_call(name):
        calls = layer[name]["calls"]
        return 1e6 * layer[name]["total_s"] / calls if calls else 0.0

    return {
        "bench.self_ms_per_trial": 1e3 * layer["bench"]["self_s"] / summary.spec.trials,
        "solvers.self_us_per_iter": per_iter(1e6 * layer["solvers"]["self_s"]),
        "solvers.iterations": iters,
        "solvers.face_stops": sum(
            any("box face" in w for w in report.warnings) for report in reports
        ),
        "bb.us_per_call": per_call("bb"),
        "bb.self_us_per_iter": per_iter(1e6 * layer["bb"]["self_s"]),
        "direction.us_per_call": per_call("direction"),
        "direction.self_us_per_iter": per_iter(1e6 * layer["direction"]["self_s"]),
        "direction.solves_per_iter": per_iter(layer["direction"]["calls"]),
        "direction.prox_per_iter": per_iter(sum(row["prox_evals"] for row in summary.raw)),
        "prox.us_per_call": per_call("prox"),
        "prox.calls_per_iter": per_iter(layer["prox"]["calls"]),
        "prox.self_us_per_iter": per_iter(1e6 * layer["prox"]["self_s"]),
        "problems.self_us_per_iter": per_iter(1e6 * layer["problems"]["self_s"]),
        "problems.calls_per_iter": per_iter(layer["problems"]["calls"]),
        "problems.F_evals_per_iter": per_iter(sum(row["fevals"] for row in summary.raw)),
        "problems.grad_evals_per_iter": per_iter(sum(row["grad_evals"] for row in summary.raw)),
        "linesearch.us_per_call": per_call("linesearch"),
        "linesearch.self_us_per_iter": per_iter(1e6 * layer["linesearch"]["self_s"]),
        "linesearch.backtracks_per_iter": per_iter(
            sum(rec.backtracks for report in reports for rec in report.trace)
        ),
    }


def traced_run(campaigns, seconds, spans_path):
    """Per-layer metrics: medians over traced campaigns, scaled by the probes,
    each traced campaign paired with an untraced one for trace_overhead.
    Writes the (unscaled) spans of the last traced campaign."""
    untraced_walls, traced_walls, traced = [], [], []  # traced: (tracer, summary)

    def step():
        if campaigns.run() is None:
            return False
        untraced_walls.append(campaigns.walls[-1])
        tracer = Tracer()
        summary = campaigns.run(tracer)
        if summary is None:
            return False
        traced_walls.append(campaigns.walls[-1])
        traced.append((tracer, summary))
        return True

    campaigns.warm_up()
    repeat_for(seconds, step)
    if not traced:
        return None, {}
    scale = campaigns.probes.scale
    samples = [layer_metrics(tracer, summary, scale) for tracer, summary in traced]
    # median_low keeps the counts, which repeat exactly, whole numbers
    metrics = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
    metrics["trace_overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    tracer = traced[-1][0]
    tracer.write(spans_path, {"workload": campaigns.workload.name,
                              "campaign_seed": campaigns.campaign_seed})
    details = {
        "campaign_pairs": len(traced),
        "spans_in_last_campaign": len(tracer.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "moprox", "__init__.py")):
        print(f"error: no moprox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    env = environment()
    campaigns = Campaigns(workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, details = traced_run(
            campaigns, args.seconds, os.path.join(OUT, stem + "-spans.json.gz")
        )
        units = PER_LAYER_UNITS
    else:
        metrics, details = untraced_run(campaigns, args.seconds)
        if metrics is not None:
            metrics["setup_s"] = measure_setup(workload.name)
        units = END_TO_END_UNITS

    spec = campaigns.spec
    print(f"workload {workload.name}: problem {spec.problem}, algorithms "
          f"{','.join(spec.algorithms)}, {spec.trials} trials, campaign seed "
          f"{campaigns.campaign_seed} (--seed {args.seed})")
    print("environment " + json.dumps(env))
    for key, value in details.items():
        print(f"{key} {value}")
    correct = metrics is not None and not campaigns.errors
    for error in campaigns.errors[:20]:
        print(f"check error: {error}")
    print(f"check {'PASS' if correct else 'FAIL'}")
    if metrics is None:
        return 1
    print(f"fail_rate {campaigns.fail_rate!r} ratio")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": correct,
        "attempted": campaigns.attempted,
        "failed": campaigns.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(dict(result, environment=env, details=details, workload=workload.name,
                       campaign_seed=campaigns.campaign_seed), fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
