"""Benchmark campaigns and the ``bench`` command line.

A campaign fixes one problem instance (for the random quadratic family the
instance is drawn once from the campaign seed), samples one start point per
trial, runs every solver mode from the same starts, then aggregates per-mode
means and exports CSV/SVG artifacts. Everything is seeded: rerunning a
campaign reproduces the result files byte for byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .prox import SimplexIndicator
from .solvers import SolverConfig, solve
from .svg import scatter_svg
from .testproblems import (
    QuadraticSpec,
    available_problems,
    get_problem,
    markowitz_portfolio,
    random_quadratic,
)

_HARD_FAILURES = ("line_search_failure", "dual_failure", "evaluation_failure")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    algorithms: tuple
    trials: int = 200
    seed: int = 0
    d_tol: float = 1e-6
    max_iters: int = 500
    jobs: int = 1
    start_sampling: str = "auto"      # auto | box | simplex
    markowitz_returns: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.start_sampling not in ("auto", "box", "simplex"):
            raise ValueError("start_sampling must be auto, box or simplex")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))


@dataclass
class ExperimentSummary:
    spec: ExperimentSpec
    problem_name: str
    n: int
    m: int
    rows: list                 # one dict per algorithm (the summary table)
    raw: list                  # one dict per (trial, algorithm)
    pareto: list               # final objective vectors per (trial, algorithm)
    reports: list = field(repr=False, default_factory=list)
    # reports[trial][algo] -> SolveReport, kept for diagnostics

    @property
    def hard_failures(self):
        return sum(1 for r in self.raw if r["status"] in _HARD_FAILURES)


def algo_config(token, d_tol=1e-6, max_iters=500):
    """Translate a CLI algorithm token (name[:key=value,...]) to a config."""
    name, _, params = token.partition(":")
    kwargs = {}
    if params:
        for piece in params.split(","):
            key, _, value = piece.partition("=")
            if key not in ("ell", "tau"):
                raise ValueError(f"unknown algorithm parameter {key!r} in {token!r}")
            kwargs[key] = float(value)
    return SolverConfig(
        algorithm=name, d_tol=d_tol, max_iters=max_iters, **kwargs
    )


def _parse_quadratic_token(token):
    fields = {}
    body = token.split(":", 1)[1] if ":" in token else ""
    for piece in filter(None, body.split(",")):
        key, _, value = piece.partition("=")
        fields[key] = value
    if "n" not in fields:
        raise ValueError("quadratic problems need n=<dim>, e.g. quadratic:n=10")
    n = int(fields.pop("n"))
    xl = float(fields.pop("xl", -2.0))
    xu = float(fields.pop("xu", 2.0))
    g_kind = fields.pop("g", "l1")
    if fields:
        raise ValueError(f"unknown quadratic fields: {sorted(fields)}")
    return QuadraticSpec(n=n, xl=xl, xu=xu, g_kind=g_kind)


def _child_seed(spec, i):
    """Child i of the campaign seed: SeedSequence(seed).spawn(trials + 1)[i],
    built directly so a campaign does not spawn every child per trial."""
    return np.random.SeedSequence(spec.seed, spawn_key=(i,))


def _campaign_problem(spec):
    """The fixed instance every trial solves; seeded for the random family."""
    token = spec.problem
    if token.startswith("quadratic"):
        qspec = _parse_quadratic_token(token)
        instance_rng = np.random.default_rng(_child_seed(spec, 0))
        return random_quadratic(qspec, instance_rng)
    if token == "markowitz" and spec.markowitz_returns:
        return markowitz_portfolio(spec.markowitz_returns)
    return get_problem(token)


def _sample_start(problem, sampling, rng):
    if sampling == "auto":
        if isinstance(problem.nonsmooth, SimplexIndicator):
            sampling = "simplex"
        else:
            sampling = "box"
    if sampling == "simplex":
        return rng.dirichlet(np.ones(problem.n))
    if problem.bounds is None:
        raise ValueError(
            "box sampling needs bounds; give the problem a box or use simplex"
        )
    lo, hi = problem.bounds
    return rng.uniform(lo, hi)


def _run_trial(spec, trial, problem=None):
    """One trial: the campaign instance, one start, one solve per algorithm."""
    if problem is None:
        problem = _campaign_problem(spec)
    rng = np.random.default_rng(_child_seed(spec, trial + 1))
    x0 = _sample_start(problem, spec.start_sampling, rng)
    x0_hash = hashlib.sha1(x0.tobytes()).hexdigest()[:12]

    raw_rows = []
    pareto_rows = []
    reports = {}
    for token in spec.algorithms:
        cfg = algo_config(token, d_tol=spec.d_tol, max_iters=spec.max_iters)
        report = solve(problem, x0, cfg)
        reports[token] = report
        raw_rows.append(
            {
                "trial": trial,
                "algo": token,
                "x0_hash": x0_hash,
                "status": report.status,
                "iterations": report.iterations,
                "fevals": report.counters.F_evals,
                "grad_evals": report.counters.grad_evals,
                "prox_evals": report.counters.prox_evals,
                "stepsize_mean": report.stepsize_mean,
                "time_ms": report.total_time * 1000.0,
            }
        )
        row = {"trial": trial, "algo": token}
        for i, Fi in enumerate(report.F, start=1):
            row[f"F{i}"] = float(Fi)
        if problem.n == 2:
            for j, xj in enumerate(report.x, start=1):
                row[f"x{j}"] = float(xj)
        pareto_rows.append(row)
    return problem.n, problem.m, problem.name, raw_rows, pareto_rows, reports


def _trial_worker(args):
    spec_dict, trial = args
    return _run_trial(ExperimentSpec(**spec_dict), trial)


def run_campaign(spec):
    """Execute all trials; deterministic for a fixed spec (any jobs value)."""
    # validate algorithm tokens and the problem before paying for any solves
    for token in spec.algorithms:
        algo_config(token, spec.d_tol, spec.max_iters)
    problem = _campaign_problem(spec)

    if spec.jobs > 1:
        payload = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(
                pool.map(_trial_worker, [(payload, t) for t in range(spec.trials)])
            )
    else:
        outcomes = [_run_trial(spec, t, problem) for t in range(spec.trials)]

    n, m, problem_name = outcomes[0][0], outcomes[0][1], outcomes[0][2]
    raw = [row for outcome in outcomes for row in outcome[3]]
    pareto = [row for outcome in outcomes for row in outcome[4]]
    reports = [outcome[5] for outcome in outcomes]

    rows = []
    for token in spec.algorithms:
        runs = [r for r in raw if r["algo"] == token]
        included = [r for r in runs if r["status"] not in _HARD_FAILURES]
        failures = sum(1 for r in runs if r["status"] != "critical_point")

        def _mean(key, rows=included):
            vals = [r[key] for r in rows]
            return float(np.nanmean(vals)) if vals else float("nan")

        rows.append(
            {
                "algo": token,
                "iter_mean": _mean("iterations"),
                "feval_mean": _mean("fevals"),
                "time_ms_mean": _mean("time_ms"),
                "stepsize_mean": _mean("stepsize_mean"),
                "failures": failures,
            }
        )
    return ExperimentSummary(
        spec=spec,
        problem_name=problem_name,
        n=n,
        m=m,
        rows=rows,
        raw=raw,
        pareto=pareto,
        reports=reports,
    )


def _fmt_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt_cell(row[name]) for name in fieldnames])


def export_results(summary, out_dir):
    """Write summary/runs/pareto CSVs plus scatter SVGs; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    # the row dicts built by run_campaign and _run_trial fix the column order
    for name, rows in (("summary.csv", summary.rows), ("runs.csv", summary.raw)):
        path = os.path.join(out_dir, name)
        _write_csv(path, list(rows[0]), rows)
        written.append(path)

    pareto_fields = ["trial", "algo"] + [f"F{i}" for i in range(1, summary.m + 1)]
    if summary.n == 2:
        pareto_fields += ["x1", "x2"]
    path = os.path.join(out_dir, "pareto.csv")
    _write_csv(path, pareto_fields, summary.pareto)
    written.append(path)

    scatters = []
    if summary.m == 2:
        scatters.append(("values", "F1", "F2", "value space"))
    else:
        print(
            f"note: {summary.m} objectives; value-space scatter is only drawn "
            "for two",
            file=sys.stderr,
        )
    if summary.n == 2:
        scatters.append(("variables", "x1", "x2", "variable space"))
    for stem, xkey, ykey, title in scatters:
        series = {}
        for token in summary.spec.algorithms:
            pts = [r for r in summary.pareto if r["algo"] == token]
            series[token] = ([r[xkey] for r in pts], [r[ykey] for r in pts])
        path = os.path.join(out_dir, f"pareto_{stem}.svg")
        with open(path, "w") as fh:
            fh.write(scatter_svg(series, xkey, ykey, f"{summary.problem_name}: {title}"))
        written.append(path)
    return written


def _print_summary(summary, elapsed):
    cols = list(summary.rows[0])
    widths = {c: len(c) + 4 for c in cols}
    widths["algo"] = max(len(r["algo"]) for r in summary.rows) + 2
    header = "".join(c.ljust(widths[c]) for c in cols)
    print(f"problem {summary.problem_name}  n={summary.n} m={summary.m}  "
          f"trials={summary.spec.trials} seed={summary.spec.seed}")
    print(header)
    print("-" * len(header))
    for row in summary.rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append((f"{v:.4g}" if isinstance(v, float) else str(v)).ljust(widths[c]))
        print("".join(cells))
    print(f"campaign wall time {elapsed:.2f} s")


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "problem": str,
    "algos": str,
    "trials": int,
    "seed": int,
    "out": str,
    "jobs": int,
    "d_tol": float,
    "max_iters": int,
    "start_sampling": str,
    "markowitz_returns": str,
}


# unset options fall back to ExperimentSpec's defaults; the rest to None
_SPEC_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentSpec) if f.default is not MISSING
}


def _merged_options(args):
    """CLI flags override config-file values; both override defaults."""
    config = _load_config_file(args.config) if args.config else {}
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, cast in _CONFIG_KEYS.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = cast(config[key])
        else:
            merged[key] = _SPEC_DEFAULTS.get(key)
    if not merged["problem"]:
        raise ValueError("a problem is required (flag --problem or config)")
    if not merged["algos"]:
        raise ValueError("algorithms are required (flag --algos or config)")
    return merged


def _cmd_run(args):
    opts = _merged_options(args)
    spec = ExperimentSpec(
        problem=opts["problem"],
        algorithms=tuple(tok.strip() for tok in opts["algos"].split(",") if tok.strip()),
        trials=opts["trials"],
        seed=opts["seed"],
        d_tol=opts["d_tol"],
        max_iters=opts["max_iters"],
        jobs=opts["jobs"],
        start_sampling=opts["start_sampling"],
        markowitz_returns=opts["markowitz_returns"],
    )
    started = time.perf_counter()
    summary = run_campaign(spec)
    elapsed = time.perf_counter() - started
    _print_summary(summary, elapsed)
    if opts["out"]:
        for path in export_results(summary, opts["out"]):
            print(f"wrote {path}")
    if summary.hard_failures:
        print(f"{summary.hard_failures} hard failure(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args):
    from . import verify

    return 0 if verify.run_all(seed=args.seed) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark campaigns for multiobjective proximal solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a campaign and export results")
    runp.add_argument(
        "--problem",
        help="registry key (see bench run --list) or quadratic:n=..,xl=..,xu=..",
    )
    runp.add_argument("--algos", help="comma list, e.g. bbpgmo,pgmo_ls,pgmo_L")
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None, help="directory for CSV/SVG exports")
    runp.add_argument("--jobs", type=int, default=None, help="concurrent trials")
    runp.add_argument("--d-tol", dest="d_tol", type=float, default=None)
    runp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    runp.add_argument(
        "--start-sampling",
        dest="start_sampling",
        choices=("auto", "box", "simplex"),
        default=None,
    )
    runp.add_argument(
        "--markowitz-returns",
        dest="markowitz_returns",
        default=None,
        help="raw return-history table overriding the embedded statistics",
    )
    runp.add_argument("--config", default=None, help="key=value file of options")
    runp.add_argument(
        "--list", action="store_true", help="list registry problems and exit"
    )

    verifyp = sub.add_parser("verify", help="run the invariant check battery")
    verifyp.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.list:
            for key in available_problems():
                print(key)
            return 0
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
