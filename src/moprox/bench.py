"""Benchmark campaigns and the ``bench`` command line.

A campaign fixes one problem instance (for the random quadratic family the
instance is drawn once from the campaign seed), samples one start point per
trial, runs every solver mode from the same starts, then aggregates per-mode
means and exports CSV/SVG artifacts. Everything is seeded: rerunning a
campaign reproduces the result files byte for byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import UnknownProblemError
from .prox import BoxIndicator, SimplexIndicator
from .solvers import SolverConfig, _fixed_alphas, solve
from .testproblems import (
    QuadraticSpec,
    available_problems,
    get_problem,
    random_quadratic,
)

# "exception": a solve raised (say from a user callable); its row holds the text
_HARD_FAILURES = ("line_search_failure", "dual_failure", "evaluation_failure", "exception")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    algorithms: tuple
    trials: int = 200
    seed: int = 0
    d_tol: float = SolverConfig.d_tol
    max_iters: int = SolverConfig.max_iters
    jobs: int = 1

    def __post_init__(self):
        for name in ("trials", "jobs", "max_iters", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if isinstance(self.algorithms, str):
            raise ValueError("algorithms must be a tuple of tokens, e.g. ('bbpgmo',)")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))


@dataclass
class ExperimentSummary:
    spec: ExperimentSpec
    problem_name: str
    n: int
    m: int
    rows: list                 # one dict per algorithm (the summary table)
    raw: list                  # one dict per (trial, algorithm)
    reports: list = field(repr=False, default_factory=list)
    # reports[trial][algo] -> SolveReport, kept for diagnostics

    @property
    def hard_failures(self):
        return sum(1 for r in self.raw if r["status"] in _HARD_FAILURES)

    @property
    def pareto(self):
        """One row per solve that returned, built from ``reports`` on each
        read: trial, algo, F1..Fm and, for n = 2, x1 and x2. A solve that
        raised has no final point and no row."""
        rows = []
        for trial, trial_reports in enumerate(self.reports):
            for token in self.spec.algorithms:
                report = trial_reports.get(token)
                if report is None:
                    continue
                row = {"trial": trial, "algo": token}
                row.update((f"F{i}", float(v)) for i, v in enumerate(report.F, start=1))
                if self.n == 2:
                    row.update((f"x{j}", float(v)) for j, v in enumerate(report.x, start=1))
                rows.append(row)
        return rows


def _parse_token(token, converters, what):
    """Split ``name[:key=value,...]`` into (name, {key: value}), each value
    converted by ``converters[key]``; a key outside ``converters``, a key
    given twice or a value its converter rejects raises ValueError."""
    name, _, body = token.partition(":")
    params = {}
    for piece in filter(None, body.split(",")):
        key, _, value = piece.partition("=")
        if key in params:
            raise ValueError(f"repeated {what} {key!r} in {token!r}")
        params[key] = value
    unknown = sorted(set(params) - set(converters))
    if unknown:
        raise ValueError(f"unknown {what} {unknown} in {token!r}")
    for key, value in params.items():
        convert = converters[key]
        try:
            params[key] = convert(value)
        except ValueError:
            raise ValueError(
                f"invalid {convert.__name__} value {value!r} for {key!r} in {token!r}"
            ) from None
    return name, params


def algo_config(token, d_tol=SolverConfig.d_tol, max_iters=SolverConfig.max_iters):
    """Translate a CLI algorithm token (name[:key=value,...]) to a config."""
    name, params = _parse_token(token, {"ell": float, "tau": float}, "algorithm parameter")
    return SolverConfig(algorithm=name, d_tol=d_tol, max_iters=max_iters, **params)


def _parse_quadratic_token(token):
    _, fields = _parse_token(
        token, {"n": int, "m": int, "xl": float, "xu": float, "g": str}, "quadratic fields"
    )
    if "n" not in fields:
        raise ValueError("quadratic problems need n=<dim>, e.g. quadratic:n=10")
    return QuadraticSpec(
        n=fields["n"],
        n_objectives=fields.get("m", 2),
        xl=fields.get("xl", -2.0),
        xu=fields.get("xu", 2.0),
        g_kind=fields.get("g", "l1"),
    )


def _child_seed(spec, i):
    """Child i of the campaign seed: SeedSequence(seed).spawn(trials + 1)[i],
    built directly so a campaign does not spawn every child per trial."""
    return np.random.SeedSequence(spec.seed, spawn_key=(i,))


def _campaign_problem(spec):
    """The fixed instance every trial solves; seeded for the random family."""
    token = spec.problem
    if token.partition(":")[0] == "quadratic":
        qspec = _parse_quadratic_token(token)
        instance_rng = np.random.default_rng(_child_seed(spec, 0))
        return random_quadratic(qspec, instance_rng)
    return get_problem(token)


def _sample_start(problem, rng):
    """A trial's start: Dirichlet on the simplex kind, else uniform in the
    bounds or, without them, in the box kind's box, which must be finite."""
    kind = problem.nonsmooth
    if isinstance(kind, SimplexIndicator):
        return rng.dirichlet(np.ones(problem.n))
    if problem.bounds is None and not isinstance(kind, BoxIndicator):
        raise ValueError("start sampling needs bounds, the box kind or the simplex kind")
    lo, hi = problem.bounds or (kind.lower, kind.upper)
    if not np.isfinite([lo, hi]).all():
        raise ValueError("start sampling needs a finite box")
    return rng.uniform(lo, hi)


def _run_trial(spec, configs, trial, problem=None):
    """One trial: the campaign instance, one start, one solve per algorithm
    token; returns (raw rows, {token: SolveReport}). A solve that raises gets
    status "exception", zero counters, its error text under ``error`` and no
    report."""
    if problem is None:
        problem = _campaign_problem(spec)
    rng = np.random.default_rng(_child_seed(spec, trial + 1))
    x0 = _sample_start(problem, rng)
    x0_hash = hashlib.sha1(x0.tobytes()).hexdigest()[:12]

    raw_rows = []
    reports = {}
    for token in spec.algorithms:
        row = {"trial": trial, "algo": token, "x0_hash": x0_hash}
        started = time.perf_counter()
        try:
            report = reports[token] = solve(problem, x0, configs[token])
        except Exception as err:
            row.update(status="exception", iterations=0, fevals=0, grad_evals=0,
                       prox_evals=0, stepsize_mean=float("nan"),
                       time_ms=(time.perf_counter() - started) * 1000.0,
                       error=f"{type(err).__name__}: {err}")
        else:
            row.update(
                status=report.status,
                iterations=report.iterations,
                fevals=report.counters.F_evals,
                grad_evals=report.counters.grad_evals,
                prox_evals=report.counters.prox_evals,
                stepsize_mean=report.stepsize_mean,
                time_ms=report.total_time * 1000.0,
            )
        raw_rows.append(row)
    return raw_rows, reports


def run_campaign(spec):
    """Execute all trials; deterministic for a fixed spec (any jobs value)."""
    # building the configs and the problem checks the spec before any solve
    configs = {
        token: algo_config(token, spec.d_tol, spec.max_iters)
        for token in dict.fromkeys(spec.algorithms)
    }
    problem = _campaign_problem(spec)
    for cfg in configs.values():  # solve()'s own check of each mode's alphas
        _fixed_alphas(problem, cfg)

    if spec.jobs > 1:
        # imported here, so that a jobs=1 campaign never loads multiprocessing;
        # each worker builds the problem itself: its callables need not pickle;
        # the pool forks all its workers at once, so none beyond the trials
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(spec.jobs, spec.trials)) as pool:
            outcomes = list(
                pool.map(functools.partial(_run_trial, spec, configs), range(spec.trials))
            )
    else:
        outcomes = [_run_trial(spec, configs, t, problem) for t in range(spec.trials)]

    raw = [row for rows, _ in outcomes for row in rows]
    reports = [trial_reports for _, trial_reports in outcomes]

    rows = []
    for token in spec.algorithms:
        runs = [r for r in raw if r["algo"] == token]
        included = [r for r in runs if r["status"] not in _HARD_FAILURES]
        failures = sum(1 for r in runs if r["status"] != "critical_point")

        def _mean(key, rows=included):
            vals = [r[key] for r in rows]
            # nanmean warns when no value is a number (every solve stopped at k = 0)
            return float(np.nanmean(vals)) if any(v == v for v in vals) else float("nan")

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
        problem_name=problem.name,
        n=problem.n,
        m=problem.m,
        rows=rows,
        raw=raw,
        reports=reports,
    )


def _write_csv(path, rows):
    """One CSV row per dict. The header holds every key in the order of first
    appearance (only a raising solve's row has ``error``); a row without a
    key leaves its cell empty, and no rows make an empty file."""
    import csv  # only exports write CSV; a campaign alone does not load it

    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in rows:
            cells = (row.get(key, "") for key in header)
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in cells])


def export_results(summary, out_dir):
    """Write summary/runs/pareto CSVs plus scatter SVGs; returns the paths."""
    from .svg import scatter_svg  # only exports draw; a campaign alone does not load it

    os.makedirs(out_dir, exist_ok=True)
    written = []
    pareto = summary.pareto  # built from the reports on each read

    # the row dicts built by run_campaign, _run_trial and pareto fix the column order
    for name, rows in (("summary.csv", summary.rows), ("runs.csv", summary.raw),
                       ("pareto.csv", pareto)):
        path = os.path.join(out_dir, name)
        _write_csv(path, rows)
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
            pts = [r for r in pareto if r["algo"] == token]
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
        cells = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row.values()]
        print("".join(cell.ljust(widths[c]) for c, cell in zip(cols, cells)))
    print(f"campaign wall time {elapsed:.2f} s")


def _cmd_run(args, error):
    # refused before the campaign runs, not by makedirs after it
    if args.out and os.path.exists(args.out) and not os.path.isdir(args.out):
        error(f"--out {args.out} exists and is not a directory")
    # unset options fall back to ExperimentSpec's defaults; run_campaign raises
    # only before its first solve, so ``error`` (usage, exit 2) gets bad input
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentSpec)}
    started = time.perf_counter()
    try:
        spec = ExperimentSpec(**{k: v for k, v in given.items() if v is not None})
        summary = run_campaign(spec)
    except (ValueError, UnknownProblemError) as err:
        error(err.args[0])
    elapsed = time.perf_counter() - started
    _print_summary(summary, elapsed)
    if args.out:
        for path in export_results(summary, args.out):
            print(f"wrote {path}")
    if summary.hard_failures:
        print(f"{summary.hard_failures} hard failure(s)", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark campaigns for multiobjective proximal solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # @FILE reads one argument per line; a later flag overrides an earlier one
    runp = sub.add_parser(
        "run", fromfile_prefix_chars="@", help="run a campaign and export results"
    )
    runp.add_argument(
        "--problem",
        required=True,
        help=f"one of {', '.join(available_problems())}, "
        "or quadratic:n=..,m=..,xl=..,xu=..",
    )
    runp.add_argument(
        "--algos",
        dest="algorithms",
        required=True,
        metavar="ALGOS",
        type=lambda text: tuple(tok.strip() for tok in text.split(",") if tok.strip()),
        help="comma list, e.g. bbpgmo,pgmo_ls,pgmo_L",
    )
    runp.add_argument("--trials", type=int)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out", help="directory for CSV/SVG exports")
    runp.add_argument("--jobs", type=int, help="concurrent trials")
    runp.add_argument("--d-tol", type=float)
    runp.add_argument("--max-iters", type=int)
    return _cmd_run(parser.parse_args(argv), runp.error)


if __name__ == "__main__":
    sys.exit(main())
