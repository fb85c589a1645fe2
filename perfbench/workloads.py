"""The benchmark's workloads and the check on each campaign's outputs.

Every workload is a closed loop with one client: seeded campaigns run through
``moprox.bench.run_campaign`` in one process with ``jobs=1``, solves back to
back. A workload fixes its problem instance, so that campaign cost depends on
the start points and not on which random instance a seed happens to draw; the
campaign seed draws the starts. ``--seed`` picks one of the workload's
recorded campaign seeds, so every run can be checked against the iteration and
F-evaluation means recorded for exactly that campaign in ``expected.json``.

This module imports moprox and numpy only inside functions: the set-up script
imports it first and starts its clock before ``import moprox``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# the ROADMAP item 2 tolerance on campaign iteration and F-evaluation means
MEAN_RTOL = 0.02


def _campaign_quadratic(n, seed):
    """The instance a ``quadratic:n=<n>`` campaign with this seed solves;
    run_campaign draws it from child 0 of the campaign seed."""
    import numpy as np
    from moprox import QuadraticSpec, random_quadratic

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return random_quadratic(QuadraticSpec(n=n), rng)


def _quadratic_m4():
    from moprox import QuadraticSpec, random_quadratic

    return random_quadratic(QuadraticSpec(n=10, n_objectives=4), 7)


def _markowitz():
    from moprox import get_problem

    return get_problem("markowitz")


@dataclass(frozen=True)
class Workload:
    name: str
    problem_key: str       # registry key the campaigns name
    build: object          # () -> MCOProblem, the workload's fixed instance
    algorithms: tuple
    trials: int
    seeds: tuple           # campaign seeds with recorded expectations
    orderings: str | None  # acceptance orderings to hold: quadratic | markowitz
    why: str

    def campaign_seed(self, seed):
        return self.seeds[seed % len(self.seeds)]

    def spec(self, campaign_seed, trials=None):
        from moprox import ExperimentSpec

        return ExperimentSpec(
            problem=self.problem_key,
            algorithms=self.algorithms,
            trials=self.trials if trials is None else trials,
            seed=campaign_seed,
            jobs=1,
        )

    def register(self):
        """Make ``problem_key`` resolvable by run_campaign (idempotent)."""
        from moprox import available_problems, register_problem

        if self.problem_key not in available_problems():
            register_problem(self.problem_key, self.build)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="markowitz",
            problem_key="markowitz",
            build=_markowitz,
            algorithms=("bbpgmo", "pgmo_fixed"),
            trials=30,
            seeds=tuple(range(1, 11)),
            orderings="markowitz",
            why=(
                "criterion-02 campaign: m=2 dual root-find and simplex projection "
                "on the cheapest iterations in the repo, almost no line search"
            ),
        ),
        Workload(
            name="quad_n10",
            problem_key="perfbench-quad_n10",
            build=lambda: _campaign_quadratic(10, 0),
            algorithms=("bbpgmo", "pgmo_separate", "pgmo_mu"),
            trials=70,
            seeds=tuple(range(0, 10)),
            orderings="quadratic",
            why=(
                "criterion-01 n=10 instance: pgmo_mu backtracks (~5 F evals per "
                "iteration), so linesearch and problems carry work beside an m=2 dual"
            ),
        ),
        Workload(
            name="quad_m4",
            problem_key="perfbench-quad_m4",
            build=_quadratic_m4,
            algorithms=("bbpgmo", "abbpgmo", "pgmo_ls"),
            trials=8,
            # a single start seed: across seeds the number of capped duals,
            # and so the cost, varies several-fold (README); these 8 trials
            # include one (trial 3) and a pgmo_ls line-search failure (trial 7)
            seeds=(5,),
            orderings=None,
            why=(
                "only m>=3 workload (pairwise Frank-Wolfe, face Newton, abbpgmo "
                "re-solves); fixed starts: a few capped duals dominate its cost"
            ),
        ),
        Workload(
            name="quad_n2",
            problem_key="perfbench-quad_n2",
            build=lambda: _campaign_quadratic(2, 5),
            algorithms=("bbpgmo", "pgmo_separate", "pgmo_mu"),
            trials=200,
            seeds=tuple(range(5, 15)),
            orderings="quadratic",
            why=(
                "criterion-01 n=2 instance: 5-15 iterations per solve, so per-solve "
                "set-up and the bench harness are a large share of the time"
            ),
        ),
    )
}


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def summary_means(summary):
    """{algo: {"iter_mean", "feval_mean"}} of a campaign summary."""
    return {
        row["algo"]: {"iter_mean": row["iter_mean"], "feval_mean": row["feval_mean"]}
        for row in summary.rows
    }


def _ordering_errors(kind, means):
    it = {a: v["iter_mean"] for a, v in means.items()}
    fe = {a: v["feval_mean"] for a, v in means.items()}
    errors = []
    if kind == "quadratic":
        bb, sep, mu_fev = it["bbpgmo"], it["pgmo_separate"], fe["pgmo_mu"]
        if not bb < sep < mu_fev:
            errors.append(f"ordering bb {bb:.4g} < sep {sep:.4g} < mu fevals {mu_fev:.4g} fails")
        if not bb <= 0.5 * sep:
            errors.append(f"ordering bb {bb:.4g} <= 0.5 * sep {sep:.4g} fails")
    elif kind == "markowitz":
        bb, fixed = it["bbpgmo"], it["pgmo_fixed"]
        if not fixed >= 10.0 * bb:
            errors.append(f"ordering fixed {fixed:.4g} >= 10 * bb {bb:.4g} fails")
    return errors


def check_means(workload, campaign_seed, means, expected):
    """Errors in a campaign's per-algorithm means: each must lie within
    MEAN_RTOL of the recorded value, and the acceptance orderings must hold."""
    recorded = expected.get(workload.name, {})
    if recorded.get("trials") != workload.trials:
        return [f"no expectations recorded for {workload.name} at {workload.trials} trials"]
    want = recorded["seeds"].get(str(campaign_seed))
    if want is None:
        return [f"no expectations recorded for {workload.name} seed {campaign_seed}"]
    errors = []
    for algo in workload.algorithms:
        for key in ("iter_mean", "feval_mean"):
            got, ref = means[algo][key], want[algo][key]
            if not abs(got - ref) <= MEAN_RTOL * abs(ref):
                errors.append(f"{algo} {key} {got!r} is not within 2% of recorded {ref!r}")
    return errors + _ordering_errors(workload.orderings, means)


def check_campaign(workload, campaign_seed, summary, problem, expected):
    """Every error found in one campaign's outputs; an empty list passes.

    Besides check_means, every final x must be feasible for ``problem`` and
    its reported F finite and equal to F(x).
    """
    import numpy as np

    errors = check_means(workload, campaign_seed, summary_means(summary), expected)
    for trial, by_algo in enumerate(summary.reports):
        for algo, report in by_algo.items():
            where = f"trial {trial} {algo}"
            if not problem.is_feasible(report.x):
                errors.append(f"{where}: final x is infeasible")
            elif not np.all(np.isfinite(report.F)):
                errors.append(f"{where}: final F is not finite")
            elif not np.allclose(problem.evaluate_F(report.x), report.F, rtol=1e-9, atol=1e-12):
                errors.append(f"{where}: reported F differs from F(x)")
    return errors

