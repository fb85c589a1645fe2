"""Proximal gradient solvers for multiobjective composite optimization.

Each objective splits into a smooth part with gradient access and one shared
nonsmooth part handled through its proximity operator. The solvers pick a
common direction by solving a small dual problem over the simplex, then step
with Armijo backtracking or fixed unit steps. Spectral (Barzilai-Borwein)
stepsizes give the accelerated variants.

Typical use::

    from moprox import SolverConfig, get_problem, solve

    problem = get_problem("JOS1a")
    report = solve(problem, x0, SolverConfig(algorithm="bbpgmo"))
    print(report.status, report.iterations)

The ``bench`` console script (``moprox.bench``) runs seeded benchmark
campaigns and exports CSV/SVG artifacts.
"""

from .exceptions import (
    DualSolveError,
    EvaluationError,
    UnknownProblemError,
)
from .merit import merit_gap, weak_pareto_gap_grid
from .problems import (
    EvalCounters,
    MCOProblem,
    SmoothComponent,
)
from .prox import (
    BoxIndicator,
    SimplexIndicator,
    WeightedL1,
    Zero,
)
from .solvers import (
    SolverConfig,
    SolveReport,
    Trace,
    TraceRecord,
    solve,
)
from .testproblems import (
    QuadraticSpec,
    available_problems,
    bk1,
    get_problem,
    jos1,
    markowitz_portfolio,
    random_quadratic,
    register_problem,
)

__version__ = "0.1.0"


def __getattr__(name):
    # bench's names load on first use: bench imports argparse and hashlib,
    # and ``python -m moprox.bench`` warns if the package imported it already
    if name in ("ExperimentSpec", "ExperimentSummary", "export_results",
                "run_campaign"):
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoxIndicator",
    "DualSolveError",
    "EvalCounters",
    "EvaluationError",
    "ExperimentSpec",
    "ExperimentSummary",
    "MCOProblem",
    "QuadraticSpec",
    "SimplexIndicator",
    "SmoothComponent",
    "SolveReport",
    "SolverConfig",
    "Trace",
    "TraceRecord",
    "UnknownProblemError",
    "WeightedL1",
    "Zero",
    "available_problems",
    "bk1",
    "export_results",
    "get_problem",
    "jos1",
    "markowitz_portfolio",
    "merit_gap",
    "random_quadratic",
    "register_problem",
    "run_campaign",
    "solve",
    "weak_pareto_gap_grid",
]
