"""Backtracking Armijo line search over the whole objective vector.

A trial t is accepted when every objective satisfies

    F_i(x + t d) - F_i(x) <= t * SIGMA * rhs_i,

where rhs_i is the model decrease of the direction subproblem (strictly
negative for a descent direction). Trials start at the feasible cap t_cap
(1 unless box bounds bind) and shrink by GAMMA, at most MAX_BACKTRACKS times.

An internal module: ``solve()`` passes float arrays, a point inside the box
and a cap t_cap >= 1e-12, so nothing here checks them again.
"""

from __future__ import annotations

import numpy as np

from .exceptions import EvaluationError, LineSearchError

SIGMA = 1e-4  # sufficient decrease fraction
GAMMA = 0.5  # backtracking factor
MAX_BACKTRACKS = 60


def max_feasible_step(x, d, lower, upper):
    """Largest t in [0, 1] with lower <= x + t d <= upper (exact ratio test).

    x must already be inside the box, which ``solve()`` keeps it.
    """
    moving = d != 0.0
    d = d[moving]
    # each moving coordinate's ratio to the face it heads for
    ratios = (np.where(d > 0.0, upper[moving], lower[moving]) - x[moving]) / d
    return max(0.0, float(ratios.min(initial=1.0)))  # +0.0 when blocked


def armijo_search(problem, x, d, F_at_x, rhs, t_cap=1.0, counters=None):
    """Returns (t, F_new, backtracks); raises LineSearchError on exhaustion.

    ``backtracks`` counts rejected trials; every trial costs one F evaluation
    on the counters. A trial with a nonfinite F is rejected like any other.
    """
    # a capped dual accepted within the descent slack can hand over a model
    # decrease >= 0 in some component
    if (rhs >= 0.0).any():
        raise LineSearchError(
            "model decrease is not negative in every component; "
            "not a descent direction"
        )

    t = t_cap
    for backtracks in range(MAX_BACKTRACKS + 1):
        try:
            F_new = problem.evaluate_F(x + t * d, counters)
        except EvaluationError:
            pass  # nonfinite F (e.g. a trial outside a domain): reject it
        else:
            if (F_new - F_at_x <= t * SIGMA * rhs).all():
                return t, F_new, backtracks
        t *= GAMMA
    raise LineSearchError(f"no acceptable step within {MAX_BACKTRACKS} backtracks")
