"""Backtracking Armijo line search over the whole objective vector.

A trial t is accepted when every objective satisfies

    F_i(x + t d) - F_i(x) <= t * sigma * rhs_i,

where rhs_i is the model decrease of the direction subproblem (strictly
negative for a descent direction). Trials start at the feasible cap t_cap
(1 unless box bounds bind) and shrink by gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EvaluationError, LineSearchError


@dataclass(frozen=True)
class LineSearchConfig:
    sigma: float = 1e-4
    gamma: float = 0.5
    max_backtracks: int = 60

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0 and 0.0 < self.gamma < 1.0):
            raise ValueError("need sigma, gamma in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")


def max_feasible_step(x, d, lower, upper):
    """Largest t in [0, 1] with lower <= x + t d <= upper (exact ratio test).

    x must already be inside the box.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if (x < lower).any() or (x > upper).any():
        raise ValueError("base point lies outside the box")
    moving = d != 0.0
    d = d[moving]
    # each moving coordinate's ratio to the face it heads for
    ratios = (np.where(d > 0.0, upper[moving], lower[moving]) - x[moving]) / d
    return max(0.0, float(ratios.min(initial=1.0)))  # +0.0 when blocked


def armijo_search(problem, x, d, F_at_x, rhs, cfg=None, t_cap=1.0, counters=None):
    """Returns (t, F_new, backtracks); raises LineSearchError on exhaustion.

    ``backtracks`` counts rejected trials; every trial costs one F evaluation
    on the counters. A trial with a nonfinite F is rejected like any other.
    """
    cfg = cfg or LineSearchConfig()
    rhs = np.asarray(rhs, dtype=float)
    if (rhs >= 0.0).any():
        raise LineSearchError(
            "model decrease is not negative in every component; "
            "not a descent direction"
        )
    if t_cap <= 0.0:
        raise LineSearchError("t_cap must be positive", last_t=t_cap, backtracks=0)
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    F_at_x = np.asarray(F_at_x, dtype=float)

    t = t_cap
    for backtracks in range(cfg.max_backtracks + 1):
        try:
            F_new = problem.evaluate_F(x + t * d, counters)
        except EvaluationError:
            pass  # nonfinite F (e.g. a trial outside a domain): reject it
        else:
            if (F_new - F_at_x <= t * cfg.sigma * rhs).all():
                return t, F_new, backtracks
        t *= cfg.gamma
    raise LineSearchError(
        f"no acceptable step within {cfg.max_backtracks} backtracks",
        last_t=t / cfg.gamma,
        backtracks=cfg.max_backtracks,
    )
