"""Merit functions measuring distance from criticality / weak optimality.

The regularized gap merit with curvature ell > 0 and weights alpha_i > 0 is

    w(x) = max_y min_i [ (<grad f_i(x), x - y> + g_i(x) - g_i(y)) / alpha_i
                         - (ell / 2) ||x - y||^2 ],

nonnegative everywhere and zero exactly at critical points. Substituting
y = x + d shows w(x) = ell * W(x; ell * alpha) where W(x; beta) is the same
merit with unit curvature, and W equals the negated optimal value of the
direction subproblem at inverse stepsizes beta. So one dual solve prices it.

The global counterpart

    u0(x) = sup_y min_i (F_i(x) - F_i(y)) / alpha_i

certifies weak optimality (zero iff weakly optimal). It has no closed form;
``weak_pareto_gap_grid`` brute-forces the sup over a finite grid and is
therefore a lower bound of the true value.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

from .direction import SubproblemInput, frank_wolfe_solve
from .exceptions import DualSolveError, EvaluationError


def _scaled_weights(problem, alphas, ell=1.0):
    """ell * alphas as a float array; ValueError unless ell > 0 and the
    product is m finite positive values."""
    if not ell > 0:
        raise ValueError("ell must be positive")
    beta = ell * np.asarray(alphas, dtype=float)
    if beta.shape != (problem.m,) or not np.isfinite(beta).all() or (beta <= 0).any():
        raise ValueError(f"ell * alphas must be {problem.m} finite positive values")
    return beta


def merit_gap(problem, x, alphas, ell=1.0, counters=None):
    """Regularized gap merit w(x) via one dual solve at beta = ell * alphas.
    Raises ValueError unless ell > 0, beta is m finite positive values, x
    is finite and lies in the domain of g and every grad f_i / beta_i is
    finite; EvaluationError for a nonfinite gradient and DualSolveError when
    the dual solve ends capped."""
    beta = _scaled_weights(problem, alphas, ell)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():  # as solve() refuses a nonfinite x0
        raise ValueError("x must be finite")
    grads = problem.jacobian(x, counters)  # checks x's shape, grads finite
    if not problem.nonsmooth.contains(x):
        raise ValueError("base point lies outside the domain of g")
    inp = SubproblemInput(x=x, grads=grads, alphas=beta, kind=problem.nonsmooth)
    if not np.isfinite(inp.scaled_grads).all():  # a tiny beta_i overflows it
        raise ValueError("scaled gradients grad f_i / beta_i are not finite")
    res = frank_wolfe_solve(inp, counters)
    if res.capped:
        raise DualSolveError(f"dual gap {res.fw_gap:.3e} above 100x tolerance")
    # -omega is the primal optimum (a min), so omega is the merit
    return ell * res.omega


def weak_pareto_gap_grid(problem, x, alphas, lower, upper, resolution=101):
    """Grid lower bound of u0(x); exact up to grid resolution for n <= 3.

    Grid points where ``evaluate_F`` raises EvaluationError (outside an
    indicator's set or a smooth part's domain) are skipped; at x itself that
    is a ValueError. alphas is checked as in ``merit_gap`` with ell = 1.
    """
    if problem.n > 3:
        raise ValueError("grid scan is limited to n <= 3")
    if not isinstance(resolution, numbers.Integral):
        raise ValueError("resolution must be an integer")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    alphas = _scaled_weights(problem, alphas)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (problem.n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (problem.n,))
    try:
        Fx = problem.evaluate_F(x)
    except EvaluationError as err:
        raise ValueError(f"x itself must have finite objective values: {err}") from None

    axes = [np.linspace(lower[j], upper[j], resolution) for j in range(problem.n)]
    best = -np.inf
    for point in itertools.product(*axes):
        try:
            Fy = problem.evaluate_F(point)
        except EvaluationError:
            continue
        best = max(best, float(np.min((Fx - Fy) / alphas)))
    return best
