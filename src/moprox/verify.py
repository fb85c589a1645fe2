"""Invariant battery behind ``bench verify``.

Each check samples fresh random instances, asserts a mathematical identity
or inequality the solver stack must satisfy, and reports one PASS/FAIL line.
The battery is a quick field diagnostic, not a replacement for the test
suite; it needs no fixtures and finishes in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .bb import BBConfig, bb_stepsizes
from .direction import DirectionResult, SubproblemInput, frank_wolfe_solve
from .linesearch import LineSearchConfig
from .merit import merit_gap
from .prox import project_simplex
from .solvers import SolverConfig, solve
from .testproblems import QuadraticSpec, random_quadratic


def _check_prox(rng):
    """Projections are feasible and satisfy the subgradient optimality test."""
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 9)) * 10.0
        p = project_simplex(v)
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-12:
            return False, "simplex projection infeasible"
        # optimality: no other feasible point may sit closer to v
        for _ in range(10):
            q = project_simplex(v + rng.normal(size=v.size) * 1e-3)
            worst = max(worst, 0.5 * np.dot(p - v, p - v) - 0.5 * np.dot(q - v, q - v))
    return worst <= 1e-10, f"max optimality violation {worst:.2e}"


def _check_bb_bounds(rng):
    """Spectral stepsizes stay inside the configured clamp interval."""
    cfg = BBConfig()
    for _ in range(25):
        problem = random_quadratic(QuadraticSpec(n=6), rng)
        x_prev = rng.uniform(-2, 2, size=6)
        x = rng.uniform(-2, 2, size=6)
        alphas = bb_stepsizes(
            x_prev, problem.jacobian(x_prev), x, problem.jacobian(x), cfg
        )
        if np.any(alphas < cfg.alpha_min) or np.any(alphas > cfg.alpha_max):
            return False, f"stepsize left [{cfg.alpha_min}, {cfg.alpha_max}]"
    return True, "clamps hold"


def _check_dual_gradient(rng):
    """Analytic dual gradient matches central finite differences."""
    worst = 0.0
    for _ in range(10):
        problem = random_quadratic(QuadraticSpec(n=4), rng)
        x = rng.uniform(-2, 2, size=4)
        inp = SubproblemInput(
            x=x,
            grads=problem.jacobian(x),
            alphas=rng.uniform(0.5, 2.0, size=2),
            kind=problem.nonsmooth,
        )
        lam = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
        lam = lam / lam.sum()
        h = 1e-6
        lp = np.array([lam[0] + h, lam[1] - h])
        lm = np.array([lam[0] - h, lam[1] + h])
        fd = (DirectionResult(inp, lp).omega - DirectionResult(inp, lm).omega) / (2 * h)
        g = -DirectionResult(inp, lam).q
        worst = max(worst, abs((g[0] - g[1]) - fd) / max(1.0, abs(fd)))
    return worst <= 1e-5, f"max relative gradient error {worst:.2e}"


def _check_descent_certificate(rng):
    """Solved directions certify per-objective model decrease, m = 2 and 3."""
    worst = -np.inf
    for m in (2,) * 25 + (3,) * 25:
        problem = random_quadratic(QuadraticSpec(n=5, n_objectives=m), rng)
        x = rng.uniform(-2, 2, size=5)
        inp = SubproblemInput(
            x=x,
            grads=problem.jacobian(x),
            alphas=rng.uniform(0.1, 10.0, size=m),
            kind=problem.nonsmooth,
        )
        res = frank_wolfe_solve(inp)
        d_sq = float(np.dot(res.d, res.d))
        viol = float(np.max(res.model_decrease + inp.alphas * d_sq))
        worst = max(worst, viol)
        # -omega is the primal optimum, so the identity is equality
        primal = float(np.max(res.model_decrease / inp.alphas)) + 0.5 * d_sq
        if abs(primal + res.omega) > max(1e-8, 10.0 * res.fw_gap):
            return False, "duality gap identity broke"
    return worst <= 1e-8, f"max certificate violation {worst:.2e}"


def _check_armijo_floor(rng):
    """Accepted stepsizes respect the curvature floor on smooth problems."""
    ls = LineSearchConfig()
    for _ in range(10):
        problem = random_quadratic(QuadraticSpec(n=4, g_kind="zero", xl=None, xu=None), rng)
        L = problem.lipschitz_constants()
        report = solve(
            problem,
            rng.uniform(-2, 2, size=4),
            SolverConfig(algorithm="bbpgmo", max_iters=60),
        )
        trace = report.trace
        floors = np.minimum(1.0, np.min(2 * ls.gamma * (1 - ls.sigma) * trace.alphas / L, axis=1))
        below = trace.t < floors - 1e-12
        if below.any():
            i = below.argmax()  # the first step below its floor
            return False, f"step {trace.t[i]:.3e} below floor {floors[i]:.3e}"
    return True, "floor holds"


def _check_solver_descent(rng):
    """Every accepted iterate weakly decreases every objective."""
    for algo in ("bbpgmo", "abbpgmo", "pgmo_ls", "pgmo_separate"):
        problem = random_quadratic(QuadraticSpec(n=6), rng)
        report = solve(
            problem,
            rng.uniform(-2, 2, size=6),
            SolverConfig(algorithm=algo, max_iters=120),
        )
        if np.any(np.diff(report.trace.F, axis=0) > 1e-10):
            return False, f"{algo} increased an objective"
        if report.status not in ("critical_point", "max_iters"):
            return False, f"{algo} failed with {report.status}"
    return True, "monotone on all modes"


def _check_merit(rng):
    """Merit gap is ~0 at solved points and positive at random ones."""
    problem = random_quadratic(QuadraticSpec(n=4, g_kind="l1"), rng)
    report = solve(problem, rng.uniform(-2, 2, size=4), SolverConfig(d_tol=1e-10))
    alphas = np.ones(2)
    at_solution = merit_gap(problem, report.x, alphas)
    if at_solution > 1e-8:
        return False, f"gap {at_solution:.2e} at a critical point"
    x = rng.uniform(-2, 2, size=4)
    away = merit_gap(problem, x, alphas)
    half = merit_gap(problem, x, alphas, ell=0.5)
    if away <= 1e-8:
        return False, "zero gap at a random point"
    # the merit is nonincreasing in ell: w_1 <= w_{1/2} <= 2 w_1
    if not (away <= half + 1e-12 and half <= 2.0 * away + 1e-12):
        return False, "scale monotonicity broke"
    return True, "gap separates critical from non-critical"


_CHECKS = (
    ("prox_projections", _check_prox),
    ("bb_stepsize_bounds", _check_bb_bounds),
    ("dual_gradient_fd", _check_dual_gradient),
    ("descent_certificate", _check_descent_certificate),
    ("armijo_step_floor", _check_armijo_floor),
    ("solver_monotone", _check_solver_descent),
    ("merit_gap", _check_merit),
)


def run_all(seed=0, out=print):
    """Run every check; returns True when all pass."""
    all_ok = True
    for name, check in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = check(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    out("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return bool(all_ok)
