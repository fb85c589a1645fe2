"""Tests for the backtracking line search and the feasible step cap."""

import numpy as np
import pytest

from moprox.exceptions import LineSearchError
from moprox.linesearch import (
    GAMMA,
    MAX_BACKTRACKS,
    SIGMA,
    armijo_search,
    max_feasible_step,
)
from moprox.problems import EvalCounters, MCOProblem, SmoothComponent


def _quadratic_problem(curvatures):
    """f_i(x) = (c_i / 2) ||x||^2, unbounded, known L_i = c_i."""
    comps = tuple(
        SmoothComponent(
            value=lambda x, c=c: 0.5 * c * float(np.dot(x, x)),
            gradient=lambda x, c=c: c * x,
            lipschitz=c,
            strong_mu=c,
        )
        for c in curvatures
    )
    return MCOProblem(n=2, smooth=comps)


class TestMaxFeasibleStep:
    def test_ratio_test(self):
        """From the box center, a step of length 4 in a width-2 box caps at 0.5."""
        t = max_feasible_step(
            np.zeros(2), np.array([4.0, 0.0]), np.full(2, -2.0), np.full(2, 2.0)
        )
        assert t == 0.5

    def test_interior_step_uncapped(self):
        t = max_feasible_step(
            np.zeros(2), np.array([0.5, -0.5]), np.full(2, -2.0), np.full(2, 2.0)
        )
        assert t == 1.0

    def test_negative_direction_respects_lower_bound(self):
        t = max_feasible_step(
            np.array([-1.0, 0.0]),
            np.array([-4.0, 0.0]),
            np.full(2, -2.0),
            np.full(2, 2.0),
        )
        assert t == 0.25

    def test_boundary_point_toward_interior(self):
        t = max_feasible_step(
            np.array([2.0, 0.0]), np.array([-1.0, 0.0]), np.full(2, -2.0), np.full(2, 2.0)
        )
        assert t == 1.0

    def test_random_caps_are_tight(self):
        """x + t d stays feasible and a slightly larger step would not."""
        rng = np.random.default_rng(17)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        for _ in range(100):
            x = rng.uniform(lo, hi)
            d = rng.normal(size=3) * 3.0
            t = max_feasible_step(x, d, lo, hi)
            z = x + t * d
            assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)
            if t < 1.0:
                z2 = x + (t + 1e-6) * d
                assert np.any(z2 < lo) or np.any(z2 > hi)

    def test_bit_identical_to_two_pass_form(self):
        """One ratio per moving coordinate returns the bits the two masked
        passes did, with some d_j = 0, base points on a face, and caps of 0
        and 1. A blocked step is +0.0; the two-pass form returned -0.0 when
        only a decreasing coordinate sat on its face."""

        def two_pass(x, d, lower, upper):
            t = 1.0
            pos = d > 0
            if np.any(pos):
                t = min(t, float(np.min((upper[pos] - x[pos]) / d[pos])))
            neg = d < 0
            if np.any(neg):
                t = min(t, float(np.min((lower[neg] - x[neg]) / d[neg])))
            return max(t, 0.0)

        rng = np.random.default_rng(19)
        caps = set()
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            x = rng.uniform(lo, hi)
            face = rng.random(n)
            x[face < 0.2] = lo[face < 0.2]
            x[face > 0.8] = hi[face > 0.8]
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 2.0)
            d[rng.random(n) < 0.3] = 0.0
            t = max_feasible_step(x, d, lo, hi)
            old = two_pass(x, d, lo, hi)
            assert type(t) is float
            assert np.float64(t).tobytes() == np.float64(old + 0.0).tobytes()
            caps.add(t if t in (0.0, 1.0) else "inside")
        assert caps == {0.0, 1.0, "inside"}


class TestArmijoSearch:
    def test_full_step_accepted_on_mild_curvature(self):
        """With alpha = L the unit step already satisfies the test."""
        problem = _quadratic_problem([1.0])
        x = np.array([2.0, 0.0])
        d = -x  # direction from the subproblem with alpha = L = 1
        F = problem.evaluate_F(x)
        rhs = np.array([float(problem.jacobian(x)[0] @ d)])
        t, F_new, backtracks = armijo_search(problem, x, d, F, rhs)
        assert t == 1.0
        assert backtracks == 0
        np.testing.assert_allclose(F_new, [0.0], atol=1e-15)

    def test_stepsize_floor(self):
        """Accepted t never falls below 2 GAMMA (1 - SIGMA) alpha / L."""
        rng = np.random.default_rng(18)
        for L in (1.0, 10.0, 100.0):
            problem = _quadratic_problem([L])
            for _ in range(30):
                x = rng.normal(size=2) * 3.0
                if np.linalg.norm(x) < 1e-3:
                    continue
                alpha = rng.uniform(1e-2, 1e2)
                d = -problem.jacobian(x)[0] / alpha
                rhs = np.array([float(problem.jacobian(x)[0] @ d)])
                t, _F, _b = armijo_search(problem, x, d, problem.evaluate_F(x), rhs)
                floor = min(1.0, 2.0 * GAMMA * (1.0 - SIGMA) * alpha / L)
                assert t >= floor - 1e-12

    def test_ascent_direction_rejected(self):
        problem = _quadratic_problem([1.0])
        x = np.array([1.0, 0.0])
        with pytest.raises(LineSearchError):
            armijo_search(problem, x, x.copy(), problem.evaluate_F(x), np.array([1.0]))

    def test_zero_rhs_rejected(self):
        problem = _quadratic_problem([1.0])
        x = np.array([1.0, 0.0])
        with pytest.raises(LineSearchError):
            armijo_search(problem, x, -x, problem.evaluate_F(x), np.array([0.0]))

    def test_every_trial_counts_one_feval(self):
        problem = _quadratic_problem([50.0])
        x = np.array([1.0, 1.0])
        d = -problem.jacobian(x)[0]  # alpha = 1, much longer than 1/L
        rhs = np.array([float(problem.jacobian(x)[0] @ d)])
        counters = EvalCounters()
        t, _F, backtracks = armijo_search(
            problem, x, d, problem.evaluate_F(x), rhs, counters=counters
        )
        assert backtracks > 0
        assert counters.F_evals == backtracks + 1

    def test_trial_outside_the_domain_is_rejected_and_counted(self):
        """sqrt(x) is nan at the first trial x + d = -0.5: that trial is
        rejected like any other and still costs one F evaluation."""
        comp = SmoothComponent(
            value=lambda x: float(np.sqrt(x[0])), gradient=lambda x: 0.5 / np.sqrt(x)
        )
        problem = MCOProblem(n=1, smooth=(comp,))
        x, d = np.array([1.0]), np.array([-1.5])
        rhs = problem.jacobian(x)[:, 0] * d
        counters = EvalCounters()
        with np.errstate(invalid="ignore"):
            t, F, backtracks = armijo_search(
                problem, x, d, problem.evaluate_F(x), rhs, counters=counters
            )
        assert (t, backtracks) == (0.5, 1)
        np.testing.assert_allclose(F, [0.5])
        assert counters.F_evals == 2

    def test_trials_start_at_cap(self):
        """A box cap below 1 is the first trial stepsize."""
        problem = _quadratic_problem([1.0])
        x = np.array([2.0, 0.0])
        d = -x
        rhs = np.array([float(problem.jacobian(x)[0] @ d)])
        t, _F, backtracks = armijo_search(
            problem, x, d, problem.evaluate_F(x), rhs, t_cap=0.375
        )
        assert t == 0.375
        assert backtracks == 0

    def test_exhaustion_raises_with_context(self):
        """A direction 1e31 times the exact step -x / L needs about 82
        halvings, more than the MAX_BACKTRACKS = 60 the search makes."""
        problem = _quadratic_problem([1e6])
        x = np.array([1.0, 0.0])
        d = -1e25 * x
        rhs = np.array([float(problem.jacobian(x)[0] @ d)])
        counters = EvalCounters()
        with pytest.raises(LineSearchError, match="within 60 backtracks"):
            armijo_search(problem, x, d, problem.evaluate_F(x), rhs, counters=counters)
        assert counters.F_evals == MAX_BACKTRACKS + 1 == 61
