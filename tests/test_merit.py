"""Tests for the merit functions against closed forms and scaling laws."""

import numpy as np
import pytest

from moprox import direction
from moprox.exceptions import DualSolveError, EvaluationError
from moprox.merit import merit_gap, weak_pareto_gap_grid
from moprox.problems import EvalCounters, MCOProblem, SmoothComponent
from moprox.prox import SimplexIndicator
from moprox.solvers import SolverConfig, solve
from moprox.testproblems import QuadraticSpec, get_problem, random_quadratic


def _scalar_quadratic():
    """Single objective f(x) = 0.5 x^2 on the line, no nonsmooth part."""
    comp = SmoothComponent(
        value=lambda x: 0.5 * float(x[0]) ** 2,
        gradient=lambda x: x.copy(),
        lipschitz=1.0,
        strong_mu=1.0,
    )
    return MCOProblem(n=1, smooth=(comp,))


class TestClosedForm:
    def test_scalar_quadratic_value(self):
        """For f = 0.5 x^2, alpha = ell = 1: the inner max over d of
        -x d - 0.5 d^2 is attained at d = -x with value x^2 / 2, so
        w(2) = 2."""
        problem = _scalar_quadratic()
        w = merit_gap(problem, np.array([2.0]), alphas=np.array([1.0]), ell=1.0)
        assert w == pytest.approx(2.0, abs=1e-10)

    def test_gradient_norm_identity(self):
        """Smooth single objective, alpha = 1: w(x) = ||grad f(x)||^2 / (2 ell)."""
        problem = _scalar_quadratic()
        for x0, ell in ((3.0, 1.0), (-1.5, 2.0), (0.25, 0.5)):
            w = merit_gap(problem, np.array([x0]), alphas=np.array([1.0]), ell=ell)
            assert w == pytest.approx(x0**2 / (2.0 * ell), abs=1e-10)


class TestSignature:
    def test_zero_exactly_at_critical_points(self):
        problem = _scalar_quadratic()
        at_crit = merit_gap(problem, np.zeros(1), alphas=np.ones(1))
        assert abs(at_crit) <= 1e-12
        away = merit_gap(problem, np.array([0.3]), alphas=np.ones(1))
        assert away > 1e-3

    def test_nonnegative_on_random_points(self):
        spec = QuadraticSpec(n=4, n_objectives=3, xl=None, xu=None)
        problem = random_quadratic(spec, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=4)
            alphas = rng.uniform(0.1, 10.0, size=3)
            w = merit_gap(problem, x, alphas, ell=rng.uniform(0.2, 5.0))
            assert w >= -1e-12

    def test_invalid_curvature(self):
        with pytest.raises(ValueError):
            merit_gap(_scalar_quadratic(), np.ones(1), np.ones(1), ell=0.0)


class TestInputValidation:
    """merit_gap is where its subproblem input enters, so it checks x and
    ell * alphas once; the dual solver checks nothing."""

    def test_bad_shapes_rejected(self):
        problem = random_quadratic(QuadraticSpec(n=3, n_objectives=2), seed=2)
        with pytest.raises(ValueError, match="expected point of shape"):
            merit_gap(problem, np.zeros(2), np.ones(2))
        for alphas in (np.ones(3), np.ones((2, 1)), 1.0):
            with pytest.raises(ValueError, match="2 finite positive values"):
                merit_gap(problem, np.zeros(3), alphas)

    def test_nonpositive_alpha_rejected(self):
        problem = _scalar_quadratic()
        for alphas in ([0.0], [-1.0], [np.inf], [np.nan]):
            with pytest.raises(ValueError, match="finite positive"):
                merit_gap(problem, np.ones(1), np.array(alphas))
        # ell > 0 with finite alphas can still overflow to an infinite beta
        with pytest.raises(ValueError, match="finite positive"):
            merit_gap(problem, np.ones(1), np.ones(1), ell=np.inf)
        for ell in (-1.0, np.nan):
            with pytest.raises(ValueError, match="ell must be positive"):
                merit_gap(problem, np.ones(1), -np.ones(1), ell=ell)

    def test_nonfinite_gradient_rejected(self):
        """MCOProblem.jacobian checks every gradient it returns, for
        merit_gap as for solve()."""
        comp = SmoothComponent(
            value=lambda x: 0.0, gradient=lambda x: np.array([np.nan, 0.0])
        )
        problem = MCOProblem(n=2, smooth=(comp,))
        with pytest.raises(EvaluationError, match="nonfinite gradient"):
            problem.jacobian(np.zeros(2))
        with pytest.raises(EvaluationError, match="nonfinite gradient"):
            merit_gap(problem, np.zeros(2), np.ones(1))

    def test_overflowing_scaled_gradients_rejected(self):
        """beta = (1e-320, 1) is finite and positive, yet grad f_1 / 1e-320
        overflows. merit_gap refuses it before any dual point, on BK1 (which
        returned NaN) and on an m = 3 l1 quadratic (where LAPACK also
        complained), instead of pricing the merit from infinite gradients."""
        l1_quadratic = random_quadratic(QuadraticSpec(n=3, n_objectives=3), seed=2)
        for problem, x in ((get_problem("BK1"), np.array([1.0, 2.0])),
                           (l1_quadratic, np.zeros(3))):
            counters = EvalCounters()
            alphas = np.ones(problem.m)
            alphas[0] = 1e-320
            with pytest.raises(ValueError, match="not finite"):
                merit_gap(problem, x, alphas, counters=counters)
            assert counters.prox_evals == 0

    def test_nonfinite_point_rejected(self):
        """x is refused as solve() refuses a nonfinite x0. On a Zero-kind
        problem with linear objectives the gradients stay finite, so
        x = (nan, 0) returned nan and x = (inf, 0) warned "invalid value
        encountered in subtract"; now neither is evaluated."""
        linear = tuple(
            SmoothComponent(value=lambda x, c=c: float(c @ x), gradient=lambda x, c=c: c)
            for c in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        )
        problem = MCOProblem(n=2, smooth=linear)
        for x in ([np.nan, 0.0], [np.inf, 0.0]):
            counters = EvalCounters()
            with pytest.raises(ValueError, match="x must be finite"):
                merit_gap(problem, np.array(x), np.ones(2), counters=counters)
            assert counters.grad_evals == counters.prox_evals == 0

    def test_infeasible_base_point_rejected(self):
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.ones(2))
        problem = MCOProblem(n=2, smooth=(comp,), nonsmooth=SimplexIndicator())
        with pytest.raises(ValueError, match="outside the domain"):
            merit_gap(problem, np.array([2.0, 2.0]), np.ones(1))


class TestCappedDual:
    def test_capped_dual_solve_raises(self, monkeypatch):
        """One Frank-Wolfe iteration leaves the m = 3 dual of gradients
        (1, 0), (0, 1), (-1, 2) at x = 0 at the uniform multiplier, gap 1:
        a merit priced from that point would be wrong, so merit_gap refuses
        it."""
        monkeypatch.setattr(direction, "MAX_ITERS", 1)
        comps = tuple(
            SmoothComponent(
                value=lambda x, c=np.array(c): float(np.dot(c, x)),
                gradient=lambda x, c=np.array(c): c.copy(),
            )
            for c in ((1.0, 0.0), (0.0, 1.0), (-1.0, 2.0))
        )
        problem = MCOProblem(n=2, smooth=comps)
        with pytest.raises(DualSolveError, match="dual gap 1.000e\\+00 above 100x"):
            merit_gap(problem, np.zeros(2), np.ones(3))


class TestScalingLaws:
    def test_curvature_sandwich(self):
        """For 0 < ell <= r: w_r(x) <= w_ell(x) <= (r / ell) w_r(x)."""
        spec = QuadraticSpec(n=3, n_objectives=2)
        problem = random_quadratic(spec, seed=8)
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, size=3)
            alphas = rng.uniform(0.2, 5.0, size=2)
            ell, r = sorted(rng.uniform(0.1, 10.0, size=2))
            if r - ell < 1e-6:
                continue
            w_ell = merit_gap(problem, x, alphas, ell=ell)
            w_r = merit_gap(problem, x, alphas, ell=r)
            scale = max(1.0, w_ell, w_r)
            assert w_r <= w_ell + 1e-8 * scale
            assert w_ell <= (r / ell) * w_r + 1e-8 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_half_curvature_sandwich_on_solved_l1_quadratics(self, seed):
        """On an l1 random_quadratic (n = 4): w_1 <= 1e-8 at the point solve()
        returns, w_1 > 1e-8 at a random point, and there w_1 <= w_{1/2} <=
        2 w_1 to 1e-12 in absolute terms."""
        rng = np.random.default_rng(seed)
        problem = random_quadratic(QuadraticSpec(n=4, g_kind="l1"), rng)
        report = solve(problem, rng.uniform(-2.0, 2.0, size=4), SolverConfig(d_tol=1e-10))
        alphas = np.ones(2)
        assert merit_gap(problem, report.x, alphas) <= 1e-8
        x = rng.uniform(-2.0, 2.0, size=4)
        w_one = merit_gap(problem, x, alphas)
        w_half = merit_gap(problem, x, alphas, ell=0.5)
        assert w_one > 1e-8
        assert w_one <= w_half + 1e-12
        assert w_half <= 2.0 * w_one + 1e-12

    def test_weight_ordering(self):
        """Componentwise alpha2 <= alpha1 implies
        w_alpha1 <= w_alpha2 <= (max_i alpha1_i / alpha2_i)^2 w_alpha1."""
        spec = QuadraticSpec(n=3, n_objectives=3, xl=None, xu=None, g_kind="l1")
        problem = random_quadratic(spec, seed=12)
        rng = np.random.default_rng(12)
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, size=3)
            alpha2 = rng.uniform(0.2, 3.0, size=3)
            alpha1 = alpha2 * rng.uniform(1.0, 4.0, size=3)
            w1 = merit_gap(problem, x, alpha1)
            w2 = merit_gap(problem, x, alpha2)
            ratio = float(np.max(alpha1 / alpha2))
            scale = max(1.0, w1, w2)
            assert w1 <= w2 + 1e-8 * scale
            assert w2 <= ratio**2 * w1 + 1e-8 * scale


class TestGridGap:
    def test_sign_separates_optimal_from_dominated(self):
        problem = get_problem("BK1")  # n = 2, minimizers at 0 and (5, 5)
        lo, hi = problem.bounds
        on_segment = np.array([2.5, 2.5])
        u0 = weak_pareto_gap_grid(
            problem, on_segment, np.ones(2), lo, hi, resolution=41
        )
        assert abs(u0) <= 1e-9
        off = np.array([2.5, -2.5])
        u0_off = weak_pareto_gap_grid(problem, off, np.ones(2), lo, hi, resolution=41)
        assert u0_off > 1.0

    def test_grid_is_lower_bound_of_zero_at_optimum(self):
        """At any point the grid value never exceeds the true sup; at a true
        weak optimum the true sup is 0, so the grid value is <= 0 but also
        >= the y = x candidate, hence exactly 0 when x is on the grid."""
        problem = get_problem("BK1")
        lo, hi = problem.bounds
        # 41 points over [-5, 10] step 0.375; -5 + 16 * 0.375 = 1.0 is on it
        x = np.array([1.0, 1.0])
        u0 = weak_pareto_gap_grid(problem, x, np.ones(2), lo, hi, resolution=41)
        assert u0 == 0.0

    def test_validation(self):
        spec = QuadraticSpec(n=4, n_objectives=2)
        problem = random_quadratic(spec, seed=1)
        with pytest.raises(ValueError, match="n <= 3"):
            weak_pareto_gap_grid(problem, np.zeros(4), np.ones(2), -1.0, 1.0)
        small = get_problem("BK1")
        with pytest.raises(ValueError, match="resolution"):
            weak_pareto_gap_grid(
                small, np.zeros(2), np.ones(2), -5.0, 10.0, resolution=1
            )
        # a float count once failed inside np.linspace with numpy's TypeError
        with pytest.raises(ValueError, match="resolution must be an integer"):
            weak_pareto_gap_grid(
                small, np.zeros(2), np.ones(2), -5.0, 10.0, resolution=2.5
            )

    def test_alphas_checked_as_in_merit_gap(self):
        """Zero, nan, negative and wrongly shaped weights once returned inf,
        -inf, a finite number and a broadcast error; now each raises the
        ValueError merit_gap raises for them."""
        problem = get_problem("BK1")
        lo, hi = problem.bounds
        x = np.array([2.5, -2.5])
        message = r"ell \* alphas must be 2 finite positive values"
        for alphas in ((0.0, 0.0), (np.nan, 1.0), (-1.0, 1.0), (1.0, 1.0, 1.0)):
            alphas = np.array(alphas)
            with pytest.raises(ValueError, match=message):
                merit_gap(problem, x, alphas)
            with pytest.raises(ValueError, match=message):
                weak_pareto_gap_grid(problem, x, alphas, lo, hi, resolution=11)

    def test_infeasible_grid_points_skipped(self):
        problem = get_problem("markowitz")
        assert problem.n == 8  # too big for the grid; use a simplex toy instead
        from moprox.problems import MCOProblem as MP
        from moprox.prox import SimplexIndicator

        comp = SmoothComponent(
            value=lambda x: float(np.dot(x, x)),
            gradient=lambda x: 2.0 * x,
            lipschitz=2.0,
        )
        toy = MP(n=2, smooth=(comp,), nonsmooth=SimplexIndicator())
        x = np.array([0.5, 0.5])
        u0 = weak_pareto_gap_grid(toy, x, np.ones(1), 0.0, 1.0, resolution=21)
        # best feasible grid competitor is (0.5, 0.5) itself
        assert u0 == pytest.approx(0.0, abs=1e-12)

    def test_grid_points_outside_the_smooth_domain_skipped(self):
        """f1 = sqrt(x), f2 = sqrt(x) + x: grid points at y < 0 cannot be
        evaluated and are skipped, so [-1, 1] gives the value of [0, 1],
        both attained at y = 0."""
        comps = tuple(
            SmoothComponent(
                value=lambda x, s=s: float(np.sqrt(x[0]) + s * x[0]),
                gradient=lambda x, s=s: 0.5 / np.sqrt(x) + s,
            )
            for s in (0.0, 1.0)
        )
        problem = MCOProblem(n=1, smooth=comps)
        x = np.array([0.5])
        with np.errstate(invalid="ignore"):
            wide = weak_pareto_gap_grid(problem, x, np.ones(2), -1.0, 1.0)
        assert wide == weak_pareto_gap_grid(problem, x, np.ones(2), 0.0, 1.0)
        assert wide == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_x_outside_the_domain_rejected(self):
        """x itself must have finite F, off the simplex and off a smooth
        part's domain alike."""
        comp = SmoothComponent(value=lambda x: float(np.dot(x, x)), gradient=lambda x: 2.0 * x)
        toy = MCOProblem(n=2, smooth=(comp,), nonsmooth=SimplexIndicator())
        with pytest.raises(ValueError, match="x itself must have finite objective values"):
            weak_pareto_gap_grid(toy, np.array([0.5, 0.75]), np.ones(1), 0.0, 1.0)
        nan_f = SmoothComponent(value=lambda x: float("nan"), gradient=lambda x: x)
        with pytest.raises(ValueError, match="x itself must have finite objective values"):
            weak_pareto_gap_grid(MCOProblem(n=1, smooth=(nan_f,)), np.zeros(1), np.ones(1),
                                 -1.0, 1.0)
