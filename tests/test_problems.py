"""Tests for problem containers, the registry, and the bundled instances."""

import numpy as np
import pytest

from moprox.exceptions import EvaluationError, UnknownProblemError
from moprox.problems import EvalCounters, MCOProblem, SmoothComponent
from moprox.prox import BoxIndicator, SimplexIndicator, WeightedL1, Zero
from moprox.testproblems import (
    PORTFOLIO_COV,
    PORTFOLIO_MEAN,
    QuadraticSpec,
    available_problems,
    bk1,
    get_problem,
    jos1,
    markowitz_portfolio,
    random_quadratic,
    register_problem,
)


def _check_jacobian(problem, x, rel_step=1e-6, rtol=1e-5):
    """Assert that analytic gradients match central differences, with a
    step of rel_step * (1 + |x_j|) per coordinate."""
    x = np.asarray(x, dtype=float)
    J = problem.jacobian(x)
    J_fd = np.empty_like(J)
    for j in range(problem.n):
        h = rel_step * (1.0 + abs(x[j]))
        e = np.zeros(problem.n)
        e[j] = h
        J_fd[:, j] = (problem.smooth_values(x + e) - problem.smooth_values(x - e)) / (2.0 * h)
    err = float(np.max(np.abs(J - J_fd) / np.maximum(np.abs(J), 1.0)))
    assert err <= rtol, f"{problem.name}: jacobian relative error {err:.3e} > {rtol:g}"


def _feasible_point(problem, rng):
    if problem.name == "markowitz":
        return rng.dirichlet(np.ones(problem.n))
    if problem.bounds is not None:
        lo, hi = problem.bounds
        return rng.uniform(lo, hi)
    return rng.normal(size=problem.n)


class TestMCOProblem:
    def _two_quadratics(self, n=3):
        return MCOProblem(
            n=n,
            smooth=(
                SmoothComponent(
                    value=lambda x: float(np.dot(x, x)),
                    gradient=lambda x: 2.0 * x,
                    lipschitz=2.0,
                    strong_mu=2.0,
                ),
                SmoothComponent(
                    value=lambda x: float(np.dot(x - 1.0, x - 1.0)),
                    gradient=lambda x: 2.0 * (x - 1.0),
                    lipschitz=2.0,
                    strong_mu=2.0,
                ),
            ),
        )

    def test_shapes_and_values(self):
        p = self._two_quadratics()
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(p.evaluate_F(x), [1.0, 2.0])
        assert p.jacobian(x).shape == (2, 3)
        assert p.m == 2

    def test_counters_accumulate(self):
        p = self._two_quadratics()
        c = EvalCounters()
        x = np.zeros(3)
        p.evaluate_F(x, c)
        p.evaluate_F(x, c)
        p.jacobian(x, c)
        assert c.F_evals == 2
        assert c.grad_evals == p.m

    def test_wrong_shape_rejected(self):
        p = self._two_quadratics()
        with pytest.raises(ValueError):
            p.evaluate_F(np.zeros(4))

    def test_gradient_of_wrong_shape_rejected(self):
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(3))
        p = MCOProblem(n=2, smooth=(comp,))
        with pytest.raises(ValueError, match=r"gradient 0 has shape \(3,\), expected \(2,\)"):
            p.jacobian(np.zeros(2))

    def test_nonfinite_value_raises(self):
        bad = MCOProblem(
            n=1,
            smooth=(
                SmoothComponent(
                    value=lambda x: float("nan"), gradient=lambda x: np.zeros(1)
                ),
            ),
        )
        with pytest.raises(EvaluationError):
            bad.evaluate_F(np.zeros(1))

    def test_indicator_infeasible_point_raises(self):
        mark = markowitz_portfolio()
        with pytest.raises(EvaluationError):
            mark.evaluate_F(np.full(8, 1.0))

    def test_nonfinite_g_names_its_first_objective(self):
        """Off the simplex every g_i is +inf: the error names objective 0,
        for an array or a list point (smooth_values checks the point)."""
        mark = markowitz_portfolio()
        for x in (np.full(8, 1.0), [1.0] * 8):
            with pytest.raises(EvaluationError, match="objective 0 is nonfinite") as info:
                mark.evaluate_F(x)
            assert info.value.objective == 0

    def test_empty_or_invalid_construction(self):
        with pytest.raises(ValueError):
            MCOProblem(n=0, smooth=())
        with pytest.raises(ValueError):
            MCOProblem(n=2, smooth=(), nonsmooth=WeightedL1(coeffs=(1.0,)))
        # a float n once built and then failed inside numpy or at the x0 check
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        for n in (np.float64(2.0), 2.5):
            with pytest.raises(ValueError, match="n must be an integer"):
                MCOProblem(n=n, smooth=(comp,))
        assert MCOProblem(n=np.int64(2), smooth=(comp,)).n == 2

    def test_unknown_nonsmooth_kind_rejected(self):
        """A user-written l1 term with g_values and prox is refused: the
        solvers reach g only through the methods of prox's four kinds."""

        class OwnL1:
            def g_values(self, x):
                return 0.3 * np.abs(x).sum() * np.ones(2)

            def prox(self, weights, v):
                kappa = 0.3 * float(np.sum(weights))
                return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)

        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="nonsmooth must be one of"):
            MCOProblem(n=2, smooth=(comp, comp), nonsmooth=OwnL1())

    def test_kind_size_must_match_problem(self):
        """One l1 coefficient per objective and one box entry per variable;
        a mismatch used to fail inside solve() or broadcast silently."""
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="m = 2 coefficients"):
            MCOProblem(n=2, smooth=(comp, comp), nonsmooth=WeightedL1((0.3,)))
        with pytest.raises(ValueError, match="n = 2 entries"):
            MCOProblem(n=2, smooth=(comp,), nonsmooth=BoxIndicator((0.0,), (1.0,)))
        MCOProblem(n=2, smooth=(comp, comp), nonsmooth=WeightedL1((0.3, 0.3)))
        MCOProblem(n=2, smooth=(comp,), nonsmooth=BoxIndicator((0.0, 0.0), (1.0, 1.0)))

    def test_bounds_validation(self):
        comp = SmoothComponent(
            value=lambda x: 0.0, gradient=lambda x: np.zeros(2)
        )
        with pytest.raises(ValueError):
            MCOProblem(n=2, smooth=(comp,), bounds=(np.zeros(3), np.ones(3)))
        with pytest.raises(ValueError):
            MCOProblem(n=2, smooth=(comp,), bounds=(np.ones(2), np.zeros(2)))

    def test_nan_bound_rejected(self):
        """A NaN bound used to be accepted; every mode then ended at k = 0
        blaming a nonfinite smooth value."""
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        for bounds in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan])):
            with pytest.raises(ValueError, match="lower <= upper in every entry, none NaN"):
                MCOProblem(n=2, smooth=(comp,), bounds=bounds)

    def test_bound_arrays_are_copied(self):
        """The problem keeps read-only copies of the bounds; the caller's
        float arrays used to become read-only themselves."""
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        lo, hi = np.zeros(2), np.ones(2)
        p = MCOProblem(n=2, smooth=(comp,), bounds=(lo, hi))
        lo[0], hi[0] = -1.0, 2.0
        np.testing.assert_array_equal(p.bounds[0], [0.0, 0.0])
        np.testing.assert_array_equal(p.bounds[1], [1.0, 1.0])
        assert not (p.bounds[0].flags.writeable or p.bounds[1].flags.writeable)

    def test_is_feasible(self):
        p = get_problem("BK1")
        assert p.is_feasible(np.array([0.0, 0.0]))
        assert not p.is_feasible(np.array([11.0, 0.0]))

    def test_nan_point_is_not_feasible(self):
        assert not get_problem("BK1").is_feasible(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "kind, kind_only, outside_kind",
        [
            (Zero(), [5.0, -7.0], None),
            (WeightedL1(coeffs=(1.0,)), [5.0, -7.0], None),
            (BoxIndicator((-1.0, -1.0), (1.0, 1.0)), [0.5, -1.0], [1.5, 0.0]),
            (SimplexIndicator(), [0.25, 0.75], [0.5, 0.75]),
        ],
    )
    def test_is_feasible_per_kind(self, kind, kind_only, outside_kind):
        """Feasible means inside the kind's domain and, when given, the bounds."""
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        alone = MCOProblem(n=2, smooth=(comp,), nonsmooth=kind)
        boxed = MCOProblem(
            n=2, smooth=(comp,), nonsmooth=kind, bounds=(np.zeros(2), np.full(2, 0.6))
        )
        inside_both = np.array([0.4, 0.6])
        assert alone.is_feasible(inside_both) and boxed.is_feasible(inside_both)
        assert alone.is_feasible(np.array(kind_only))
        assert not boxed.is_feasible(np.array(kind_only))
        if outside_kind is not None:
            assert not alone.is_feasible(np.array(outside_kind))
            assert not boxed.is_feasible(np.array(outside_kind))

    @pytest.mark.parametrize("kind", [Zero(), WeightedL1(coeffs=(1.0,))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_is_not_feasible_without_bounds(self, kind, bad):
        """Zero and WeightedL1 have all of R^n as their domain, so without
        bounds only the finiteness check can refuse such a point; it used to
        return True for [nan, 0] and [inf, 0]."""
        comp = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        problem = MCOProblem(n=2, smooth=(comp,), nonsmooth=kind)
        assert problem.is_feasible([0.0, 0.0])
        assert not problem.is_feasible([bad, 0.0])
        assert not problem.is_feasible([0.0, bad])


class TestBundledProblems:
    def test_bk1_values(self):
        """BK1 at the origin: f_1 = 0, f_2 = 2 * 25 = 50."""
        p = bk1()
        np.testing.assert_allclose(p.evaluate_F(np.zeros(2)), [0.0, 50.0])
        lo, hi = p.bounds
        np.testing.assert_array_equal(lo, [-5.0, -5.0])
        np.testing.assert_array_equal(hi, [10.0, 10.0])

    def test_jos1_values(self):
        """JOS1 at the all-ones point has both objectives equal to 1."""
        p = jos1(50, 2.0)
        np.testing.assert_allclose(p.evaluate_F(np.ones(50)), [1.0, 1.0])

    def test_jos1_constants(self):
        p = jos1(100, 2.0)
        np.testing.assert_allclose(p.lipschitz_constants(), [0.02, 0.02])
        np.testing.assert_allclose(p.strong_moduli(), [0.02, 0.02])

    def test_markowitz_embedded_statistics(self):
        """Equal weights: return 1.11385, variance about 0.00982."""
        p = markowitz_portfolio()
        x = np.full(8, 0.125)
        F = p.evaluate_F(x)
        assert abs(F[0] - (-1.11385)) <= 1e-4
        assert abs(F[1] - 0.00982) <= 1e-4

    def test_markowitz_single_security_variance(self):
        """Concentrating on security j prices its own covariance entry."""
        p = markowitz_portfolio()
        for j in (0, 4, 6):
            e = np.zeros(8)
            e[j] = 1.0
            # spectrum clipping moves entries by less than 2.5e-5
            assert abs(p.evaluate_F(e)[1] - PORTFOLIO_COV[j, j]) <= 2.5e-5

    def test_markowitz_spectrum_and_constants(self):
        p = markowitz_portfolio()
        risk = p.smooth[1]
        assert p.smooth[0].lipschitz == 0.0
        assert risk.lipschitz == pytest.approx(0.2206, abs=2e-4)
        # the mean vector enters f_1 with a flipped sign
        x = np.full(8, 0.125)
        assert p.smooth[0].value(x) == pytest.approx(-float(PORTFOLIO_MEAN.mean()))

    def test_quadratic_family_reproducible(self):
        spec = QuadraticSpec(n=4)
        a = random_quadratic(spec, 123)
        b = random_quadratic(spec, 123)
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=4)
        np.testing.assert_array_equal(a.evaluate_F(x), b.evaluate_F(x))

    def test_quadratic_spec_validation(self):
        with pytest.raises(ValueError):
            QuadraticSpec(n=0)
        with pytest.raises(ValueError):
            QuadraticSpec(n=2, diag_low=-1.0)
        with pytest.raises(ValueError):
            QuadraticSpec(n=2, xl=-2.0, xu=None)
        with pytest.raises(ValueError):
            QuadraticSpec(n=2, g_kind="l2")
        # float counts once built and then failed inside random_quadratic
        with pytest.raises(ValueError, match="n must be an integer"):
            QuadraticSpec(n=2.5)
        with pytest.raises(ValueError, match="n_objectives must be an integer"):
            QuadraticSpec(n=2, n_objectives=2.0)
        assert QuadraticSpec(n=np.int64(2)).n == 2
        # a NaN or infinite diagonal range once failed inside numpy's uniform
        for bad in ({"diag_low": float("nan")}, {"diag_high": float("nan")},
                    {"diag_high": np.inf}, {"diag_low": 5.0, "diag_high": 2.0}):
            with pytest.raises(ValueError, match="need 0 < diag_low <= diag_high < inf"):
                QuadraticSpec(n=2, **bad)

    def test_quadratic_curvature_matches_constants(self):
        """The declared L_i and mu_i bracket every directional curvature."""
        prob = random_quadratic(QuadraticSpec(n=6), 7)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2.0, 2.0, size=6)
        h = 1e-6
        Ls = prob.lipschitz_constants()
        mus = prob.strong_moduli()
        for i, comp in enumerate(prob.smooth):
            for _ in range(5):
                u = rng.normal(size=6)
                u /= np.linalg.norm(u)
                curv = float(
                    np.dot(u, (comp.gradient(x + h * u) - comp.gradient(x - h * u)))
                ) / (2.0 * h)
                assert mus[i] - 1e-4 <= curv <= Ls[i] + 1e-4


class TestJacobians:
    def test_registry_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for key in available_problems():
            problem = get_problem(key)
            for _ in range(3):
                x = _feasible_point(problem, rng)
                _check_jacobian(problem, x)

    def test_quadratic_jacobians(self):
        rng = np.random.default_rng(3)
        for n in (2, 10):
            problem = random_quadratic(QuadraticSpec(n=n), 42)
            x = rng.uniform(-2.0, 2.0, size=n)
            _check_jacobian(problem, x)

    def test_exact_linear_jacobian(self):
        """f = 2 x_0 at x = 0: the differences are exact, the error is 0."""
        linear = SmoothComponent(value=lambda x: 2.0 * float(x[0]),
                                 gradient=lambda x: np.array([2.0]))
        _check_jacobian(MCOProblem(n=1, smooth=(linear,)), np.zeros(1))


class TestRegistry:
    def test_expected_keys_present(self):
        keys = available_problems()
        for key in ("BK1", "JOS1a", "JOS1b", "markowitz"):
            assert key in keys
        assert keys == sorted(keys)

    def test_unknown_key_lists_options(self):
        with pytest.raises(UnknownProblemError, match="BK1"):
            get_problem("nope")

    def test_register_problem(self):
        register_problem("tmp-registry-entry", bk1)
        try:
            assert get_problem("tmp-registry-entry").name == "BK1"
            with pytest.raises(ValueError):
                register_problem("tmp-registry-entry", bk1)
        finally:
            from moprox import testproblems

            del testproblems._REGISTRY["tmp-registry-entry"]

    @pytest.mark.parametrize("key", ("quadratic", "quadratic:n=3"))
    def test_register_refuses_quadratic_tokens(self, key):
        """A campaign reads such a key as the random family, never as the
        registered factory."""
        with pytest.raises(ValueError, match="names the random quadratic family"):
            register_problem(key, bk1)
        assert key not in available_problems()

    def test_bad_factories_are_refused_naming_the_key(self):
        """A factory that is not callable is refused at registration, and one
        whose result is not an MCOProblem when it is called; they failed
        with a TypeError and an AttributeError deep in a campaign."""
        from moprox import testproblems

        with pytest.raises(ValueError, match="'tmp-not-callable' is not callable"):
            register_problem("tmp-not-callable", 5)
        assert "tmp-not-callable" not in available_problems()
        register_problem("tmp-not-a-problem", lambda: "BK1")
        try:
            with pytest.raises(ValueError, match="'tmp-not-a-problem' returned str"):
                get_problem("tmp-not-a-problem")
        finally:
            del testproblems._REGISTRY["tmp-not-a-problem"]

    def test_register_refuses_a_non_string_key(self):
        """A campaign names its problem by a string token, and one other key
        type in the registry would break the sort of available_problems()."""
        with pytest.raises(ValueError, match="key must be a string"):
            register_problem(5, bk1)
        assert all(isinstance(key, str) for key in available_problems())


class TestCovarianceRepair:
    def test_embedded_matrix_is_psd_after_repair(self):
        p = markowitz_portfolio()
        # recover the repaired matrix through the risk gradient: grad = 2 Sigma x
        S = np.column_stack(
            [0.5 * p.smooth[1].gradient(np.eye(8)[j]) for j in range(8)]
        )
        assert np.linalg.eigvalsh(S)[0] >= -1e-10
        # the repair stays under the table's rounding half-ulp
        assert np.max(np.abs(S - PORTFOLIO_COV)) < 5e-5
