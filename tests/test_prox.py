"""Tests for the proximal operators and projections."""

import itertools

import numpy as np
import pytest

from moprox.prox import (
    BoxIndicator,
    SimplexIndicator,
    WeightedL1,
    Zero,
    project_simplex,
    soft_threshold,
)


def _simplex_qp_oracle(v):
    """Projection onto the simplex by enumerating KKT active sets (small n).

    For support S the candidate is v_S - (sum(v_S) - 1)/|S| on S and zero
    elsewhere; the optimal one is feasible and satisfies the multiplier
    sign conditions.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    best_dist = np.inf
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            S = list(S)
            theta = (v[S].sum() - 1.0) / len(S)
            x = np.zeros(n)
            x[S] = v[S] - theta
            if np.any(x[S] < -1e-12):
                continue
            # optimality of the inactive set: v_j - theta <= 0 off support
            off = np.setdiff1d(np.arange(n), S)
            if off.size and np.any(v[off] - theta > 1e-12):
                continue
            dist = np.sum((x - v) ** 2)
            if dist < best_dist:
                best_dist = dist
                best = x
    return best


class TestSoftThreshold:
    def test_known_values(self):
        """prox of 0.5*||.||_1 at (0.3, -0.7, 1.2) is (0, -0.2, 0.7)."""
        out = soft_threshold([0.3, -0.7, 1.2], 0.5)
        np.testing.assert_allclose(out, [0.0, -0.2, 0.7], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=6) * 3.0
            kappa = rng.uniform(0.0, 2.0)
            out = soft_threshold(v, kappa)
            assert np.all(np.abs(out) <= np.abs(v) + 1e-15)
            assert np.all(out * v >= 0.0)


class TestProjectSimplex:
    def test_symmetric_point(self):
        """All-equal input projects to the barycenter."""
        out = project_simplex([0.6, 0.6, 0.6])
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_feasible_point_is_fixed(self):
        x = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(2, 5)
            v = rng.normal(size=n) * rng.uniform(0.5, 5.0)
            np.testing.assert_allclose(
                project_simplex(v), _simplex_qp_oracle(v), atol=1e-10
            )

    def test_matches_active_set_oracle_up_to_n8(self):
        """The oracle enumerates 2**n supports, so larger n gets fewer draws."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(5, 9)) * 10.0
            np.testing.assert_allclose(
                project_simplex(v), _simplex_qp_oracle(v), atol=1e-10
            )

    def test_uniform_shift_invariance(self):
        """P(v + c*1) = P(v) up to the roundoff of the shift itself."""
        rng = np.random.default_rng(4)
        eps = np.finfo(float).eps
        for _ in range(100):
            v = rng.normal(size=8)
            c = rng.uniform(-1e4, 1e4)
            np.testing.assert_allclose(
                project_simplex(v + c),
                project_simplex(v),
                atol=32.0 * eps * (1.0 + abs(c)),
            )

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = rng.normal(size=6) * 2.0
            v = rng.normal(size=6) * 2.0
            lhs = np.linalg.norm(project_simplex(u) - project_simplex(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_output_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = project_simplex(rng.normal(size=7) * 10.0)
            assert np.all(x >= 0.0)
            assert abs(x.sum() - 1.0) <= 1e-9

    def test_bit_identical_to_wrapper_form(self):
        """The ufunc/method body returns exactly what the np.* wrapper form did."""

        def wrapper_form(v):
            v = np.asarray(v, dtype=float)
            n = v.size
            v = v - v.mean()
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - 1.0
            idx = np.arange(1, n + 1)
            cond = u - css / idx > 0.0
            rho = np.nonzero(cond)[0][-1]
            theta = css[rho] / (rho + 1.0)
            return np.maximum(v - theta, 0.0)

        rng = np.random.default_rng(7)
        cases = [[0.3, -1.2, 2.5], [0.5, 0.5, 0.5, 0.5], [1.0, 1.0, -3.0, 1.0]]
        for n in (1, 2, 8, 100):
            for _ in range(50):
                v = rng.normal(size=n) * rng.uniform(0.1, 10.0)
                cases += [v, v + 1e6, np.round(v)]  # offset, then ties
        for v in cases:
            assert np.array_equal(project_simplex(v), wrapper_form(v))

    def test_spread_beyond_float_resolution(self):
        """When the mean-centred copy has a top entry above 1e3, or resolves
        no threshold (a spread of 2**53 or more), the projection is taken
        after shifting by the maximum, which keeps the top entries exact."""
        np.testing.assert_array_equal(project_simplex([1e17, -1e17, 0.0, 0.0]), [1, 0, 0, 0])
        np.testing.assert_array_equal(project_simplex([1e17, 1e17, -1e17, 0.0]), [0.5, 0.5, 0, 0])
        # one very negative entry: the mean rounds off, or absorbs, the three
        # top entries (centred, -3e15 gave [0.5, 0.25, 0.25, 0] and -3e16 a
        # point off the simplex)
        for low in (-3e13, -3e15, -3e16, -3e17):
            np.testing.assert_allclose(
                project_simplex([0.5, 0.3, 0.2, low]), [0.5, 0.3, 0.2, 0.0], rtol=0, atol=1e-15
            )
        with np.errstate(over="ignore", invalid="ignore"):  # the centring sum overflows
            np.testing.assert_array_equal(project_simplex([1.7e308, 1.7e308]), [0.5, 0.5])
            np.testing.assert_array_equal(project_simplex([1.7e308, -1.7e308]), [1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, bad):
        v = np.zeros(3)
        v[1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            project_simplex(v)


class TestKinds:
    def test_zero_kind(self):
        z = Zero()
        assert z.g_values(np.zeros(3), 2)[0] == 0.0
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(z.prox([1.0, 1.0], np.ones(2), v), v)

    def test_weighted_l1_prox_combines_weights(self):
        """prox of sum_i w_i c_i |.| is soft thresholding at sum w_i c_i."""
        kind = WeightedL1(coeffs=(0.5, 0.25))
        w = np.array([2.0, 4.0])
        v = np.array([3.0, -0.5, 1.9])
        expect = soft_threshold(v, 0.5 * 2.0 + 0.25 * 4.0)
        np.testing.assert_allclose(kind.prox(w, np.ones(2), v), expect, atol=1e-15)

    def test_weighted_l1_g_values(self):
        kind = WeightedL1(coeffs=(1.0, 0.5))
        vals = kind.g_values(np.array([1.0, -2.0]), 2)
        np.testing.assert_allclose(vals, [3.0, 1.5])

    def test_box_indicator(self):
        box = BoxIndicator(lower=(-1.0, -1.0), upper=(1.0, 2.0))
        assert box.contains(np.array([0.0, 1.5]))
        assert not box.contains(np.array([0.0, 2.5]))
        assert box.g_values(np.array([0.0, 2.5]), 2)[0] == np.inf
        out = box.prox([1.0, 1.0], np.ones(2), np.array([-3.0, 5.0]))
        np.testing.assert_array_equal(out, [-1.0, 2.0])
        # an infeasible start is projected by the same componentwise clip
        np.testing.assert_array_equal(box.project(np.array([-3.0, 5.0])), [-1.0, 2.0])

    def test_box_indicator_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxIndicator(lower=(1.0,), upper=(0.0,))

    def test_box_indicator_nan_bound_rejected(self):
        """A NaN bound used to pass and fail only at solve time, as a start
        outside the domain of g."""
        for lower, upper in (((0.0, np.nan), (1.0, 1.0)), ((0.0, 0.0), (np.nan, 1.0))):
            with pytest.raises(ValueError, match="lower <= upper in every entry, none NaN"):
                BoxIndicator(lower, upper)

    def test_weighted_l1_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedL1(coeffs=(1.0, -0.5))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_weighted_l1_nonfinite_coefficient_rejected(self, bad):
        """A NaN coefficient passed the sign check and ended a solve in
        line_search_failure; an infinite one made the prox warn."""
        with pytest.raises(ValueError, match="finite and nonnegative"):
            WeightedL1(coeffs=(bad, 1.0))

    def test_simplex_indicator(self):
        s = SimplexIndicator()
        assert s.contains(np.array([0.25, 0.75]))
        assert not s.contains(np.array([0.5, 0.75]))
        out = s.prox([1.0, 1.0], np.ones(2), np.array([2.0, -1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_prox_contract_on_the_simplex(self):
        """For lam on the unit simplex (vertices included) and alphas > 0 the
        indicator kinds project, Zero returns v itself, and WeightedL1
        thresholds at sum_i lam_i c_i / alpha_i."""
        rng = np.random.default_rng(12)
        n, m = 4, 3
        box = BoxIndicator(lower=(-1.0,) * n, upper=(1.0,) * n)
        simplex = SimplexIndicator()
        l1 = WeightedL1(coeffs=(0.2, 0.5, 1.5))
        lams = [*np.eye(m), np.full(m, 1.0 / m), *rng.dirichlet(np.ones(m), size=5)]
        for lam in lams:
            alphas = np.exp(rng.uniform(-3.0, 3.0, size=m))
            v = rng.normal(size=n) * 3.0
            assert np.array_equal(box.prox(lam, alphas, v), box.project(v))
            assert np.array_equal(simplex.prox(lam, alphas, v), simplex.project(v))
            assert Zero().prox(lam, alphas, v) is v
            kappa = sum(li * ci / ai for li, ci, ai in zip(lam, l1.coeffs, alphas))
            np.testing.assert_allclose(
                l1.prox(lam, alphas, v), soft_threshold(v, kappa), rtol=0, atol=1e-14
            )

    def test_g_values_broadcasts_shared_value(self):
        box = BoxIndicator(lower=(0.0,), upper=(1.0,))
        vals = box.g_values(np.array([0.5]), 3)
        np.testing.assert_array_equal(vals, np.zeros(3))


class TestProxOptimality:
    """The prox point minimizes w^T g(.) plus half squared distance."""

    def _objective(self, kind, weights, v, z):
        return float(np.dot(weights, kind.g_values(z, len(weights)))) + 0.5 * float(
            np.sum((z - v) ** 2)
        )

    def test_l1_prox_beats_perturbations(self):
        rng = np.random.default_rng(8)
        kind = WeightedL1(coeffs=(0.4, 0.8))
        for _ in range(50):
            v = rng.normal(size=5) * 2.0
            w = rng.uniform(0.1, 2.0, size=2)
            p = kind.prox(w, np.ones(2), v)
            base = self._objective(kind, w, v, p)
            for _ in range(20):
                z = p + rng.normal(size=5) * rng.uniform(1e-4, 1.0)
                assert base <= self._objective(kind, w, v, z) + 1e-10

    def test_indicator_prox_is_closest_feasible_point(self):
        rng = np.random.default_rng(9)
        box = BoxIndicator(lower=(-1.0,) * 4, upper=(1.0,) * 4)
        simplex = SimplexIndicator()
        for _ in range(50):
            v = rng.normal(size=4) * 3.0
            w = rng.uniform(0.1, 2.0, size=2)

            p = box.prox(w, np.ones(2), v)
            assert box.contains(p)
            z = rng.uniform(-1.0, 1.0, size=4)
            assert np.linalg.norm(p - v) <= np.linalg.norm(z - v) + 1e-10

            q = simplex.prox(w, np.ones(2), v)
            assert simplex.contains(q)
            y = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(q - v) <= np.linalg.norm(y - v) + 1e-10
