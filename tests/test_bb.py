"""Tests for the per-objective secant (Barzilai-Borwein) stepsize rule."""

import numpy as np
import pytest

from moprox import bb
from moprox.bb import ALPHA_MAX, ALPHA_MIN, bb_stepsizes


def _pair_from_hessians(hessians, x_prev, x):
    """Gradients at x_prev and x for quadratics f_i = 0.5 x'H_i x (grad = H_i x)."""
    grads_prev = np.array([H @ x_prev for H in hessians])
    grads = np.array([H @ x for H in hessians])
    return grads_prev, grads


class TestSecantBranches:
    def test_positive_curvature_recovers_diagonal(self):
        """For H = diag(2, 5) and s = e_1 the quotient is exactly 2."""
        H1 = np.diag([2.0, 5.0])
        H2 = np.diag([7.0, 3.0])
        x_prev = np.array([0.0, 0.0])
        x = np.array([1.0, 0.0])
        grads_prev, grads = _pair_from_hessians([H1, H2], x_prev, x)
        alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
        np.testing.assert_allclose(alphas, [2.0, 7.0])

    def test_rayleigh_quotient_for_general_step(self):
        """sy/ss equals the Rayleigh quotient of H along the step."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            H = A @ A.T + np.eye(3)
            x_prev = rng.normal(size=3)
            x = x_prev + rng.normal(size=3)
            grads_prev, grads = _pair_from_hessians([H], x_prev, x)
            s = x - x_prev
            expect = float(s @ H @ s / (s @ s))
            got = bb_stepsizes(x_prev, grads_prev, x, grads)[0]
            assert got == pytest.approx(np.clip(expect, ALPHA_MIN, ALPHA_MAX), rel=1e-12)

    def test_linear_objective_hits_floor(self):
        """Zero gradient change means no curvature signal: ALPHA_MIN."""
        grads_prev = np.array([[3.0, -1.0]])
        alphas = bb_stepsizes(
            np.zeros(2), grads_prev, np.array([0.7, 0.2]), grads_prev.copy()
        )
        assert alphas[0] == ALPHA_MIN == 1e-3

    def test_orthogonal_change_hits_floor(self):
        """sy = 0 with nonzero y also falls back to ALPHA_MIN."""
        grads_prev = np.array([[0.0, 1.0]])
        grads = np.array([[0.0, 2.0]])  # y = (0, 1), s = (1, 0)
        alphas = bb_stepsizes(np.zeros(2), grads_prev, np.array([1.0, 0.0]), grads)
        assert alphas[0] == ALPHA_MIN

    def test_negative_curvature_uses_norm_ratio(self):
        """Concave quadratic: alpha falls back to ||y|| / ||s||."""
        H = -4.0 * np.eye(2)
        x_prev = np.array([1.0, 1.0])
        x = np.array([2.0, 1.0])
        grads_prev, grads = _pair_from_hessians([H], x_prev, x)
        alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
        assert alphas[0] == pytest.approx(4.0)

    def test_clamped_to_bounds(self):
        """Curvatures 1e7 and 1e-7, beyond [ALPHA_MIN, ALPHA_MAX] = [1e-3, 1e3],
        land on its ends; so do magnitudes 1e7 and 1e-7 of the fallback."""
        H_big = np.diag([1e7, 1e7])
        H_small = np.diag([1e-7, 1e-7])
        x_prev = np.zeros(2)
        x = np.array([1.0, 0.0])
        grads_prev, grads = _pair_from_hessians([H_big, H_small], x_prev, x)
        alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
        np.testing.assert_array_equal(alphas, [ALPHA_MAX, ALPHA_MIN])
        grads_prev, grads = _pair_from_hessians([-H_big, -H_small], x_prev, x)
        alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
        np.testing.assert_array_equal(alphas, [ALPHA_MAX, ALPHA_MIN])

    def test_step_scale_invariance(self):
        """Scaling the displacement leaves the quotient unchanged."""
        H = np.diag([3.0, 8.0, 1.5])
        rng = np.random.default_rng(1)
        d = rng.normal(size=3)
        base = None
        for c in (1.0, 1e-4, 1e4):
            x_prev = np.zeros(3)
            x = c * d
            grads_prev, grads = _pair_from_hessians([H], x_prev, x)
            val = bb_stepsizes(x_prev, grads_prev, x, grads)[0]
            if base is None:
                base = val
            assert val == pytest.approx(base, rel=1e-12)


class TestEdgeCases:
    def test_nan_curvature_hits_floor(self):
        """A NaN gradient change gives a NaN <s, y_i>, which is neither flat
        nor signed: ALPHA_MIN, like a flat objective."""
        grads = np.array([[np.nan, 1.0], [4.0, 0.0]])
        alphas = bb_stepsizes(np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0]), grads)
        np.testing.assert_array_equal(alphas, [ALPHA_MIN, 4.0])

    def test_custom_bounds_respected(self, monkeypatch):
        """The clamp is read from the module at each call, so a patched one
        holds."""
        monkeypatch.setattr(bb, "ALPHA_MIN", 0.1)
        monkeypatch.setattr(bb, "ALPHA_MAX", 10.0)
        H = np.diag([50.0, 50.0])
        x_prev = np.zeros(2)
        x = np.array([1.0, 0.0])
        grads_prev, grads = _pair_from_hessians([H], x_prev, x)
        assert bb_stepsizes(x_prev, grads_prev, x, grads)[0] == 10.0
        grads_prev, grads = _pair_from_hessians([1e-3 * H], x_prev, x)
        assert bb_stepsizes(x_prev, grads_prev, x, grads)[0] == 0.1

    def test_mixed_objectives_handled_independently(self):
        """One linear and one quadratic objective get separate branches."""
        H = np.diag([6.0, 2.0])
        x_prev = np.zeros(2)
        x = np.array([0.5, 0.0])
        grads_prev = np.array([[1.0, 1.0], [0.0, 0.0]])
        grads = np.vstack([[1.0, 1.0], H @ x])
        alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
        assert alphas[0] == ALPHA_MIN
        assert alphas[1] == pytest.approx(6.0)
