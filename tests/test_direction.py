"""Tests for the direction subproblem and its simplex dual.

The direction d at x minimizes max_i model_i(d)/alpha_i + ||d||^2/2 where
model_i(d) = <grad f_i, d> + g_i(x+d) - g_i(x). The dual minimizes omega
over the simplex; the prox formula recovers d from any multiplier vector.
"""

import math

import numpy as np
import pytest

from moprox import direction
from moprox.direction import (
    GAP_TOL,
    MAX_ITERS,
    DirectionResult,
    SubproblemInput,
    _segment_minimize,
    _solve_m2,
    frank_wolfe_solve,
)
from moprox.problems import EvalCounters
from moprox.prox import BoxIndicator, SimplexIndicator, WeightedL1, Zero, project_simplex
from moprox.testproblems import QuadraticSpec, random_quadratic


def _random_input(rng, n=4, m=3, kind=None, x=None):
    if kind is None:
        kind = Zero()
    if x is None:
        x = rng.normal(size=n)
        if isinstance(kind, SimplexIndicator):
            x = rng.dirichlet(np.ones(n))
        elif isinstance(kind, BoxIndicator):
            x = rng.uniform(kind.lower, kind.upper)
    grads = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
    alphas = rng.uniform(0.05, 20.0, size=m)
    return SubproblemInput(x=x, grads=grads, alphas=alphas, kind=kind)


def _interior_lambda(rng, m):
    lam = rng.dirichlet(np.ones(m))
    lam = 0.9 * lam + 0.1 / m  # keep away from the boundary for central FD
    return lam / lam.sum()


def _primal_value(inp, d):
    """Primal objective max_i model_i / alpha_i + ||d||^2 / 2 at a given d."""
    model = inp.grads @ d + inp.kind.g_values(inp.x + d, inp.m) - inp.g_at_x
    return float(np.max(model / inp.alphas) + 0.5 * np.dot(d, d))


def _kinds_for(rng, n, m):
    return (
        Zero(),
        WeightedL1(coeffs=tuple(rng.uniform(0.05, 1.0, size=m))),
        BoxIndicator(lower=(-1.5,) * n, upper=(1.5,) * n),
        SimplexIndicator(),
    )


def primal_grid_min(inp, span=4.0, points=241, refinements=2):
    """Brute-force the planar primal by nested grid scans (n = 2 only).

    Vectorized over the grid; each refinement shrinks the window to one
    coarse cell around the incumbent, so the final resolution is
    span / points^refinements.
    """
    def scan(c1, c2, half):
        xs = np.linspace(c1 - half, c1 + half, points)
        ys = np.linspace(c2 - half, c2 + half, points)
        D1, D2 = np.meshgrid(xs, ys, indexing="ij")
        P1 = inp.x[0] + D1
        P2 = inp.x[1] + D2
        lin = np.einsum("ik,kab->iab", inp.grads, np.stack([D1, D2]))
        if isinstance(inp.kind, WeightedL1):
            coeffs = np.asarray(inp.kind.coeffs)
            l1 = np.abs(P1) + np.abs(P2)
            gdiff = coeffs[:, None, None] * (l1 - np.abs(inp.x).sum())
        else:
            gdiff = (inp.g_at_x * 0.0)[:, None, None]
        vals = np.max(
            (lin + gdiff) / inp.alphas[:, None, None], axis=0
        ) + 0.5 * (D1**2 + D2**2)
        flat = int(np.argmin(vals))
        i, j = np.unravel_index(flat, vals.shape)
        return float(vals[i, j]), float(D1[i, j]), float(D2[i, j])

    v, a, b = scan(0.0, 0.0, span)
    h = 2.0 * span / (points - 1)
    for _ in range(refinements):
        v, a, b = scan(a, b, h)
        h = 2.0 * h / (points - 1)
    return v


class TestClosedForms:
    def test_single_objective_unconstrained(self):
        """m = 1, g = 0: d = -grad/alpha and value -||d||^2/2."""
        grad = np.array([[2.0, 0.0]])
        inp = SubproblemInput(
            x=np.zeros(2), grads=grad, alphas=np.array([1.0]), kind=Zero()
        )
        res = frank_wolfe_solve(inp)
        np.testing.assert_allclose(res.d, [-2.0, 0.0], atol=1e-12)
        assert -res.omega == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(res.lam, [1.0])

    def test_vertex_solution_costs_one_prox(self):
        """A cold m = 2 solve settled by the sign at t = 0 reuses that probe."""
        inp = SubproblemInput(
            x=np.zeros(2),
            grads=np.array([[2.0, 0.0], [1.0, 0.0]]),
            alphas=np.ones(2),
            kind=Zero(),
        )
        counters = EvalCounters()
        res = frank_wolfe_solve(inp, counters=counters)
        assert counters.prox_evals == 1
        np.testing.assert_array_equal(res.lam, [0.0, 1.0])
        np.testing.assert_array_equal(res.d, [-1.0, 0.0])
        assert res.d_norm == 1.0

    def test_two_objectives_unconstrained_closed_form(self):
        """m = 2, g = 0, unit alphas: lambda* clips the projection ratio."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = rng.normal(size=(2, 3)) * rng.uniform(0.2, 4.0)
            inp = SubproblemInput(
                x=rng.normal(size=3),
                grads=v,
                alphas=np.ones(2),
                kind=Zero(),
            )
            res = frank_wolfe_solve(inp)
            diff = v[0] - v[1]
            denom = float(diff @ diff)
            if denom < 1e-18:
                lam_star = 1.0  # any multiplier works when gradients agree
            else:
                lam_star = float(np.clip((v[1] - v[0]) @ v[1] / denom, 0.0, 1.0))
            u_star = lam_star * v[0] + (1.0 - lam_star) * v[1]
            np.testing.assert_allclose(res.d, -u_star, atol=1e-9)

    def test_critical_point_yields_zero_direction(self):
        """A common minimizer produces d = 0 and zero model value."""
        inp = SubproblemInput(
            x=np.zeros(3),
            grads=np.zeros((2, 3)),
            alphas=np.array([1.0, 2.0]),
            kind=Zero(),
        )
        res = frank_wolfe_solve(inp)
        np.testing.assert_allclose(res.d, np.zeros(3), atol=1e-14)
        assert -res.omega == pytest.approx(0.0, abs=1e-14)


class TestDualFunction:
    def test_gradient_matches_finite_differences(self):
        """Central differences on omega reproduce the analytic gradient."""
        rng = np.random.default_rng(21)
        h = 1e-6
        for trial in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            for kind in _kinds_for(rng, n, m):
                inp = _random_input(rng, n=n, m=m, kind=kind)
                for _ in range(5):
                    lam = _interior_lambda(rng, m)
                    grad = -DirectionResult(inp, lam).q
                    for i in range(m - 1):
                        # probe along a simplex-tangent coordinate pair
                        e = np.zeros(m)
                        e[i] = 1.0
                        e[-1] = -1.0
                        fp = DirectionResult(inp, lam + h * e).omega
                        fm = DirectionResult(inp, lam - h * e).omega
                        fd = (fp - fm) / (2.0 * h)
                        an = grad[i] - grad[-1]
                        assert fd == pytest.approx(
                            an, rel=1e-5, abs=1e-7
                        ), (trial, type(kind).__name__)

    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_dual_hessian_matches_gradient_differences(self, k):
        """Each kind's dual_hessian is the derivative of the dual gradient:
        central differences of the gradient along the simplex directions
        e_i - e_m at interior multipliers, m = 3. The gradient is affine on
        each piece of the prox, so both agree to rounding."""
        rng = np.random.default_rng(33)
        h = 1e-7
        m, n = 3, 6
        for trial in range(10):
            kind = _kinds_for(rng, n, m)[k]
            inp = _random_input(rng, n=n, m=m, kind=kind)
            lam = _interior_lambda(rng, m)
            p = DirectionResult(inp, lam).p
            H = kind.dual_hessian(inp.scaled_grads, p, inp.alphas)
            scale = max(1.0, float(np.abs(H).max()))
            for i in range(m - 1):
                e = np.zeros(m)
                e[i], e[-1] = 1.0, -1.0
                diff = DirectionResult(inp, lam - h * e).q - DirectionResult(inp, lam + h * e).q
                np.testing.assert_allclose(
                    diff / (2.0 * h), H @ e, rtol=1e-6, atol=1e-6 * scale,
                    err_msg=str(trial),
                )

    def test_weak_duality_and_gap_bound(self):
        """primal(d(lam)) sits within fw_gap above -omega(lam), for any lam."""
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            kind = _kinds_for(rng, n, m)[int(rng.integers(4))]
            inp = _random_input(rng, n=n, m=m, kind=kind)
            lam = rng.dirichlet(np.ones(m))
            # the gap computed at lam certifies the suboptimality of d(lam)
            point = DirectionResult(inp, lam)
            omega = point.omega
            primal = _primal_value(inp, point.d)
            assert primal >= -omega - 1e-10
            assert primal + omega <= point.fw_gap + 1e-10

    def test_dual_value_is_primal_optimum(self):
        """At the solver's multiplier the duality gap closes."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            inp = _random_input(rng, n=4, m=m, kind=Zero())
            res = frank_wolfe_solve(inp)
            primal = _primal_value(inp, res.d)
            assert primal == pytest.approx(-res.omega, abs=max(1e-8, 10 * res.fw_gap))


class TestSolutionCertificates:
    def test_descent_certificate(self):
        """model_i <= alpha_i (gap - ||d||^2) at every solution."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            kind = _kinds_for(rng, n, m)[int(rng.integers(4))]
            inp = _random_input(rng, n=n, m=m, kind=kind)
            res = frank_wolfe_solve(inp)
            bound = inp.alphas * (res.fw_gap - res.d_norm**2)
            assert np.all(res.model_decrease <= bound + 1e-10)

    def test_absolute_certificate_on_random_quadratics(self):
        """On random_quadratic instances (l1 and box, n = 5) at m = 2 and 3,
        model_i + alpha_i ||d||^2 <= 1e-8 outright, and the primal value of d
        equals the dual optimum -omega to max(1e-8, 10 gap)."""
        rng = np.random.default_rng(0)
        for m in (2,) * 25 + (3,) * 25:
            problem = random_quadratic(QuadraticSpec(n=5, n_objectives=m), rng)
            x = rng.uniform(-2.0, 2.0, size=5)
            inp = SubproblemInput(x=x, grads=problem.jacobian(x),
                                  alphas=rng.uniform(0.1, 10.0, size=m),
                                  kind=problem.nonsmooth)
            res = frank_wolfe_solve(inp)
            d_sq = res.d_norm**2
            assert np.max(res.model_decrease + inp.alphas * d_sq) <= 1e-8, m
            primal = np.max(res.model_decrease / inp.alphas) + 0.5 * d_sq
            assert abs(primal + res.omega) <= max(1e-8, 10.0 * res.fw_gap), m

    def test_scaled_decreases_equal_on_active_set(self):
        """Active multipliers equalize model_i / alpha_i at the optimum."""
        rng = np.random.default_rng(32)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            inp = _random_input(rng, n=5, m=m, kind=Zero())
            res = frank_wolfe_solve(inp)
            act = res.lam >= 1e-6
            if act.sum() < 2:
                continue
            q = res.model_decrease[act] / inp.alphas[act]
            assert q.max() - q.min() <= max(1e-6, 10.0 * res.fw_gap)

    def test_never_ascent(self):
        """Solutions never predict increase: max_i model_i <= gap-slack."""
        rng = np.random.default_rng(33)
        for _ in range(100):
            inp = _random_input(rng, n=3, m=2, kind=Zero())
            res = frank_wolfe_solve(inp)
            assert np.max(res.model_decrease) <= res.fw_gap * np.max(inp.alphas) + 1e-12


class TestGridOracle:
    def test_dual_optimum_matches_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            kind = (Zero(), WeightedL1(coeffs=(0.5, 0.25)))[int(rng.integers(2))]
            inp = _random_input(rng, n=2, m=2, kind=kind)
            res = frank_wolfe_solve(inp)
            grid_val = primal_grid_min(inp)
            assert -res.omega == pytest.approx(grid_val, abs=1e-5)


class TestWarmStart:
    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            inp = _random_input(rng, n=4, m=m, kind=Zero())
            cold = frank_wolfe_solve(inp)
            warm = frank_wolfe_solve(inp, warm_lambda=rng.dirichlet(np.ones(m)))
            assert -warm.omega == pytest.approx(-cold.omega, abs=1e-8)
            np.testing.assert_allclose(warm.d, cold.d, atol=1e-5)

    def test_degenerate_warm_start_ignored(self):
        inp = SubproblemInput(
            x=np.zeros(2),
            grads=np.array([[1.0, 0.0], [0.0, 1.0]]),
            alphas=np.ones(2),
            kind=Zero(),
        )
        res = frank_wolfe_solve(inp, warm_lambda=np.zeros(2))
        assert np.all(res.lam >= 0.0)
        assert res.lam.sum() == pytest.approx(1.0)


def _both_ends_first_m2(inp, counters, gap_tol, warm_t=None):
    """The m = 2 solve as it was before warm-first probing: both ends, then
    the interior warm t, then the same bracket search. The oracle for the
    probe order."""

    def probe(t):
        pr = DirectionResult(inp, np.array([t, 1.0 - t]), counters)
        return pr, pr.q[1] - pr.q[0]

    pr0, h0 = probe(0.0)
    if h0 >= 0.0:
        return pr0
    pr1, h1 = probe(1.0)
    if h1 <= 0.0:
        return pr1
    a, ha, b, hb = 0.0, h0, 1.0, h1
    best = pr0 if pr0.fw_gap <= pr1.fw_gap else pr1

    def note(t, pr, h):
        nonlocal a, ha, b, hb, best
        if pr.fw_gap < best.fw_gap:
            best = pr
        if h < 0.0 and t > a:
            a, ha = t, h
        elif h > 0.0 and t < b:
            b, hb = t, h
        return h == 0.0

    if warm_t is not None and 0.0 < warm_t < 1.0:
        prw, hw = probe(warm_t)
        if note(warm_t, prw, hw):
            return prw

    def secant():
        if hb - ha > 0.0:
            t = (a * hb - b * ha) / (hb - ha)
            if a < t < b:
                return t
        return 0.5 * (a + b)

    use_secant = True
    while best.fw_gap > gap_tol:
        mid = secant() if use_secant else 0.5 * (a + b)
        use_secant = not use_secant
        if mid <= a or mid >= b:
            break
        prm, hm = probe(mid)
        if note(mid, prm, hm):
            best = prm
            break
    return best


def _m2_solve_counted(solver, inp, warm_t, gap_tol=GAP_TOL):
    counters = EvalCounters()
    res = solver(inp, counters, gap_tol, warm_t)
    return res, counters.prox_evals


def _result_bytes(res):
    return [a.tobytes() for a in (res.d, res.lam, np.float64(res.fw_gap), res.model_decrease)]


class TestWarmFirstProbes:
    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_bit_identical_to_both_ends_first(self, k):
        """Probing the warm t first returns the bytes of d, lambda, fw_gap and
        model_decrease that probing both ends first did, cold and warm at
        t = 0, 1 and inside. The flat inputs (h' = 0 on all of [0, 1]) pin
        the tie rule among optimal probes: the t = 0 end wins, then t = 1.
        A gap tolerance that stops the search after the first two probes
        pins which of them is best: between the ends t = 0 wins a tie of
        gaps (the mirrored input), against an interior t the end wins."""
        rng = np.random.default_rng(70 + k)
        inputs = []
        for _ in range(60):
            n = int(rng.integers(1, 7))
            inputs.append(_random_input(rng, n=n, m=2, kind=_kinds_for(rng, n, 2)[k]))
        for n in (1, 3):  # equal scaled gradients; a one-point simplex
            kind = _kinds_for(rng, n, 2)[k]
            flat = _random_input(rng, n=n, m=2, kind=kind)
            grads = np.vstack([flat.grads[0], 2.0 * flat.grads[0]])
            inputs.append(SubproblemInput(
                x=flat.x, grads=grads, alphas=np.array([1.0, 2.0]), kind=kind
            ))
        inputs.append(SubproblemInput(
            x=np.ones(1), grads=rng.normal(size=(2, 1)), alphas=np.ones(2),
            kind=SimplexIndicator(),
        ))
        if k < 2:  # gap 2 at both ends
            inputs.append(SubproblemInput(
                x=np.zeros(1), grads=np.array([[1.0], [-1.0]]), alphas=np.ones(2),
                kind=(Zero(), WeightedL1((0.0, 0.0)))[k],
            ))
        for inp in inputs:
            cold = frank_wolfe_solve(inp)
            for warm_t in (None, 0.0, 1.0, float(rng.uniform()), float(cold.lam[0])):
                for gap_tol in (GAP_TOL, 1e6):
                    new, _ = _m2_solve_counted(_solve_m2, inp, warm_t, gap_tol)
                    old, _ = _m2_solve_counted(_both_ends_first_m2, inp, warm_t, gap_tol)
                    assert _result_bytes(new) == _result_bytes(old), (inp, warm_t)

    def test_interior_warm_start_saves_one_probe(self):
        """A warm t inside (0, 1) that settles nothing costs one prox call
        fewer than probing both ends first: the end on its own side of the
        root is never probed."""
        rng = np.random.default_rng(75)
        checked = 0
        for _ in range(200):
            kind = _kinds_for(rng, 4, 2)[int(rng.integers(4))]
            inp = _random_input(rng, n=4, m=2, kind=kind)
            warm_t = float(rng.uniform(0.05, 0.95))
            old, old_calls = _m2_solve_counted(_both_ends_first_m2, inp, warm_t)
            if not 0.0 < old.lam[0] < 1.0:
                continue
            _, new_calls = _m2_solve_counted(_solve_m2, inp, warm_t)
            assert new_calls == old_calls - 1
            checked += 1
        assert checked > 50

    def test_optimal_warm_vertex_costs_one_prox(self):
        """h'(1) < 0 makes t = 1 optimal: a warm start there is the only
        probe (t = 0 is not probed first, as in the cold case above)."""
        inp = SubproblemInput(
            x=np.zeros(2),
            grads=np.array([[1.0, 0.0], [2.0, 0.0]]),
            alphas=np.ones(2),
            kind=Zero(),
        )
        counters = EvalCounters()
        res = frank_wolfe_solve(inp, counters=counters, warm_lambda=[1.0, 0.0])
        assert counters.prox_evals == 1
        np.testing.assert_array_equal(res.lam, [1.0, 0.0])
        np.testing.assert_array_equal(res.d, [-1.0, 0.0])

    def test_negative_warm_entry_is_clipped(self):
        """m = 2 clips a warm lambda onto the simplex as m >= 3 does:
        (1, -0.5) is the optimal vertex t = 1 of the input above, so it is
        the only probe (ignoring it would probe t = 0, then t = 1)."""
        inp = SubproblemInput(
            x=np.zeros(2),
            grads=np.array([[1.0, 0.0], [2.0, 0.0]]),
            alphas=np.ones(2),
            kind=Zero(),
        )
        counters = EvalCounters()
        res = frank_wolfe_solve(inp, counters=counters, warm_lambda=[1.0, -0.5])
        assert counters.prox_evals == 1
        np.testing.assert_array_equal(res.lam, [1.0, 0.0])


class TestDualValue:
    def test_read_lazily_and_equal_to_the_dual_objective(self):
        """omega (the negated dual optimum) is omega(lambda) at the returned
        multiplier to the bit, computed from the dual point the solver
        returns: reading it costs no prox call, and a second read returns
        the cached float."""
        rng = np.random.default_rng(81)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            inp = _random_input(rng, n=n, m=m, kind=_kinds_for(rng, n, m)[int(rng.integers(4))])
            counters = EvalCounters()
            res = frank_wolfe_solve(inp, counters=counters)
            calls = counters.prox_evals
            value = res.omega
            assert res.omega is value
            assert counters.prox_evals == calls
            assert value == DirectionResult(inp, res.lam).omega


class TestDualSolveFailure:
    def test_iteration_cap_attaches_best_result(self, monkeypatch):
        """A starved iteration budget returns the best iterate, capped."""
        rng = np.random.default_rng(61)
        inp = _random_input(rng, n=6, m=4, kind=Zero())
        monkeypatch.setattr(direction, "MAX_ITERS", 1)
        res = frank_wolfe_solve(inp, gap_tol=1e-15)
        assert res.capped
        assert res.d.shape == (6,)

    def test_m2_solve_is_never_capped(self):
        """An m = 2 solve ends at its exact root or at float resolution, so
        it is not capped even when its gap stays far above target: the linear
        simplex instance at alpha = 1e-12 ends at gap 3.33e16 after 44 prox
        calls."""
        inp = SubproblemInput(
            x=np.full(4, 0.25),
            grads=np.array([[1e5, -1e5, 0.0, 0.0], [0.0, 1e5, -1e5, 0.0]]),
            alphas=np.full(2, 1e-12),
            kind=SimplexIndicator(),
        )
        counters = EvalCounters()
        res = frank_wolfe_solve(inp, counters)
        assert res.capped is False
        assert res.fw_gap == pytest.approx(1e17 / 3, rel=1e-12)
        assert counters.prox_evals == 44

    def test_repeating_multiplier_ends_the_loop(self, monkeypatch):
        """An m >= 3 solve whose multiplier cycles stops at the first repeat.

        Index 340 of the fingerprint tool's box inputs, warm at the vertex
        e_2: lambda returns to an earlier byte pattern at gap 3.69, so every
        later iteration would replay gaps already seen. A cap of 5 and the
        default cap of 2000 end with the same bytes and the same work, and
        both return their best point capped.
        """
        inp = SubproblemInput(
            x=np.array([0.6233135767247919, -1.2536700131948373, 1.1582206978364726]),
            grads=np.array([
                [3.182009302067149, 4.096542894459659, -0.42582602454419394],
                [-3.070701790810328, -2.7002669514884077, 1.5055248003774488],
                [-0.8510570103285809, 6.987121170557169, -1.736166794914223],
                [-6.8477897746053795, 7.274204829812044, 3.840475191067082],
            ]),
            alphas=np.array([0.31431596161664016, 3.617227704726549,
                             0.690381671803503, 2.390614584305106]),
            kind=BoxIndicator(lower=(-1.5,) * 3, upper=(1.5,) * 3),
        )
        outcomes = []
        for max_iters in (5, MAX_ITERS):
            monkeypatch.setattr(direction, "MAX_ITERS", max_iters)
            counters = EvalCounters()
            res = frank_wolfe_solve(inp, counters, warm_lambda=np.eye(4)[2])
            assert res.capped
            outcomes.append(([a.tobytes() for a in (res.d, res.lam)],
                             np.float64(res.fw_gap).tobytes(), counters.prox_evals))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == 10


def _m3_inputs(k, count, seed):
    """Seeded m = 3..5 inputs of kind k, drawn as tools/fingerprint.py draws
    its kind inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(1, 7)), int(rng.integers(3, 6))
        kind = (
            Zero(),
            WeightedL1(tuple(rng.uniform(0.0, 1.0, m))),
            BoxIndicator((-1.5,) * n, (1.5,) * n),
            SimplexIndicator(),
        )[k]
        if k == 3:
            x = rng.dirichlet(np.ones(n))
        elif k == 2:
            x = rng.uniform(kind.lower, kind.upper)
        else:
            x = rng.normal(size=n)
        grads = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
        alphas = np.exp(rng.uniform(-3.0, 3.0, size=m))
        yield rng, SubproblemInput(x=x, grads=grads, alphas=alphas, kind=kind)


class TestCarriedNewtonPoint:
    @staticmethod
    def _solve_all(k):
        """Bytes of every cold and warm solve of the inputs, and their total
        prox calls; a capped solve contributes its best point."""
        out, calls = [], 0

        def solve(inp, warm):
            nonlocal calls
            counters = EvalCounters()
            res = frank_wolfe_solve(inp, counters, warm)
            out.append(_result_bytes(res) + [np.float64(-res.omega).tobytes()])
            calls += counters.prox_evals
            return res

        for rng, inp in _m3_inputs(k, 30, 90 + k):
            cold = solve(inp, None)
            for warm in (rng.dirichlet(np.ones(inp.m)),
                         np.eye(inp.m)[int(rng.integers(inp.m))], cold.lam):
                solve(inp, warm)
        return out, calls

    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_reuse_changes_no_bytes(self, k, monkeypatch):
        """Reusing an accepted face-Newton trial as the next iteration's dual
        point only saves prox calls: with every accepted trial rebuilt from a
        copy of its lambda, so that its prox point and omega are computed
        again, m >= 3 solves return the same bytes of d, lambda, fw_gap,
        model_decrease and -omega for strictly more prox calls."""
        monkeypatch.setattr(direction, "MAX_ITERS", 300)
        reused, reused_calls = self._solve_all(k)
        newton_step = direction._newton_face_step

        def rebuilt(inp, counters, probe):
            res = newton_step(inp, counters, probe)
            return None if res is None else DirectionResult(inp, res.lam.copy(), counters)

        monkeypatch.setattr(direction, "_newton_face_step", rebuilt)
        recomputed, recomputed_calls = self._solve_all(k)
        assert reused == recomputed
        assert recomputed_calls > reused_calls

    def test_segment_probe_costs_one_prox(self, monkeypatch):
        """Each probe of the pairwise segment search is one dual point for
        one prox call, and the step it returns lowers omega at least as far
        as either end of the segment. Mass moves from the flattest to the
        steepest coordinate, as the m >= 3 loop moves it."""
        built = []

        class Counted(DirectionResult):
            def __init__(self, inp, lam, counters=None):
                super().__init__(inp, lam, counters)
                built.append(lam)

        monkeypatch.setattr(direction, "DirectionResult", Counted)
        searched = 0
        for k in range(4):
            for rng, inp in _m3_inputs(k, 10, 95 + k):
                lam = rng.dirichlet(np.ones(inp.m))
                grad = -DirectionResult(inp, lam).q
                i, j = int(np.argmin(grad)), int(np.argmax(grad))
                step = np.zeros(inp.m)
                step[i], step[j] = 1.0, -1.0
                slope0 = float(grad.dot(step))
                built.clear()
                counters = EvalCounters()
                eta = _segment_minimize(inp, counters, lam, step, float(lam[j]), slope0)
                assert counters.prox_evals == len(built)
                assert 0.0 <= eta <= lam[j]
                searched += len(built) > 1
                at = DirectionResult(inp, lam + eta * step).omega
                for end in (0.0, float(lam[j])):
                    omega = DirectionResult(inp, lam + end * step).omega
                    assert at <= omega + 1e-12 * max(1.0, abs(omega))
        assert searched > 20


def _bisection_segment(inp, counters, lam, step, eta_max, slope0):
    """The plain pairwise segment search: a sign bisection of [0, eta_max]
    probing every midpoint, then one secant step. The oracle for eta. It
    builds its dual points through the module, so a patched DirectionResult
    reaches it too."""

    def slope(eta):
        return -float(direction.DirectionResult(inp, lam + eta * step, counters).q.dot(step))

    ha = slope0
    if ha >= 0.0:
        return 0.0
    hb = slope(eta_max)
    if hb <= 0.0:
        return eta_max
    a, b = 0.0, eta_max
    while b - a > 1e-12 * max(1.0, eta_max):
        mid = 0.5 * (a + b)
        hm = slope(mid)
        if hm < 0.0:
            a, ha = mid, hm
        elif hm > 0.0:
            b, hb = mid, hm
        else:
            return mid
    return direction._secant(a, ha, b, hb)


def _segment_calls(k, count, seed, monkeypatch):
    """Arguments of every pairwise segment search that cold, random-warm and
    vertex-warm m >= 3 solves of the seeded inputs of kind k make."""
    calls = []
    search = direction._segment_minimize

    def recorded(inp, counters, lam, step, eta_max, slope0):
        calls.append((inp, lam.copy(), step.copy(), eta_max, slope0))
        return search(inp, counters, lam, step, eta_max, slope0)

    with monkeypatch.context() as patch:
        patch.setattr(direction, "_segment_minimize", recorded)
        patch.setattr(direction, "MAX_ITERS", 300)
        for rng, inp in _m3_inputs(k, count, seed):
            for warm in (None, rng.dirichlet(np.ones(inp.m)),
                         np.eye(inp.m)[int(rng.integers(inp.m))]):
                frank_wolfe_solve(inp, warm_lambda=warm)
    return calls


def _eta_and_probes(search, inp, lam, step, eta_max, slope0):
    counters = EvalCounters()
    eta = search(inp, counters, lam, step, eta_max, slope0)
    return float(eta), counters.prox_evals


class TestSegmentReplay:
    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_same_eta_as_the_bisection(self, k, monkeypatch):
        """Over every segment search of cold and warm m >= 3 solves, the
        located search returns an eta within the search's tol of the plain
        bisection's, for less than half of its probes in total."""
        calls = _segment_calls(k, 20, 150 + k, monkeypatch)
        assert len(calls) > 20
        probes = {_bisection_segment: 0, _segment_minimize: 0}
        for args in calls:
            etas = []
            for search in probes:
                eta, count = _eta_and_probes(search, *args)
                etas.append(eta)
                probes[search] += count
            assert abs(etas[0] - etas[1]) <= 1e-12 * max(1.0, args[3])
        assert 2 * probes[_segment_minimize] < probes[_bisection_segment]

    def test_non_monotone_slope_still_matches(self, monkeypatch):
        """A slope that roundoff makes non-monotone: the sign of phi' is
        flipped at one end of the plain bisection's final bracket. The search
        only ever brackets between probes of strict opposite signs, so it
        still returns a finite eta in [0, eta_max] on those slopes."""
        calls = [args for k in range(4) for args in _segment_calls(k, 8, 170 + k, monkeypatch)]
        probed = []

        class Recorded(DirectionResult):
            def __init__(self, inp, lam, counters=None):
                super().__init__(inp, lam, counters)
                probed.append((lam.tobytes(), self.q))

        flipped = set()

        class Flipped(DirectionResult):
            def __init__(self, inp, lam, counters=None):
                super().__init__(inp, lam, counters)
                if lam.tobytes() in flipped:
                    self.q = -self.q

        runs = 0
        for inp, lam, step, eta_max, slope0 in calls:
            monkeypatch.setattr(direction, "DirectionResult", Recorded)
            probed.clear()
            _bisection_segment(inp, None, lam, step, eta_max, slope0)
            signs = [(key, -float(q.dot(step))) for key, q in probed[1:]]
            ends = [next((key for key, h in reversed(signs) if h < 0.0), None),
                    next((key for key, h in reversed(signs) if h > 0.0), None)]
            monkeypatch.setattr(direction, "DirectionResult", Flipped)
            for end in ends:
                if end is None:
                    continue
                flipped.clear()
                flipped.add(end)
                eta, _ = _eta_and_probes(_segment_minimize, inp, lam, step, eta_max, slope0)
                assert math.isfinite(eta) and 0.0 <= eta <= eta_max
                runs += 1
        assert runs > 40


class TestDualPointsKeepLambda:
    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_lambda_unchanged_after_construction(self, k, monkeypatch):
        """A DirectionResult keeps its lambda without a copy, so the m >= 3
        loop must never change a multiplier array in place once a dual point
        holds it: every lambda of every dual point built during cold and
        warm solves still has the bytes it had when its point was built."""
        records = []

        class Recorded(DirectionResult):
            def __init__(self, inp, lam, counters=None):
                records.append((lam, lam.tobytes()))
                super().__init__(inp, lam, counters)

        monkeypatch.setattr(direction, "DirectionResult", Recorded)
        monkeypatch.setattr(direction, "MAX_ITERS", 300)
        built = 0
        for rng, inp in _m3_inputs(k, 30, 110 + k):
            for warm in (None, rng.dirichlet(np.ones(inp.m)),
                         np.eye(inp.m)[int(rng.integers(inp.m))]):
                records.clear()
                frank_wolfe_solve(inp, warm_lambda=warm)
                assert all(lam.tobytes() == before for lam, before in records)
                built += len(records)
        assert built > 30 * 3 * 5


class TestDualPointIsOneProx:
    @pytest.mark.parametrize("m", (2, 3))
    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_solved_point_equals_a_fresh_one(self, k, m, monkeypatch):
        """The dual point a solve returns, cold or warm, is the point its
        lambda makes: a fresh DirectionResult at that lambda has the same
        bytes of u, p, d, q and fw_gap, and fw_gap, set when the point is
        built, is max(max_i q_i - lambda.q, 0)."""
        rng = np.random.default_rng(130 + 10 * m + k)
        monkeypatch.setattr(direction, "MAX_ITERS", 300)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            inp = _random_input(rng, n=n, m=m, kind=_kinds_for(rng, n, m)[k])
            for warm in (None, rng.dirichlet(np.ones(m)), np.eye(m)[int(rng.integers(m))]):
                res = frank_wolfe_solve(inp, warm_lambda=warm)
                fresh = DirectionResult(inp, res.lam)
                assert "fw_gap" in vars(fresh)
                for name in ("u", "p", "d", "q"):
                    assert getattr(res, name).tobytes() == getattr(fresh, name).tobytes()
                assert np.float64(res.fw_gap).tobytes() == np.float64(fresh.fw_gap).tobytes()
                gap = max(float(np.maximum.reduce(res.q) - res.lam.dot(res.q)), 0.0)
                assert res.fw_gap == gap


def _unfused_point(inp, lam):
    """u, p, d, q and fw_gap of the dual point at lam, each by its plain
    expression: the prox through project_simplex for the simplex kind, a
    zero model change added for the constant kinds, q divided out of
    place, and fw_gap through np.maximum.reduce. The oracle for the
    in-place q and the float gap of DirectionResult."""
    kind = inp.kind
    u = inp.scaled_grads.T @ lam
    v = inp.x - u
    p = project_simplex(v) if isinstance(kind, SimplexIndicator) else kind.prox(
        lam, inp.alphas, v)
    d = p - inp.x
    if isinstance(kind, WeightedL1):
        nx1 = float(np.add.reduce(np.abs(inp.x)))
        gdiff = np.array(kind.coeffs) * (float(np.add.reduce(np.abs(p))) - nx1)
    else:
        gdiff = np.zeros(inp.m)
    q = (inp.grads @ d + gdiff) / inp.alphas
    return u, p, d, q, max(float(np.maximum.reduce(q) - lam.dot(q)), 0.0)


def _point_bytes(u, p, d, q, fw_gap):
    """The arrays' bytes and the gap's float.hex: both tell -0.0 from 0.0;
    float.hex leaves out a NaN's sign, which np.maximum.reduce sets by the
    NaN's position in q."""
    return [a.tobytes() for a in (u, p, d, q)] + [float(fw_gap).hex()]


class TestLeanDualPoint:
    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_bytes_of_the_unfused_expressions(self, k):
        """Every field of a dual point has the bytes of the plain
        expressions, -0.0 included, for m = 1..5 at a random, a vertex and
        a sparse multiplier. Box inputs at the upper corner pushed outward
        have d = 0 with negative gradients, so any -0.0 that adding zeros
        would have turned into +0.0 shows; q_list is q as floats."""
        rng = np.random.default_rng(150 + k)
        checked = 0
        for m in range(1, 6):
            for _ in range(12):
                n = int(rng.integers(1, 7))
                kind = _kinds_for(rng, n, m)[k]
                inp = _random_input(rng, n=n, m=m, kind=kind)
                if k == 2 and rng.uniform() < 0.3:
                    inp = SubproblemInput(x=np.full(n, 1.5), grads=-np.abs(inp.grads),
                                          alphas=inp.alphas, kind=kind)
                sparse = rng.dirichlet(np.ones(m)) * (rng.uniform(size=m) < 0.6)
                sparse = sparse / sparse.sum() if sparse.sum() > 0 else np.eye(m)[0]
                for lam in (rng.dirichlet(np.ones(m)), np.eye(m)[int(rng.integers(m))],
                            sparse):
                    point = DirectionResult(inp, lam)
                    fields = (point.u, point.p, point.d, point.q, point.fw_gap)
                    assert _point_bytes(*fields) == _point_bytes(*_unfused_point(inp, lam))
                    assert point.q_list == point.q.tolist()
                    checked += 1
        assert checked == 5 * 12 * 3

    @pytest.mark.parametrize(
        "kind, grads, lam",
        ((Zero(), [[1e200], [1.0]], [0.5, 0.5]),    # q = (-inf, -5e199): gap inf
         (Zero(), [[1e200], [1e200]], [0.0, 1.0]),  # q = (-inf, -inf): lam.q nan
         (BoxIndicator((-1.0,), (1.0,)), [[np.inf], [1.0]], [0.5, 0.5]),  # q = (nan, 0)
         (BoxIndicator((-1.0,), (1.0,)), [[1.0], [np.inf]], [0.5, 0.5])), # q = (0, nan)
        ids=("inf_gap", "nan_dot", "nan_first", "nan_last"),
    )
    def test_nonfinite_q_has_the_gap_of_the_array_max(self, kind, grads, lam):
        """Python's max of a list skips a NaN that follows a number, where
        np.maximum.reduce returns it; fw_gap still matches the array
        expression, since a NaN in q makes lam.q NaN too. At the box's
        lower corner d = 0, and inf * 0 puts the NaN in q."""
        inp = SubproblemInput(x=np.array([-1.0]), grads=np.array(grads),
                              alphas=np.ones(2), kind=kind)
        lam = np.array(lam)
        with np.errstate(all="ignore"):
            point = DirectionResult(inp, lam)
            oracle = _unfused_point(inp, lam)
        assert not np.isfinite(point.q).all()
        fields = (point.u, point.p, point.d, point.q, point.fw_gap)
        assert _point_bytes(*fields) == _point_bytes(*oracle)
        assert not math.isfinite(point.fw_gap)


def _array_warm_t(warm):
    """The m = 2 warm t by the m >= 3 array clip and scale: None for a cold
    start."""
    lam = np.maximum(np.asarray(warm, dtype=float), 0.0)
    s = lam.sum()
    return float((lam / s)[0]) if s > 0 else None


class TestWarmMultiplierM2:
    WARM = (
        [0.3, 0.7], np.array([2.0, 6.0]), np.array([0.25, 0.75], dtype=np.float32),
        [1.0, -0.5], [-0.2, 0.4], [-0.0, 1.0], [1.0, -0.0], [math.nan, 1.0],
        [0.5, math.nan], [0.0, 0.0], [-0.0, -0.0], [-1.0, -2.0], [1.0, 0.0], [0.0, 1.0],
        np.array([1e-300, 3e-300]),
    )

    @pytest.mark.parametrize("k", range(4), ids=("zero", "l1", "box", "simplex"))
    def test_same_warm_t_and_solve_as_the_array_clip(self, k, monkeypatch):
        """frank_wolfe_solve hands _solve_m2 the warm t of the array clip
        and scale bit for bit (float.hex tells -0.0 from 0.0), or None
        where it starts cold, and the solve then costs the same prox calls
        and returns the same bytes as _solve_m2 given that t directly."""
        solve_m2 = direction._solve_m2
        seen = []

        def spy(inp, counters, gap_tol, warm_t=None):
            seen.append(warm_t)
            return solve_m2(inp, counters, gap_tol, warm_t)

        monkeypatch.setattr(direction, "_solve_m2", spy)
        rng = np.random.default_rng(160 + k)
        for _ in range(5):
            n = int(rng.integers(1, 7))
            inp = _random_input(rng, n=n, m=2, kind=_kinds_for(rng, n, 2)[k])
            for warm in self.WARM:
                seen.clear()
                counters = EvalCounters()
                res = frank_wolfe_solve(inp, counters=counters, warm_lambda=warm)
                expected = _array_warm_t(warm)
                [t] = seen
                assert (t is None) == (expected is None), warm
                if t is not None:
                    assert type(t) is float and t.hex() == expected.hex(), warm
                ref, calls = _m2_solve_counted(solve_m2, inp, expected)
                assert counters.prox_evals == calls
                assert _result_bytes(res) == _result_bytes(ref)
