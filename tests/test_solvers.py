"""Tests for the solver loop: mode semantics, monotonicity, trace integrity."""

import dataclasses
import gc
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from moprox import bb, direction, solvers
from moprox.bench import ExperimentSpec, run_campaign
from moprox.linesearch import MAX_BACKTRACKS
from moprox.problems import EvalCounters, MCOProblem, SmoothComponent
from moprox.prox import BoxIndicator, SimplexIndicator
from moprox.solvers import SolverConfig, TraceRecord, _prepare_start, solve
from moprox.testproblems import QuadraticSpec, get_problem, random_quadratic

ALL_MODES = ("pgmo_ls", "pgmo_fixed", "pgmo_mu", "pgmo_separate", "bbpgmo", "abbpgmo")
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRecord))


def _diag_quadratic(diags, bs=None, bounds=None):
    """f_i(x) = 0.5 x' diag(diags[i]) x + bs[i]' x, smooth-only."""
    diags = np.atleast_2d(np.asarray(diags, dtype=float))
    m, n = diags.shape
    bs = np.zeros((m, n)) if bs is None else np.atleast_2d(np.asarray(bs, dtype=float))
    comps = tuple(
        SmoothComponent(
            value=lambda x, a=diags[i], b=bs[i]: 0.5 * float(np.dot(a * x, x))
            + float(np.dot(b, x)),
            gradient=lambda x, a=diags[i], b=bs[i]: a * x + b,
            lipschitz=float(np.max(diags[i])),
            strong_mu=float(np.min(diags[i])),
        )
        for i in range(m)
    )
    return MCOProblem(n=n, smooth=comps, bounds=bounds)


def _sqrt_problem(**known):
    """f1 = sqrt(x), f2 = sqrt(x) + x on x >= 0; F is nan at x < 0."""
    sqrt = SmoothComponent(
        value=lambda x: float(np.sqrt(x[0])),
        gradient=lambda x: 0.5 / np.sqrt(x),
        **known,
    )
    shifted = SmoothComponent(
        value=lambda x: float(np.sqrt(x[0]) + x[0]),
        gradient=lambda x: 0.5 / np.sqrt(x) + 1.0,
        **known,
    )
    return MCOProblem(n=1, smooth=(sqrt, shifted))


def _linear_simplex_problem(*cs):
    """f_i = c_i' x on the unit simplex, with L_i = mu_i = 1e-12: the modes
    whose stepsizes are L_i or mu_i scale the gradients by 1e12 before
    projecting."""
    comps = tuple(
        SmoothComponent(
            value=lambda x, c=np.array(c, dtype=float): float(np.dot(c, x)),
            gradient=lambda x, c=np.array(c, dtype=float): c.copy(),
            lipschitz=1e-12,
            strong_mu=1e-12,
        )
        for c in cs
    )
    return MCOProblem(n=len(cs[0]), smooth=comps, nonsmooth=SimplexIndicator())


def _assert_feasible_path(problem, report):
    """The final x and every trace row lie in the domain with finite F."""
    for x, F in [(report.x, report.F), *((rec.x, rec.F) for rec in report.trace)]:
        assert problem.is_feasible(x)
        assert np.isfinite(F).all()


def _recording_problem(mu=1.0):
    """Two copies of f = 0.5 ||x||^2 on R^2 with L = 1 and modulus mu; each
    call of f or its gradient is appended to the returned list."""
    calls = []

    def value(x):
        calls.append("f")
        return 0.5 * float(np.dot(x, x))

    def gradient(x):
        calls.append("grad")
        return x.copy()

    comp = SmoothComponent(value=value, gradient=gradient, lipschitz=1.0, strong_mu=mu)
    return MCOProblem(n=2, smooth=(comp, comp)), calls


class TestBasicConvergence:
    def test_single_objective_newton_like_step(self):
        """With alpha = L on a 0.5||x||^2 objective the first step lands at 0."""
        problem = _diag_quadratic([[1.0, 1.0]])
        report = solve(problem, np.array([2.0, -3.0]), SolverConfig(algorithm="pgmo_separate"))
        assert report.status == "critical_point"
        assert report.iterations == 1
        np.testing.assert_allclose(report.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.F, 0.0, atol=1e-12)

    def test_critical_start_stops_immediately(self):
        problem = _diag_quadratic([[1.0, 1.0]])
        report = solve(problem, np.zeros(2), SolverConfig(algorithm="bbpgmo"))
        assert report.status == "critical_point"
        assert report.iterations == 0
        assert len(report.trace) == 0
        assert np.isnan(report.stepsize_mean)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_converge_on_jos1(self, mode):
        problem = get_problem("JOS1a")
        report = solve(problem, np.full(problem.n, 1.7), SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        # weakly Pareto optimal band for these shifted squares is [0, 2]^n
        assert np.all(report.x >= -1e-6) and np.all(report.x <= 2.0 + 1e-6)

    def test_alias_matches_canonical_mode(self):
        problem = get_problem("JOS1a")
        x0 = np.full(problem.n, -1.3)
        a = solve(problem, x0, SolverConfig(algorithm="pgmo_L"))
        b = solve(problem, x0, SolverConfig(algorithm="pgmo_separate"))
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)


class TestMonotonicity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_componentwise_objective_decrease(self, mode):
        spec = QuadraticSpec(n=4, n_objectives=2, diag_low=1.0, diag_high=40.0)
        problem = random_quadratic(spec, seed=11)
        x0 = np.full(4, 1.5)
        report = solve(problem, x0, SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        F_prev = problem.evaluate_F(x0)
        for rec in report.trace:
            assert np.all(rec.F <= F_prev + 1e-10 * np.maximum(1.0, np.abs(F_prev)))
            F_prev = rec.F

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_absolute_decrease_on_random_quadratics(self, mode):
        """A default random_quadratic instance (n = 6, l1 and box): no
        objective rises by more than 1e-10 in absolute terms, and the solve
        ends at a critical point."""
        rng = np.random.default_rng(0)
        problem = random_quadratic(QuadraticSpec(n=6), rng)
        x0 = rng.uniform(-2.0, 2.0, size=6)
        report = solve(problem, x0, SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        F = np.vstack([problem.evaluate_F(x0), report.trace.F])
        assert np.all(np.diff(F, axis=0) <= 1e-10)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        spec = QuadraticSpec(n=6, n_objectives=3, xl=None, xu=None, g_kind="zero")
        problem = random_quadratic(spec, seed=3)
        x0 = np.linspace(-1.0, 1.0, 6)
        a = solve(problem, x0, SolverConfig(algorithm="bbpgmo"))
        b = solve(problem, x0, SolverConfig(algorithm="bbpgmo"))
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.t == rb.t
            np.testing.assert_array_equal(ra.alphas, rb.alphas)
            np.testing.assert_array_equal(ra.F, rb.F)

    def test_clamped_bb_equals_constant_stepsize_mode(self, monkeypatch):
        """A clamp ALPHA_MIN = ALPHA_MAX = c forces every BB branch to c, so
        the trajectory must match pgmo_ls with ell = c step for step."""
        spec = QuadraticSpec(n=5, n_objectives=2)
        problem_a = random_quadratic(spec, seed=7)
        problem_b = random_quadratic(spec, seed=7)
        x0 = np.full(5, 0.9)
        c = 30.0
        a = solve(problem_a, x0, SolverConfig(algorithm="pgmo_ls", ell=c))
        monkeypatch.setattr(bb, "ALPHA_MIN", c)
        monkeypatch.setattr(bb, "ALPHA_MAX", c)
        b = solve(problem_b, x0, SolverConfig(algorithm="bbpgmo"))
        assert a.status == b.status
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.t == rb.t
            np.testing.assert_array_equal(ra.F, rb.F)


class TestModePrerequisites:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(_diag_quadratic([[1.0]]), np.ones(1), SolverConfig(algorithm="nope"))

    def test_pgmo_mu_refuses_zero_modulus(self):
        problem = get_problem("markowitz")  # linear objective has mu = 0
        with pytest.raises(ValueError, match="strong convexity"):
            solve(problem, np.full(8, 0.125), SolverConfig(algorithm="pgmo_mu"))

    def test_pgmo_mu_needs_every_modulus(self):
        """A component without a strong convexity modulus leaves pgmo_mu no
        alpha for its objective: refused before any evaluation."""
        with_mu, calls = _recording_problem(mu=1.0)
        without = dataclasses.replace(with_mu.smooth[1], strong_mu=None)
        problem = MCOProblem(n=2, smooth=(with_mu.smooth[0], without))
        assert problem.strong_moduli() is None
        with pytest.raises(
            ValueError, match="pgmo_mu needs finite positive strong convexity moduli"
        ):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_mu"))
        assert calls == []

    def test_pgmo_separate_needs_lipschitz(self):
        comp = SmoothComponent(
            value=lambda x: float(np.dot(x, x)),
            gradient=lambda x: 2.0 * x,
            lipschitz=None,
        )
        problem = MCOProblem(n=2, smooth=(comp,))
        with pytest.raises(ValueError, match="Lipschitz"):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_separate"))

    def test_pgmo_fixed_rejects_small_ell(self):
        problem = _diag_quadratic([[4.0, 4.0]])  # L_max = 4
        with pytest.raises(ValueError, match="L_max / 2"):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_fixed", ell=2.0))

    def test_pgmo_fixed_needs_lipschitz_constants(self):
        comp = SmoothComponent(value=lambda x: float(np.dot(x, x)), gradient=lambda x: 2.0 * x)
        problem = MCOProblem(n=2, smooth=(comp,))
        with pytest.raises(ValueError, match="pgmo_fixed needs known Lipschitz"):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_fixed"))

    def test_pgmo_fixed_needs_a_positive_lmax(self):
        problem = _diag_quadratic([[0.0, 0.0], [0.0, 0.0]])  # L_max = 0
        with pytest.raises(ValueError, match="positive L_max"):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_fixed"))

    def test_pgmo_fixed_default_ell_is_lmax(self):
        problem = _diag_quadratic([[4.0, 4.0], [1.0, 1.0]])
        report = solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_fixed"))
        assert report.status == "critical_point"
        for rec in report.trace:
            np.testing.assert_array_equal(rec.alphas, [4.0, 4.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(d_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(tau=1.0)
        # abbpgmo multiplies alphas by tau, and the dual solver checks none
        for tau in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tau must be finite"):
                SolverConfig(tau=tau)

    @pytest.mark.parametrize("max_iters", (2.5, np.inf, np.nan, np.float64(3.0), "3"))
    def test_non_integer_max_iters_rejected(self, max_iters):
        """A count that is not an integer is refused where the config is
        built; it used to raise TypeError from range() after F(x0) and the
        Jacobian had been evaluated. Numpy integers are integers."""
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=max_iters)
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("d_tol", (np.nan, np.inf))
    def test_nonfinite_d_tol_rejected(self, d_tol):
        """A NaN d_tol passed a d_tol <= 0 check and ended BK1 from (1, 2)
        in line_search_failure; an infinite one stopped every solve at k = 0."""
        with pytest.raises(ValueError, match="0 < d_tol < inf"):
            SolverConfig(d_tol=d_tol, max_iters=20)

    @pytest.mark.parametrize("ell", (np.inf, np.nan))
    @pytest.mark.parametrize("mode", ("pgmo_ls", "pgmo_fixed"))
    def test_nonfinite_ell_rejected_before_evaluating(self, mode, ell):
        """A constant alpha that is not finite is refused once, before F or
        a gradient is evaluated at x0."""
        problem, calls = _recording_problem()
        with pytest.raises(ValueError, match=f"{mode} needs finite positive ell"):
            solve(problem, np.ones(2), SolverConfig(algorithm=mode, ell=ell))
        assert calls == []

    def test_nan_modulus_rejected_before_evaluating(self):
        problem, calls = _recording_problem(mu=np.nan)
        with pytest.raises(ValueError, match="finite positive strong convexity"):
            solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_mu"))
        assert calls == []

    def test_wrong_x0_shape(self):
        with pytest.raises(ValueError, match="x0"):
            solve(_diag_quadratic([[1.0, 1.0]]), np.ones(3))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("name", ("BK1", "quadratic", "markowitz"))
    def test_nonfinite_x0_rejected_before_evaluating(self, name, bad):
        """A NaN or infinite start entry is refused before F or a gradient
        is evaluated, whatever the problem's box or kind: it used to end BK1
        and an unbounded quadratic in evaluation_failure, and to raise from
        the simplex projection on markowitz."""
        if name == "quadratic":
            problem = random_quadratic(QuadraticSpec(n=3, xl=None, xu=None), 0)
        else:
            problem = get_problem(name)
        calls = []

        def recorded(fn):
            def call(x):
                calls.append(fn)
                return fn(x)
            return call

        problem = dataclasses.replace(problem, smooth=tuple(
            dataclasses.replace(c, value=recorded(c.value), gradient=recorded(c.gradient))
            for c in problem.smooth
        ))
        x0 = np.full(problem.n, 1.0 / problem.n)
        x0[-1] = bad
        for mode in ("bbpgmo", "pgmo_ls"):
            with pytest.raises(ValueError, match="x0 must be finite"):
                solve(problem, x0, SolverConfig(algorithm=mode))
        assert calls == []


class TestTermination:
    def test_max_iters_status(self):
        problem = _diag_quadratic([[80.0, 80.0]])
        cfg = SolverConfig(algorithm="pgmo_ls", ell=1.0, max_iters=3)
        report = solve(problem, np.ones(2), cfg)
        assert report.status == "max_iters"
        assert report.iterations == 3
        assert report.status != "critical_point"

    def test_line_search_failure_on_bad_gradient(self):
        """A wrong-sign gradient makes every model direction an ascent
        direction for the true objective, so backtracking exhausts."""
        comp = SmoothComponent(
            value=lambda x: 0.5 * float(np.dot(x, x)),
            gradient=lambda x: -x,  # sign error on purpose
            lipschitz=1.0,
        )
        problem = MCOProblem(n=2, smooth=(comp,))
        report = solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_ls"))
        assert report.status == "line_search_failure"
        assert report.warnings

    def test_infeasible_start_is_projected(self):
        """A start off the simplex is projected onto it, and the solve runs
        from there; a start inside the domain and the bounds is kept."""
        problem = get_problem("markowitz")
        x0 = np.full(8, 3.0)
        np.testing.assert_array_equal(_prepare_start(problem, x0), np.full(8, 0.125))
        report = solve(problem, x0, SolverConfig(algorithm="bbpgmo", max_iters=2))
        assert report.iterations == 2 and problem.is_feasible(report.x)
        inside = np.array([0.5, -2.0])
        np.testing.assert_array_equal(_prepare_start(get_problem("BK1"), inside), inside)


class TestStopsThatReturnAStatus:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_box_face_with_outward_direction(self, mode):
        """f1 = (x - 3)^2, f2 = (x - 4)^2 on [-1, 1] from the face x0 = 1:
        every direction points out of the box, so no mode can step."""
        problem = _diag_quadratic(
            [[2.0], [2.0]], bs=[[-6.0], [-8.0]], bounds=(np.array([-1.0]), np.array([1.0]))
        )
        report = solve(problem, np.array([1.0]), SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        assert report.iterations == 0
        assert report.warnings == ["stopped on a box face with an outward direction"]
        np.testing.assert_array_equal(report.x, [1.0])

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_start_outside_the_smooth_domain(self, mode):
        """From x0 = -1 no sqrt part can be evaluated: every mode ends with
        evaluation_failure at k = 0 instead of raising, reporting x0, a NaN
        F, the error text and no counted work."""
        problem = _sqrt_problem(lipschitz=1.0, strong_mu=1.0)
        with np.errstate(invalid="ignore"):
            report = solve(problem, np.array([-1.0]), SolverConfig(algorithm=mode))
        assert report.status == "evaluation_failure"
        assert report.iterations == 0
        assert report.warnings == ["objective 0 returned nonfinite smooth value nan"]
        np.testing.assert_array_equal(report.x, [-1.0])
        np.testing.assert_array_equal(report.F, [np.nan, np.nan])
        assert report.counters == EvalCounters()

    @pytest.mark.parametrize(
        "problem, x0",
        ((get_problem("markowitz"), np.full(8, 1 / 8)),
         (random_quadratic(QuadraticSpec(n=4), 0), np.zeros(4)),
         (random_quadratic(QuadraticSpec(n=4, xl=None, xu=None), 0), np.zeros(4))),
        ids=("simplex", "bounds", "unbounded"),
    )
    def test_overflowing_scaled_gradients(self, problem, x0):
        """ell = 1e-320 makes grad f_i / alpha_i overflow to inf: the solve
        ends in dual_failure at k = 0 with no dual solved, not in a raising
        projection, a false critical point on a box face or a line search
        over NaN trial points."""
        report = solve(problem, x0, SolverConfig(algorithm="pgmo_ls", ell=1e-320))
        assert report.status == "dual_failure"
        assert report.iterations == 0
        assert report.warnings == ["scaled gradients grad f_i / alpha_i are not finite"]
        assert report.counters.prox_evals == 0
        np.testing.assert_array_equal(report.x, x0)

    def test_overflowing_scaled_gradients_warn_nothing(self):
        """The overflow of grad f_i / alpha_i is reported as the status and
        its warning, not as numpy's RuntimeWarning: with every RuntimeWarning
        an error, markowitz at ell = 1e-320 still returns dual_failure."""
        problem = get_problem("markowitz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve(problem, np.full(8, 1 / 8),
                           SolverConfig(algorithm="pgmo_ls", ell=1e-320))
        assert report.status == "dual_failure"

    @pytest.mark.parametrize("mode", ("bbpgmo", "pgmo_ls"))
    def test_armijo_trial_outside_the_domain(self, mode):
        """f1 = sqrt(x), f2 = sqrt(x) + x from x0 = 0.2: trials at x < 0 give a
        nan F. Armijo rejects them, so the solve ends with a status near the
        minimizer x = 0 instead of raising, and counts every trial."""
        problem = _sqrt_problem()
        cfg = SolverConfig(algorithm=mode)
        with np.errstate(invalid="ignore"):
            report = solve(problem, np.array([0.2]), cfg)
        assert report.status == "line_search_failure"
        assert 0.0 <= report.x[0] < 1e-6
        trials = sum(rec.backtracks + 1 for rec in report.trace)
        assert report.counters.F_evals == trials + MAX_BACKTRACKS + 1

    @pytest.mark.parametrize("x0", (0.2, 2.0))
    @pytest.mark.parametrize("mode", ("pgmo_fixed", "pgmo_separate"))
    def test_full_step_outside_the_domain(self, mode, x0):
        """The same problem with L_i = mu_i = 1 given. These modes take full
        steps, and one lands at x < 0, where F is nan: the solve ends with
        evaluation_failure at the last accepted iterate (x0 itself, or after
        four fixed steps from x0 = 2), the error text in its warnings, and
        the failed evaluation counted."""
        problem = _sqrt_problem(lipschitz=1.0, strong_mu=1.0)
        with np.errstate(invalid="ignore"):
            report = solve(problem, np.array([x0]), SolverConfig(algorithm=mode))
        assert report.status == "evaluation_failure"
        assert report.warnings == ["objective 0 returned nonfinite smooth value nan"]
        assert report.iterations == (4 if x0 == 2.0 else 0)
        last = report.trace[-1].x if report.trace else [x0]
        np.testing.assert_array_equal(report.x, last)
        np.testing.assert_array_equal(report.F, problem.evaluate_F(report.x))
        assert report.counters.F_evals == report.iterations + 1

    @pytest.mark.parametrize("x0", (0.2, 1.0, 2.0, 5.0))
    def test_abbpgmo_inflates_a_trial_outside_the_domain(self, monkeypatch, x0):
        """abbpgmo counts a nonfinite trial value as a violated quadratic
        bound: that part's alpha is inflated and the direction solved again
        until the trial stays in the domain, so the solve reaches the
        minimizer x = 0 instead of failing at x0. Every bound check counts
        one F evaluation, also one that hits a nan."""
        checks = []
        original = solvers._quadratic_bound_violations

        def counted(*args):
            checks.append(args[-2])
            return original(*args)

        monkeypatch.setattr(solvers, "_quadratic_bound_violations", counted)
        problem = _sqrt_problem(lipschitz=1.0, strong_mu=1.0)
        with np.errstate(invalid="ignore"):
            report = solve(problem, np.array([x0]), SolverConfig(algorithm="abbpgmo"))
        assert report.status == "critical_point"
        assert 0.0 < report.x[0] < 1e-6
        assert report.iterations <= 5
        assert sum(rec.inflations.sum() for rec in report.trace) > report.iterations
        assert x0 + checks[0][0] < 0.0  # the first trial leaves the domain
        assert report.counters.F_evals == len(checks)
        np.testing.assert_array_equal(report.F, problem.evaluate_F(report.x))

    @pytest.mark.parametrize("mode", ("bbpgmo", "abbpgmo"))
    def test_bb_predecessor_outside_the_domain(self, mode):
        """From x0 = 5e-5 the synthetic first BB predecessor x0 - 1e-4 lies at
        x < 0, where the gradient of sqrt is nan: the solve ends with
        evaluation_failure at x0 instead of raising."""
        problem = _sqrt_problem(lipschitz=1.0, strong_mu=1.0)
        x0 = np.array([5e-5])
        with np.errstate(invalid="ignore"):
            report = solve(problem, x0, SolverConfig(algorithm=mode))
        assert report.status == "evaluation_failure"
        assert report.iterations == 0
        assert report.warnings == ["objective 0 returned a nonfinite gradient"]
        np.testing.assert_array_equal(report.x, x0)
        np.testing.assert_array_equal(report.F, problem.evaluate_F(x0))

    @pytest.mark.parametrize("mode", ("bbpgmo", "abbpgmo"))
    def test_bb_predecessor_far_from_zero(self, mode):
        """At x0 = 1e13 a float step is 2e-3, so x0 - 1e-4 rounds back to x0:
        the synthetic predecessor steps one float below x0 instead of giving
        bb_stepsizes a zero displacement, and the nearly flat objectives
        f_i = 1e-20 (x - c_i)^2 stop the solve at a critical point."""
        comps = tuple(
            SmoothComponent(
                value=lambda x, c=c: 1e-20 * float(np.dot(x - c, x - c)),
                gradient=lambda x, c=c: 2e-20 * (x - c),
            )
            for c in (0.0, 1.0)
        )
        report = solve(MCOProblem(n=1, smooth=comps), np.array([1e13]),
                       SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        assert report.iterations == 0

    def test_fixed_step_that_leaves_x_unchanged(self, monkeypatch):
        """The unit direction from x0 = 1e5 times a box cap of 2e-12 (just
        above the face stop) is below half an ulp of x0, so the accepted
        fixed step leaves x as it was and the solve ends. The ratio test is
        patched to return that cap: its own caps always move the blocking
        coordinate onto its face."""
        monkeypatch.setattr(solvers, "max_feasible_step", lambda *args: 2e-12)
        comp = SmoothComponent(
            value=lambda x: float(x[0]), gradient=lambda x: np.ones(1), lipschitz=1.0
        )
        problem = MCOProblem(
            n=1, smooth=(comp, comp), bounds=(np.array([-1e6]), np.array([1e6]))
        )
        report = solve(problem, np.array([1e5]), SolverConfig(algorithm="pgmo_separate"))
        assert report.status == "line_search_failure"
        assert report.warnings == ["accepted step underflowed; iterate unchanged"]
        assert report.iterations == 0
        np.testing.assert_array_equal(report.x, [1e5])

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_projection_beyond_float_resolution(self, mode):
        """With c1 = (1e5, -1e5, 0, 0) and c2 = (0, 1e5, -1e5, 0) pgmo_fixed,
        pgmo_separate and pgmo_mu project vectors whose spread is about 2e17,
        beyond float resolution: project_simplex shifts them by their
        maximum and returns a vertex, so every mode returns a status with a
        feasible x instead of raising (pgmo_mu's direction is not a descent direction in every
        objective, so its line search stops at k = 0)."""
        problem = _linear_simplex_problem((1e5, -1e5, 0.0, 0.0), (0.0, 1e5, -1e5, 0.0))
        report = solve(problem, np.full(4, 0.25), SolverConfig(algorithm=mode))
        assert report.status in ("critical_point", "line_search_failure")
        assert problem.is_feasible(report.x)

    @pytest.mark.parametrize(
        "mode, status, iterations, prox_evals",
        (("pgmo_mu", "line_search_failure", 0, 86), ("bbpgmo", "critical_point", 1, 118)),
    )
    def test_no_dual_resolve_replays_another(self, mode, status, iterations, prox_evals,
                                             monkeypatch):
        """On the instance above an m = 2 dual ends at float resolution far
        above its gap target, so a re-solve at the tighter target returns the
        multiplier it started from, byte for byte. The next re-solve would
        get that multiplier and the same target again and only replay it, so
        the re-solves end there: no two dual solves of one iterate get the
        same warm multiplier and target (the prox calls were 212 for pgmo_mu
        and 199 for bbpgmo when each ran all four re-solves)."""
        problem = _linear_simplex_problem((1e5, -1e5, 0.0, 0.0), (0.0, 1e5, -1e5, 0.0))
        inputs = []
        dual_solve = solvers.frank_wolfe_solve

        def recorded(inp, counters, warm_lambda=None, gap_tol=direction.GAP_TOL):
            warm = None if warm_lambda is None else warm_lambda.tobytes()
            inputs.append((inp, warm, gap_tol))
            return dual_solve(inp, counters, warm_lambda=warm_lambda, gap_tol=gap_tol)

        monkeypatch.setattr(solvers, "frank_wolfe_solve", recorded)
        report = solve(problem, np.full(4, 0.25), SolverConfig(algorithm=mode))
        assert (report.status, report.iterations) == (status, iterations)
        assert report.counters.prox_evals == prox_evals
        keys = [(id(inp), warm, gap_tol) for inp, warm, gap_tol in inputs]
        assert len(inputs) > 1
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("mode", ["pgmo_fixed", "pgmo_mu", "pgmo_separate"])
    def test_projection_of_one_large_gradient_component(self, mode):
        """With c1 = c2 = (0, 0, 0, 3e5) the first trial point projects
        x0 - 3e17 e_3, whose mean swamps the three top entries: the step
        still lands on the exact projection of x0's first three entries,
        not on a vertex."""
        problem = _linear_simplex_problem((0.0, 0.0, 0.0, 3e5), (0.0, 0.0, 0.0, 3e5))
        report = solve(problem, np.array([0.4, 0.3, 0.2, 0.1]), SolverConfig(algorithm=mode))
        assert report.status == "critical_point"
        np.testing.assert_allclose(report.x, [13 / 30, 1 / 3, 7 / 30, 0.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_projection_off_the_simplex_is_caught(self, mode):
        """With c1 = (3e3, -1e3, 0, 2e3) and c2 = (-2e3, 1e3, 5e2, 0),
        pgmo_fixed and pgmo_separate project vectors with a spread of order
        1e15. A mean-centred threshold used to lose precision there and put
        the trial point off the simplex (evaluation_failure at k = 0); the
        projection now shifts by the maximum and is exact, so no mode meets
        an infeasible trial point, and every iterate is feasible with finite
        F. The membership re-check itself is pinned in test_problems.py."""
        problem = _linear_simplex_problem((3e3, -1e3, 0.0, 2e3), (-2e3, 1e3, 5e2, 0.0))
        report = solve(problem, np.full(4, 0.25), SolverConfig(algorithm=mode))
        assert report.status != "evaluation_failure"
        _assert_feasible_path(problem, report)

    @pytest.mark.parametrize("seed", (19, 72))
    def test_abbpgmo_on_badly_scaled_linear_objectives(self, seed):
        """Linear objectives with gradients of order 1e8 to 1e16 and
        L_i = mu_i = 1e-12 on the simplex. abbpgmo forms F at a new iterate
        from its bound check's smooth values and g, without evaluate_F's
        finiteness check, so a projection off the simplex would become an
        iterate with F = inf (seed 19 ended at max_iters with sum(x) =
        1.015625, seed 72 at a critical point with sum(x) = 1.000061)."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        problem = _linear_simplex_problem(
            *(rng.normal(size=n) * 10 ** rng.uniform(8, 16) for _ in range(m))
        )
        x0 = rng.dirichlet(np.ones(n))
        report = solve(problem, x0, SolverConfig(algorithm="abbpgmo", max_iters=50))
        _assert_feasible_path(problem, report)

    def test_iterate_outside_the_kind_domain_raises(self):
        """Bounds that cut the simplex away leave no feasible start: the
        clipped x0 is off the simplex, which is a modelling error, not an
        evaluation failure, so solve() raises instead of returning a status."""
        smooth = _diag_quadratic([[1.0, 1.0], [2.0, 2.0]]).smooth
        problem = MCOProblem(
            n=2,
            smooth=smooth,
            nonsmooth=SimplexIndicator(),
            bounds=(np.zeros(2), np.full(2, 0.3)),
        )
        with pytest.raises(ValueError, match="outside the domain of g"):
            solve(problem, np.array([0.5, 0.5]), SolverConfig(algorithm="pgmo_ls"))


class TestCappedDualSolve:
    """One Frank-Wolfe iteration leaves an m = 3 dual at the uniform
    multiplier, so a dual whose optimum lies elsewhere is capped. The cap is
    the dual solver's MAX_ITERS, which it reads at each call."""

    CAPPED = SolverConfig(algorithm="pgmo_ls")

    @pytest.fixture(autouse=True)
    def _one_dual_iteration(self, monkeypatch):
        monkeypatch.setattr(direction, "MAX_ITERS", 1)

    def test_certified_direction_is_used(self):
        """f_i = <c_i, x> on the box [0, 1]^2 from x0 = (0, 0.5): the uniform
        multiplier projects to d = (0, 0.5), which decreases every f_i by at
        least alpha_i ||d||^2 although the dual gap is 0.25. The solve steps
        with it, warns, and stops at the corner (0, 1)."""
        comps = tuple(
            SmoothComponent(
                value=lambda x, c=np.array(c): float(np.dot(c, x)),
                gradient=lambda x, c=np.array(c): c.copy(),
            )
            for c in ((3.0, -1.0), (1.0, -2.0), (2.0, -1.5))
        )
        problem = MCOProblem(
            n=2, smooth=comps, nonsmooth=BoxIndicator(lower=(0.0, 0.0), upper=(1.0, 1.0))
        )
        report = solve(problem, np.array([0.0, 0.5]), self.CAPPED)
        assert report.status == "critical_point"
        assert report.iterations == 1
        assert report.warnings == [
            "dual solve capped with gap 2.50e-01; "
            "using best lambda (descent certificate holds)"
        ]
        np.testing.assert_array_equal(report.x, [0.0, 1.0])

    def test_uncertified_direction_ends_with_dual_failure(self):
        """Gradients (1, 0), (0, 1), (-1, 0) at x0 = 0: the uniform multiplier
        gives d = (0, -1/3), along which f_1 and f_3 do not decrease."""
        problem = _diag_quadratic([[1.0, 1.0]] * 3, bs=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        report = solve(problem, np.zeros(2), self.CAPPED)
        assert report.status == "dual_failure"
        assert report.iterations == 0
        assert report.warnings == [
            "dual gap 1.111e-01 above 100x tolerance"
        ]
        np.testing.assert_array_equal(report.x, [0.0, 0.0])

    @pytest.mark.parametrize("algorithm", ("pgmo_mu", "pgmo_separate"))
    def test_small_capped_direction_is_a_critical_stop(self, algorithm):
        """Gradients (1, 3e-7), (0, 1), (-1, -1) at x0 = 0, L = mu = 1: the
        uniform multiplier gives d = (0, -1e-7), along which f_3 rises, at
        dual gap 1e-7. No certificate holds, but ||d|| <= d_tol, and d = 0
        at any multiplier would certify criticality, so the solve stops
        there as an uncapped one does."""
        comps = tuple(
            SmoothComponent(
                value=lambda x, c=np.array(c): float(np.dot(c, x)),
                gradient=lambda x, c=np.array(c): c.copy(),
                lipschitz=1.0,
                strong_mu=1.0,
            )
            for c in ((1.0, 3e-7), (0.0, 1.0), (-1.0, -1.0))
        )
        problem = MCOProblem(n=2, smooth=comps)
        report = solve(problem, np.zeros(2), SolverConfig(algorithm=algorithm))
        assert report.status == "critical_point"
        assert report.iterations == 0
        assert report.warnings == ["dual solve capped with gap 1.00e-07; ||d|| <= d_tol"]
        np.testing.assert_array_equal(report.x, [0.0, 0.0])


class TestAdaptiveMode:
    def test_inflation_on_underestimated_curvature(self):
        """The synthetic first secant pair averages the diagonal (alpha =
        50.005), which understates curvature along the subproblem direction,
        so the first iteration must inflate exactly once."""
        problem = _diag_quadratic([[0.01, 100.0]])
        x0 = np.array([1.0, 0.01])
        report = solve(problem, x0, SolverConfig(algorithm="abbpgmo", tau=2.0))
        assert report.status == "critical_point"
        first = report.trace[0]
        np.testing.assert_array_equal(first.inflations, [1])
        np.testing.assert_allclose(first.alphas, [100.01], rtol=1e-12)

    def test_box_face_stop_after_an_inflation_is_reported(self):
        """From the face x1 = 1 the first direction points inward, but breaks
        a quadratic bound (the one F evaluation); the re-solved direction
        points out of the box, so abbpgmo stops there, as every mode does."""
        problem = _diag_quadratic(
            [[13.0, 45.0], [45.0, 1.0]],
            bs=[[-20.0, -7.0], [17.0, 12.0]],
            bounds=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        report = solve(problem, np.array([1.0, 0.7]), SolverConfig(algorithm="abbpgmo"))
        assert report.status == "critical_point"
        assert (report.iterations, report.counters.F_evals) == (0, 1)
        assert report.warnings == ["stopped on a box face with an outward direction"]

    def test_alphas_stay_below_inflated_lipschitz(self):
        spec = QuadraticSpec(n=5, n_objectives=2, diag_low=0.5, diag_high=60.0)
        problem = random_quadratic(spec, seed=21)
        Ls = problem.lipschitz_constants()
        cfg = SolverConfig(algorithm="abbpgmo", tau=2.0)
        report = solve(problem, np.full(5, 1.2), cfg)
        assert report.status == "critical_point"
        for rec in report.trace:
            assert np.all(rec.alphas <= cfg.tau * Ls + 1e-9)

    def test_unit_steps_when_unbounded(self):
        spec = QuadraticSpec(n=4, n_objectives=2, xl=None, xu=None)
        problem = random_quadratic(spec, seed=2)
        report = solve(problem, np.full(4, 0.7), SolverConfig(algorithm="abbpgmo"))
        assert report.status == "critical_point"
        assert all(rec.t == 1.0 for rec in report.trace)

    def test_steps_capped_by_box(self):
        problem = get_problem("BK1")  # box [-5, 10]^2
        report = solve(problem, np.array([-5.0, -5.0]), SolverConfig(algorithm="abbpgmo"))
        assert report.status == "critical_point"
        assert all(0.0 < rec.t <= 1.0 for rec in report.trace)
        lo, hi = problem.bounds
        assert np.all(report.x >= lo) and np.all(report.x <= hi)


class TestTraceIntegrity:
    def test_trace_fields(self):
        spec = QuadraticSpec(n=4, n_objectives=3, xl=None, xu=None, g_kind="l1")
        problem = random_quadratic(spec, seed=9)
        cfg = SolverConfig(algorithm="bbpgmo")
        report = solve(problem, np.full(4, 1.1), cfg)
        assert report.status == "critical_point"
        assert report.iterations == len(report.trace)
        for rec in report.trace:
            assert rec.d_norm > cfg.d_tol
            assert rec.t > 0.0
            assert rec.backtracks >= 0
            assert rec.time_s >= 0.0
            assert rec.fw_gap <= max(direction.GAP_TOL, 0.05 * rec.d_norm**2) * 100
            # lambda lives on the simplex
            assert np.all(rec.lam >= -1e-12)
            assert abs(rec.lam.sum() - 1.0) < 1e-9
            # certified descent: model decrease beats -alpha ||d||^2 up to gap
            bound = rec.alphas * (rec.fw_gap - rec.d_norm**2) + 1e-10
            assert np.all(rec.model_decrease <= bound)
        np.testing.assert_array_equal(report.trace[-1].F, report.F)

    def test_fixed_alphas_shared_read_only(self):
        """A fixed mode's alphas column repeats its one fixed vector in every
        row, and is read-only."""
        problem = get_problem("JOS1a")
        report = solve(problem, np.full(problem.n, -1.5), SolverConfig(algorithm="pgmo_ls"))
        assert report.iterations >= 2
        ones = np.ones((report.iterations, problem.m))
        np.testing.assert_array_equal(report.trace.alphas, ones)
        assert not report.trace.alphas.flags.writeable
        assert not report.trace[1].alphas.flags.writeable

    @staticmethod
    def _assert_columns(trace, n, m):
        """One read-only column per field: (k,) scalars, (k, n) x and (k, m)
        vectors, inflations (k, m) ints in abbpgmo and None elsewhere."""
        k = len(trace)
        shapes = {"x": (k, n), "alphas": (k, m), "lam": (k, m), "F": (k, m),
                  "model_decrease": (k, m), "inflations": (k, m)}
        for name in TRACE_FIELDS:
            column = getattr(trace, name)
            if column is None and name == "inflations":
                continue
            assert column.shape == shapes.get(name, (k,)), name
            ints = name in ("backtracks", "inflations")
            assert column.dtype == (int if ints else float), name
            assert not column.flags.writeable, name

    def test_column_shapes_dtypes_read_only(self):
        spec = QuadraticSpec(n=4, n_objectives=3, xl=None, xu=None, g_kind="l1")
        problem = random_quadratic(spec, seed=9)
        for mode in ("bbpgmo", "abbpgmo"):
            report = solve(problem, np.full(4, 1.1), SolverConfig(algorithm=mode))
            assert report.iterations == len(report.trace) > 2
            self._assert_columns(report.trace, 4, 3)

    def test_zero_iteration_trace(self):
        problem = _diag_quadratic([[1.0, 1.0], [2.0, 3.0]])
        for mode in ("bbpgmo", "abbpgmo"):
            report = solve(problem, np.zeros(2), SolverConfig(algorithm=mode))
            assert report.iterations == len(report.trace) == 0
            assert list(report.trace) == [] and report.trace[:2] == []
            self._assert_columns(report.trace, 2, 2)
            assert np.isnan(report.stepsize_mean)
        assert report.trace.inflations.shape == (0, 2)

    def test_rows_are_views_of_the_columns(self):
        spec = QuadraticSpec(n=4, n_objectives=3, xl=None, xu=None, g_kind="l1")
        problem = random_quadratic(spec, seed=9)
        trace = solve(problem, np.full(4, 1.1), SolverConfig(algorithm="bbpgmo")).trace
        rows = list(trace)
        assert len(rows) == len(trace) > 2
        for pos, rec in enumerate(rows):
            assert type(rec.backtracks) is int and type(rec.d_norm) is float
            for name in TRACE_FIELDS:
                column = getattr(trace, name)
                np.testing.assert_array_equal(
                    getattr(rec, name), None if column is None else column[pos]
                )
            assert np.shares_memory(rec.x, trace.x) and not rec.lam.flags.writeable
        for got, want in ((trace[0], rows[0]), (trace[-1], rows[-1]),
                          *zip(trace[:2], rows[:2])):
            for name in TRACE_FIELDS:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert len(trace[:2]) == 2
        with pytest.raises(IndexError):
            trace[len(trace)]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_inflations_column_only_in_abbpgmo(self, mode):
        spec = QuadraticSpec(n=5, n_objectives=2, diag_low=0.5, diag_high=60.0)
        problem = random_quadratic(spec, seed=21)
        trace = solve(problem, np.full(5, 1.2), SolverConfig(algorithm=mode)).trace
        if mode != "abbpgmo":
            assert trace.inflations is None
            return
        assert trace.inflations.shape == (len(trace), 2)
        assert trace.inflations.dtype == int and trace.inflations.sum() > 0
        assert not trace.inflations.flags.writeable

    def test_pickle_round_trip(self):
        spec = QuadraticSpec(n=5, n_objectives=2, diag_low=0.5, diag_high=60.0)
        problem = random_quadratic(spec, seed=21)
        report = solve(problem, np.full(5, 1.2), SolverConfig(algorithm="abbpgmo"))
        copy = pickle.loads(pickle.dumps(report))
        assert len(copy.trace) == len(report.trace) > 0
        for name in TRACE_FIELDS:
            column = getattr(copy.trace, name)
            np.testing.assert_array_equal(column, getattr(report.trace, name))
            assert not column.flags.writeable, name
        np.testing.assert_array_equal(copy.trace[-1].x, report.trace[-1].x)

    def test_reports_hold_few_bytes_per_iteration(self):
        """A campaign's reports hold each trace field once per iteration, in a
        few arrays per solve: under 400 B per iteration at n = 10, where a
        record and five small arrays per iteration take about 890 B."""
        spec = ExperimentSpec(problem="quadratic:n=10", trials=8, seed=0,
                              algorithms=("bbpgmo", "pgmo_separate", "pgmo_mu"))
        tracemalloc.start()
        try:
            summary = run_campaign(spec)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            summary.reports = None
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        iterations = sum(row["iterations"] for row in summary.raw)
        assert iterations > 1000
        assert held / iterations <= 400

    def test_counters_track_work(self):
        problem = get_problem("JOS1a")
        report = solve(problem, np.full(problem.n, 1.5), SolverConfig(algorithm="bbpgmo"))
        c = report.counters
        assert c.F_evals >= report.iterations  # one per accepted trial at least
        # jacobian at x0, at the synthetic BB point, and after every step
        assert c.grad_evals == problem.m * (report.iterations + 2)

    def test_stepsize_mean(self):
        problem = _diag_quadratic([[2.0, 2.0]])
        report = solve(problem, np.ones(2), SolverConfig(algorithm="pgmo_separate"))
        assert report.stepsize_mean == 1.0


class TestParetoSweep:
    def test_reports_in_order(self):
        problem = get_problem("JOS1a")
        starts = [np.full(problem.n, v) for v in (-1.0, 0.5, 1.9)]
        cfg = SolverConfig(algorithm="bbpgmo")
        reports = [solve(problem, x0, cfg) for x0 in starts]
        assert len(reports) == 3
        for report in reports:
            assert report.status == "critical_point"
        # distinct starts should map to distinct efficient points on JOS1
        xs = np.array([r.x for r in reports])
        assert np.linalg.norm(xs[0] - xs[2]) > 1e-3
