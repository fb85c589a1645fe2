"""Proximal gradient solvers for multiobjective composite problems.

All modes share one skeleton (solve the direction subproblem at per-objective
inverse stepsizes alpha, stop when ||d|| is small, otherwise step) and differ
only in how alpha and the steplength t are chosen:

==============  =============================  =======================
mode            alpha_i                        t
==============  =============================  =======================
pgmo_ls         constant ell (default 1)       Armijo backtracking
pgmo_fixed      constant ell (> L_max / 2)     1
pgmo_mu         mu_i (strong convexity)        Armijo backtracking
pgmo_separate   L_i (gradient Lipschitz)       1
bbpgmo          Barzilai-Borwein secant        Armijo backtracking
abbpgmo         BB, inflated by tau until the  1
                quadratic upper bound holds
==============  =============================  =======================

Fixed steps are capped at the largest box-feasible t; "pgmo_L" is accepted as
an alias of pgmo_separate. The first BB pair uses the synthetic previous
iterate x0 - offset with offset_j = max(1e-4, |spacing(x0_j)|), so the pair
differs also where x0_j - 1e-4 rounds back to x0_j (|x0_j| >= 2^40).
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bb import bb_stepsizes
from .direction import SubproblemInput, frank_wolfe_solve
from .exceptions import EvaluationError, LineSearchError
from .linesearch import armijo_search, max_feasible_step
from .problems import EvalCounters

_MODES = ("pgmo_ls", "pgmo_fixed", "pgmo_mu", "pgmo_separate", "bbpgmo", "abbpgmo")
_ALIASES = {"pgmo_L": "pgmo_separate"}
_LINE_SEARCH_MODES = ("pgmo_ls", "pgmo_mu", "bbpgmo")
# slack for accepting a soft-failed dual solve: the per-objective descent
# certificate model_i <= -alpha_i ||d||^2 must hold within this tolerance
_DESCENT_SLACK = 1e-8
_X_MINUS_OFFSET = 1e-4  # least offset of the first BB pair's previous iterate
# relative slack for the abbpgmo sufficient decrease test, so fp noise cannot
# trigger inflation once alpha_i already dominates the true curvature
_ABB_CHECK_SLACK = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "bbpgmo"
    ell: float | None = None        # pgmo_ls / pgmo_fixed stepsize parameter
    tau: float = 2.0                # abbpgmo inflation factor
    d_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        _canonical_mode(self.algorithm)
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError("max_iters must be an integer")
        if not 0.0 < self.d_tol < math.inf or self.max_iters < 1:
            raise ValueError("need 0 < d_tol < inf and max_iters >= 1")
        if not 1.0 < self.tau < math.inf:
            raise ValueError("tau must be finite and exceed 1")


@dataclass
class TraceRecord:
    d_norm: float
    t: float
    alphas: np.ndarray
    lam: np.ndarray
    x: np.ndarray               # iterate after the step
    F: np.ndarray               # objective vector after the step
    fw_gap: float
    model_decrease: np.ndarray
    backtracks: int
    inflations: np.ndarray | None
    time_s: float


class Trace(Sequence):
    """The iterations of one solve, one read-only column per TraceRecord field.

    The scalar fields are (k,) columns, ``x`` is (k, n), and ``alphas``,
    ``lam``, ``F``, ``model_decrease`` and ``inflations`` are (k, m);
    ``inflations`` is None outside abbpgmo. len(), indexing, slices and
    iteration give TraceRecord rows whose arrays are views into the columns.
    The columns live in a few field-major blocks, so a trace holds the same
    few arrays however long its solve ran.
    """

    __slots__ = ("backtracks", "_floats", "_vectors", "x", "inflations")

    def __init__(self, backtracks, floats, vectors, x, inflations=None):
        # (4, k) d_norm, t, fw_gap and time_s; (4, k, m) alphas, lam, F and
        # model_decrease
        self.backtracks, self._floats, self._vectors = backtracks, floats, vectors
        self.x, self.inflations = x, inflations
        for block in (backtracks, floats, vectors, x, inflations):
            if block is not None:
                block.flags.writeable = False

    @classmethod
    def from_rows(cls, rows, n, m, adaptive):
        """Pack one (backtracks, d_norm, t, fw_gap, time_s, alphas, lam, F,
        model_decrease, x, inflations) tuple per iteration; inflations are
        kept only when ``adaptive``."""
        k = len(rows)
        cols = list(zip(*rows)) or [()] * 11
        return cls(
            np.array(cols[0], dtype=int),
            np.array(cols[1:5], dtype=float).reshape(4, k),
            np.array(cols[5:9], dtype=float).reshape(4, k, m),
            np.array(cols[9], dtype=float).reshape(k, n),
            np.array(cols[10], dtype=int).reshape(k, m) if adaptive else None,
        )

    def __reduce__(self):
        return Trace, (self.backtracks, self._floats, self._vectors, self.x,
                       self.inflations)

    d_norm = property(lambda self: self._floats[0])
    t = property(lambda self: self._floats[1])
    fw_gap = property(lambda self: self._floats[2])
    time_s = property(lambda self: self._floats[3])
    alphas = property(lambda self: self._vectors[0])
    lam = property(lambda self: self._vectors[1])
    F = property(lambda self: self._vectors[2])
    model_decrease = property(lambda self: self._vectors[3])

    def __len__(self):
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # negative indices; IndexError past the end
        d_norm, t, fw_gap, time_s = self._floats[:, i].tolist()
        alphas, lam, F, model_decrease = self._vectors[:, i]
        inflations = None if self.inflations is None else self.inflations[i]
        return TraceRecord(d_norm, t, alphas, lam, self.x[i], F, fw_gap,
                           model_decrease, int(self.backtracks[i]), inflations,
                           time_s)


@dataclass
class SolveReport:
    status: str  # critical_point | max_iters | line_search_failure |
    #              dual_failure | evaluation_failure
    x: np.ndarray
    F: np.ndarray
    counters: EvalCounters
    trace: Trace
    total_time: float
    warnings: list

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def stepsize_mean(self):
        if not self.trace:
            return float("nan")
        return float(np.mean(self.trace.t))


def _canonical_mode(name):
    mode = _ALIASES.get(name, name)
    if mode not in _MODES:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(_MODES)}")
    return mode


def _fixed_alphas(problem, mode, cfg):
    """Constant alpha vector for the non-BB modes, with prerequisite checks;
    the one place, once per solve, where it is checked finite and positive.
    It is read-only, so every iteration can share it."""
    m = problem.m
    if mode == "pgmo_ls":
        alphas, what = np.full(m, 1.0 if cfg.ell is None else float(cfg.ell)), "ell"
    elif mode == "pgmo_fixed":
        Ls = problem.lipschitz_constants()
        if Ls is None or np.any(Ls < 0):
            raise ValueError("pgmo_fixed needs known Lipschitz constants")
        L_max = float(np.max(Ls))
        if L_max <= 0:
            raise ValueError("pgmo_fixed needs a positive L_max")
        ell = L_max if cfg.ell is None else float(cfg.ell)
        if ell <= 0.5 * L_max:
            raise ValueError(
                f"pgmo_fixed needs ell > L_max / 2 = {0.5 * L_max:g}, got {ell:g}"
            )
        alphas, what = np.full(m, ell), "ell"
    elif mode == "pgmo_mu":
        alphas, what = problem.strong_moduli(), "strong convexity moduli"
    elif mode == "pgmo_separate":
        alphas, what = problem.lipschitz_constants(), "Lipschitz constants"
    else:
        return None  # BB modes compute alphas per iteration
    # a NaN fails both comparisons
    if alphas is None or not np.all((alphas > 0.0) & (alphas < np.inf)):
        raise ValueError(f"{mode} needs finite positive {what}")
    alphas.flags.writeable = False
    return alphas


def _prepare_start(problem, x0):
    """x0 projected onto the domain of g (only the indicator kinds, which
    define ``project``, have points outside it) and clipped to the bounds;
    ValueError for a nonfinite x0 or one that this leaves outside the
    domain. Later iterates are convex steps between feasible points, clipped
    to the bounds: none is checked again."""
    kind = problem.nonsmooth
    x = np.array(x0, dtype=float, copy=True)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have shape ({problem.n},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if not kind.contains(x):
        x = kind.project(x)
    if problem.bounds is not None:
        x = np.clip(x, *problem.bounds)
    if not kind.contains(x):
        raise ValueError("base point lies outside the domain of g")
    return x


def _solve_direction(inp, cfg, counters, warnings, warm_lambda=None):
    """Dual solve with adaptive accuracy and the soft-failure policy.

    The duality-gap target tightens until gap <= 0.05 * ||d||^2, which turns
    the certificate model_i <= alpha_i * (gap - ||d||^2) into a strictly
    negative per-objective model decrease, so the line search never sees a
    non-descent direction for a non-critical iterate. A capped dual solve
    is still usable when its best direction carries the descent certificate
    or has ||d|| <= d_tol, so that the caller stops there; otherwise this
    returns None and the caller must abort with dual_failure. So does an
    overflowed grad f_i / alpha_i (a tiny alpha), which no dual can use.
    """
    if not np.logical_and.reduce(np.isfinite(inp.scaled_grads), axis=None):
        warnings.append("scaled gradients grad f_i / alpha_i are not finite")
        return None
    res = frank_wolfe_solve(inp, counters, warm_lambda=warm_lambda)
    for _ in range(4):
        if res.capped or res.d_norm <= cfg.d_tol:
            break  # caller stops at d_tol; no certificate needed
        need = 0.05 * res.d_norm**2
        if res.fw_gap <= need:
            break
        warm = res.lam
        res = frank_wolfe_solve(inp, counters, warm_lambda=warm, gap_tol=need)
        if res.lam.tobytes() == warm.tobytes():
            break  # the next pass gets the same lambda and gap_tol: a replay
    if not res.capped:
        return res
    dd = float(np.dot(res.d, res.d))
    if dd > 0 and np.all(res.model_decrease <= -inp.alphas * dd + _DESCENT_SLACK):
        warnings.append(
            f"dual solve capped with gap {res.fw_gap:.2e}; "
            "using best lambda (descent certificate holds)"
        )
        return res
    if res.d_norm <= cfg.d_tol:
        # d(lambda) = 0 at any lambda certifies criticality
        warnings.append(f"dual solve capped with gap {res.fw_gap:.2e}; ||d|| <= d_tol")
        return res
    warnings.append(f"dual gap {res.fw_gap:.3e} above 100x tolerance")
    return None


def solve(problem, x0, cfg=None):
    """Run one solver mode from x0; returns a SolveReport.

    The initial F(x0) evaluation is not counted (feval totals count only the
    work done by the iteration itself, so fixed-step runs show one feval per
    iteration). A start or a configuration that no iteration could use
    raises ValueError before any evaluation.
    """
    cfg = cfg or SolverConfig()
    mode = _canonical_mode(cfg.algorithm)
    started = time.perf_counter()
    counters = EvalCounters()

    x = _prepare_start(problem, x0)
    alphas_fixed = _fixed_alphas(problem, mode, cfg)
    bounds = problem.bounds
    rows = []  # one tuple per iteration, packed into the Trace at the end
    warnings = []
    status = None
    warm_lambda = None
    F = np.full(problem.m, np.nan)  # reported when F(x0) cannot be evaluated

    # an EvaluationError ends the solve at the last accepted iterate: x0 when
    # F or the Jacobian fails there, or when the BB modes' synthetic
    # predecessor lies outside a smooth part's domain
    try:
        f = problem.smooth_values(x)  # smooth parts; only abbpgmo keeps them current
        F = f + problem.g_values(x)
        grads = problem.jacobian(x, counters)
        if alphas_fixed is None:
            x_prev = x - np.maximum(_X_MINUS_OFFSET, np.abs(np.spacing(x)))
            grads_prev = problem.jacobian(x_prev, counters)
        for _ in range(cfg.max_iters):
            iter_started = time.perf_counter()
            if alphas_fixed is None:
                alphas = bb_stepsizes(x_prev, grads_prev, x, grads)
            else:
                alphas = alphas_fixed
            inflations = np.zeros(problem.m, dtype=int) if mode == "abbpgmo" else None

            # one pass for every mode; abbpgmo repeats it, warm-started, with
            # the alphas of the parts that break their quadratic bound inflated
            while True:
                inp = SubproblemInput(
                    x=x, grads=grads, alphas=alphas, kind=problem.nonsmooth
                )
                res = _solve_direction(
                    inp, cfg, counters, warnings, warm_lambda=warm_lambda
                )
                if res is None:
                    status = "dual_failure"
                    break
                if res.d_norm <= cfg.d_tol:
                    status = "critical_point"
                    break
                t_cap = 1.0
                if bounds is not None:
                    t_cap = max_feasible_step(x, res.d, bounds[0], bounds[1])
                    if t_cap < 1e-12:
                        # pinned on a box face with the direction pointing
                        # outward: no feasible progress exists along d
                        status = "critical_point"
                        warnings.append(
                            "stopped on a box face with an outward direction"
                        )
                        break
                if mode != "abbpgmo":
                    break
                violated, f_new = _quadratic_bound_violations(
                    problem, x, f, grads, alphas, t_cap * res.d, counters
                )
                if not violated.any():
                    break
                alphas = np.where(violated, alphas * cfg.tau, alphas)
                inflations += violated
                warm_lambda = res.lam
            if status is not None:
                break

            backtracks = 0
            if mode in _LINE_SEARCH_MODES:
                try:
                    t, F_new, backtracks = armijo_search(
                        problem, x, res.d, F, res.model_decrease, t_cap, counters
                    )
                except LineSearchError as err:
                    status = "line_search_failure"
                    warnings.append(str(err))
                    break
                x_new = x + t * res.d
            else:
                t = t_cap
                x_new = x + t * res.d
                if mode == "abbpgmo":
                    f = f_new
                    F_new = f + problem.g_values(x_new)
                else:
                    F_new = problem.evaluate_F(x_new, counters)

            if bounds is not None:
                np.minimum(np.maximum(x_new, bounds[0], out=x_new), bounds[1], out=x_new)
            # true only for nondeterministic objectives: a step lands on p != x
            # or a box face, and Armijo never accepts F(x + t d) = F(x)
            if not np.logical_or.reduce(x_new != x):
                status = "line_search_failure"
                warnings.append("accepted step underflowed; iterate unchanged")
                break

            # a failing gradient leaves the last accepted x, F and grads
            grads_new = problem.jacobian(x_new, counters)
            if alphas_fixed is None:
                x_prev, grads_prev = x, grads
            warm_lambda = res.lam
            x, F, grads = x_new, F_new, grads_new
            rows.append((
                backtracks, res.d_norm, t, res.fw_gap,
                time.perf_counter() - iter_started,
                alphas, res.lam, F, res.model_decrease, x, inflations,
            ))
    except EvaluationError as err:
        status = "evaluation_failure"
        warnings.append(str(err))

    return SolveReport(
        status=status or "max_iters",
        x=x,
        F=F,
        counters=counters,
        trace=Trace.from_rows(rows, problem.n, problem.m, mode == "abbpgmo"),
        total_time=time.perf_counter() - started,
        warnings=warnings,
    )


def _quadratic_bound_violations(problem, x, f, grads, alphas, delta, counters):
    """(violated, f_trial) for the abbpgmo test at the trial point x + delta.

    Smooth part i is violated when
    f_i(x + delta) - f_i(x) > <grad f_i, delta> + (alpha_i / 2) ||delta||^2
    or when f_i(x + delta) is nonfinite (then f_trial is None). Each check
    costs one feval, also one that fails. Inflating a violator's alpha by tau
    always ends: a finite violation implies alpha_i < L_i, so alpha_i stays
    below tau * L_i, and a nonfinite one shrinks the step into f_i's domain
    or below d_tol.
    """
    counters.F_evals += 1
    try:
        f_trial = problem.smooth_values(x + delta)
    except EvaluationError as err:
        violated = np.zeros(problem.m, dtype=bool)
        violated[err.objective] = True
        return violated, None
    quad = grads @ delta + 0.5 * alphas * float(np.dot(delta, delta))
    slack = _ABB_CHECK_SLACK * np.maximum(1.0, np.maximum(np.abs(f_trial), np.abs(f)))
    return f_trial - f > quad + slack, f_trial
