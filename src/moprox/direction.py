"""Descent direction subproblem, solved through its simplex dual.

An internal module: ``solve()`` and ``merit_gap()`` check its inputs (the
gradients, stepsizes and base point) where they enter, so nothing here does.

At a point x with per-objective inverse stepsizes alpha_i > 0, the direction
is the minimizer of

    max_i [ (<grad f_i(x), d> + g_i(x + d) - g_i(x)) / alpha_i ]  +  ||d||^2 / 2.

Dualizing the max with weights lambda on the unit simplex gives a smooth
convex dual

    omega(lambda) = ||u||^2 / 2 + sum_i lambda_i g_i(x) / alpha_i
                    - env(x - u),      u = sum_i lambda_i grad f_i(x) / alpha_i,

where env is the Moreau envelope of sum_i (lambda_i / alpha_i) g_i, so every
dual point costs one combined prox. Its gradient is

    d omega / d lambda_i = -(model decrease)_i / alpha_i

with (model decrease)_i = <grad f_i(x), d> + g_i(x + d) - g_i(x) evaluated at
the prox point, which makes the Frank-Wolfe gap the spread between the worst
and the lambda-averaged scaled model decreases. The primal direction is
recovered as d = prox(x - u) - x. Each dual point is one DirectionResult.

The dual is minimized by Frank-Wolfe with exact segment minimization (the
directional derivative is piecewise linear in lambda for every supported
nonsmooth kind, so a sign bisection plus one secant step is exact, and
Newton steps on a piece locate the sign change first). For two
objectives the whole simplex is one segment and the solve reduces to a single
bracketed root find on [0, 1]. With three or more objectives, pairwise
mass-exchange steps provide the certificate and global progress, while a
Newton step on the current face (the prox is piecewise affine, so omega has
a closed-form Hessian on each piece) supplies the local rate that plain
conditional-gradient steps lack when the alpha_i are badly imbalanced.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# tight enough that alpha * gap stays below descent-certificate tolerances
# even at the BB clamp's ALPHA_MAX = 1e3
GAP_TOL = 1e-12
MAX_ITERS = 2000  # m >= 3 cap; the loop also ends when lambda repeats


class SubproblemInput:
    """Per-iteration data for one direction solve; each dual point of the
    solve is a DirectionResult built from it. Nothing is checked here: x is
    a float (n,) array in the domain of g, grads a finite float (m, n) array,
    alphas a finite positive float (m,) array and kind one of prox.KINDS.
    The scaled gradients, the kind's prox and its model change at x are
    bound once, for every dual point of every solve."""

    def __init__(self, x, grads, alphas, kind):
        self.x, self.grads, self.alphas, self.kind = x, grads, alphas, kind
        self.m = grads.shape[0]
        # a tiny alpha overflows to inf, which the caller reports as a status;
        # a fresh errstate each time, since one errstate object cannot be
        # entered twice (numpy raises "Cannot enter `np.errstate` twice")
        with np.errstate(over="ignore"):
            self.scaled_grads = grads / alphas[:, None]
        self._sgT = self.scaled_grads.T
        self._prox = kind.prox
        self._gdiff = kind.model_change(x, self.m)

    @functools.cached_property
    def g_at_x(self):
        """(m,): g_i(x), read only by omega."""
        return self.kind.g_values(self.x, self.m)


class DirectionResult:
    """One dual point: the multiplier ``lam`` (kept without a copy, so nothing
    may change it later), u = sum_i lam_i grad f_i / alpha_i, the prox point
    p = prox(x - u), the direction d = p - x, q_i = model_i / alpha_i at p
    (the dual gradient is -q; ``q_list`` is q as floats; a None model change
    adds nothing) and the Frank-Wolfe gap ``fw_gap``. Building it costs one
    prox call, counted in ``counters`` when given; ``omega``,
    ``d_norm`` and ``model_decrease`` are computed on first read. When lam
    solves the dual, -omega is the primal optimum. ``capped`` is set on the
    point an m >= 3 solve returns with its gap above 100x its target.
    """

    capped = False

    def __init__(self, inp, lam, counters=None):
        u = inp._sgT @ lam
        p = inp._prox(lam, inp.alphas, inp.x - u)
        if counters is not None:
            counters.prox_evals += 1
        d = p - inp.x
        q = inp.grads @ d
        if inp._gdiff is not None:
            q += inp._gdiff(p)
        q /= inp.alphas
        self.inp, self.lam, self.u, self.p, self.d, self.q = inp, lam, u, p, d, q
        self.q_list = ql = q.tolist()  # a NaN in q makes lam.q NaN: max needs no NaN rule
        self.fw_gap = max(max(ql) - float(lam.dot(q)), 0.0)

    @functools.cached_property
    def omega(self):
        inp, lam, u, p = self.inp, self.lam, self.u, self.p
        g_p = inp.kind.g_values(p, inp.alphas.size)
        r = p - (inp.x - u)
        envelope = float((lam / inp.alphas).dot(g_p)) + 0.5 * float(r.dot(r))
        gx = float(lam.dot(inp.g_at_x / inp.alphas))
        return 0.5 * float(u.dot(u)) + gx - envelope

    @functools.cached_property
    def d_norm(self):
        # np.linalg.norm's own 1-D formula, without its wrapper
        return math.sqrt(float(self.d.dot(self.d)))

    @functools.cached_property
    def model_decrease(self):
        """(m,): <grad f_i, d> + g_i(x + d) - g_i(x)."""
        return self.q * self.inp.alphas


def _secant(a, ha, b, hb):
    """Root of the chord through (a, ha) and (b, hb) when it lies strictly
    inside (a, b), else the midpoint; exact when the slope is linear there."""
    if hb - ha > 0.0:
        t = (a * hb - b * ha) / (hb - ha)
        if a < t < b:
            return t
    return 0.5 * (a + b)


def _solve_m2(inp, counters, gap_tol, warm_t=None):
    """Exact dual solve for two objectives.

    h(t) = omega((t, 1-t)) is convex on [0, 1] with h'(t) = q_2(t) - q_1(t)
    piecewise linear and nondecreasing, so a sign bracket plus secant steps
    land on the root to machine accuracy. The warm t from the previous
    iterate (t = 0 without one) is probed first and settles the solve when
    h' vanishes there or its sign makes that vertex optimal. Otherwise only
    the end across the root is probed: the end on the warm side is never
    optimal and its gap is larger, gap(0) = -h'(0) > (1-t)(-h'(t)) = gap(t)
    (symmetrically at 1). The t = 0 end wins a tie of gaps against t = 1,
    an end wins one against an interior t.
    """

    def probe(t):
        pr = DirectionResult(inp, np.array([t, 1.0 - t]), counters)
        q0, q1 = pr.q_list
        return pr, q1 - q0

    tw = 0.0 if warm_t is None else warm_t
    prw, hw = probe(tw)
    # at h'(tw) = 0 an optimal end still wins the tie, t = 0 first
    for end in (0.0,) if hw > 0.0 else (1.0,) if hw < 0.0 else (0.0, 1.0):
        if end == tw:
            return prw
        pre, he = probe(end)
        if (he >= 0.0) if end == 0.0 else (he <= 0.0):
            return pre
    if hw == 0.0:
        return prw
    a, ha, b, hb = (tw, hw, 1.0, he) if hw < 0.0 else (0.0, he, tw, hw)
    gw, ge = prw.fw_gap, pre.fw_gap
    best = prw if gw < ge or (tw == 0.0 and gw == ge) else pre

    # alternate secant and bisection probes: the secant lands on the root of
    # the current linear piece of h', the bisection guarantees the bracket
    # keeps shrinking geometrically across pieces
    use_secant = True
    while best.fw_gap > gap_tol:
        mid = _secant(a, ha, b, hb) if use_secant else 0.5 * (a + b)
        use_secant = not use_secant
        if mid <= a or mid >= b:
            break  # bracket at float resolution
        prm, hm = probe(mid)
        if hm == 0.0:
            best = prm
            break
        if prm.fw_gap < best.fw_gap:
            best = prm
        if hm < 0.0:
            a, ha = mid, hm
        elif hm > 0.0:
            b, hb = mid, hm
    return best


def _segment_minimize(inp, counters, lam, step, eta_max, slope0):
    """Exact minimization of omega along lam + eta step, eta in [0, eta_max].

    phi'(eta) = <grad omega(lam_eta), step> = -<q(lam_eta), step> is
    piecewise linear and nondecreasing (omega is convex); each probe of
    phi' is one dual point, kept by its eta.

    Newton steps on the current piece (phi'' = step' H step with the
    face-Newton Hessian, exact on a piece) first locate the sign change,
    each landing a quarter tol past the predicted root, so two probes on
    one piece bracket it within tol / 2. When the Newton point leaves the
    bracket (lo, hi) of strictly signed probes, or the curvature is not
    positive, a secant step or, every other time, the midpoint is probed.
    The located bracket is then bisected to width tol; eta is a midpoint
    where phi' is exactly 0, else the secant root through the final ends.
    """
    tol = 1e-12 * max(1.0, eta_max)
    probes = {0.0: (slope0, None)}

    def slope(eta):
        if eta not in probes:
            point = DirectionResult(inp, lam + eta * step, counters)
            probes[eta] = (-float(point.q.dot(step)), point)
        return probes[eta][0]

    if slope0 >= 0.0:
        return 0.0
    if slope(eta_max) <= 0.0:
        return eta_max
    lo, hi, eta = 0.0, eta_max, eta_max
    chord = True
    for _ in range(16):  # bounds the locate only; the bisection ends any bracket
        if hi - lo <= tol:
            break
        h, point = probes[eta]
        H = inp.kind.dual_hessian(inp.scaled_grads, point.p, inp.alphas)
        curv = float(step.dot(H.dot(step)))
        eta = eta - h / curv - math.copysign(0.25 * tol, h) if curv > 0.0 else math.nan
        if not lo < eta < hi:
            eta = _secant(lo, slope(lo), hi, slope(hi)) if chord else 0.5 * (lo + hi)
            chord = not chord
        h = slope(eta)
        if h < 0.0:
            lo = eta
        elif h > 0.0:
            hi = eta
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        h = slope(mid)
        if h < 0.0:
            lo = mid
        elif h > 0.0:
            hi = mid
        else:
            return mid
    return _secant(lo, slope(lo), hi, slope(hi))


def _newton_face_step(inp, counters, probe):
    """One equality-constrained Newton step on the face spanned by lam > 0.

    Solves min 0.5 d'Hd + g'd subject to sum(d) = 0 over the active
    coordinates (g = -q), caps the step at the nonnegativity boundary, and
    returns the first halved trial's DirectionResult whose omega strictly
    decreases below the probe's, else None. Conditioning-immune, which
    matters because the Gram matrix inherits the alpha imbalance squared.
    """
    lam, q = probe.lam, probe.q
    H = inp.kind.dual_hessian(inp.scaled_grads, probe.p, inp.alphas)
    act = (lam > 0.0).nonzero()[0]
    k = act.size
    if k < 2:
        return None
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = H[act][:, act]
    K[:k, k] = K[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = q[act]
    try:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    delta = sol[:k]
    norm = math.sqrt(delta.dot(delta))  # np.linalg.norm's 1-D formula
    if not math.isfinite(norm) or norm <= 1e-16:
        return None
    neg = delta < 0.0
    t = 1.0
    if neg.any():
        t = min(1.0, float((lam[act][neg] / -delta[neg]).min()))
    if t <= 0.0:
        return None
    omega0 = probe.omega  # cached when the probe was a Newton trial
    full = np.zeros(lam.size)
    full[act] = delta
    for _ in range(8):
        trial = np.maximum(lam + t * full, 0.0)
        s = trial.sum()
        if s <= 0.0:
            return None
        trial /= s
        res = DirectionResult(inp, trial, counters)
        if res.omega < omega0 - 1e-15 * max(1.0, abs(omega0)):
            return res
        t *= 0.5
    return None


def frank_wolfe_solve(inp, counters=None, warm_lambda=None, gap_tol=GAP_TOL):
    """Solve the dual over the simplex; returns a DirectionResult.

    With three or more objectives the loop stops at gap_tol, after MAX_ITERS
    iterations, or when lambda repeats byte for byte (the rest would replay
    it); when the best gap ends above 100x gap_tol, the best point returned
    is marked ``capped``. A warm-start lambda has its negative entries
    zeroed and is scaled to sum 1; one without a positive entry starts cold.
    """
    m = inp.m
    if m == 2:  # the clip and scale below, in floats: -0.0 clips to 0.0, NaN starts cold
        a, b = (0.0, 0.0) if warm_lambda is None else (
            w if w > 0.0 or w != w else 0.0 for w in map(float, warm_lambda))
        return _solve_m2(inp, counters, gap_tol, a / (a + b) if a + b > 0.0 else None)
    lam = None
    if warm_lambda is not None:
        lam = np.maximum(np.asarray(warm_lambda, dtype=float), 0.0)
        s = lam.sum()
        lam = lam / s if s > 0 else None
    if lam is None:
        lam = np.full(m, 1.0 / m)

    best, seen, newton = None, set(), None
    for _ in range(MAX_ITERS):
        # lam is the loop's only state, so a repeat would only replay
        # iterations already run
        key = lam.tobytes()
        if key in seen:
            break
        seen.add(key)
        # an accepted Newton trial left as is by clip and renormalize is
        # already the dual point at lam
        reuse = newton is not None and newton.lam.tobytes() == key
        probe = newton if reuse else DirectionResult(inp, lam, counters)
        if best is None or probe.fw_gap < best.fw_gap:
            best = probe
        if probe.fw_gap <= gap_tol:
            break
        newton = _newton_face_step(inp, counters, probe)
        if newton is not None:
            lam = newton.lam
        else:
            # pairwise exchange: move mass from the flattest active
            # coordinate straight to the steepest one
            q = probe.q
            j_to = int(np.argmax(q))
            active = np.nonzero(lam > 0.0)[0]
            j_from = active[int(np.argmin(q[active]))]
            if j_to == j_from:
                break
            step = np.zeros(m)
            step[j_to] = 1.0
            step[j_from] = -1.0
            eta_max = float(lam[j_from])
            eta = _segment_minimize(
                inp, counters, lam, step, eta_max, -(float(q[j_to]) - float(q[j_from]))
            )
            if eta <= 0.0:
                break
            lam = lam + eta * step
            if eta >= eta_max * (1.0 - 1e-12):
                lam[j_from] = 0.0
        # a new array every iteration: each dual point keeps its lam
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()
    best.capped = best.fw_gap > 100.0 * gap_tol
    return best
