"""Nonsmooth terms and their proximal operators.

Every problem carries one "kind" describing the whole family g_1..g_m, so the
weighted prox of sum_i (lambda_i / alpha_i) g_i stays a closed-form operation:

* ``Zero``             g_i = 0
* ``WeightedL1``       g_i(x) = c_i ||x||_1 with per-objective c_i > 0
* ``BoxIndicator``     g_i = indicator of [lower, upper]
* ``SimplexIndicator`` g_i = indicator of the unit simplex

For the two indicator kinds all objectives share the same set, so the weighted
sum is again the indicator (scaled by sum_i lambda_i / alpha_i > 0) and the
prox is the projection.

A kind is the only place that knows its math; ``KINDS`` lists the four, and a
problem accepts no other nonsmooth term. Every kind implements

* ``check_size(n, m)``: raise ValueError unless the kind fits n variables
  and m objectives;
* ``g_values(x, m)``: (g_1(x), ..., g_m(x)), +inf outside an indicator's set;
* ``contains(x)``: membership in the domain of g, which is all of R^n for
  Zero and WeightedL1;
* ``prox(lam, alphas, v)``: the prox of sum_i (lam_i / alphas_i) g_i at the
  float array v, for lam on the unit simplex and finite alphas > 0; it may
  return v itself, so v must be a fresh array;
* ``model_change(x, m)``: p -> (g_i(p) - g_i(x))_i for prox outputs p, the
  nonsmooth part of the direction model, or None when every g_i is
  constant on its domain, so that the change is zero;
* ``dual_hessian(V, p, alphas)``: the Hessian of the direction dual on the
  piece of the prox that holds the prox point p (V has rows grad f_i /
  alpha_i). Every prox here is piecewise affine, so it is a Gram matrix,
  exact on the piece.

The two indicator kinds also implement ``project(x)``, the closest point of
their set, which ``solve()`` applies to a start outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Indicator membership uses small absolute slacks: projections are exact only
# to roundoff, and iterates re-enter these checks after arithmetic.
_SIMPLEX_FEAS_TOL = 1e-9
_BOX_FEAS_TOL = 1e-12
# largest top entry of a mean-centred vector that the simplex projection
# thresholds as it is: above it the mean lies far below the top entries and
# rounds them (every fingerprint input stays under 106)
_CENTRED_TOP_MAX = 1e3


def _simplex_threshold(v):
    """The threshold of the last sorted entry of v that stays positive, or
    None when none does or the largest entry is not at most _CENTRED_TOP_MAX;
    a float loop costs half of the equivalent numpy calls at the sizes solved
    here."""
    u = sorted(v.tolist(), reverse=True)
    if u and not u[0] <= _CENTRED_TOP_MAX:  # NaN too
        return None
    theta = None
    css = k = 0.0
    for ui in u:
        css += ui
        k += 1.0
        t = (css - 1.0) / k
        if ui - t > 0.0:
            theta = t
    return theta


def _project_simplex(v):
    """Euclidean projection of the float array v onto {x >= 0, sum x = 1}
    (sort and threshold); v is left unchanged."""
    v0 = v
    # the projection is invariant to uniform shifts; centering first keeps
    # full float resolution when v carries a large common offset
    v = v - np.add.reduce(v) / v.size
    theta = _simplex_threshold(v)
    if theta is None:
        if not np.isfinite(v0).all():
            raise ValueError("simplex projection needs a finite vector")
        # at a large spread the mean can absorb the top entries; shifting by
        # the maximum keeps them at full resolution, and the shifted top
        # entry 0 always stays above its threshold -1
        v = v0 - v0.max()
        theta = _simplex_threshold(v)
    v -= theta
    return np.maximum(v, 0.0, out=v)


class _Kind:
    """Defaults for a g that is 0 on its domain and +inf off it; the domain
    is all of R^n unless a kind says otherwise. Prox outputs lie in the
    domain, so the model terms g_i(p) - g_i(x) vanish at feasible x."""

    def check_size(self, n, m):
        pass

    def contains(self, x):
        return True

    def g_values(self, x, m):
        return np.zeros(m) if self.contains(x) else np.full(m, np.inf)

    def model_change(self, x, m):
        return None


@dataclass(frozen=True)
class Zero(_Kind):
    """All nonsmooth terms vanish."""

    def prox(self, lam, alphas, v):
        return v

    def dual_hessian(self, V, p, alphas):
        return V @ V.T


@dataclass(frozen=True)
class WeightedL1(_Kind):
    """g_i(x) = coeffs[i] * ||x||_1."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(ci) for ci in self.coeffs)
        if not all(0.0 <= ci < np.inf for ci in c):  # a NaN fails too
            raise ValueError("l1 coefficients must be finite and nonnegative")
        object.__setattr__(self, "coeffs", c)
        # the tuple serves eq, hash and repr; the methods read this array
        arr = np.array(c)
        arr.flags.writeable = False
        object.__setattr__(self, "_c", arr)

    def check_size(self, n, m):
        if len(self.coeffs) != m:
            raise ValueError(f"WeightedL1 needs m = {m} coefficients")

    def g_values(self, x, m):
        return self._c * float(np.add.reduce(np.abs(x)))

    def prox(self, lam, alphas, v):
        # soft thresholding at kappa = sum_i lam_i c_i / alpha_i, which is
        # nonnegative: the coefficients are refused below zero when built
        kappa = float(np.dot(lam / alphas, self._c))
        return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)

    def model_change(self, x, m):
        coeffs = self._c
        nx1 = float(np.add.reduce(np.abs(x)))
        return lambda p: coeffs * (float(np.add.reduce(np.abs(p))) - nx1)

    def dual_hessian(self, V, p, alphas):
        # off the zero set p_j = x_j - u_j - kappa sign(p_j), and the
        # threshold kappa = sum_i lambda_i c_i / alpha_i moves with lambda too
        S = V + (self._c / alphas)[:, None] * np.sign(p)
        Sf = S[:, p != 0.0]
        return Sf @ Sf.T


@dataclass(frozen=True)
class BoxIndicator(_Kind):
    """g_i = indicator of [lower, upper], identical for every objective."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float, ndmin=1)
        hi = np.array(self.upper, dtype=float, ndmin=1)
        if not (lo <= hi).all():
            raise ValueError("box bounds need lower <= upper in every entry, none NaN")
        object.__setattr__(self, "lower", tuple(lo.tolist()))
        object.__setattr__(self, "upper", tuple(hi.tolist()))
        # the tuples serve eq, hash and repr; the methods read arrays built
        # once, read-only (the _tol pair carries the membership slack)
        slack = _BOX_FEAS_TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        for name, arr in (("_lo", lo), ("_hi", hi), ("_lo_tol", lo - slack),
                          ("_hi_tol", hi + slack)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def check_size(self, n, m):
        if self._lo.shape != (n,) or self._hi.shape != (n,):
            raise ValueError(f"BoxIndicator bounds need n = {n} entries each")

    def contains(self, x):
        return bool(np.logical_and.reduce((x >= self._lo_tol) & (x <= self._hi_tol)))

    def project(self, x):
        return np.asarray(x, dtype=float).clip(self._lo, self._hi)

    def prox(self, lam, alphas, v):
        return v.clip(self._lo, self._hi)

    def dual_hessian(self, V, p, alphas):
        Vf = V[:, (p > self._lo) & (p < self._hi)]  # clamped coordinates do not move
        return Vf @ Vf.T


@dataclass(frozen=True)
class SimplexIndicator(_Kind):
    """g_i = indicator of the unit simplex, identical for every objective."""

    def contains(self, x):
        return bool(
            np.logical_and.reduce(x >= -_BOX_FEAS_TOL)
            and abs(float(np.add.reduce(x)) - 1.0) <= _SIMPLEX_FEAS_TOL
        )

    def project(self, x):
        return _project_simplex(np.asarray(x, dtype=float))

    def prox(self, lam, alphas, v):
        return _project_simplex(v)

    def dual_hessian(self, V, p, alphas):
        # p is a prox point, so it lies on the simplex and its support is
        # never empty
        S = p > 0.0
        Vs = V[:, S]
        k = int(S.sum())
        row = Vs @ np.ones(k)
        # support coordinates move through the centered projector I - 11'/k
        return Vs @ Vs.T - np.outer(row, row) / k


KINDS = (Zero, WeightedL1, BoxIndicator, SimplexIndicator)
