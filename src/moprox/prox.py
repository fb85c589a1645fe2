"""Nonsmooth terms and their proximal operators.

Every problem carries one "kind" describing the whole family g_1..g_m, so the
weighted prox of sum_i w_i g_i stays a closed-form operation:

* ``Zero``             g_i = 0
* ``WeightedL1``       g_i(x) = c_i ||x||_1 with per-objective c_i > 0
* ``BoxIndicator``     g_i = indicator of [lower, upper]
* ``SimplexIndicator`` g_i = indicator of the unit simplex

For the two indicator kinds all objectives share the same set, so the weighted
sum is again the indicator (scaled by sum w_i) and the prox is the projection
whenever sum w_i > 0, the identity when the weights vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Indicator membership uses small absolute slacks: projections are exact only
# to roundoff, and iterates re-enter these checks after arithmetic.
_SIMPLEX_FEAS_TOL = 1e-9
_BOX_FEAS_TOL = 1e-12


def soft_threshold(v, kappa):
    """Componentwise shrinkage: prox of kappa*||.||_1 at v."""
    if kappa < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def project_box(v, lower, upper):
    """Componentwise clip onto [lower, upper]."""
    v = np.asarray(v, dtype=float)
    out = v.clip(lower, upper)
    if (np.asarray(lower) > np.asarray(upper)).any():
        raise ValueError("empty box: a lower bound exceeds its upper bound")
    return out


def project_simplex(v):
    """Euclidean projection onto {x >= 0, sum x = 1} (sort and threshold)."""
    v = np.asarray(v, dtype=float)
    n = v.size
    # the projection is invariant to uniform shifts; centering first keeps
    # full float resolution when v carries a large common offset
    v = v - np.add.reduce(v) / n
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = np.add.accumulate(u) - 1.0
    cond = u - css / np.arange(1, n + 1) > 0.0
    rho = cond.nonzero()[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class Zero:
    """All nonsmooth terms vanish."""

    def g_values(self, x):
        return np.zeros(1)

    def prox(self, weights, v):
        return np.array(v, dtype=float, copy=True)


@dataclass(frozen=True)
class WeightedL1:
    """g_i(x) = coeffs[i] * ||x||_1."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(ci) for ci in self.coeffs)
        if any(ci < 0 for ci in c):
            raise ValueError("l1 coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", c)

    def g_values(self, x):
        nrm = float(np.add.reduce(np.abs(x)))
        return np.array([ci * nrm for ci in self.coeffs])

    def prox(self, weights, v):
        kappa = float(np.dot(weights, self.coeffs))
        return soft_threshold(v, kappa)


@dataclass(frozen=True)
class BoxIndicator:
    """g_i = indicator of [lower, upper], identical for every objective."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if (lo > hi).any():
            raise ValueError("empty box: a lower bound exceeds its upper bound")
        object.__setattr__(self, "lower", tuple(lo.tolist()))
        object.__setattr__(self, "upper", tuple(hi.tolist()))
        # the tuples serve eq, hash and repr; prox and contains read arrays
        # built once, read-only (the _tol pair carries the membership slack)
        slack = _BOX_FEAS_TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        for name, arr in (("_lo", lo), ("_hi", hi), ("_lo_tol", lo - slack),
                          ("_hi_tol", hi + slack)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def arrays(self):
        return self._lo, self._hi

    def contains(self, x):
        return bool((x >= self._lo_tol).all() and (x <= self._hi_tol).all())

    def g_values(self, x):
        return np.zeros(1) if self.contains(x) else np.full(1, np.inf)

    def prox(self, weights, v):
        if float(np.add.reduce(weights)) <= 0.0:
            return np.array(v, dtype=float, copy=True)
        return project_box(v, self._lo, self._hi)


@dataclass(frozen=True)
class SimplexIndicator:
    """g_i = indicator of the unit simplex, identical for every objective."""

    def contains(self, x):
        return bool(
            (x >= -_BOX_FEAS_TOL).all()
            and abs(float(np.add.reduce(x)) - 1.0) <= _SIMPLEX_FEAS_TOL
        )

    def g_values(self, x):
        return np.zeros(1) if self.contains(x) else np.full(1, np.inf)

    def prox(self, weights, v):
        if float(np.add.reduce(weights)) <= 0.0:
            return np.array(v, dtype=float, copy=True)
        return project_simplex(v)


def g_vector(kind, x, m):
    """Per-objective values (g_1(x), ..., g_m(x)) as an (m,) array."""
    vals = kind.g_values(np.asarray(x, dtype=float))
    if vals.size == m:
        return vals
    # indicator kinds and Zero report one shared value
    return vals[:1].repeat(m)
