"""Per-objective Barzilai-Borwein stepsize scalars.

Given the displacement s = x_k - x_{k-1} and per-objective gradient changes
y_i = grad f_i(x_k) - grad f_i(x_{k-1}), each objective gets its own inverse
stepsize alpha_i:

* <s, y_i> > 0  : alpha_i = clamp(<s, y_i> / <s, s>)      (secant curvature)
* <s, y_i> < 0  : alpha_i = clamp(||y_i|| / ||s||)        (magnitude fallback)
* <s, y_i> ~ 0  : alpha_i = ALPHA_MIN                      (flat objective)

where clamp(.) projects onto [ALPHA_MIN, ALPHA_MAX] = [1e-3, 1e3]. The zero
test is relative: |<s, y_i>| <= 1e-14 ||s|| ||y_i||, so it is scale invariant
and catches exactly-linear objectives (y_i = 0). A curvature that is NaN also
gets ALPHA_MIN, so every alpha lies in [ALPHA_MIN, ALPHA_MAX].

An internal module: ``solve()`` checks the iterates and gradients where they
enter, so ``bb_stepsizes`` checks nothing.
"""

from __future__ import annotations

import numpy as np

ALPHA_MIN = 1e-3  # the clamp of every BB stepsize
ALPHA_MAX = 1e3
_ZERO_CURVATURE_REL = 1e-14


def bb_stepsizes(x_prev, grads_prev, x, grads):
    """(m,) array of alpha_i from the secant pair (x_prev, grads_prev) ->
    (x, grads): float arrays with x != x_prev, which ``solve()`` guarantees
    (it stops before a step that leaves the iterate unchanged)."""
    s = x - x_prev
    ss = float(np.dot(s, s))
    s_norm = np.sqrt(ss)
    Y = grads - grads_prev
    sy = Y @ s
    y_norms = np.sqrt(np.einsum("ij,ij->i", Y, Y))

    lo, hi = ALPHA_MIN, ALPHA_MAX
    alphas = np.full(sy.size, lo)  # flat or NaN curvature
    near_zero = np.abs(sy) <= _ZERO_CURVATURE_REL * s_norm * y_norms
    positive = (sy > 0.0) & ~near_zero
    negative = (sy < 0.0) & ~near_zero
    # clamped by the ufuncs, not through np.clip's slower Python wrapper
    alphas[positive] = np.minimum(np.maximum(sy[positive] / ss, lo), hi)
    alphas[negative] = np.minimum(np.maximum(y_norms[negative] / s_norm, lo), hi)
    return alphas
