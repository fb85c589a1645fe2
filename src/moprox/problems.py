"""Composite multiobjective problem model.

A problem is m objectives F_i = f_i + g_i on R^n with every f_i smooth
(values and gradients supplied as callables) and the g_i drawn from one of the
closed-form families in :mod:`moprox.prox`. Optional box bounds restrict the
iterates; they are enforced by the solvers through step capping, not through
the nonsmooth terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EvaluationError
from .prox import KINDS, BoxIndicator, Zero


@dataclass
class EvalCounters:
    """Work counters accumulated by a solve.

    ``F_evals`` counts full objective-vector evaluations (the headline feval
    measure), ``grad_evals`` per-component gradient evaluations and
    ``prox_evals`` calls to the combined proximal operator.
    """

    F_evals: int = 0
    grad_evals: int = 0
    prox_evals: int = 0


@dataclass(frozen=True)
class SmoothComponent:
    """One smooth objective term f_i.

    Parameters
    ----------
    value : callable
        x -> float.
    gradient : callable
        x -> (n,) array.
    lipschitz : float or None
        Gradient Lipschitz constant L_i when known.
    strong_mu : float or None
        Strong convexity modulus mu_i when known (0 means merely convex).
    """

    value: object
    gradient: object
    lipschitz: float | None = None
    strong_mu: float | None = None


@dataclass(frozen=True)
class MCOProblem:
    """m smooth components plus one nonsmooth family plus optional bounds."""

    n: int
    smooth: tuple
    nonsmooth: object = field(default_factory=Zero)  # one of prox.KINDS
    bounds: tuple | None = None  # (lower (n,), upper (n,)) or None
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError("n must be an integer")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if len(self.smooth) == 0:
            raise ValueError("need at least one objective")
        if not isinstance(self.nonsmooth, KINDS):
            kinds = ", ".join(k.__name__ for k in KINDS)
            raise ValueError(f"nonsmooth must be one of {kinds}, not {self.nonsmooth}")
        self.nonsmooth.check_size(self.n, self.m)
        # BoxIndicator checks and copies the bounds; bounds holds its arrays
        box = None if self.bounds is None else BoxIndicator(*self.bounds)
        if box is not None:
            box.check_size(self.n, self.m)
            object.__setattr__(self, "bounds", (box._lo, box._hi))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "smooth", tuple(self.smooth))

    @property
    def m(self):
        return len(self.smooth)

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of shape ({self.n},), got {x.shape}")
        return x

    def smooth_values(self, x):
        """(f_1(x), ..., f_m(x)); raises EvaluationError on nonfinite output."""
        x = self._check_point(x)
        out = np.empty(self.m)
        for i, comp in enumerate(self.smooth):
            fi = float(comp.value(x))
            if not math.isfinite(fi):
                raise EvaluationError(
                    f"objective {i} returned nonfinite smooth value {fi!r}",
                    objective=i,
                )
            out[i] = fi
        return out

    def g_values(self, x):
        """(g_1(x), ..., g_m(x)) as extended reals (+inf when infeasible)."""
        return self.nonsmooth.g_values(self._check_point(x), self.m)

    def evaluate_F(self, x, counters=None):
        """Full objective vector F(x) = f(x) + g(x).

        Counts one F evaluation per call, also one that raises, when counters
        are given. Raises EvaluationError if any component is nonfinite,
        which includes querying an indicator kind outside its set.
        """
        if counters is not None:
            counters.F_evals += 1
        # smooth_values checks x's shape; g needs only the array
        F = self.smooth_values(x)
        # g re-checks membership even for projected points, so a trial point
        # that roundoff put off the set ends a solve with evaluation_failure
        # instead of becoming an iterate
        F += self.nonsmooth.g_values(np.asarray(x, dtype=float), self.m)
        if not all(map(math.isfinite, F)):
            i = int(np.isfinite(F).argmin())  # the first nonfinite entry
            raise EvaluationError(
                f"objective {i} is nonfinite at the queried point", objective=i
            )
        return F

    def jacobian(self, x, counters=None):
        """(m, n) matrix of smooth gradients; counts m gradient evaluations."""
        x = self._check_point(x)
        J = np.empty((self.m, self.n))
        for i, comp in enumerate(self.smooth):
            gi = np.asarray(comp.gradient(x), dtype=float)
            if gi.shape != (self.n,):
                raise ValueError(
                    f"gradient {i} has shape {gi.shape}, expected ({self.n},)"
                )
            if not np.logical_and.reduce(np.isfinite(gi)):
                raise EvaluationError(
                    f"objective {i} returned a nonfinite gradient", objective=i
                )
            J[i] = gi
        if counters is not None:
            counters.grad_evals += self.m
        return J

    def lipschitz_constants(self):
        """(m,) array of L_i, or None if any component lacks one."""
        Ls = [c.lipschitz for c in self.smooth]
        if any(L is None for L in Ls):
            return None
        return np.array([float(L) for L in Ls])

    def strong_moduli(self):
        """(m,) array of mu_i, or None if any component lacks one."""
        mus = [c.strong_mu for c in self.smooth]
        if any(mu is None for mu in mus):
            return None
        return np.array([float(mu) for mu in mus])

    def is_feasible(self, x):
        """Finite coordinates, membership in the indicator set and the box
        (within tiny slack)."""
        x = self._check_point(x)
        return (bool(np.isfinite(x).all()) and self.nonsmooth.contains(x)
                and (self._box is None or self._box.contains(x)))

