"""Benchmark problem constructors and the string-keyed registry.

Families
--------
* Random two-objective diagonal quadratics f_i = x'A_i x / 2 + b_i'x with an
  optional shared l1 term and box bounds (the benchmark workhorse).
* JOS1 (Jin/Olhofer/Sendhoff): f_1 = ||x||^2 / n, f_2 = ||x - 2||^2 / n,
  in four box sizes.
* BK1: f_1 = ||x||^2, f_2 = ||x - (5,5)||^2 on [-5, 10]^2.
* A mean/variance portfolio selection over the unit simplex: maximize
  expected gross return mu'x against variance x'Sigma x, with the
  eight-security annual statistics (1983..1994) from Vanderbei's portfolio
  dataset embedded.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import UnknownProblemError
from .problems import MCOProblem, SmoothComponent
from .prox import SimplexIndicator, WeightedL1, Zero


def _quadratic_component(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a.flags.writeable = False
    b.flags.writeable = False
    return SmoothComponent(
        value=lambda x, a=a, b=b: 0.5 * float(np.dot(a * x, x)) + float(np.dot(b, x)),
        gradient=lambda x, a=a, b=b: a * x + b,
        lipschitz=float(np.max(a)),
        strong_mu=float(np.min(a)),
    )


@dataclass(frozen=True)
class QuadraticSpec:
    """Generator parameters for the random diagonal quadratic family."""

    n: int
    n_objectives: int = 2
    diag_low: float = 1.0
    diag_high: float = 100.0
    xl: float | None = -2.0     # None -> unbounded
    xu: float | None = 2.0
    g_kind: str = "l1"          # "l1" (coefficients 1/n) or "zero"

    def __post_init__(self):
        for name in ("n", "n_objectives"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n < 1 or self.n_objectives < 1:
            raise ValueError("need n >= 1 and n_objectives >= 1")
        if self.diag_low <= 0 or self.diag_low > self.diag_high:
            raise ValueError("need 0 < diag_low <= diag_high")
        if (self.xl is None) != (self.xu is None):
            raise ValueError("give both bounds or neither")
        if self.g_kind not in ("l1", "zero"):
            raise ValueError("g_kind must be 'l1' or 'zero'")


def random_quadratic(spec, seed):
    """Draw one problem instance; a fixed seed reproduces it exactly."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n, m = spec.n, spec.n_objectives
    diags = rng.uniform(spec.diag_low, spec.diag_high, size=(m, n))
    bs = rng.uniform(-10.0, 10.0, size=(m, n))
    smooth = tuple(_quadratic_component(diags[i], bs[i]) for i in range(m))
    if spec.g_kind == "l1":
        kind = WeightedL1(coeffs=(1.0 / n,) * m)
    else:
        kind = Zero()
    bounds = None
    if spec.xl is not None:
        bounds = (np.full(n, float(spec.xl)), np.full(n, float(spec.xu)))
    return MCOProblem(
        n=n, smooth=smooth, nonsmooth=kind, bounds=bounds, name=f"quadratic-n{n}"
    )


def _shifted_sq_component(shift, scale):
    """f(x) = scale * ||x - shift||^2 with constant curvature 2*scale."""

    def value(x, s=shift, c=scale):
        r = x - s
        return c * float(np.dot(r, r))

    def gradient(x, s=shift, c=scale):
        return (2.0 * c) * (x - s)

    return SmoothComponent(
        value=value, gradient=gradient, lipschitz=2.0 * scale, strong_mu=2.0 * scale
    )


def jos1(n, half_width):
    """f_1 = ||x||^2 / n vs f_2 = ||x - 2||^2 / n on [-half_width, half_width]^n."""
    smooth = (
        _shifted_sq_component(0.0, 1.0 / n),
        _shifted_sq_component(2.0, 1.0 / n),
    )
    bounds = (np.full(n, -float(half_width)), np.full(n, float(half_width)))
    return MCOProblem(n=n, smooth=smooth, bounds=bounds, name=f"JOS1-n{n}")


def bk1():
    """f_1 = ||x||^2 vs f_2 = ||x - (5,5)||^2 on [-5, 10]^2."""
    smooth = (
        _shifted_sq_component(0.0, 1.0),
        _shifted_sq_component(5.0, 1.0),
    )
    bounds = (np.full(2, -5.0), np.full(2, 10.0))
    return MCOProblem(n=2, smooth=smooth, bounds=bounds, name="BK1")


# Annual gross-return statistics for eight securities, 1983..1994, from
# Vanderbei's portfolio dataset: expected returns and covariance.
PORTFOLIO_MEAN = np.array(
    [1.0672, 1.1228, 1.1483, 1.1440, 1.1329, 1.1029, 1.1975, 0.9952]
)
PORTFOLIO_COV = np.array(
    [
        [0.0005, 0.0004, 0.0007, 0.0005, -0.0007, 0.0006, 0.0001, -0.0015],
        [0.0004, 0.0216, 0.0110, 0.0116, 0.0138, 0.0092, 0.0208, 0.0027],
        [0.0007, 0.0110, 0.0149, 0.0162, 0.0211, 0.0056, 0.0158, -0.0007],
        [0.0005, 0.0116, 0.0162, 0.0181, 0.0252, 0.0059, 0.0164, -0.0015],
        [-0.0007, 0.0138, 0.0211, 0.0252, 0.0430, 0.0070, 0.0159, -0.0019],
        [0.0006, 0.0092, 0.0056, 0.0059, 0.0070, 0.0045, 0.0073, -0.0006],
        [0.0001, 0.0208, 0.0158, 0.0164, 0.0159, 0.0073, 0.0672, 0.0190],
        [-0.0015, 0.0027, -0.0007, -0.0015, -0.0019, -0.0006, 0.0190, 0.0189],
    ]
)
PORTFOLIO_MEAN.flags.writeable = False
PORTFOLIO_COV.flags.writeable = False


def markowitz_portfolio():
    """Two-objective portfolio problem on the unit simplex.

    f_1(x) = -mu'x (negated expected gross return), f_2(x) = x'Sigma x
    (variance), g_i the simplex indicator, with the embedded statistics.
    """
    mu = PORTFOLIO_MEAN
    cov = PORTFOLIO_COV
    # Entries rounded for publication can leave the matrix slightly
    # indefinite; clip the spectrum at zero. The repair stays below the
    # rounding half-ulp, so the entries round back to the published table.
    w, V = np.linalg.eigh(cov)
    if w[0] < 0.0:
        cov = (V * np.maximum(w, 0.0)) @ V.T
        cov = 0.5 * (cov + cov.T)
        w = np.maximum(w, 0.0)
        cov.flags.writeable = False

    ret = SmoothComponent(
        value=lambda x, mu=mu: -float(np.dot(mu, x)),
        gradient=lambda x, mu=mu: -mu,
        lipschitz=0.0,
        strong_mu=0.0,
    )
    risk = SmoothComponent(
        value=lambda x, cov=cov: float(x @ cov @ x),
        gradient=lambda x, cov=cov: 2.0 * (cov @ x),
        lipschitz=2.0 * float(w[-1]),
        strong_mu=2.0 * max(float(w[0]), 0.0),
    )
    return MCOProblem(
        n=mu.size, smooth=(ret, risk), nonsmooth=SimplexIndicator(), name="markowitz"
    )


_REGISTRY = {
    "BK1": bk1,
    "JOS1a": lambda: jos1(50, 2.0),
    "JOS1b": lambda: jos1(100, 2.0),
    "JOS1c": lambda: jos1(100, 50.0),
    "JOS1d": lambda: jos1(100, 100.0),
    "markowitz": markowitz_portfolio,
}


def available_problems():
    return sorted(_REGISTRY)


def register_problem(key, factory):
    """Add a zero-argument factory under a new key."""
    if key in _REGISTRY:
        raise ValueError(f"key {key!r} is already registered")
    _REGISTRY[key] = factory


def get_problem(key):
    """Instantiate a registered problem; unknown keys list the options."""
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {key!r}; available: {', '.join(available_problems())}"
        ) from None
    return factory()
