"""Predictive-standard-deviation reparameterization and exponential priors.

The scale parameter of an integrated Wiener process of order p is hard to
elicit because its effect depends on p.  The h-units predictive SD --- the
conditional SD of g(x+h) given g and its first p-1 derivatives at x --- is
location-invariant and has the same interpretation at every order:

    psd(h) = sigma * sqrt(h^(2p-1)) / (sqrt(2p-1) * (p-1)!)

An exponential tail condition P(psd(h) > u) = alpha therefore converts to an
exponential prior on sigma itself by pure rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .basis import MAX_ORDER
from .errors import NumericError, _require
from .exact import IWPKernel, _wp_cov_mp


@dataclass(frozen=True)
class PSDSpec:
    """A prediction step ``h`` (covariate units) together with the order p."""

    h: float
    order: int

    def __post_init__(self):
        _require(
            isinstance(self.order, (int, np.integer)) and 1 <= self.order <= MAX_ORDER,
            f"order must be an integer in 1..{MAX_ORDER}",
        )
        _require(math.isfinite(self.h) and self.h > 0, "h must be finite and positive")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "h", float(self.h))

    @property
    def conversion(self) -> float:
        """Factor c(p, h) with sigma = c(p, h) * psd(h)."""
        p = self.order
        c = math.factorial(p - 1) * math.sqrt((2 * p - 1) / self.h ** (2 * p - 1))
        _require(math.isfinite(c) and c > 0, "conversion factor overflowed; reduce h or order")
        return c


@dataclass(frozen=True)
class ExponentialPrior:
    """Exponential density on sigma with the given rate."""

    rate: float

    def __post_init__(self):
        _require(math.isfinite(self.rate) and self.rate > 0, "rate must be finite and positive")

    @property
    def median(self) -> float:
        return math.log(2.0) / self.rate

    def log_pdf(self, x: float) -> float:
        if x < 0:
            return -math.inf
        return math.log(self.rate) - self.rate * x

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.exponential(scale=1.0 / self.rate, size=size)


def sigma_to_psd(spec: PSDSpec, sigma: float) -> float:
    """h-units predictive SD implied by the process scale ``sigma``."""
    _require(sigma >= 0, "sigma must be >= 0")
    return sigma / spec.conversion


def psd_to_sigma(spec: PSDSpec, psd: float) -> float:
    """Process scale implied by an h-units predictive SD (exact inverse)."""
    _require(psd >= 0, "psd must be >= 0")
    return psd * spec.conversion


def prior_from_psd(spec: PSDSpec, u: float, alpha: float) -> ExponentialPrior:
    """Exponential prior on sigma such that P(psd(h) > u) = alpha exactly."""
    _require(u > 0, "u must be positive")
    _require(0.0 < alpha < 1.0, "alpha must lie strictly between 0 and 1")
    rate_psd = -math.log(alpha) / u
    return ExponentialPrior(rate=rate_psd / spec.conversion)


def psd_conditional_check(kernel: IWPKernel, x: float, h: float, dps: int = 60) -> float:
    """Conditional SD of g(x+h) given g(x), g'(x), ..., g^(p-1)(x), numerically.

    Computed by Gaussian conditioning of the exact joint covariance.  The
    Schur complement cancels catastrophically in double precision when
    h << x (the conditional variance can sit fifteen orders below the
    marginal one), so the conditioning runs in extended precision; the
    mathematics is plain Gaussian conditioning either way.  This is the
    independent oracle for :func:`sigma_to_psd` and its location invariance.
    """
    _require(x >= 0, "x must be >= 0")
    _require(h > 0, "h must be positive")
    p = kernel.order
    with mpmath.workdps(dps):
        s11 = _wp_cov_mp(p, x + h, x + h, 0, 0)
        if x == 0.0:
            # every conditioning variable is almost surely zero at the origin
            cond_var = s11
        else:
            s22 = mpmath.matrix(p, p)
            s12 = mpmath.matrix(p, 1)
            for i in range(p):
                s12[i] = _wp_cov_mp(p, x + h, x, 0, i)
                for j in range(i, p):
                    s22[i, j] = s22[j, i] = _wp_cov_mp(p, x, x, i, j)
            try:
                sol = mpmath.lu_solve(s22, s12)
            except Exception as err:
                raise NumericError(f"singular conditioning matrix at x={x}: {err}")
            cond_var = s11 - sum(s12[i] * sol[i] for i in range(p))
        if cond_var < 0:
            raise NumericError(f"negative conditional variance {cond_var} at x={x}, h={h}")
        return kernel.sigma * float(mpmath.sqrt(cond_var))
