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

import numpy as np

from .basis import _require_order
from .errors import _require


@dataclass(frozen=True)
class PSDSpec:
    """A prediction step ``h`` (covariate units) together with the order p."""

    h: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", _require_order(self.order))
        _require(math.isfinite(self.h) and self.h > 0, "h must be finite and positive")
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
