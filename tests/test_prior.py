import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from osplines import (
    ExponentialPrior,
    IWPKernel,
    InvalidArgumentError,
    PSDSpec,
    prior_from_psd,
    psd_to_sigma,
    sigma_to_psd,
)
from oracles import psd_conditional_check


def test_sigma_to_psd_examples():
    assert sigma_to_psd(PSDSpec(h=1.0, order=1), 1.0) == pytest.approx(1.0)
    assert sigma_to_psd(PSDSpec(h=1.0, order=3), 1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(5.0)))
    assert sigma_to_psd(PSDSpec(h=2.0, order=2), 3.0) == pytest.approx(
        3.0 * math.sqrt(8.0) / math.sqrt(3.0)
    )


def test_psd_to_sigma_inverts_examples():
    for spec, sigma in [
        (PSDSpec(h=1.0, order=1), 1.0),
        (PSDSpec(h=1.0, order=3), 1.0),
        (PSDSpec(h=2.0, order=2), 3.0),
    ]:
        assert psd_to_sigma(spec, sigma_to_psd(spec, sigma)) == pytest.approx(sigma, rel=1e-14)
    assert psd_to_sigma(PSDSpec(h=1.0, order=1), 0.37) == pytest.approx(0.37)


@given(
    p=st.integers(min_value=1, max_value=8),
    h=st.floats(min_value=0.05, max_value=9.0),
    sigma=st.floats(min_value=1e-6, max_value=1e4),
)
def test_round_trip_identity(p, h, sigma):
    spec = PSDSpec(h=h, order=p)
    assert psd_to_sigma(spec, sigma_to_psd(spec, sigma)) == pytest.approx(sigma, rel=1e-14)


def test_prior_from_psd_examples():
    prior = prior_from_psd(PSDSpec(h=1.0, order=1), 1.0, 0.5)
    assert prior.rate == pytest.approx(math.log(2.0))

    # tail condition survives the change of scale exactly
    spec = PSDSpec(h=5.0, order=3)
    prior = prior_from_psd(spec, 3.0, 0.01)
    sigma_threshold = psd_to_sigma(spec, 3.0)
    assert math.exp(-prior.rate * sigma_threshold) == pytest.approx(0.01, rel=1e-12)

    spec = PSDSpec(h=7.0, order=3)
    prior = prior_from_psd(spec, math.log(2.0), 0.5)
    assert math.exp(-prior.rate * psd_to_sigma(spec, math.log(2.0))) == pytest.approx(0.5)


def test_prior_from_psd_validation():
    spec = PSDSpec(h=1.0, order=2)
    for alpha in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(InvalidArgumentError):
            prior_from_psd(spec, 1.0, alpha)
    with pytest.raises(InvalidArgumentError):
        prior_from_psd(spec, 0.0, 0.5)


def test_prior_pushforward_monte_carlo(rng):
    """Sampling sigma and mapping through the PSD reproduces the tail mass."""
    spec = PSDSpec(h=2.0, order=3)
    u, alpha, n = 0.8, 0.2, 100_000
    prior = prior_from_psd(spec, u, alpha)
    sigmas = prior.sample(rng, n)
    psd = sigmas / spec.conversion
    hit = np.mean(psd > u)
    se = math.sqrt(alpha * (1 - alpha) / n)
    assert abs(hit - alpha) <= 3.0 * se


def test_conditional_check_wiener_increment():
    # order 1: conditional SD over a step h is sigma * sqrt(h)
    assert psd_conditional_check(IWPKernel(1, 1.0), 4.0, 2.0) == pytest.approx(math.sqrt(2.0))


def test_conditional_check_location_invariance():
    spec = PSDSpec(h=1.0, order=2)
    want = sigma_to_psd(spec, 1.0)
    vals = [psd_conditional_check(IWPKernel(2, 1.0), x, 1.0) for x in (0.5, 3.0, 10.0)]
    for v in vals:
        assert v == pytest.approx(want, rel=1e-8)


def test_conditional_check_scale_linearity():
    spec = PSDSpec(h=0.5, order=3)
    got = psd_conditional_check(IWPKernel(3, 2.0), 1.7, 0.5)
    assert got == pytest.approx(2.0 * sigma_to_psd(spec, 1.0), rel=1e-8)


def test_conditional_check_full_sweep():
    for p in range(1, 6):
        for h in (0.1, 1.0, 7.0):
            spec = PSDSpec(h=h, order=p)
            for sigma in (0.1, 1.0, 10.0):
                want = sigma_to_psd(spec, sigma)
                for x in (0.0, 1.0, 5.0):
                    got = psd_conditional_check(IWPKernel(p, sigma), x, h)
                    assert got == pytest.approx(want, rel=1e-7), (p, h, sigma, x)


def test_exponential_prior_properties():
    prior = ExponentialPrior(rate=2.0)
    assert prior.median == pytest.approx(math.log(2.0) / 2.0)
    assert prior.log_pdf(0.5) == pytest.approx(math.log(2.0) - 1.0)
    assert prior.log_pdf(-0.1) == -math.inf
    with pytest.raises(InvalidArgumentError):
        ExponentialPrior(rate=0.0)
