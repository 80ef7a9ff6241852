import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from osplines import (
    IWPKernel,
    InvalidArgumentError,
    OSplineBasis,
    OSplineKernel,
    PSDSpec,
    build_equal_knots,
    exact_gp_fit,
    exact_hierarchical_fit,
    integrate_cov_oracle,
    prior_from_psd,
    sup_cov_error,
)
from osplines import exact
from oracles import exact_mixture_moments


def brownian(s, t):
    return min(s, t)


# ---------------------------------------------------------------------------
# exact covariance
# ---------------------------------------------------------------------------


def test_exact_cov_examples():
    assert IWPKernel(1, 1.0).cov(0.3, 0.7) == pytest.approx(0.3)
    # adaptive quadrature of int_0^1 (1-u)^2 du
    want, _ = 1.0 / 3.0, None
    assert IWPKernel(2, 1.0).cov(1.0, 1.0) == pytest.approx(want, abs=1e-12)
    for p in (1, 2, 3, 5):
        assert IWPKernel(p, 0.0).cov(0.4, 0.9) == 0.0


def test_exact_cov_symmetry_under_argument_swap(rng):
    k = IWPKernel(4, 1.7)
    for _ in range(20):
        s, t = rng.uniform(0.0, 3.0, 2)
        q1, q2 = rng.integers(0, 4, 2)
        a = k.cov(s, t, int(q1), int(q2))
        b = k.cov(t, s, int(q2), int(q1))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_exact_cov_order_validation():
    with pytest.raises(InvalidArgumentError):
        IWPKernel(2, 1.0).cov(0.5, 0.5, 2, 0)
    with pytest.raises(InvalidArgumentError):
        IWPKernel(2, 1.0).cov(-0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        IWPKernel(2, 1.0).cov_matrix([0.5], [0.2, -0.1])
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, 4))
    with pytest.raises(InvalidArgumentError):  # order p is the test function, p + 1 is not
        OSplineKernel(basis, 1.0).cov(0.5, 0.5, 3, 0)


def test_exact_cov_matches_repeated_integration_oracle():
    """Induction base: integrating min(s,t) (p-1) times in each argument."""
    for p in range(1, 5):
        k = IWPKernel(p, 1.0)
        for s, t in [(0.3, 0.7), (1.0, 1.0), (0.15, 0.9), (0.6, 0.6)]:
            want = integrate_cov_oracle(brownian, s, t, (p - 1, p - 1))
            assert k.cov(s, t) == pytest.approx(want, abs=1e-7)


def test_derivative_of_process_is_lower_order_process(rng):
    """Cov of derivatives (q1, q2) with q1 >= q2 equals the order-(p-q2)
    process's covariance at orders (q1-q2, 0)."""
    for _ in range(15):
        p = int(rng.integers(2, 6))
        q2 = int(rng.integers(0, p - 1))
        q1 = int(rng.integers(q2, p))
        s, t = rng.uniform(0.1, 2.5, 2)
        a = IWPKernel(p, 1.3).cov(s, t, q1, q2)
        b = IWPKernel(p - q2, 1.3).cov(s, t, q1 - q2, 0)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# repeated-integration oracle
# ---------------------------------------------------------------------------


def test_oracle_examples():
    assert integrate_cov_oracle(brownian, 1.0, 1.0, (1, 1)) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert integrate_cov_oracle(lambda s, t: 0.0, 0.8, 0.3, (2, 1)) == 0.0
    assert integrate_cov_oracle(lambda s, t: 1.0, 2.0, 3.0, (1, 1)) == pytest.approx(6.0, abs=1e-9)
    assert integrate_cov_oracle(brownian, 0.4, 0.9, (0, 0)) == 0.4


@pytest.mark.filterwarnings("ignore:.*divergent.*")
@pytest.mark.filterwarnings("ignore:The maximum number of subdivisions")
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_oracle_reports_non_convergence():
    from osplines import NumericError

    wild = lambda s, t: math.sin(1e9 * s * t) * math.cos(7e8 * (s + t))
    with pytest.raises(NumericError, match="tolerance"):
        integrate_cov_oracle(wild, 1.0, 1.0, (1, 0))


# ---------------------------------------------------------------------------
# O-spline covariance
# ---------------------------------------------------------------------------


def test_ospline_cov_knot_point_matches_floor_formula():
    basis = OSplineBasis(1, build_equal_knots(0.0, 1.0, 10))
    assert OSplineKernel(basis, 1.0).cov(0.3, 0.7) == pytest.approx(0.3)


def test_ospline_cov_off_knot_equals_min_between_cells():
    """With first-order elements, the approximate covariance of points in
    different knot cells reproduces min(s, t) exactly; the floor-formula
    value ks/k -> 0.3 applies only when s sits on a knot.  Certified against
    the repeated-integration oracle through the defining weight sum."""
    basis = OSplineBasis(1, build_equal_knots(0.0, 1.0, 10))
    got = OSplineKernel(basis, 1.0).cov(0.35, 0.7)
    assert got == pytest.approx(0.35, abs=1e-12)
    # independent check: sum over weights with variance 1/d of phi products
    ks = basis.knot_set
    want = sum(
        (1.0 / d) * _ramp(lo, hi, 0.35) * _ramp(lo, hi, 0.7)
        for lo, hi, d in zip(ks.lower_knots, ks.knots, ks.spacings)
    )
    assert got == pytest.approx(want, rel=1e-12)


def _ramp(lo, hi, x):
    # integral of the cell indicator: piecewise-linear ramp
    return min(max(x - lo, 0.0), hi - lo)


def test_ospline_cov_zero_scale():
    basis = OSplineBasis(3, build_equal_knots(0.0, 1.0, 6))
    assert OSplineKernel(basis, 0.0).cov(0.5, 0.9) == 0.0


def test_ospline_cov_matrix_symmetric_psd():
    basis = OSplineBasis(3, build_equal_knots(0.0, 2.0, 12))
    grid = np.linspace(0.0, 2.0, 40)
    for q in (0, 1, 2):
        cov = OSplineKernel(basis, 1.0).cov_matrix(grid, grid, q, q)
        npt.assert_allclose(cov, cov.T, atol=1e-12)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


def test_exact_cov_grid_symmetric_psd():
    grid = np.linspace(0.0, 2.0, 40)
    for p in (1, 2, 4):
        cov = IWPKernel(p, 1.0).cov_matrix(grid, grid)
        npt.assert_allclose(cov, cov.T, atol=1e-12)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


# ---------------------------------------------------------------------------
# sup-norm error scans
# ---------------------------------------------------------------------------


def test_sup_error_examples():
    assert sup_cov_error(1, 10, (0.0, 1.0)) <= 0.2
    for p in (2, 3):
        for k in (5, 20):
            assert sup_cov_error(p, k, (0.0, 1.0)) <= 2.0 / k
    ratio = sup_cov_error(1, 10, (0.0, 1.0)) / sup_cov_error(1, 20, (0.0, 1.0))
    assert 1.5 <= ratio <= 2.5


def test_sup_error_decays_at_least_linearly_all_pairs():
    """The sup-norm error is O(1/k): doubling k at least ~halves it.  For
    smooth derivative pairs the decay is in fact quadratic (the bound is not
    tight), so only a lower bound on the ratio is asserted here; the roughest
    pair (p-1, p-1) exhibits the exactly linear rate."""
    for p in (1, 2, 3, 4):
        for q1 in range(p):
            for q2 in range(p):
                r = sup_cov_error(p, 10, (0.0, 1.0), q1=q1, q2=q2) / sup_cov_error(
                    p, 20, (0.0, 1.0), q1=q1, q2=q2
                )
                assert r >= 1.5, (p, q1, q2, r)
                if q1 == q2 == p - 1:
                    assert r == pytest.approx(2.0, abs=0.5)


def test_sup_error_requires_resolving_grid():
    with pytest.raises(InvalidArgumentError):
        sup_cov_error(2, 10, (0.0, 1.0), grid_density=50)


def test_finite_dimensional_covariance_converges_entrywise():
    """m-point joint covariance across mixed derivative orders converges to
    the exact one; quadrupling k shrinks the max entry error by at least the
    linear-rate factor."""
    pts = [(1.3, 0), (4.7, 1), (9.2, 2), (7.1, 0)]
    p = 3
    kern = IWPKernel(p, 1.0)
    exact = np.array([[kern.cov(s, t, qs, qt) for t, qt in pts] for s, qs in pts])

    def max_err(k):
        kern_k = OSplineKernel(OSplineBasis(p, build_equal_knots(0.0, 10.0, k)), 1.0)
        approx = np.array([[kern_k.cov(s, t, qs, qt) for t, qt in pts] for s, qs in pts])
        return np.max(np.abs(approx - exact))

    e10, e40, e160 = max_err(10), max_err(40), max_err(160)
    assert e40 < e10 and e160 < e40
    assert e10 / e40 >= 2.5
    assert e40 / e160 >= 2.5


# ---------------------------------------------------------------------------
# dense GP comparator
# ---------------------------------------------------------------------------


def test_gp_fit_prior_predictive():
    kern = IWPKernel(2, 1.2)
    taus = [2.0, 0.5]
    out = exact_gp_fit(kern, [], [], 1.0, taus, [(0.7, 0), (1.5, 0), (0.7, 1)])
    npt.assert_array_equal(out.means, 0.0)
    for (x, q), sd in zip(out.predict_at, out.sds):
        poly_var = sum(
            t**2 * (math.factorial(l) / math.factorial(l - q)) ** 2 * x ** (2 * (l - q))
            for l, t in enumerate(taus)
            if l >= q
        )
        want = np.sqrt(kern.cov(x, x, q, q) + poly_var)
        assert sd == pytest.approx(want, rel=1e-12)


def test_gp_fit_huge_noise_returns_prior_mean(rng):
    kern = IWPKernel(2, 1.0)
    xs = np.linspace(0.1, 4.0, 25)
    ys = rng.normal(0.0, 1.0, xs.size) + 3.0
    out = exact_gp_fit(kern, xs, ys, 1e8, [1.0, 1.0], [(x, 0) for x in xs])
    npt.assert_allclose(out.means, 0.0, atol=1e-4)


def test_gp_fit_matches_ospline_weight_space_qualitatively(rng):
    """Dense exact-process fit and a fine O-spline fit agree within noise."""
    xs = np.linspace(0.0, 20.0, 100)
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.standard_normal(xs.size)
    taus = np.full(3, np.sqrt(1000.0))
    sigma = 0.5
    exact = exact_gp_fit(IWPKernel(3, sigma), xs, ys, 1.0, taus, [(x, 0) for x in xs])
    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, 100))
    approx = exact_gp_fit(OSplineKernel(basis, sigma), xs, ys, 1.0, taus, [(x, 0) for x in xs])
    gap = np.abs(exact.means - approx.means)
    limit = 3.0 * np.maximum(exact.sds, approx.sds)
    assert np.all(gap < limit)


def test_gp_fit_interleaved_orders_keep_the_requested_order(rng):
    """Targets of mixed derivative orders come back in the order asked for
    and agree with fitting one target at a time.  The stacked and the
    one-row products round differently (measured up to 1.1e-11 SD on this
    case), while a misplaced row would be off by O(1) SD."""
    xs = np.linspace(0.0, 10.0, 30)
    ys = np.sin(xs) + rng.normal(0.0, 0.3, xs.size)
    taus = [1.0, 1.0, 1.0]
    basis = OSplineBasis(3, build_equal_knots(0.0, 10.0, 12))
    pts = [(1.5, 2), (1.5, 0), (7.25, 1), (3.0, 0), (9.5, 2), (0.5, 1), (4.0, 2)]
    for kern in (IWPKernel(3, 0.8), OSplineKernel(basis, 0.8)):
        out = exact_gp_fit(kern, xs, ys, 0.3, taus, pts)
        assert out.predict_at == tuple(pts)
        single = [exact_gp_fit(kern, xs, ys, 0.3, taus, [pt]) for pt in pts]
        want_means = np.array([f.means[0] for f in single])
        want_sds = np.array([f.sds[0] for f in single])
        assert np.all(np.abs(out.means - want_means) <= 1e-10 * want_sds)
        assert np.all(np.abs(out.sds - want_sds) <= 1e-10 * want_sds)


def test_gp_fit_validation():
    kern = IWPKernel(2, 1.0)
    with pytest.raises(InvalidArgumentError):
        exact_gp_fit(kern, [0.5], [1.0], 0.0, [1.0, 1.0], [(0.5, 0)])
    with pytest.raises(InvalidArgumentError):
        exact_gp_fit(kern, [0.5], [1.0], 1.0, [1.0], [(0.5, 0)])


def test_gp_fit_cholesky_failure_reports_condition_number():
    from osplines import NumericError

    kern = IWPKernel(3, 1.0)
    xs = np.array([1.0] * 40 + [2.0] * 40)  # duplicated rows, negligible noise
    ys = np.zeros(xs.size)
    with pytest.raises(NumericError, match="condition number"):
        exact_gp_fit(kern, xs, ys, 1e-13, [1.0, 1.0, 1.0], [(1.0, 0)])


def hierarchical_case(num_samples):
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 10.0, 40)
    ys = np.sin(xs) + rng.normal(0.0, 0.3, xs.size)
    args = dict(
        order=3, xs=xs, ys=ys, noise_sd=0.3, poly_prior_sd=[10.0, 10.0, 10.0],
        predict_x=np.linspace(0.25, 9.75, 20), derivs=(0, 1, 2),
    )
    prior = prior_from_psd(PSDSpec(h=2.0, order=3), 1.0, 0.5)
    fit = exact_hierarchical_fit(
        **args, sigma_prior=prior, num_quad=7, num_samples=num_samples, seed=4
    )
    return args, fit


@pytest.mark.parametrize("num_samples", [0, 400])
def test_hierarchical_moments_match_per_point_conditioning(num_samples):
    args, fit = hierarchical_case(num_samples)
    want_means, want_sds = exact_mixture_moments(
        **args, sigma_grid=fit.sigma_grid, weights=fit.weights
    )
    for q in args["derivs"]:
        mean, sd = fit.moments(q)
        scale = np.max(np.abs(want_means[q]))
        npt.assert_allclose(mean, want_means[q], rtol=1e-10, atol=1e-10 * scale)
        npt.assert_allclose(sd, want_sds[q], rtol=1e-10)
    if num_samples == 0:
        assert fit.sample_curves == {}
        return
    for q in args["derivs"]:
        draws = fit.sample_curves[q]
        assert draws.shape == (num_samples, args["predict_x"].size)
        se = want_sds[q] / np.sqrt(num_samples)
        assert np.all(np.abs(draws.mean(axis=0) - want_means[q]) < 5.0 * se)


def test_hierarchical_fit_factorizes_only_inside_the_quadrature(monkeypatch):
    counts = {"during": 0, "after": 0}
    returned = []
    real_adapt = exact.adapt_quadrature
    real_cho_factor = exact.linalg.cho_factor

    def adapt(*args, **kwargs):
        grid = real_adapt(*args, **kwargs)
        returned.append(grid)
        return grid

    def cho_factor(*args, **kwargs):
        counts["after" if returned else "during"] += 1
        return real_cho_factor(*args, **kwargs)

    monkeypatch.setattr(exact, "adapt_quadrature", adapt)
    monkeypatch.setattr(exact.linalg, "cho_factor", cho_factor)
    hierarchical_case(num_samples=400)
    assert counts["during"] > 0
    assert counts["after"] == 0


def test_cov_grid_tabulation_matches_kernels():
    """Each kernel's ``cov`` is its ``cov_matrix`` at one point."""
    s = np.linspace(0.1, 1.9, 7)
    t = np.linspace(0.2, 1.5, 5)
    basis = OSplineBasis(3, build_equal_knots(0.0, 2.0, 6))
    for kern in (IWPKernel(2, 1.3), OSplineKernel(basis, 1.3)):
        grid = kern.cov_matrix(s, t, 0, 1)
        assert grid.shape == (7, 5)
        pointwise = [[kern.cov(sv, tv, 0, 1) for tv in t] for sv in s]
        npt.assert_allclose(grid, pointwise, rtol=1e-12, atol=0.0)
        matched = kern.cov_matrix(s, s, 1, 1)
        npt.assert_allclose(matched, matched.T, atol=1e-12)
        eig = np.linalg.eigvalsh(matched)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


@given(sigma=st.floats(min_value=0.05, max_value=4.0))
def test_ospline_kernel_scales_quadratically(sigma):
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, 5))
    base = OSplineKernel(basis, 1.0).cov(0.4, 0.8)
    assert OSplineKernel(basis, sigma).cov(0.4, 0.8) == pytest.approx(sigma**2 * base, rel=1e-12)
