"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  The convergence checks assert
the rate the O-spline construction implies rather than a fixed band: the
sup-norm covariance error decays at least linearly in 1/k, exactly linearly
for the roughest derivative pair (Brownian-motion interpolation, error
1/(4k)) and quadratically for smoother pairs (order 2: exactly 1/(12k^2)).
Likewise the posterior SD of g and g' agrees with the dense exact comparator
to 15% from 30 knots, while the SD gap of g'', whose order-1 basis cannot
carry the within-cell bridge variance (about sigma^2 d / 4), is required to
shrink at the linear rate.  Runtime orderings are asserted only where the
weight-space fit has the smaller system (k < n).
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from osplines import (
    ExponentialPrior,
    IWPKernel,
    OSplineBasis,
    OSplineKernel,
    PSDSpec,
    aghq_fit,
    build_equal_knots,
    build_model,
    exact_gp_fit,
    exact_hierarchical_fit,
    laplace_log_marginal,
    max_condition_number,
    newton_mode,
    posterior_moments,
    prior_from_psd,
    psd_conditional_check,
    sigma_to_psd,
    sup_cov_error,
)
from osplines.simbench import (
    make_config,
    make_sine_data,
    run_benchmark_study,
    run_correlation_study,
    run_gmm_study,
)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    """Each criterion announces PASS or FAIL on stdout (run with -s or -rA
    to see the lines for passing tests too)."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s >= {limit_seconds}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]", flush=True)


# ---------------------------------------------------------------------------
# 1-2: covariance convergence
# ---------------------------------------------------------------------------


def test_criterion_01_sup_error_bound():
    with criterion(1, "sup-norm error within 2/k", 60.0):
        for p in (1, 2, 3):
            for k in (5, 10, 20, 40):
                err = sup_cov_error(p, k, (0.0, 1.0))
                assert err <= 2.0 / k + 1e-9, (p, k, err)


def test_criterion_02_linear_rate_band():
    with criterion(
        2, "error ratio k->2k >= 1.5 for all pairs, in [1.5, 2.5] for the roughest; "
        "sup errors 1/(4k) and 1/(12k^2)", 300.0,
    ):
        too_slow, roughest_out_of_band = [], []
        for p in (1, 2, 3, 4):
            for q1 in range(p):
                for q2 in range(p):
                    ratio = sup_cov_error(p, 10, (0.0, 1.0), q1=q1, q2=q2) / sup_cov_error(
                        p, 20, (0.0, 1.0), q1=q1, q2=q2
                    )
                    if ratio < 1.5:
                        too_slow.append((p, q1, q2, round(ratio, 3)))
                    if q1 == q2 == p - 1 and not (1.5 <= ratio <= 2.5):
                        roughest_out_of_band.append((p, q1, q2, round(ratio, 3)))
        assert not too_slow, (
            f"sup-error ratios below the at-least-linear rate 1.5: {too_slow}"
        )
        assert not roughest_out_of_band, (
            "the roughest pair (p-1, p-1) is Brownian-motion interpolation and "
            f"should decay exactly linearly (ratio 2): {roughest_out_of_band}"
        )
        for k in (10, 20):
            # Roughest pair: the Brownian-bridge variance u (d - u) / d of a cell
            # of width d = 1/k peaks at d/4 on its midpoint; the nearest point of
            # the grid (step h) lies within h/2 of it.
            h = 1.0 / (10 * k - 1)
            for p in (1, 2, 3, 4):
                err = sup_cov_error(p, k, (0.0, 1.0), q1=p - 1, q2=p - 1)
                assert 1.0 / (4 * k) - k * h * h / 4 - 1e-12 <= err <= 1.0 / (4 * k) + 1e-12, (
                    p, k, err, 1.0 / (4 * k)
                )
            # Order 2, q = 0: the error at s = t = 1 (a grid point) is the sum of
            # k independent integrated bridges, each of variance d^3 / 12.
            err = sup_cov_error(2, k, (0.0, 1.0))
            assert err == pytest.approx(1.0 / (12 * k * k), rel=1e-9), (k, err)


# ---------------------------------------------------------------------------
# 3: correlation curves
# ---------------------------------------------------------------------------


def test_criterion_03_correlation_curves(tmp_path):
    with criterion(3, "correlation error <= 0.01 at k=100, <= 0.05 at k=30", 120.0):
        cfg = make_config("corr", overrides={"out": str(tmp_path / "corr")})
        result = run_correlation_study(cfg)
        for (p, k, q), err in result.max_errors.items():
            if k == 100:
                assert err <= 0.01, (p, k, q, err)
            if k == 30:
                assert err <= 0.05, (p, k, q, err)


# ---------------------------------------------------------------------------
# 4: predictive-SD formula
# ---------------------------------------------------------------------------


def test_criterion_04_psd_exactness_and_location_invariance():
    with criterion(4, "conditional-SD oracle equals the closed form", 60.0):
        for p in range(1, 6):
            for h in (0.1, 1.0, 7.0):
                spec = PSDSpec(h=h, order=p)
                for sigma in (0.1, 1.0, 10.0):
                    want = sigma_to_psd(spec, sigma)
                    for x in (0.0, 1.0, 5.0):
                        got = psd_conditional_check(IWPKernel(p, sigma), x, h)
                        assert abs(got - want) <= 1e-7 * want, (p, h, sigma, x)


# ---------------------------------------------------------------------------
# 5: conjugate dual-route oracle
# ---------------------------------------------------------------------------


def test_criterion_05_conjugate_oracle():
    with criterion(5, "weight-space fit equals dense conditioning to 1e-6", 30.0):
        rng = np.random.default_rng(42)
        n, k, p = 50, 30, 3
        xs = np.linspace(0.0, 20.0, n)
        ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.standard_normal(n)
        basis = OSplineBasis(p, build_equal_knots(0.0, 20.0, k))
        sigma, kappa = 0.8, 1.0
        taus = np.full(p, np.sqrt(1000.0))
        model = build_model(
            xs, ys, basis, "gaussian",
            sigma_fixed=sigma, family_hyper_fixed=kappa, poly_prior_sd=taus,
        )
        fit = aghq_fit(model, num_quad=1, num_samples=0)
        grid = np.linspace(0.5, 19.5, 40)
        for q in (0, 1, 2):
            mean, sd = posterior_moments(fit, grid, q)
            ref = exact_gp_fit(
                OSplineKernel(basis, sigma), xs, ys, kappa, taus,
                [(x, q) for x in grid],
            )
            assert np.max(np.abs(mean - ref.means)) < 1e-6
            assert np.max(np.abs(sd - ref.sds)) < 1e-6


# ---------------------------------------------------------------------------
# 6: agreement with the exact hierarchical comparator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eq10_instance():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 20.0, 100)
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.standard_normal(100)
    return xs, ys


def test_criterion_06_inferential_agreement(eq10_instance):
    with criterion(
        6, "means within 3 SD at all k; g, g' SD within 15% from k=30; "
        "g'' SD gap shrinking linearly in k, within 15% from k=50", 300.0,
    ):
        xs, ys = eq10_instance
        p = 3
        taus = np.full(p, np.sqrt(1000.0))
        prior = prior_from_psd(PSDSpec(h=5.0, order=p), 3.0, 0.01)
        exact = exact_hierarchical_fit(
            p, xs, ys, 1.0, taus, prior, derivs=(0, 1, 2), num_quad=10
        )
        sd_misses = []
        g2_gap = {}
        for k in (10, 30, 50, 100):
            basis = OSplineBasis(p, build_equal_knots(0.0, 20.0, k))
            model = build_model(
                xs, ys, basis, "gaussian",
                sigma_prior=prior, family_hyper_fixed=1.0, poly_prior_sd=taus,
            )
            fit = aghq_fit(model, num_quad=10, num_samples=0)
            for q in (0, 1, 2):
                mean, sd = posterior_moments(fit, xs, q)
                m_ex, s_ex = exact.moments(q)
                gap = np.abs(mean - m_ex)
                assert np.all(gap < 3.0 * np.maximum(sd, s_ex)), (k, q)
                rel = float(np.max(np.abs(sd - s_ex) / s_ex))
                if q == 2:
                    g2_gap[k] = rel
                if k >= (50 if q == 2 else 30) and rel > 0.15:
                    sd_misses.append((k, q, round(rel, 4)))
        assert not sd_misses, f"posterior SD agreement above 15%: {sd_misses}"
        # g'' lives in the order-1 basis, which cannot carry the within-cell
        # bridge variance (about sigma^2 d / 4 at spacing d), so its SD gap is
        # first order in d.  The linear rate would divide it by 2 from k=50 to
        # k=100 and by 10/3 from k=30; three quarters of each is required.
        rates = (g2_gap[50] / g2_gap[100], g2_gap[30] / g2_gap[100])
        assert rates[0] >= 1.5 and rates[1] >= 2.5, (
            "second-derivative SD gap not shrinking at the linear rate: "
            f"gaps {g2_gap}, ratios 50/100 and 30/100 {rates}"
        )


# ---------------------------------------------------------------------------
# 7: runtime and conditioning orderings
# ---------------------------------------------------------------------------


def test_criterion_07_benchmark_orderings(tmp_path):
    with criterion(
        7, "exact worse conditioned than O-spline; slower where k < n, n >= 100", 600.0
    ):
        cfg = make_config("bench", profile="ci", overrides={"out": str(tmp_path / "bench")})
        result = run_benchmark_study(cfg)
        assert result.cell(50, "ospline_k10").mean_rel == pytest.approx(1.0)
        exact_cells = [result.cell(n, "exact") for n in cfg.n_values]
        for cell in exact_cells:
            assert cell.status == "ok", f"exact comparator failed at n={cell.n}"
        # exact conditioning degrades monotonically in n
        cns = [c.log10_cn_max for c in exact_cells]
        assert all(a < b for a, b in zip(cns, cns[1:])), cns
        for n in cfg.n_values:
            exact = result.cell(n, "exact")
            for k in cfg.knots:
                os_cell = result.cell(n, f"ospline_k{k}")
                assert os_cell.log10_cn_max < exact.log10_cn_max, (n, k)
                # at k >= n the latent dimension k + p is no smaller than the
                # comparator's n x n system, so no speed-up is promised there
                if n >= 100 and k < n:
                    assert os_cell.mean_seconds < exact.mean_seconds, (
                        n, k, os_cell.mean_seconds, exact.mean_seconds
                    )


# ---------------------------------------------------------------------------
# 8: hyperparameter posterior vs brute force
# ---------------------------------------------------------------------------


def _brute_log_marginal_vectorized(model, theta, nodes=40):
    """Adapted dense quadrature over the entire latent space (no Laplace)."""
    ga = newton_mode(model, theta)
    L = np.linalg.cholesky(np.linalg.inv(ga.precision))
    z, w = np.polynomial.hermite.hermgauss(nodes)
    dim = model.latent_dim
    pts = np.array(list(itertools.product(range(nodes), repeat=dim)))
    Z = z[pts]
    W = ga.mode + np.sqrt(2.0) * Z @ L.T
    sigma, _ = model.split_theta(theta)
    qd = model.prior_precision_diag(sigma, None)
    log_prior = (
        0.5 * np.sum(np.log(qd))
        - 0.5 * np.sum(W**2 * qd, axis=1)
        - 0.5 * dim * np.log(2.0 * np.pi)
    )
    eta = W @ model.design.T
    y = model.response
    log_lik = np.sum(y * eta - np.exp(eta), axis=1) - float(np.sum(gammaln(y + 1.0)))
    log_hyper = model.sigma_prior.log_pdf(sigma) + theta[0]
    log_adj = (
        np.log(w)[pts].sum(axis=1) + (Z**2).sum(axis=1)
        + 0.5 * dim * np.log(2.0) + np.sum(np.log(np.diag(L)))
    )
    return float(logsumexp(log_prior + log_lik + log_hyper + log_adj))


def test_criterion_08_toy_marginal_total_variation():
    with criterion(8, "hyperparameter posterior within 0.01 TV of brute force", 60.0):
        xs = np.array([0.4, 0.9, 1.3, 1.8])
        ys = np.array([1.0, 0.0, 2.0, 1.0])
        basis = OSplineBasis(1, build_equal_knots(0.0, 2.0, 2))
        model = build_model(
            xs, ys, basis, "poisson", sigma_prior=ExponentialPrior(1.0)
        )
        fit = aghq_fit(model, num_quad=10, num_samples=0)
        log_la = np.array([laplace_log_marginal(model, t) for t in fit.theta_points])
        log_true = np.array(
            [_brute_log_marginal_vectorized(model, t) for t in fit.theta_points]
        )
        # swap the Laplace values for the true ones under the same grid weights
        log_adjust = np.log(fit.weights) - (log_la - logsumexp(log_la))
        shifted = log_true + log_adjust
        true_weights = np.exp(shifted - logsumexp(shifted))
        tv = 0.5 * float(np.sum(np.abs(true_weights - fit.weights)))
        assert tv <= 1e-2, tv


# ---------------------------------------------------------------------------
# 9: derivative accuracy across orders
# ---------------------------------------------------------------------------


def test_criterion_09_mixture_study_order_comparison(tmp_path):
    with criterion(9, "order 3 beats order 2 for g'' with similar g accuracy", 1800.0):
        cfg = make_config("gmm", profile="ci", overrides={"out": str(tmp_path / "gmm")})
        assert cfg.replications == 100
        report = run_gmm_study(cfg)
        med3_g2 = report.medians[("ospline_p3", 2)]
        med2_g2 = report.medians[("ospline_p2", 2)]
        assert med3_g2 < med2_g2, (med3_g2, med2_g2)
        med3_g = report.medians[("ospline_p3", 0)]
        med2_g = report.medians[("ospline_p2", 0)]
        assert abs(med3_g - med2_g) < 0.25 * med3_g, (med3_g, med2_g)


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "seeded reruns are byte-identical (timing excluded)", 600.0):
        corr_over = {"orders": (1, 3), "knots": (5, 30), "grid_points": 60}
        a = run_correlation_study(
            make_config("corr", overrides={**corr_over, "out": str(tmp_path / "ca")})
        )
        b = run_correlation_study(
            make_config("corr", overrides={**corr_over, "out": str(tmp_path / "cb")})
        )
        assert {p.name: p.read_bytes() for p in a.files} == {
            p.name: p.read_bytes() for p in b.files
        }

        gmm_over = {"replications": 3, "knots": 40, "num_quad": 3, "seed": 6}
        a = run_gmm_study(make_config("gmm", overrides={**gmm_over, "out": str(tmp_path / "ga")}))
        b = run_gmm_study(make_config("gmm", overrides={**gmm_over, "out": str(tmp_path / "gb")}))
        assert {p.name: p.read_bytes() for p in a.files} == {
            p.name: p.read_bytes() for p in b.files
        }

        bench_over = {
            "n_values": (30, 60), "knots": (5, 10), "baseline_n": 30, "baseline_k": 5,
            "timing_reps": 1, "num_samples": 150, "num_quad": 3, "seed": 3,
        }
        a = run_benchmark_study(
            make_config("bench", overrides={**bench_over, "out": str(tmp_path / "ba")})
        )
        b = run_benchmark_study(
            make_config("bench", overrides={**bench_over, "out": str(tmp_path / "bb")})
        )
        for name in ("bench_conditioning.csv", "manifest.json"):
            fa = next(p for p in a.files if p.name == name)
            fb = next(p for p in b.files if p.name == name)
            assert fa.read_bytes() == fb.read_bytes(), name
