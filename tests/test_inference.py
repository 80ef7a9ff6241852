import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import logsumexp

from osplines import (
    ExponentialPrior,
    IWPKernel,
    InvalidArgumentError,
    OSplineBasis,
    OSplineKernel,
    PSDSpec,
    aghq_fit,
    build_equal_knots,
    build_model,
    condition_number,
    exact_gp_fit,
    laplace_log_marginal,
    log_joint,
    max_condition_number,
    newton_mode,
    posterior_function,
    posterior_moments,
    prior_from_psd,
    sum_coded_design,
)
from osplines import inference
from osplines.inference import GaussianApprox
from oracles import (
    brute_log_marginal,
    fd_hessian_of_log_joint,
    gaussian_marginal_exact,
    gaussian_mode_dense,
    laplace_terms_in_original_coordinates,
    log_joint_scalar,
    posterior_function_reference,
)


def tiny_gaussian_model(n=5, k=3, seed=0, sigma=0.7, kappa=0.4, sigma_prior=None,
                        ys=None, poly_sd=(1.5, 0.8)):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n)
    if ys is None:
        ys = rng.normal(0.0, 1.0, n)
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, k))
    kwargs = dict(family_hyper_fixed=kappa, poly_prior_sd=list(poly_sd))
    if sigma_prior is None:
        kwargs["sigma_fixed"] = sigma
    else:
        kwargs["sigma_prior"] = sigma_prior
    return build_model(xs, ys, basis, "gaussian", **kwargs), basis


def tiny_poisson_model(sigma_prior=None, ys=(1.0, 0.0, 2.0, 1.0)):
    xs = np.array([0.4, 0.9, 1.3, 1.8])
    basis = OSplineBasis(1, build_equal_knots(0.0, 2.0, 2))
    kwargs = dict(poly_prior_sd=[2.0])
    if sigma_prior is None:
        kwargs["sigma_fixed"] = 0.9
    else:
        kwargs["sigma_prior"] = sigma_prior
    return build_model(xs, np.asarray(ys), basis, "poisson", **kwargs), basis


def large_covariate_od_model(rng):
    """Covariates spanning hundreds of units put basis and monomial columns
    at ~1e6 scale next to the unit-norm overdispersion block."""
    n = 150
    xs = np.linspace(0.0, 600.0, n)
    lam = np.exp(0.8 * np.sin(xs / 90.0) + 1.0)
    ys = rng.poisson(lam).astype(float)
    basis = OSplineBasis(3, build_equal_knots(0.0, 600.0, 30))
    return build_model(
        xs, ys, basis, "poisson_od",
        sigma_prior=prior_from_psd(PSDSpec(h=7.0, order=3), np.log(2.0), 0.5),
        family_hyper_prior=ExponentialPrior(rate=np.log(2.0) / 0.1),
        poly_prior_sd=0.1,
    )


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def test_latent_model_is_frozen_with_readonly_arrays():
    ys = np.random.default_rng(1).normal(0.0, 1.0, 5)
    model, _ = tiny_gaussian_model(ys=ys)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.response = np.zeros(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.poly_prior_sd = model.poly_prior_sd * 2.0
    for array in (model.response, model.design, model.spline_design.values,
                  model.poly_design, model.poly_prior_sd):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the caller's response stays writable and is not shared with the model
    ys[0] = 99.0
    assert model.response[0] != 99.0


def test_scalar_prior_sds_are_broadcast_per_column():
    fixed = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])
    model, basis = tiny_gaussian_model()
    scalar = build_model(
        np.linspace(0.0, 1.0, 5), model.response, basis, "gaussian",
        sigma_fixed=0.7, family_hyper_fixed=0.4, poly_prior_sd=2.0,
        fixed_design=fixed, fixed_prior_sd=3.0,
    )
    npt.assert_array_equal(scalar.poly_prior_sd, [2.0, 2.0])
    npt.assert_array_equal(scalar.fixed_prior_sd, [3.0])
    npt.assert_array_equal(scalar.design[:, -1], fixed[:, 0])
    with pytest.raises(InvalidArgumentError):
        build_model(np.linspace(0.0, 1.0, 5), model.response, basis, "gaussian",
                    sigma_fixed=0.7, family_hyper_fixed=0.4, poly_prior_sd=[1.0, 2.0, 3.0])


def test_theta_layout_drives_names_start_split_and_hyperprior():
    sigma_prior, kappa_prior = ExponentialPrior(1.5), ExponentialPrior(2.0)
    model, _ = tiny_gaussian_model(sigma_prior=sigma_prior)
    both = build_model(
        np.linspace(0.0, 1.0, 5), model.response, model.basis, "gaussian",
        sigma_prior=sigma_prior, family_hyper_prior=kappa_prior,
    )
    assert both.theta_names == ("log_sigma", "log_kappa")
    npt.assert_allclose(both.theta_start(), np.log([sigma_prior.median, kappa_prior.median]))
    theta = np.array([-0.3, 0.2])
    assert both.split_theta(theta) == pytest.approx(tuple(np.exp(theta)))
    want = sum(p.log_pdf(math.exp(t)) + t for p, t in zip((sigma_prior, kappa_prior), theta))
    assert both.log_hyperprior(theta) == pytest.approx(want, abs=1e-14)
    assert model.split_theta([0.1]) == pytest.approx((math.exp(0.1), 0.4))
    with pytest.raises(InvalidArgumentError):
        both.split_theta([0.1])


# ---------------------------------------------------------------------------
# log joint
# ---------------------------------------------------------------------------


def test_log_joint_gaussian_zero_everything_closed_form():
    model, _ = tiny_gaussian_model(ys=np.zeros(5))
    kappa = model.family_hyper_fixed
    qd = model.prior_precision_diag(model.sigma_fixed, kappa)
    want = (
        0.5 * np.sum(np.log(qd))
        - 0.5 * model.latent_dim * math.log(2 * math.pi)
        - model.n_obs * math.log(kappa)
        - 0.5 * model.n_obs * math.log(2 * math.pi)
    )
    assert log_joint(model, np.zeros(model.latent_dim)) == pytest.approx(want)


def test_log_joint_poisson_zero_counts():
    model, _ = tiny_poisson_model(ys=(0.0, 0.0, 0.0, 0.0))
    base = log_joint(model, np.zeros(model.latent_dim))
    # likelihood contribution is exactly -1 per observation at eta = 0
    qd = model.prior_precision_diag(0.9, None)
    prior = 0.5 * np.sum(np.log(qd)) - 0.5 * model.latent_dim * math.log(2 * math.pi)
    assert base - prior == pytest.approx(-4.0)


def test_log_joint_matches_scalar_reimplementation(rng):
    model, _ = tiny_gaussian_model(n=7, k=4)
    for _ in range(5):
        latent = rng.normal(0.0, 1.0, model.latent_dim)
        assert log_joint(model, latent) == pytest.approx(
            log_joint_scalar(model, latent), abs=1e-10
        )
    pmodel, _ = tiny_poisson_model(sigma_prior=ExponentialPrior(1.3))
    for _ in range(5):
        latent = rng.normal(0.0, 0.5, pmodel.latent_dim)
        theta = rng.normal(0.0, 0.3, 1)
        assert log_joint(pmodel, latent, theta) == pytest.approx(
            log_joint_scalar(pmodel, latent, theta), abs=1e-10
        )


def test_log_joint_poisson_overflow_names_observation():
    model, _ = tiny_poisson_model()
    bad = np.zeros(model.latent_dim)
    bad[-1] = 800.0  # intercept column pushes every eta over the edge
    with pytest.raises(Exception) as exc:
        log_joint(model, bad)
    assert "observation" in str(exc.value)


# ---------------------------------------------------------------------------
# Newton mode
# ---------------------------------------------------------------------------


def test_newton_gaussian_equals_gls_single_step(rng):
    model, _ = tiny_gaussian_model(n=9, k=4)
    ga = newton_mode(model, init=rng.normal(0.0, 3.0, model.latent_dim))
    assert ga.iterations == 1
    kappa = model.family_hyper_fixed
    qd = model.prior_precision_diag(model.sigma_fixed, kappa)
    X = model.design
    H = np.diag(qd) + X.T @ X / kappa**2
    want = np.linalg.solve(H, X.T @ model.response / kappa**2)
    npt.assert_allclose(ga.mode, want, atol=1e-10)


def test_gaussian_latent_sds_match_direct_inverse():
    model, _ = tiny_gaussian_model(n=9, k=4)
    ga = newton_mode(model)
    kappa = model.family_hyper_fixed
    qd = model.prior_precision_diag(model.sigma_fixed, kappa)
    H = np.diag(qd) + model.design.T @ model.design / kappa**2
    direct_sd = np.sqrt(np.diag(np.linalg.inv(H)))
    half = np.linalg.inv(np.tril(ga.chol))  # cho_factor leaves junk above the diagonal
    factor_sd = np.sqrt(np.sum(half**2, axis=0))
    npt.assert_allclose(factor_sd, direct_sd, atol=1e-8)


def test_aghq_even_node_count_excludes_mode():
    prior = ExponentialPrior(1.0)
    model, _ = tiny_poisson_model(sigma_prior=prior)
    fit = aghq_fit(model, num_quad=2, num_samples=20, seed=1)
    assert fit.theta_points.shape == (2, 1)
    assert fit.weights.sum() == pytest.approx(1.0)
    # the two nodes straddle the mode rather than sitting on it
    assert fit.theta_points[0, 0] < fit.theta_points[1, 0]


def test_newton_poisson_all_zero_counts():
    model, _ = tiny_poisson_model(ys=(0.0, 0.0, 0.0, 0.0))
    ga = newton_mode(model)
    eta = model.design @ ga.mode
    assert np.all(np.isfinite(ga.mode))
    assert np.all(eta < 0.0)
    assert ga.grad_norm <= 1e-8 * (1.0 + abs(ga.log_joint_at_mode))


def test_newton_gradient_condition_at_mode():
    model, _ = tiny_poisson_model()
    ga = newton_mode(model)
    assert ga.grad_norm <= 1e-8 * (1.0 + abs(ga.log_joint_at_mode))


def test_newton_takes_steps_below_log_joint_resolution_whole():
    """Overdispersed counts whose log joint at the mode cancels to ~0.3 from
    terms of order 1e4: near the mode the Newton step's predicted gain
    (~1e-17) lies below the evaluation noise, so step halving alone shrank
    it to nothing and the iteration stalled at |grad| ~ 2e-6."""
    n = 300
    x = np.arange(n, dtype=float)
    g = 2.5 + np.sin(2.0 * np.pi * x / 120.0) + 0.5 * np.cos(2.0 * np.pi * x / 45.0)
    rng = np.random.default_rng([1106, 12, 3])
    y = rng.poisson(np.exp(g + rng.normal(0.0, 0.1, n))).astype(float)
    model = build_model(
        x, y, OSplineBasis(3, build_equal_knots(0.0, 299.0, 50)), "poisson_od",
        sigma_prior=prior_from_psd(PSDSpec(h=30.0, order=3), 1.0, 0.01),
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 0.1),
    )
    ga = newton_mode(model, np.log([0.004211995274365753, 0.056008654972055004]))
    assert abs(ga.log_joint_at_mode) < 1.0
    assert ga.grad_norm <= 1e-8 * (1.0 + abs(ga.log_joint_at_mode))
    assert ga.iterations <= 15


def test_newton_assembles_and_factors_once_per_iterate(monkeypatch):
    calls = {"curvature": 0, "cho_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inference, "_lik_grad_curv",
                        counted("curvature", inference._lik_grad_curv))
    monkeypatch.setattr(inference.linalg, "cho_factor",
                        counted("cho_factor", inference.linalg.cho_factor))
    for model, _ in (tiny_gaussian_model(n=9, k=4), tiny_poisson_model()):
        calls.update(curvature=0, cho_factor=0)
        ga = newton_mode(model)
        assert ga.iterations >= 1
        assert calls == {"curvature": ga.iterations + 1, "cho_factor": ga.iterations + 1}


def test_newton_outputs_match_original_coordinate_assembly(rng):
    """Precision, factor, log-determinant and log joint rescaled from the
    equilibrated iteration agree with a direct assembly at the mode."""
    cases = [
        (tiny_gaussian_model(n=9, k=4)[0], ()),
        (tiny_poisson_model()[0], ()),
    ]
    od = large_covariate_od_model(rng)
    cases.append((od, od.theta_start()))
    for model, theta in cases:
        assert_matches_original_coordinate_assembly(model, theta)


def assert_matches_original_coordinate_assembly(model, theta):
    ga = newton_mode(model, theta)
    H, logdet, lj = laplace_terms_in_original_coordinates(model, ga.mode, theta)
    scale = np.sqrt(np.outer(np.diag(H), np.diag(H)))
    assert np.max(np.abs(ga.precision - H) / scale) <= 1e-10
    assert np.max(np.abs(ga.chol @ ga.chol.T - H) / scale) <= 1e-10
    npt.assert_array_equal(ga.chol, np.tril(ga.chol))
    # entrywise rounding of H moves log det by up to eps * sum|H^-1 o H|, which
    # reaches ~1e-9 relative on the large-covariate model (Jacobi-scaled
    # condition number ~4e10); the oracle's own slogdet is no closer than that
    floor = np.finfo(float).eps * np.sum(np.abs(np.linalg.inv(H) * H))
    assert abs(ga.log_det - logdet) <= 1e-10 * abs(logdet) + floor
    assert ga.log_joint_at_mode == pytest.approx(lj, rel=1e-10)


# ---------------------------------------------------------------------------
# the Gaussian family's Gram matrix
# ---------------------------------------------------------------------------


def sine_gaussian_model(n=400, k=20, region=(0.0, 20.0), offset=0.0, fixed=False, poly_sd=None):
    """Noisy sine on ``region``, noise SD 1, sigma on the quadrature grid."""
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(*region, n))
    ys = offset + math.sqrt(3.0) * np.sin(xs / 2.0) + rng.normal(0.0, 1.0, n)
    basis = OSplineBasis(3, build_equal_knots(*region, k))
    kwargs = dict(poly_prior_sd=math.sqrt(1000.0) if poly_sd is None else poly_sd)
    if fixed:
        kwargs.update(fixed_design=sum_coded_design(np.arange(n) % 3)[0], fixed_prior_sd=2.0)
    return build_model(
        xs, ys, basis, "gaussian", family_hyper_fixed=1.0,
        sigma_prior=prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01), **kwargs,
    )


def test_gram_matrix_is_readonly_and_gaussian_only(rng):
    model = sine_gaussian_model(n=50, k=8, fixed=True)
    npt.assert_array_equal(model.gram, model.design.T @ model.design)
    with pytest.raises(ValueError):
        model.gram[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.gram = None
    assert tiny_poisson_model()[0].gram is None
    assert large_covariate_od_model(rng).gram is None


def test_gram_newton_matches_original_coordinate_assembly():
    """The Gram-scaled Hessian agrees with X' diag(curv) X assembled at the
    mode, with a fixed-effect block and with ~1e6-scale covariate columns."""
    assert_matches_original_coordinate_assembly(sine_gaussian_model(n=60, k=8, fixed=True), [0.0])
    wide = sine_gaussian_model(n=60, k=8, region=(0.0, 600.0))
    assert np.max(wide.design) > 1e6
    assert_matches_original_coordinate_assembly(wide, [5.0])


@pytest.mark.parametrize("log_sigma", [-2.0, 0.0, 1.5])
def test_gram_newton_matches_dense_assembly(log_sigma):
    """Mode and Laplace log marginal from the Gram path against a dense
    assembly from the design's rows; also with the response far from zero,
    where expanding the residuals through X'X and X'y would cancel."""
    for model in (sine_gaussian_model(), sine_gaussian_model(offset=1e6, poly_sd=1e7)):
        ga = newton_mode(model, [log_sigma])
        mode, log_marg = gaussian_mode_dense(model, [log_sigma])
        assert np.linalg.norm(ga.mode - mode) <= 1e-8 * np.linalg.norm(mode)
        assert laplace_log_marginal(model, [log_sigma], ga) == pytest.approx(log_marg, rel=1e-8)


def test_hessian_matches_finite_differences():
    for model, _ in (tiny_gaussian_model(n=6, k=3), tiny_poisson_model()):
        ga = newton_mode(model)
        fd = -fd_hessian_of_log_joint(model, ga.mode)
        npt.assert_allclose(ga.precision, fd, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# Laplace marginal
# ---------------------------------------------------------------------------


def test_laplace_exact_for_gaussian_family():
    model, _ = tiny_gaussian_model(n=5, k=3)
    assert laplace_log_marginal(model) == pytest.approx(
        gaussian_marginal_exact(model), abs=1e-8
    )


def test_laplace_scaling_shift_with_zero_response():
    model, _ = tiny_gaussian_model(n=6, k=3, ys=np.zeros(6))
    base = laplace_log_marginal(model)
    c = 2.5
    scaled, _ = tiny_gaussian_model(
        n=6, k=3, sigma=0.7 * c, kappa=0.4 * c, ys=np.zeros(6),
        poly_sd=np.array([1.5, 0.8]) * c,
    )
    want = base - scaled.n_obs * math.log(c)
    assert laplace_log_marginal(scaled) == pytest.approx(want, abs=1e-9)


def test_laplace_matches_brute_force_quadrature_high_counts():
    """Dense latent-space quadrature oracle; counts large enough that the
    quadratic expansion is accurate to the stated tolerance."""
    model, _ = tiny_poisson_model(
        sigma_prior=ExponentialPrior(1.0), ys=(240.0, 190.0, 310.0, 260.0)
    )
    theta = np.array([math.log(0.5)])
    assert laplace_log_marginal(model, theta) == pytest.approx(
        brute_log_marginal(model, theta), abs=1e-3
    )


def test_laplace_brute_force_small_counts_close():
    model, _ = tiny_poisson_model(sigma_prior=ExponentialPrior(1.0))
    theta = np.array([math.log(0.5)])
    assert laplace_log_marginal(model, theta) == pytest.approx(
        brute_log_marginal(model, theta), abs=5e-2
    )


# ---------------------------------------------------------------------------
# quadrature fit
# ---------------------------------------------------------------------------


def test_aghq_single_point_is_empirical_bayes():
    prior = ExponentialPrior(1.0)
    model, _ = tiny_poisson_model(sigma_prior=prior)
    fit = aghq_fit(model, num_quad=1, num_samples=50, seed=3)
    assert fit.theta_points.shape == (1, 1)
    assert fit.weights == pytest.approx([1.0])
    assert np.all(fit.sample_point_index == 0)


def test_aghq_fixed_theta_matches_function_space_conditioning(rng):
    n, k, p = 40, 12, 3
    xs = np.linspace(0.0, 10.0, n)
    ys = np.sin(xs) + rng.normal(0.0, 0.3, n)
    basis = OSplineBasis(p, build_equal_knots(0.0, 10.0, k))
    sigma, kappa = 1.1, 0.3
    taus = np.full(p, 5.0)
    model = build_model(
        xs, ys, basis, "gaussian",
        sigma_fixed=sigma, family_hyper_fixed=kappa, poly_prior_sd=taus,
    )
    fit = aghq_fit(model, num_quad=1, num_samples=0)
    grid = np.linspace(0.2, 9.8, 23)
    for q in (0, 1, 2):
        mean, sd = posterior_moments(fit, grid, q)
        ref = exact_gp_fit(
            OSplineKernel(basis, sigma), xs, ys, kappa, taus, [(x, q) for x in grid]
        )
        npt.assert_allclose(mean, ref.means, atol=1e-6)
        npt.assert_allclose(sd, ref.sds, atol=1e-6)


def test_aghq_gaussian_grid_matches_analytic_marginal():
    """For the Gaussian family the Laplace marginal is exact, so normalized
    grid weights must match direct quadrature of the analytic marginal."""
    prior = ExponentialPrior(2.0)
    model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=9, num_samples=0)
    log_la = np.array([laplace_log_marginal(model, t) for t in fit.theta_points])
    log_direct = np.array([gaussian_marginal_exact(model, t) for t in fit.theta_points])
    log_adjust = np.log(fit.weights) - (log_la - logsumexp(log_la + 0.0))  # strip LA part
    direct_unnorm = log_direct + log_adjust
    direct_w = np.exp(direct_unnorm - logsumexp(direct_unnorm))
    npt.assert_allclose(fit.weights, direct_w, atol=1e-6)


def test_aghq_seed_stability_of_mean_curves(rng):
    xs = np.linspace(0.0, 20.0, 100)
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.standard_normal(100)
    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, 30))
    prior = prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01)
    model = build_model(xs, ys, basis, "gaussian", sigma_prior=prior, family_hyper_fixed=1.0)
    grid = np.linspace(1.0, 19.0, 7)
    curves = []
    for seed in (21, 22):
        fit = aghq_fit(model, num_quad=10, num_samples=3000, seed=seed)
        curves.append(posterior_function(fit, grid, 0))
    delta = np.abs(curves[0].mean - curves[1].mean)
    se = np.sqrt(curves[0].sd**2 / 3000 + curves[1].sd**2 / 3000)
    assert np.all(delta <= 2.0 * se)


def test_newton_converges_with_large_covariate_scale(rng):
    """The equilibrated iteration reaches the gradient criterion on ~1e6-scale
    columns (the unbalanced iteration stalls on its evaluation floor)."""
    model = large_covariate_od_model(rng)
    ga = newton_mode(model, model.theta_start())
    assert ga.grad_norm <= 1e-8 * (1.0 + abs(ga.log_joint_at_mode))
    assert np.all(np.isfinite(ga.mode))


def test_gaussian_noise_sd_on_quadrature_grid(rng):
    """The noise SD may be estimated instead of fixed: two-dimensional grid."""
    xs = np.linspace(0.0, 10.0, 60)
    ys = np.sin(xs) + rng.normal(0.0, 0.5, 60)
    basis = OSplineBasis(2, build_equal_knots(0.0, 10.0, 12))
    model = build_model(
        xs, ys, basis, "gaussian",
        sigma_prior=ExponentialPrior(1.0),
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 1.0),
    )
    assert model.theta_names == ("log_sigma", "log_kappa")
    fit = aghq_fit(model, num_quad=4, num_samples=0)
    assert fit.theta_points.shape == (16, 2)
    kappas = fit.family_hypers
    post_kappa = float(np.sum(fit.weights * kappas))
    assert 0.3 < post_kappa < 0.8  # concentrates near the true 0.5


def test_sampling_matches_gaussian_approx_moments():
    model, _ = tiny_gaussian_model(n=10, k=3)
    M = 100_000
    fit = aghq_fit(model, num_quad=1, num_samples=M, seed=5)
    ga = fit.approxes[0]
    cov = np.linalg.inv(ga.precision)
    sd = np.sqrt(np.diag(cov))
    mean_se = sd / math.sqrt(M)
    npt.assert_array_less(np.abs(fit.samples.mean(axis=0) - ga.mode), 4.0 * mean_se + 1e-12)
    emp_cov = np.cov(fit.samples.T)
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / M)
    npt.assert_array_less(np.abs(emp_cov - cov), 4.0 * cov_se + 1e-12)


# ---------------------------------------------------------------------------
# posterior curves
# ---------------------------------------------------------------------------


def test_posterior_function_at_origin_is_polynomial_only():
    prior = ExponentialPrior(1.0)
    model, basis = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=3, num_samples=200, seed=1)
    curve = posterior_function(fit, [0.0], 0)
    ncoef = model.n_spline
    gamma0 = fit.samples[:, ncoef]  # constant polynomial coefficient
    npt.assert_allclose(curve.samples[:, 0], gamma0, atol=1e-12)


def test_posterior_derivative_matches_finite_differences():
    prior = ExponentialPrior(1.0)
    model, basis = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=3, num_samples=50, seed=2)
    xs = np.array([0.3, 0.55, 0.8])
    step = 1e-5
    g1 = posterior_function(fit, xs, 1).samples
    up = posterior_function(fit, xs + step, 0).samples
    down = posterior_function(fit, xs - step, 0).samples
    npt.assert_allclose(g1, (up - down) / (2 * step), atol=1e-3)


def test_exp_transform_interval_equivariance():
    prior = ExponentialPrior(1.0)
    model, _ = tiny_poisson_model(sigma_prior=prior)
    fit = aghq_fit(model, num_quad=3, num_samples=400, seed=9)
    xs = np.array([0.5, 1.0, 1.7])
    plain = posterior_function(fit, xs, 0)
    tran = posterior_function(fit, xs, 0, transform="exp")
    npt.assert_allclose(tran.lower, np.exp(plain.lower), rtol=1e-12)
    npt.assert_allclose(tran.upper, np.exp(plain.upper), rtol=1e-12)


def test_exp_transform_derivative_chain_rule():
    prior = ExponentialPrior(1.0)
    model, _ = tiny_poisson_model(sigma_prior=prior)
    fit = aghq_fit(model, num_quad=3, num_samples=100, seed=9)
    xs = np.array([0.6, 1.4])
    g = posterior_function(fit, xs, 0).samples
    g1 = posterior_function(fit, xs, 1).samples
    chain = posterior_function(fit, xs, 1, transform="exp").samples
    npt.assert_allclose(chain, g1 * np.exp(g), rtol=1e-12)


def test_posterior_function_validation(monkeypatch):
    """Invalid arguments are rejected before any curve design is formed."""
    prior = ExponentialPrior(1.0)
    model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=1, num_samples=10, seed=0)
    empty = aghq_fit(model, num_quad=1, num_samples=0, seed=0)
    calls = []
    design = inference._curve_design
    monkeypatch.setattr(inference, "_curve_design", lambda *a: calls.append(a) or design(*a))
    bad = [
        (fit, dict(q=2, transform="exp")),
        (fit, dict(q=1, transform="exp2")),
        (fit, dict(q=3)),  # beyond basis order 2
        (fit, dict(q=-1)),
        (fit, dict(level=0.0)),
        (fit, dict(level=1.0)),
        (empty, dict()),
    ]
    for target, kwargs in bad:
        with pytest.raises(InvalidArgumentError):
            posterior_function(target, [0.5], **kwargs)
        assert calls == [], kwargs
    posterior_function(fit, [0.5], q=1, transform="exp")
    assert len(calls) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the SD of one sample is NaN
@pytest.mark.parametrize("num_samples", [1, 2, 3, 40, 3000])
def test_row_summaries_are_numpy_inverted_cdf_quantiles(num_samples):
    rng = np.random.default_rng(num_samples)
    continuous = rng.normal(0.0, 1.0, (40, num_samples))
    tied = rng.integers(0, 4, (40, num_samples)).astype(float)
    rows = np.vstack([continuous, tied])  # more rows than one block
    probs = [(0.5 * (1.0 - level), 1.0 - 0.5 * (1.0 - level)) for level in (0.5, 0.8, 0.95, 0.99)]
    for lower_prob, upper_prob in probs + [(0.025, 0.975)]:
        mean, sd, lower, upper = inference._row_summaries(rows, lower_prob, upper_prob)
        want = np.quantile(rows, [lower_prob, upper_prob], axis=1, method="inverted_cdf")
        npt.assert_array_equal(lower, want[0])
        npt.assert_array_equal(upper, want[1])
        npt.assert_allclose(mean, rows.mean(axis=1), rtol=1e-14, atol=1e-14)
        if num_samples > 1:
            npt.assert_allclose(sd, rows.std(axis=1, ddof=1), rtol=1e-12, atol=1e-14)


def test_posterior_function_intervals_sit_at_the_decimal_tails():
    """With 3000 draws, S * tail is an integer at every level below, so the
    float 0.5 * (1 - level) (0.025000000000000022 at 0.95) would pick the
    next order statistic up; the bounds are the inverted-CDF quantiles at
    the decimal tails."""
    model, _ = tiny_gaussian_model(n=20, k=5, sigma_prior=ExponentialPrior(1.0))
    fit = aghq_fit(model, num_quad=3, num_samples=3000, seed=6)
    xs = np.linspace(0.1, 0.9, 9)
    tails = {0.5: [0.25, 0.75], 0.8: [0.1, 0.9], 0.9: [0.05, 0.95],
             0.95: [0.025, 0.975], 0.99: [0.005, 0.995]}
    for level, probs in tails.items():
        got = posterior_function(fit, xs, 1, level=level)
        want = np.quantile(got.samples, probs, axis=0, method="inverted_cdf")
        npt.assert_array_equal(got.lower, want[0])
        npt.assert_array_equal(got.upper, want[1])


def small_od_fit():
    xs = np.linspace(0.0, 10.0, 25)
    ys = np.random.default_rng(3).poisson(np.exp(0.7 * np.sin(xs / 2.0) + 1.0)).astype(float)
    basis = OSplineBasis(2, build_equal_knots(0.0, 10.0, 6))
    model = build_model(
        xs, ys, basis, "poisson_od", sigma_prior=ExponentialPrior(1.0),
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 0.2), poly_prior_sd=3.0,
    )
    return aghq_fit(model, num_quad=2, num_samples=500, seed=4)


def test_posterior_function_matches_sample_major_reference():
    """Row-major paths and row-block summaries reproduce the sample-major
    np.quantile summaries.  The intervals are exactly the inverted-CDF order
    statistics of the returned samples; those samples agree with the
    sample-major product to rounding (BLAS may round the two layouts of a
    small product differently in the last bit, so they need not be equal)."""
    gauss, _ = tiny_gaussian_model(n=20, k=5, sigma_prior=ExponentialPrior(1.0))
    fits = [aghq_fit(gauss, num_quad=3, num_samples=700, seed=3), small_od_fit()]
    cases = [(0, None), (1, None), (2, None), (0, "exp"), (1, "exp")]
    for fit in fits:
        xs = np.linspace(fit.basis.knot_set.region_start, 1.0, 37)
        for q, transform in cases:
            got = posterior_function(fit, xs, q, transform=transform)
            want = posterior_function_reference(fit, xs, q, transform=transform)
            assert got.samples.shape == want.samples.shape == (fit.samples.shape[0], xs.size)
            assert got.samples.T.flags.c_contiguous  # one contiguous row per x
            assert got.level == 0.95
            lower, upper = np.quantile(got.samples, [0.025, 0.975], axis=0,
                                       method="inverted_cdf")
            npt.assert_array_equal(got.lower, lower)
            npt.assert_array_equal(got.upper, upper)
            scale = np.max(np.abs(want.samples))
            assert np.max(np.abs(got.samples - want.samples)) <= 1e-12 * scale
            assert np.max(np.abs(got.lower - want.lower)) <= 1e-12 * scale
            assert np.max(np.abs(got.upper - want.upper)) <= 1e-12 * scale
            assert np.all(np.abs(got.mean - want.mean) <= 1e-12 * want.sd)
            assert np.all(np.abs(got.sd - want.sd) <= 1e-12 * want.sd)


# ---------------------------------------------------------------------------
# condition numbers and fixed-effect coding
# ---------------------------------------------------------------------------


def test_condition_number_trivial_cases():
    eye = GaussianApprox(
        mode=np.zeros(2), precision=np.eye(2), chol=np.eye(2),
        log_det=0.0, log_joint_at_mode=0.0, grad_norm=0.0, iterations=0,
    )
    assert condition_number(eye) == pytest.approx(1.0)
    diag = GaussianApprox(
        mode=np.zeros(2), precision=np.diag([100.0, 1.0]), chol=np.diag([10.0, 1.0]),
        log_det=0.0, log_joint_at_mode=0.0, grad_norm=0.0, iterations=0,
    )
    assert condition_number(diag) == pytest.approx(100.0)


def test_max_condition_number_over_grid():
    prior = ExponentialPrior(1.0)
    model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=5, num_samples=0)
    per_point = [condition_number(a) for a in fit.approxes]
    assert max_condition_number(fit) == max(per_point)


def test_sum_coded_design():
    values = ["mon", "tue", "sun", "mon", "sun"]
    mat, names = sum_coded_design(values, levels=["mon", "tue", "sun"])
    assert names == ["mon", "tue"]
    npt.assert_array_equal(mat, [[1, 0], [0, 1], [-1, -1], [1, 0], [-1, -1]])
    # default level order is sorted
    _, default_names = sum_coded_design(values)
    assert default_names == ["mon", "sun"]


def test_sum_coded_design_validation():
    with pytest.raises(InvalidArgumentError):
        sum_coded_design(["a", "b"], levels=["a"])
    with pytest.raises(InvalidArgumentError):
        sum_coded_design(["a", "z"], levels=["a", "b"])


def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        model, basis = tiny_gaussian_model(sigma=-1.0)
    model, basis = tiny_gaussian_model()
    with pytest.raises(InvalidArgumentError):
        log_joint(model, np.zeros(model.latent_dim + 1))
    with pytest.raises(InvalidArgumentError):
        build_model(
            np.array([0.5]), np.array([1.0]), basis, "poisson",
            sigma_fixed=1.0, family_hyper_fixed=1.0,
        )
