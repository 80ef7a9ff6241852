import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import linalg
from scipy.special import logsumexp

from osplines import (
    ExponentialPrior,
    IWPKernel,
    InvalidArgumentError,
    NumericError,
    OSplineBasis,
    OSplineKernel,
    PSDSpec,
    aghq_fit,
    build_equal_knots,
    build_model,
    condition_number,
    exact_gp_fit,
    laplace_gradient,
    laplace_log_marginal,
    log_joint,
    max_condition_number,
    newton_mode,
    posterior_function,
    posterior_moments,
    posterior_paths,
    prior_from_psd,
    sum_coded_design,
)
from osplines import KnotSet, aghq, inference
from osplines.basis import design_matrix, polynomial_design
from osplines.inference import GaussianApprox
from oracles import (
    adapt_quadrature_nelder_mead,
    brute_log_marginal,
    curve_design,
    curve_paths_longdouble,
    fd_hessian_of_log_joint,
    gaussian_marginal_exact,
    gaussian_mode_dense,
    laplace_terms_in_original_coordinates,
    log_joint_scalar,
    mixture_cdf_longdouble,
    mixture_moments_longdouble,
    mixture_quantiles_longdouble,
    newton_mode_dense,
    newton_predicted_gain,
    point_moments,
    point_moments_longdouble,
    posterior_bounds_per_x,
    posterior_function_reference,
    posterior_moments_dense,
    precision_extremes_mp,
)


def tiny_gaussian_model(n=5, k=3, seed=0, sigma=0.7, kappa=0.4, sigma_prior=None,
                        ys=None, poly_sd=(1.5, 0.8), kappa_prior=None):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n)
    if ys is None:
        ys = rng.normal(0.0, 1.0, n)
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, k))
    kwargs = dict(poly_prior_sd=list(poly_sd))
    if kappa_prior is None:
        kwargs["family_hyper_fixed"] = kappa
    else:
        kwargs["family_hyper_prior"] = kappa_prior
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
    for array in (model.response, model.design, model.x, model.poly_prior_sd):
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


@pytest.mark.parametrize("x, y, fixed", [
    pytest.param(np.linspace(0.0, 1.0, 5), np.zeros(4), None, id="response length"),
    pytest.param(np.linspace(0.0, 1.0, 5), np.zeros(5), np.ones((4, 1)), id="fixed-design rows"),
    pytest.param(np.linspace(0.0, 1.5, 5), np.zeros(5), None, id="x outside the region"),
    pytest.param(np.array([0.0, 0.2, np.nan, 0.7, 1.0]), np.zeros(5), None, id="non-finite x"),
])
def test_build_model_rejects_inconsistent_inputs(x, y, fixed):
    """x must be finite and inside the basis region, and the response and
    the fixed design must have one row per x."""
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, 3))
    with pytest.raises(InvalidArgumentError):
        build_model(x, y, basis, "gaussian", sigma_fixed=0.7, family_hyper_fixed=0.4,
                    fixed_design=fixed, fixed_prior_sd=None if fixed is None else 1.0)


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
    assert newton_predicted_gain(model, ga.mode) <= 1e-13


def test_newton_gradient_condition_at_mode():
    model, _ = tiny_poisson_model()
    ga = newton_mode(model)
    assert newton_predicted_gain(model, ga.mode) <= 1e-13


SEED_1106_THETA = np.log([0.004211995274365753, 0.056008654972055004])


def seed_1106_od_model():
    """Overdispersed counts at n = 300, k = 50, order 3 (latent dimension
    353): dataset 3 of the CLI benchmark's seed 1106."""
    n = 300
    x = np.arange(n, dtype=float)
    g = 2.5 + np.sin(2.0 * np.pi * x / 120.0) + 0.5 * np.cos(2.0 * np.pi * x / 45.0)
    rng = np.random.default_rng([1106, 12, 3])
    y = rng.poisson(np.exp(g + rng.normal(0.0, 0.1, n))).astype(float)
    return build_model(
        x, y, OSplineBasis(3, build_equal_knots(0.0, 299.0, 50)), "poisson_od",
        sigma_prior=prior_from_psd(PSDSpec(h=30.0, order=3), 1.0, 0.01),
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 0.1),
    )


def test_newton_takes_steps_below_log_joint_resolution_whole():
    """Overdispersed counts whose log joint at the mode cancels to ~0.3 from
    terms of order 1e4: near the mode the Newton step's predicted gain
    (~1e-17) lies below the evaluation noise, so step halving alone shrank
    it to nothing and the iteration stalled at |grad| ~ 2e-6."""
    model, theta = seed_1106_od_model(), SEED_1106_THETA
    ga = newton_mode(model, theta)
    assert abs(ga.log_joint_at_mode) < 1.0
    assert newton_predicted_gain(model, ga.mode, theta) <= 1e-13
    assert ga.iterations <= 15


def test_newton_restarts_from_zero_after_an_overflowing_start():
    model, _ = tiny_poisson_model()
    ga = newton_mode(model, init=np.full(model.latent_dim, 800.0))
    ref = newton_mode(model)
    assert ga.iterations == ref.iterations == 3
    npt.assert_array_equal(ga.mode, ref.mode)


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
    od = small_od_model()
    cases = [(tiny_gaussian_model(n=9, k=4)[0], ()), (tiny_poisson_model()[0], ()),
             (od, od.theta_start())]
    for model, theta in cases:
        calls.update(curvature=0, cho_factor=0)
        ga = newton_mode(model, theta)
        assert ga.iterations >= 1
        assert calls == {"curvature": ga.iterations + 1, "cho_factor": ga.iterations + 1}


def test_newton_outputs_match_original_coordinate_assembly(rng):
    """Precision, factor, log-determinant and log joint from the last
    factorization agree with a direct assembly at the mode."""
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
# the overdispersed family's eliminated observation effects
# ---------------------------------------------------------------------------


def od_case(name, rng):
    if name == "seed_1106":
        return seed_1106_od_model(), SEED_1106_THETA
    model = large_covariate_od_model(rng) if name == "large_covariate" else small_od_model()
    return model, model.theta_start()


def one_point_fit(model, theta, approx):
    """A fit whose whole hyperparameter mass sits at ``theta``."""
    return inference.PosteriorFit(
        model=model, theta_points=np.atleast_2d(theta), weights=np.ones(1), approxes=[approx],
        log_marginal=0.0, samples=np.empty((0, model.n_coef)),
        sample_point_index=np.empty(0, dtype=int), seed=0,
    )


@pytest.mark.parametrize("name", ["seed_1106", "large_covariate", "small"])
def test_schur_newton_matches_dense_oracle(rng, name):
    """Eliminating eps by Schur complement inside Newton reproduces the dense
    loop over [X | I]: the same iterations, the mode to 1e-10, the Laplace
    log marginal to 1e-8 and the moments of g and g' to 1e-8 posterior SDs.

    The SDs get that margin on top of what rounding H to doubles leaves,
    eps/2 * max over x of (s'|H^-1 d|)^2 / var with s = sqrt(diag H): with
    condition numbers of 2e13-4e13, both paths stand 1e-8-1.4e-7 from SDs
    taken in 80-bit arithmetic on the seed-1106 and large-covariate models."""
    model, theta = od_case(name, rng)
    assert model.design.shape == (model.n_obs, model.n_coef)
    assert model.latent_dim == model.n_coef + model.n_obs
    ga = newton_mode(model, theta)
    ref = newton_mode_dense(model, theta)
    assert ga.iterations == ref.iterations
    assert np.linalg.norm(ga.mode - ref.mode) <= 1e-10 * np.linalg.norm(ref.mode)
    assert laplace_log_marginal(model, theta, ga) == pytest.approx(
        laplace_log_marginal(model, theta, ref), rel=1e-8
    )
    fit = one_point_fit(model, theta, ga)
    knots = model.basis.knot_set
    xs = np.linspace(knots.region_start, knots.region_end, 41)
    for q in (0, 1):
        mean, sd = posterior_moments(fit, xs, q)
        design = curve_design(fit, xs, q)
        full = np.zeros((xs.size, model.latent_dim))
        full[:, : design.shape[1]] = design
        ref_mean = full @ ref.mode
        ref_sd = np.sqrt(np.sum(linalg.solve_triangular(ref.chol, full.T, lower=True) ** 2, axis=0))
        spread = np.sqrt(np.diag(ref.precision)) @ np.abs(np.linalg.solve(ref.precision, full.T))
        floor = 0.5 * np.finfo(float).eps * np.max(spread**2 / ref_sd**2)
        assert np.max(np.abs(mean - ref_mean) / ref_sd) <= 1e-8
        assert np.max(np.abs(sd - ref_sd) / ref_sd) <= 1e-8 + floor


def test_overdispersed_fit_path_forms_no_full_precision(monkeypatch):
    """Fitting, sampling and summarizing stay at O(n k^2): no (n + k)^2
    precision or factor is formed until one is read, and the draws hold the
    coefficients only.  A factor read afterwards is the dense one."""
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(inference, "_arrow_precision",
                        counted("precision", inference._arrow_precision))
    monkeypatch.setattr(inference.linalg, "cholesky", counted("chol", inference.linalg.cholesky))
    model = seed_1106_od_model()
    fit = aghq_fit(model, num_quad=3, num_samples=200, seed=1)
    xs = np.linspace(0.0, 299.0, 31)
    posterior_function(fit, xs, 0)
    posterior_function(fit, xs, 1, transform="exp")
    posterior_moments(fit, xs, 1)
    assert calls == []
    assert fit.samples.shape == (200, model.n_coef)

    approx, theta = fit.approxes[0], fit.theta_points[0]
    H, _, _ = laplace_terms_in_original_coordinates(model, approx.mode, theta)
    scale = np.sqrt(np.outer(np.diag(H), np.diag(H)))
    assert np.max(np.abs(approx.chol @ approx.chol.T - H) / scale) <= 1e-10
    assert calls == ["precision", "chol"]
    assert approx.cov_basis.shape == (model.n_coef, model.n_coef)


@pytest.mark.parametrize("name", ["seed_1106", "large_covariate", "small"])
def test_arrow_extremes_match_dense_eigvalsh(rng, monkeypatch, name):
    """Lanczos on the arrow structure reads both ends of the overdispersed
    precision's spectrum without forming it, and agrees with a dense
    ``eigvalsh`` of the formed matrix to what that solve resolves: its
    lambda_min carries an error of up to ~eps x lambda_max, so 1e-10
    relative at the small model's condition number of 5e3 and 1e-4 at 2e13
    and 4e13 (measured 1.7e-13, 5.4e-6 and 8e-7; lambda_max to 2.2e-16).
    Reruns give the same bytes."""
    model, theta = od_case(name, rng)
    formed = []
    real = inference._arrow_precision
    monkeypatch.setattr(inference, "_arrow_precision", lambda *a: formed.append(1) or real(*a))
    approx = newton_mode(model, theta)
    lo, hi = approx.extremes
    assert formed == []
    assert condition_number(approx) == hi / lo
    again = newton_mode(model, theta).extremes
    assert np.array(again).tobytes() == np.array([lo, hi]).tobytes()

    eigs = np.linalg.eigvalsh(approx.precision)
    assert hi == pytest.approx(eigs[-1], rel=1e-12)
    assert lo == pytest.approx(eigs[0], rel=1e-10 if name == "small" else 1e-4)


def test_arrow_extremes_converge_on_an_eigenvalue_cluster(rng):
    """At its start the large-covariate model puts the polynomial prior
    precision and 1/phi^2 both at 100, so directions (a, -X a) on the
    polynomial block are exact eigenvectors there: the bottom of the
    spectrum is a cluster of eigenvalues within 1e-6 of each other, which a
    residual tolerance of machine precision never separates.  Lanczos still
    converges and lands in it."""
    model = large_covariate_od_model(rng)
    approx = newton_mode(model, model.theta_start())
    eigs = np.linalg.eigvalsh(approx.precision)
    assert np.sum(eigs <= eigs[0] * (1.0 + 1e-6)) >= 3
    lo, hi = approx.extremes
    assert lo == pytest.approx(eigs[0], rel=1e-4)
    assert hi == pytest.approx(eigs[-1], rel=1e-12)


def test_arrow_extremes_report_lanczos_failure(monkeypatch):
    """ARPACK's non-convergence surfaces as NumericError, with no silent
    fall-back to the dense eigensolve."""
    import scipy.sparse.linalg as sla

    def stalled(op, *args, **kwargs):
        raise sla.ArpackNoConvergence("No convergence", np.empty(0), np.empty((op.shape[0], 0)))

    monkeypatch.setattr(sla, "eigsh", stalled)
    formed = []
    monkeypatch.setattr(inference, "_arrow_precision", lambda *a: formed.append(1))
    model = small_od_model()
    approx = newton_mode(model, model.theta_start())
    with pytest.raises(NumericError, match="Lanczos"):
        condition_number(approx)
    assert formed == []


def test_arrow_extremes_match_the_50_digit_referee():
    """Both ends agree to 1e-10 with a 50-digit eigensolve of the small
    model's 33 x 33 precision (measured 5e-13 and 0)."""
    model = small_od_model()
    theta = model.theta_start()
    approx = newton_mode(model, theta)
    assert model.latent_dim == 33
    ref_lo, ref_hi = precision_extremes_mp(model, approx.mode, theta)
    lo, hi = approx.extremes
    assert lo == pytest.approx(ref_lo, rel=1e-10)
    assert hi == pytest.approx(ref_hi, rel=1e-10)


@pytest.mark.parametrize("name", ["gaussian_newton", "gaussian_pencil", "gaussian_pencil_kappa_free",
                                  "poisson"])
def test_k_by_k_condition_numbers_are_the_dense_eigensolve(name):
    """The Gaussian, pencil and plain-Poisson precisions are k x k and keep
    the ends of a dense ``eigvalsh``, to the bit."""
    _, approx = approximation_case(name)
    assert approx.form_extremes is None
    eigs = np.linalg.eigvalsh(approx.precision)
    assert condition_number(approx) == float(eigs[-1] / eigs[0])


def approximation_case(name):
    """A small well-conditioned model and one Gaussian approximation of it."""
    if name == "gaussian_newton":
        model, _ = tiny_gaussian_model(n=12, k=4)
        return model, newton_mode(model)
    if name == "gaussian_pencil":
        model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=ExponentialPrior(1.0))
        return model, inference.GaussianPencil.from_model(model).log_post([-0.5])[1]
    if name == "gaussian_pencil_kappa_free":  # off the reference kappa: the rank-r correction
        model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=ExponentialPrior(1.0),
                                       kappa_prior=ExponentialPrior(2.0))
        return model, inference.GaussianPencil.from_model(model).log_post([-0.5, 0.7])[1]
    model = tiny_poisson_model()[0] if name == "poisson" else small_od_model()
    return model, newton_mode(model, model.theta_start())


@pytest.mark.parametrize("name", ["gaussian_newton", "gaussian_pencil", "gaussian_pencil_kappa_free",
                                  "poisson", "poisson_od"])
def test_covariance_basis_diagonalizes_the_coefficient_precision(name):
    """B' S B = diag(s) for B = ``cov_basis`` and s = ``cov_scale``, where S is
    the coefficients' marginal precision: ``precision`` itself, or its Schur
    complement over the observation effects for the overdispersed family."""
    model, approx = approximation_case(name)
    H, m = approx.precision, model.n_coef
    S = H[:m, :m] - H[:m, m:] @ np.linalg.solve(H[m:, m:], H[m:, :m]) if m < H.shape[0] else H
    B = approx.cov_basis
    assert B.shape[0] == m and approx.cov_scale.shape == (B.shape[1],)
    want = np.diag(approx.cov_scale)
    assert np.max(np.abs(B.T @ S @ B - want)) <= 1e-10 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Newton on the Gaussian family
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


def test_gram_newton_matches_original_coordinate_assembly():
    """Newton's Gaussian Hessian agrees with X' diag(curv) X assembled at the
    mode, with a fixed-effect block and with ~1e6-scale covariate columns."""
    assert_matches_original_coordinate_assembly(sine_gaussian_model(n=60, k=8, fixed=True), [0.0])
    wide = sine_gaussian_model(n=60, k=8, region=(0.0, 600.0))
    assert np.max(wide.design) > 1e6
    assert_matches_original_coordinate_assembly(wide, [5.0])


@pytest.mark.parametrize("log_sigma", [-2.0, 0.0, 1.5])
def test_gram_newton_matches_dense_assembly(log_sigma):
    """Mode and Laplace log marginal from Newton's Gaussian path against a
    dense assembly from the design's rows; also with the response far from zero,
    where expanding the residuals through X'X and X'y would cancel."""
    for model in (sine_gaussian_model(), sine_gaussian_model(offset=1e6, poly_sd=1e7)):
        ga = newton_mode(model, [log_sigma])
        mode, log_marg = gaussian_mode_dense(model, [log_sigma])
        assert np.linalg.norm(ga.mode - mode) <= 1e-8 * np.linalg.norm(mode)
        assert newton_predicted_gain(model, ga.mode, [log_sigma]) <= 1e-13
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


def count_model(case):
    """n = 40, k = 10 count models: plain Poisson (d = 1), poisson_od with
    sigma free (d = 2) or fixed (d = 1), and poisson_od with a fixed effect."""
    rng = np.random.default_rng(1)
    n = 40
    xs = np.linspace(0.0, 10.0, n)
    ys = rng.poisson(np.exp(1.0 + np.sin(xs / 2.0) + rng.normal(0.0, 0.2, n))).astype(float)
    basis = OSplineBasis(3, build_equal_knots(0.0, 10.0, 10))
    family = "poisson" if case == "poisson" else "poisson_od"
    kwargs = dict(poly_prior_sd=3.0)
    if case == "sigma fixed":
        kwargs["sigma_fixed"] = 0.5
    else:
        kwargs["sigma_prior"] = ExponentialPrior(1.0)
    if family == "poisson_od":
        kwargs["family_hyper_prior"] = ExponentialPrior(rate=math.log(2.0) / 0.2)
    if case == "fixed effect":
        kwargs["fixed_design"], _ = sum_coded_design([i % 3 for i in range(n)])
        kwargs["fixed_prior_sd"] = 1.0
    return build_model(xs, ys, basis, family, **kwargs)


def polished_mode(model, theta):
    """A second Newton solve from the first one's mode."""
    return newton_mode(model, theta, init=newton_mode(model, theta).mode)


COUNT_CASES = ["poisson", "poisson_od", "sigma fixed", "fixed effect"]


@pytest.mark.parametrize("case", COUNT_CASES)
def test_laplace_gradient_matches_differences_of_the_laplace_marginal(case):
    """Fourth-order central differences at h = 1e-2 of the Laplace marginal
    agree with the exact gradient to 1e-6 of its size (their truncation
    error is at most ~5e-9 here, and shrinks 16-fold as h halves)."""
    model = count_model(case)
    theta = model.theta_start() + 0.3
    grad = laplace_gradient(model, theta, polished_mode(model, theta))
    assert grad.shape == (len(model.theta_names),)

    def marginal(th):
        return laplace_log_marginal(model, th, polished_mode(model, th))

    h = 1e-2
    fd = np.empty_like(grad)
    for i, e in enumerate(h * np.eye(grad.size)):
        fd[i] = (8.0 * (marginal(theta + e) - marginal(theta - e))
                 - (marginal(theta + 2 * e) - marginal(theta - 2 * e))) / (12.0 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
    # with no approximation given, the gradient is read from a fresh solve
    npt.assert_allclose(laplace_gradient(model, theta), grad, rtol=1e-7)


@pytest.mark.parametrize("case", COUNT_CASES)
def test_mode_tangent_matches_differences_of_the_newton_mode(case):
    model = count_model(case)
    theta = model.theta_start() + 0.3
    tangent = polished_mode(model, theta).tangent
    assert tangent.shape == (len(model.theta_names), model.latent_dim)
    h = 1e-5
    fd = np.array([(polished_mode(model, theta + e).mode - polished_mode(model, theta - e).mode)
                   / (2.0 * h) for e in h * np.eye(theta.size)])
    assert np.max(np.abs(tangent - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_only_count_family_approximations_carry_theta_derivatives():
    model, _ = tiny_gaussian_model(sigma_prior=ExponentialPrior(1.0))
    theta = model.theta_start()
    assert newton_mode(model, theta).gradient is None
    assert newton_mode(model, theta).tangent is None
    with pytest.raises(InvalidArgumentError):
        laplace_gradient(model, theta)


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


@pytest.mark.parametrize("case", ["gaussian", "poisson_od"])
def test_newton_search_matches_nelder_mead_reference(monkeypatch, case):
    """Fits through the library's Newton search and through the Nelder-Mead
    reference agree: theta-modes within 0.01 posterior SDs of theta, and the
    mixture moments within 1e-6 (Gaussian sine, n=400, k=20) or 1e-3
    (poisson_od, 5x5 grid) posterior SDs."""
    model, tol = (sine_gaussian_model(), 1e-6) if case == "gaussian" else (small_od_model(), 1e-3)
    runs = []
    for adapt in (inference.adapt_quadrature, adapt_quadrature_nelder_mead):
        grids = []

        def recorded(*args, adapt=adapt, grids=grids):
            grids.append(adapt(*args))
            return grids[-1]

        monkeypatch.setattr(inference, "adapt_quadrature", recorded)
        runs.append((aghq_fit(model, num_quad=5, num_samples=0), grids[0]))
    (fit, grid), (ref, ref_grid) = runs
    theta_sd = np.sqrt(np.diag(np.linalg.inv(ref_grid.neg_hessian)))
    assert np.all(np.abs(grid.mode - ref_grid.mode) <= 0.01 * theta_sd)
    knots = model.basis.knot_set
    xs = np.linspace(knots.region_start, knots.region_end, 41)
    for q in (0, 1):
        mean, sd = posterior_moments(fit, xs, q)
        ref_mean, ref_sd = posterior_moments(ref, xs, q)
        assert np.max(np.abs(mean - ref_mean) / ref_sd) <= tol
        assert np.max(np.abs(sd - ref_sd) / ref_sd) <= tol


def test_count_family_search_takes_2d_new_thetas_per_iterate(monkeypatch):
    """On a poisson_od model (d = 2) every search iterate takes the exact
    gradient stencil: 2d new thetas, where the value stencil takes 2d^2,
    and between iterates only the line search's points.  The value stencil
    is never called."""
    model = small_od_model()
    d = len(model.theta_names)
    calls, stencils = [], []
    real_adapt, real_stencil = inference.adapt_quadrature, aghq._gradient_stencil

    def adapt(log_post, *args):
        def counted(theta):
            calls.append(tuple(theta.tolist()))
            return log_post(theta)
        return real_adapt(counted, *args)

    def stencil(*args):
        before = len(calls)
        out = real_stencil(*args)
        stencils.append((before, len(calls)))
        return out

    monkeypatch.setattr(inference, "adapt_quadrature", adapt)
    monkeypatch.setattr(aghq, "_gradient_stencil", stencil)
    monkeypatch.setattr(aghq, "_stencil", None)
    fit = aghq_fit(model, num_quad=5, num_samples=0)
    search = calls[: -fit.theta_points.shape[0]]
    assert len(search) == len(set(search))
    assert len(stencils) >= 2
    assert stencils[0][0] == 1  # theta0, whose state shows whether it has a gradient
    assert all(end - start == 2 * d for start, end in stencils)
    assert all(nxt - end >= 1 for (_, end), (nxt, _) in zip(stencils, stencils[1:]))
    assert stencils[-1][1] == len(search)


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
    """The iteration reaches a vanishing predicted gain on ~1e6-scale columns,
    where the raw gradient norm at the mode is still of order 1e-5."""
    model = large_covariate_od_model(rng)
    ga = newton_mode(model, model.theta_start())
    assert newton_predicted_gain(model, ga.mode, model.theta_start()) <= 1e-13
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
    """Invalid arguments are rejected before any curve is evaluated."""
    prior = ExponentialPrior(1.0)
    model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=prior)
    fit = aghq_fit(model, num_quad=1, num_samples=10, seed=0)
    empty = aghq_fit(model, num_quad=1, num_samples=0, seed=0)
    calls = []
    blocks = inference._path_blocks
    monkeypatch.setattr(inference, "_path_blocks", lambda *a: calls.append(a) or blocks(*a))
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
    assert len(calls) == 1  # one pass forms g' and g


def test_posterior_function_rejects_bad_locations(monkeypatch):
    """Non-finite and out-of-region xs raise before any curve is evaluated."""
    model, _ = tiny_gaussian_model(n=12, k=4, sigma_prior=ExponentialPrior(1.0))
    fit = aghq_fit(model, num_quad=1, num_samples=10, seed=0)
    calls = []
    blocks = inference._path_blocks
    monkeypatch.setattr(inference, "_path_blocks", lambda *a: calls.append(a) or blocks(*a))
    for xs in ([0.5, np.nan], [np.inf], [-np.inf, 0.5], [-1e-9], [0.2, 1.0 + 1e-9]):
        with pytest.raises(InvalidArgumentError):
            posterior_function(fit, xs)
        assert calls == [], xs


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
        got = posterior_paths(fit, xs, 1, level=level)
        want = np.quantile(got.samples, probs, axis=0, method="inverted_cdf")
        npt.assert_array_equal(got.lower, want[0])
        npt.assert_array_equal(got.upper, want[1])


def drawn_fit(basis, num_samples, seed=0):
    """A fit whose draws come from the prior at sigma = 1: weights with
    variance 1/d_i, polynomial coefficients standard normal."""
    ks = basis.knot_set
    xs = np.linspace(ks.region_start, ks.region_end, 5)
    model = build_model(xs, np.zeros(5), basis, "gaussian", sigma_fixed=1.0, family_hyper_fixed=1.0)
    z = np.random.default_rng(seed).standard_normal((num_samples, model.n_coef))
    z[:, : basis.size] /= np.sqrt(ks.spacings)
    return inference.PosteriorFit(
        model=model, theta_points=np.zeros((1, 0)), weights=np.ones(1), approxes=[],
        log_marginal=0.0, samples=z, sample_point_index=np.zeros(num_samples, dtype=int), seed=seed,
    )


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("knot_set", [
    build_equal_knots(-1.5, 2.5, 7),
    KnotSet(0.5, 4.0, [0.9, 1.3, 2.2, 3.1]),  # the last cell (3.1, 4.0] holds no knot
], ids=["equal", "short_of_end"])
def test_posterior_paths_match_the_dense_design(order, knot_set):
    """Paths from the per-cell Taylor states agree with the truncated-power
    and monomial designs at every knot, at both region ends and inside the
    cells.  Cells are right-closed, so s_0 lies in none, and g^(p)(s_0) is 0
    as the design gives it."""
    basis = OSplineBasis(order, knot_set)
    fit = drawn_fit(basis, 50, seed=order)
    inner = knot_set.lower_knots + 0.37 * knot_set.spacings
    xs = np.concatenate(([knot_set.region_start], knot_set.knots, [knot_set.region_end], inner))
    coefs = fit.samples[:, : basis.size + order]
    for q in range(order + 1):
        design = np.hstack([design_matrix(basis, xs, q).values, polynomial_design(xs, order, q)])
        want = coefs @ design.T
        got = posterior_paths(fit, xs, q).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), q
    npt.assert_array_equal(posterior_paths(fit, [knot_set.region_start], order).samples, 0.0)


def test_posterior_function_xs_layouts():
    """Unsorted, repeated, single and empty xs give the paths and summaries
    of the same xs evaluated in sorted order."""
    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, 40))
    fit = drawn_fit(basis, 300, seed=7)
    grid = np.linspace(0.0, 20.0, 101)  # knots, region ends and cell interiors
    ref = posterior_paths(fit, grid, 1)
    scale = np.max(np.abs(ref.samples))
    pick = np.random.default_rng(8).permutation(np.repeat(np.arange(grid.size), 3))
    for at in (pick, pick[:1], pick[:0]):
        got = posterior_paths(fit, grid[at], 1)
        assert got.samples.shape == (300, at.size)
        assert np.max(np.abs(got.samples - ref.samples[:, at]), initial=0.0) <= 1e-15 * scale
        for name in ("mean", "sd", "lower", "upper"):
            npt.assert_allclose(getattr(got, name), getattr(ref, name)[at], rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("k", [100, 1000])
def test_posterior_paths_are_accurate_to_rounding(k):
    """Against the same draws summed in extended precision, every derivative
    order's paths stand within 1e-13 of their scale, at k = 100 and 1000.
    Posterior draws of a smooth curve are the hard case: their states are
    large against the path, so rounding carried from cell to cell shows
    (uncompensated it reached 1.0e-13 at k = 1000 on these data)."""
    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, k))
    x = np.linspace(0.0, 20.0, 1000)
    y = np.sqrt(3.0) * np.sin(x / 2.0) + np.random.default_rng(5).standard_normal(x.size)
    model = build_model(x, y, basis, "gaussian", sigma_fixed=0.05, family_hyper_fixed=1.0)
    fit = aghq_fit(model, num_quad=1, num_samples=40, seed=5)
    xs = np.concatenate((np.linspace(0.0, 20.0, 61), basis.knot_set.knots[:: k // 20]))
    for q in range(4):
        want = curve_paths_longdouble(fit, xs, q)
        got = posterior_function(fit, xs, q).samples
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-13, (q, float(err))


def test_posterior_function_forms_no_path_matrix():
    """Summaries come from blocks of paths: at n = 2e4 and 3000 samples the
    call peaks far below the n x samples matrix, which is formed only when
    ``samples`` is read, and is read once."""
    import tracemalloc

    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, 100))
    fit = drawn_fit(basis, 3000, seed=11)
    xs = np.random.default_rng(12).uniform(0.0, 20.0, 20_000)
    tracemalloc.start()
    try:
        curve = posterior_paths(fit, xs, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xs.size * 3000 * 8 / 4
    assert "samples" not in vars(curve)
    small = posterior_paths(fit, xs[:50], 1)
    first = small.samples
    assert small.samples is first
    assert first.shape == (3000, 50)
    lower, upper = np.quantile(first, [0.025, 0.975], axis=0, method="inverted_cdf")
    npt.assert_array_equal(small.lower, lower)
    npt.assert_array_equal(small.upper, upper)


def small_od_model():
    xs = np.linspace(0.0, 10.0, 25)
    ys = np.random.default_rng(3).poisson(np.exp(0.7 * np.sin(xs / 2.0) + 1.0)).astype(float)
    basis = OSplineBasis(2, build_equal_knots(0.0, 10.0, 6))
    return build_model(
        xs, ys, basis, "poisson_od", sigma_prior=ExponentialPrior(1.0),
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 0.2), poly_prior_sd=3.0,
    )


def small_od_fit():
    return aghq_fit(small_od_model(), num_quad=2, num_samples=500, seed=4)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_mixture_sd_holds_far_from_the_origin(offset):
    """Mixture SDs within 1e-10 of an extended-precision combination of the
    same per-point moments where the curve sits at ``offset``, ~1e8 of its
    SD (n = 2000, k = 50, kappa = 0.1, polynomial prior SD 1e8).  The
    uncentred form sum_j w_j (v_j + mu_j^2) - mean^2 was off by 1.6e-10,
    1.7e-2 and 1.0 relative at the three offsets (at 1e6 it cancelled to
    zero)."""
    n = 2000
    xs = np.linspace(0.0, 10.0, n)
    ys = offset + np.sin(xs) + np.random.default_rng(7).normal(0.0, 0.1, n)
    basis = OSplineBasis(3, build_equal_knots(0.0, 10.0, 50))
    model = build_model(xs, ys, basis, "gaussian", sigma_prior=ExponentialPrior(1.0),
                        family_hyper_fixed=0.1, poly_prior_sd=1e8)
    fit = aghq_fit(model, num_quad=5, num_samples=0)
    grid = np.linspace(0.1, 9.9, 50)
    for q in (0, 1):
        mean, sd = posterior_moments(fit, grid, q)
        ref_mean, ref_sd = mixture_moments_longdouble(fit, grid, q)
        # a double holds the mean only to its own rounding, 1e-8 of the SD at 1e6
        assert np.max(np.abs(mean - ref_mean)) <= 1e-14 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(sd - ref_sd) / ref_sd) <= 1e-10


def mixture_case(name, num_samples=3000):
    """A fit whose mixture has G > 1 points: Gaussian with kappa fixed (the
    pencil's points share W), kappa free (one basis per point), both with
    5 fixed effects, and poisson_od (one Newton basis per point)."""
    if name == "poisson_od":
        return aghq_fit(small_od_model(), num_quad=3, num_samples=num_samples, seed=4)
    n = 300
    xs = np.sort(np.random.default_rng(21).uniform(0.0, 20.0, n))
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + np.random.default_rng(22).normal(0.0, 0.8, n)
    noise = (dict(family_hyper_fixed=0.8) if name == "kappa fixed"
             else dict(family_hyper_prior=ExponentialPrior(math.log(2.0))))
    model = build_model(
        xs, ys, OSplineBasis(3, build_equal_knots(0.0, 20.0, 25)), "gaussian",
        sigma_prior=prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01),
        fixed_design=sum_coded_design(np.arange(n) % 6)[0], fixed_prior_sd=1.0, **noise,
    )
    return aghq_fit(model, num_quad=4, num_samples=num_samples, seed=5)


def curve_xs(fit):
    """Few xs (at most one per cell, so the dense design serves them), many
    (the per-cell states serve them) and mixed: the many plus more than
    twice ``_CHEB_NODES`` in the second and the last cell, whose bounds
    start from Chebyshev-node solves, beside cells with fewer than
    ``_CHEB_NODES``; knots and region ends included."""
    ks = fit.basis.knot_set
    few = np.concatenate(([ks.region_start], ks.knots[::4], [0.37 * ks.region_end]))
    many = np.linspace(ks.region_start, ks.region_end, 3 * ks.size + 7)
    nodes = inference._CHEB_NODES
    mixed = np.concatenate([many, np.linspace(ks.knots[0], ks.knots[1], 2 * nodes + 5),
                            np.linspace(ks.knots[-2], ks.knots[-1], 2 * nodes + 3)])
    assert few.size <= ks.size + 2 < many.size
    counts = np.bincount(inference.cell_offsets(fit.basis, mixed)[0])
    assert counts[2] > 2 * nodes and counts[-1] > 2 * nodes and np.min(counts[3:-1]) < nodes
    return few, many, mixed


MIXTURE_CASES = ["kappa fixed", "kappa free", "poisson_od"]


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_point_moments_match_an_extended_precision_design(case):
    """Each grid point's mean and variance of g, g' and g'', from the dense
    design for few xs and from the per-cell states for many, stand within
    1e-13 of the largest |mean| and 1e-12 of each variance from the
    extended-precision design's products with the same modes and bases."""
    fit = mixture_case(case, num_samples=0)
    for xs in curve_xs(fit):
        for q in (0, 1, 2):
            mus, var = point_moments(fit, xs, q)
            want_mus, want_var = point_moments_longdouble(fit, xs, q)
            assert mus.shape == var.shape == (xs.size, fit.weights.size)
            assert np.max(np.abs(mus - want_mus)) <= 1e-13 * np.max(np.abs(want_mus)), q
            assert np.all(np.abs(var - want_var) <= 1e-12 * want_var), q


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_posterior_function_bounds_solve_the_mixture_cdf(case):
    """The curve's mean and SD are posterior_moments', and its bounds solve
    sum_j w_j Phi((t - mu_j) / sd_j) = alpha at the decimal tails: the
    mixture CDF summed in extended precision stands within 1e-12 of alpha
    there, and the bounds within 1e-10 posterior SDs of an extended-precision
    bisection over the same per-point moments.  Where the curve is fixed
    (g'' of the order-2 poisson_od fit at the region start) the bounds are
    its value."""
    fit = mixture_case(case)
    for xs in curve_xs(fit):
        for q in (0, 1, 2):
            mus, var = point_moments(fit, xs, q)
            mean, sd = posterior_moments(fit, xs, q)
            free = sd > 0
            mus, var = mus[free], var[free]
            for level, probs in ((0.5, (0.25, 0.75)), (0.95, (0.025, 0.975)),
                                 (0.99, (0.005, 0.995))):
                curve = posterior_function(fit, xs, q, level=level)
                assert np.all(np.abs(curve.mean - mean) <= 1e-12 * sd)
                assert np.all(np.abs(curve.sd - sd) <= 1e-12 * sd)
                for bound, prob in zip((curve.lower, curve.upper), probs):
                    npt.assert_array_equal(bound[~free], mean[~free])
                    cdf = mixture_cdf_longdouble(mus, var, fit.weights, bound[free])
                    assert np.max(np.abs(cdf - prob)) <= 1e-12, (q, level)
                    want = mixture_quantiles_longdouble(mus, var, fit.weights, prob)
                    assert np.max(np.abs(bound[free] - want) / sd[free]) <= 1e-10, (q, level)


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_exp_curve_at_q0_is_the_lognormal_mixture(case):
    """Under exp at q = 0 the bounds are exp of the plain ones, and mean and
    SD the lognormal mixture's, sum_j w_j e^(mu_j + v_j / 2) and the centred
    spread about it, within 1e-12 of their extended-precision values."""
    fit = mixture_case(case)
    for xs in curve_xs(fit):
        plain = posterior_function(fit, xs, 0)
        curve = posterior_function(fit, xs, 0, transform="exp")
        npt.assert_allclose(curve.lower, np.exp(plain.lower), rtol=1e-12)
        npt.assert_allclose(curve.upper, np.exp(plain.upper), rtol=1e-12)
        mus, var = (v.astype(np.longdouble) for v in point_moments(fit, xs, 0))
        w = fit.weights.astype(np.longdouble)
        means = np.exp(mus + var / 2)
        mean = means @ w
        sd = np.sqrt((means**2 * np.expm1(var) + (means - mean[:, None]) ** 2) @ w)
        assert np.max(np.abs(curve.mean - mean) / mean) <= 1e-12
        assert np.max(np.abs(curve.sd - sd) / sd) <= 1e-12


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_sampled_and_exact_curves_differ_by_monte_carlo_error(case):
    """With 3000 draws, the sampled curves of posterior_paths stand from the
    exact ones by Monte Carlo error: means within 5 standard errors, bounds
    within 0.5 posterior SDs, for every curve posterior_function computes
    exactly; exp at q = 1 is the sampled curve itself."""
    fit = mixture_case(case)
    xs = curve_xs(fit)[1]
    for q, transform in ((0, None), (1, None), (2, None), (0, "exp")):
        exact = posterior_function(fit, xs, q, transform=transform)
        sampled = posterior_paths(fit, xs, q, transform=transform)
        assert np.all(np.abs(sampled.mean - exact.mean) <= 5.0 * exact.sd / math.sqrt(3000))
        for name in ("lower", "upper"):
            assert np.all(np.abs(getattr(sampled, name) - getattr(exact, name)) <= 0.5 * exact.sd)
        npt.assert_array_equal(exact.samples, sampled.samples)
    chain = posterior_function(fit, xs, 1, transform="exp")
    for name in ("mean", "sd", "lower", "upper", "samples"):
        npt.assert_array_equal(getattr(chain, name),
                               getattr(posterior_paths(fit, xs, 1, transform="exp"), name))


def test_posterior_function_xs_layouts_give_the_same_summaries():
    """Unsorted, repeated, single and empty xs give the summaries of the
    same xs in sorted order, through the per-cell states and the design.
    On 401 points (16 to a cell, 48 with the repeats) the full layouts
    start their bounds from Chebyshev-node solves and the short ones do
    not."""
    fit = mixture_case("kappa free", num_samples=10)
    for grid in (np.linspace(0.0, 20.0, 101), np.linspace(0.0, 20.0, 401)):
        ref = posterior_function(fit, grid, 1)
        pick = np.random.default_rng(8).permutation(np.repeat(np.arange(grid.size), 3))
        for at in (pick, pick[:27], pick[:1], pick[:0]):
            got = posterior_function(fit, grid[at], 1)
            for name in ("mean", "sd", "lower", "upper"):
                npt.assert_allclose(getattr(got, name), getattr(ref, name)[at],
                                    rtol=0, atol=1e-12 * np.max(ref.sd))


@pytest.mark.parametrize("case", MIXTURE_CASES)
def test_bounds_in_quiet_cells_are_the_per_x_solve(case):
    """With at most ``_CHEB_NODES`` xs in every cell the bounds are bit for
    bit those of each x solved on its own from its moment-matched start
    (``posterior_bounds_per_x``), and where some cells hold more they stand
    within 1e-12 posterior SDs of it."""
    fit = mixture_case(case, num_samples=10)
    few, many, mixed = curve_xs(fit)
    for q in (0, 1, 2):
        for xs in (few, many):
            curve = posterior_function(fit, xs, q)
            lower, upper = posterior_bounds_per_x(fit, xs, q)
            npt.assert_array_equal(curve.lower, lower)
            npt.assert_array_equal(curve.upper, upper)
        curve = posterior_function(fit, mixed, q)
        free = curve.sd > 0
        for bound, want in zip((curve.lower, curve.upper), posterior_bounds_per_x(fit, mixed, q)):
            assert np.max(np.abs(bound - want)[free] / curve.sd[free]) <= 1e-12


def test_chebyshev_starts_interpolate_the_node_bounds():
    """The barycentric interpolant through ``_CHEB_NODES`` first-kind nodes
    reproduces a polynomial of degree ``_CHEB_NODES`` - 1 in the offset to
    rounding, takes a node's value exactly at that node, and leaves NaN in
    cells without nodes."""
    m = inference._CHEB_NODES
    widths = np.array([0.5, 2.0])
    nodes = widths[:, None] * inference._CHEB_UNIT
    poly = np.polynomial.Polynomial(np.random.default_rng(2).normal(size=m))
    slot = np.array([-1, 0, -1, 1])
    solved = (slot, nodes, poly(nodes), -poly(nodes))
    cells = np.array([1, 1, 1, 2, 3, 3, 3])
    offsets = np.array([0.0, 0.2, nodes[0, 3], 0.7, 0.0, 1.3, nodes[1, -1]])
    lower, upper = inference._chebyshev_starts(solved, cells, offsets)
    inside = slot[cells] >= 0
    npt.assert_allclose(lower[inside], poly(offsets[inside]), rtol=1e-12, atol=1e-12)
    npt.assert_array_equal(upper[inside], -lower[inside])
    assert lower[2] == poly(nodes)[0, 3] and lower[6] == poly(nodes)[1, -1]
    assert np.all(np.isnan(lower[~inside])) and np.all(np.isnan(upper[~inside]))


def kappa_free_gaussian_fit(n, num_quad):
    x = np.linspace(0.0, 20.0, n)
    y = np.sqrt(3.0) * np.sin(x / 2.0) + np.random.default_rng(5).standard_normal(n)
    model = build_model(
        x, y, OSplineBasis(3, build_equal_knots(0.0, 20.0, 100)), "gaussian",
        sigma_prior=prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01),
        family_hyper_prior=ExponentialPrior(math.log(2.0)),
    )
    return x, aghq_fit(model, num_quad=num_quad, num_samples=0)


def test_posterior_moments_memory_does_not_follow_the_grid():
    """With kappa free at n = 2e4, k = 100, posterior_moments peaks under
    50 MB whether the grid has 25 or 100 points (one covariance basis per
    point): the bases are walked a few at a time and dropped, and the xs
    visited in blocks of a fixed number of (x, point) pairs.  Holding a
    len(xs) x k square per point took 1.6 GB here.  The moments agree with
    the dense design's products at offset 0 to 1e-9."""
    import tracemalloc

    peaks = []
    for num_quad in (5, 10):
        x, fit = kappa_free_gaussian_fit(20_000, num_quad)
        tracemalloc.start()
        try:
            mean, sd = posterior_moments(fit, x, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        want_mean, want_sd = posterior_moments_dense(fit, x[::40], 0)
        assert np.max(np.abs(mean[::40] - want_mean) / want_sd) <= 1e-9
        assert np.max(np.abs(sd[::40] - want_sd) / want_sd) <= 1e-9
    assert max(peaks) < 50e6
    assert peaks[1] < 1.25 * peaks[0]


def test_sampled_paths_keep_only_the_cells_in_use():
    """A 100-x curve at k = 1000 with 3000 samples peaks under 20 MB, its
    samples read included: the recursion advances with the blocks and keeps
    only the states of the cells a block uses, where all k + 2 cells' states
    took 96 MB."""
    import tracemalloc

    basis = OSplineBasis(3, build_equal_knots(0.0, 20.0, 1000))
    fit = drawn_fit(basis, 3000, seed=13)
    xs = np.random.default_rng(14).uniform(0.0, 20.0, 100)
    tracemalloc.start()
    try:
        curve = posterior_paths(fit, xs, 1)
        assert curve.samples.shape == (3000, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


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
            got = posterior_paths(fit, xs, q, transform=transform)
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
        mode=np.zeros(2), log_det=0.0, log_joint_at_mode=0.0, predicted_gain=0.0,
        iterations=0, cov_scale=np.ones(2), form_cov_basis=lambda: np.eye(2),
        form_precision=lambda: np.eye(2),
    )
    assert condition_number(eye) == pytest.approx(1.0)
    diag = GaussianApprox(
        mode=np.zeros(2), log_det=0.0, log_joint_at_mode=0.0, predicted_gain=0.0,
        iterations=0, cov_scale=np.array([100.0, 1.0]), form_cov_basis=lambda: np.eye(2),
        form_precision=lambda: np.diag([100.0, 1.0]),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_a_non_finite_response(bad):
    with pytest.raises(InvalidArgumentError, match="non-finite response at observation 2"):
        tiny_gaussian_model(ys=[0.1, -0.3, bad, 0.2, 0.0])


@pytest.mark.parametrize("family", ["poisson", "poisson_od"])
def test_count_models_reject_a_negative_response(family):
    _, basis = tiny_poisson_model()
    xs = np.array([0.4, 0.9, 1.3, 1.8])
    hyper = {"family_hyper_fixed": 0.5} if family == "poisson_od" else {}
    with pytest.raises(InvalidArgumentError, match="negative count at observation 1"):
        build_model(xs, np.array([1.0, -1.0, 2.0, 0.0]), basis, family, sigma_fixed=0.9, **hyper)
    # non-negative non-integer counts stay accepted, as does a negative Gaussian response
    build_model(xs, np.array([1.5, 0.0, 2.25, 0.5]), basis, family, sigma_fixed=0.9, **hyper)
    tiny_gaussian_model(ys=[-1.0, -2.0, -3.0, -4.0, -5.0])
