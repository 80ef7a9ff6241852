"""The Gaussian family's spectral evaluator (``GaussianPencil``) against the
Newton path it replaces inside ``aghq_fit``, and both against independent
oracles: the dense-assembly solve and the marginal in 50-digit arithmetic."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import logsumexp

from osplines import (
    ExponentialPrior,
    GaussianApprox,
    GaussianPencil,
    OSplineBasis,
    PSDSpec,
    aghq_fit,
    build_equal_knots,
    build_model,
    condition_number,
    laplace_log_marginal,
    max_condition_number,
    newton_mode,
    posterior_function,
    posterior_moments,
    prior_from_psd,
    simbench,
    sum_coded_design,
)
from osplines import inference
from oracles import gaussian_log_marginal_mp, gaussian_mode_dense

LOG_SIGMAS = (-3.0, -1.0, 0.0, 1.0, 2.5)


def gmm_shape_model(order=3):
    """The mixture study's replication 0 (seed 1): n = 100 against
    k + p = 103 coefficients, so X'X is singular."""
    cfg = simbench.make_config("gmm")
    xs = np.linspace(*cfg.region, cfg.n)
    rng = np.random.default_rng([cfg.seed, 0])
    y = simbench.gaussian_mixture_truth(rng, xs, cfg)[0] + rng.normal(0.0, cfg.noise_sd, xs.size)
    return build_model(
        xs, y, OSplineBasis(order, build_equal_knots(*cfg.region, cfg.knots)), "gaussian",
        sigma_prior=prior_from_psd(PSDSpec(h=cfg.psd_h, order=order), cfg.psd_u, cfg.psd_alpha),
        family_hyper_fixed=cfg.noise_sd,
    )


def sine_model(n=400, k=20, offset=0.0, fixed=False):
    """Noisy sine on (0, 20), noise SD 1 fixed, sigma on the quadrature grid."""
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.0, 20.0, n))
    ys = offset + math.sqrt(3.0) * np.sin(xs / 2.0) + rng.normal(0.0, 1.0, n)
    kwargs = {}
    if fixed:
        kwargs.update(fixed_design=sum_coded_design(np.arange(n) % 3)[0], fixed_prior_sd=2.0)
    return build_model(
        xs, ys, OSplineBasis(3, build_equal_knots(0.0, 20.0, k)), "gaussian",
        family_hyper_fixed=1.0, poly_prior_sd=math.sqrt(1000.0),
        sigma_prior=prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01), **kwargs,
    )


MODELS = {
    "gmm_shape": gmm_shape_model,
    "sine_fixed_effects": lambda: sine_model(fixed=True),
    "n1e4": lambda: sine_model(n=10_000, k=100),
}


def energy_error(mode, ref):
    """||L'(mode - ref)|| / ||L' ref|| with H = L L' at ``ref``: the mode's
    error in the posterior's own scale."""
    return float(np.linalg.norm(ref.chol.T @ (mode - ref.mode))
                 / np.linalg.norm(ref.chol.T @ ref.mode))


@pytest.mark.parametrize("name", list(MODELS))
def test_pencil_matches_newton_at_fixed_theta(name):
    """Log marginal, log-determinant and mode agree with ``newton_mode`` +
    ``laplace_log_marginal`` to 1e-8 at log sigma from -3 to 2.5.

    The mode is compared in the posterior's own norm.  Compared entrywise,
    the two modes differ by up to 3e-8 of the largest entry where H(s) is
    worst conditioned (log sigma 1 and 2.5).  There the Newton mode is the
    one that is off: its Hessian is formed from the floating-point X'X.

    The value is also checked, to 1e-8, against the dense-assembly solve,
    which goes through neither path.  (The n x n marginal
    ``gaussian_marginal_exact`` is no referee here: on the mixture-study
    shape it stands 1.5e-7 from both paths, its covariance being the worse
    conditioned; ``test_pencil_and_newton_against_a_50_digit_solve`` settles
    which path is right.)"""
    model = MODELS[name]()
    pencil = GaussianPencil.from_model(model)
    for log_sigma in LOG_SIGMAS:
        theta = [log_sigma]
        value, approx = pencil.log_post(theta)
        ref = newton_mode(model, theta)
        assert value == pytest.approx(laplace_log_marginal(model, theta, ref), rel=1e-8)
        assert laplace_log_marginal(model, theta, approx) == value
        assert approx.log_det == pytest.approx(ref.log_det, rel=1e-8)
        assert energy_error(approx.mode, ref) <= 1e-8
        assert value == pytest.approx(gaussian_mode_dense(model, theta)[1], rel=1e-8)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_pencil_and_newton_against_a_50_digit_solve(offset):
    """A referee for the response far from zero, n = 40, k = 10: both paths
    against the marginal solved in 50-digit arithmetic.  The spectral value
    is within a few roundings of it (5e-16 measured); Newton's is within
    1e-11 (1.2e-12 measured at offset 0, one rounding at 1e6)."""
    model = sine_model(n=40, k=10, offset=offset)
    pencil = GaussianPencil.from_model(model)
    for log_sigma in LOG_SIGMAS:
        truth = gaussian_log_marginal_mp(model, [log_sigma])
        spectral = abs(pencil.log_post([log_sigma])[0] - truth) / abs(truth)
        newton = abs(laplace_log_marginal(model, [log_sigma]) - truth) / abs(truth)
        assert spectral <= 1e-14
        assert newton <= 1e-11
        assert spectral <= newton + 1e-15


def test_pencil_is_the_closer_path_where_the_gram_is_singular():
    """On the mixture-study shape at log sigma = 2.5, where H(s) is worst
    conditioned, the 50-digit solve puts the spectral value 3.6e-14 from the
    truth and Newton's 3.8e-10 (Newton's Hessian is formed from the
    floating-point X'X, the pencil's eigenbasis from X itself)."""
    model = gmm_shape_model()
    truth = gaussian_log_marginal_mp(model, [2.5])
    spectral = GaussianPencil.from_model(model).log_post([2.5])[0]
    assert spectral == pytest.approx(truth, rel=1e-12)
    assert laplace_log_marginal(model, [2.5]) == pytest.approx(truth, rel=1e-8)


def test_pencil_applies_to_gaussian_models_with_kappa_fixed_and_sigma_free():
    xs = np.linspace(0.0, 1.0, 12)
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, 4))
    prior = ExponentialPrior(1.0)

    def model(family="gaussian", **kwargs):
        return build_model(xs, np.sin(xs), basis, family, **kwargs)

    assert GaussianPencil.applies(model(sigma_prior=prior, family_hyper_fixed=0.3))
    assert not GaussianPencil.applies(model(sigma_fixed=1.0, family_hyper_fixed=0.3))
    assert not GaussianPencil.applies(model(sigma_prior=prior, family_hyper_prior=prior))
    assert not GaussianPencil.applies(model("poisson", sigma_prior=prior))


def test_gaussian_fit_solves_once_and_factors_nothing_per_grid_point(monkeypatch):
    """One Newton call and two Cholesky factors (the set-up's) whatever the
    grid size; no triangular solve for draws or moments, and no precision
    formed until one is read."""
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(inference, "newton_mode", counted("newton", inference.newton_mode))
    for name in ("cholesky", "cho_factor", "solve_triangular"):
        monkeypatch.setattr(inference.linalg, name, counted(name, getattr(inference.linalg, name)))
    model = gmm_shape_model()
    fit = aghq_fit(model, num_quad=10, num_samples=300, seed=1)
    xs = np.linspace(0.0, 10.0, 37)
    for q in (0, 1, 2):
        posterior_moments(fit, xs, q)
    posterior_function(fit, xs, 1)
    assert sorted(calls) == ["cho_factor", "cholesky", "cholesky", "newton"]
    assert all("precision" not in a.__dict__ and "chol" not in a.__dict__ for a in fit.approxes)


def newton_oracle(fit, grid):
    """The fit rebuilt from ``newton_mode`` at its own grid points: values,
    approximations, weights (with the grid's own adjustment) and the fit."""
    values, approxes = [], []
    for theta in fit.theta_points:
        ref = newton_mode(fit.model, theta)
        values.append(laplace_log_marginal(fit.model, theta, ref))
        approxes.append(ref)
    values = np.array(values)
    log_unnorm = values + grid.log_adjust
    weights = np.exp(log_unnorm - logsumexp(log_unnorm))
    return values, dataclasses.replace(fit, approxes=approxes, weights=weights)


@pytest.mark.parametrize("name", ["gmm_shape", "sine_fixed_effects"])
def test_fit_matches_the_newton_oracle_at_its_grid_points(monkeypatch, name):
    """At the fit's own grid points (the oracle's own search would place its
    points elsewhere: the stencil turns 1e-11 differences in value into
    larger shifts of the grid), log posterior values, modes, weights and
    the moments of g, g' and g'' agree with the Newton path to 1e-8."""
    grids = []
    adapt = inference.adapt_quadrature
    monkeypatch.setattr(inference, "adapt_quadrature",
                        lambda *args: grids.append(adapt(*args)) or grids[-1])
    model = MODELS[name]()
    fit = aghq_fit(model, num_quad=10, num_samples=0)
    values, ref = newton_oracle(fit, grids[0])
    npt.assert_allclose(grids[0].log_post_values, values, rtol=1e-8)
    for approx, ref_approx in zip(fit.approxes, ref.approxes):
        assert energy_error(approx.mode, ref_approx) <= 1e-8
    npt.assert_allclose(fit.weights, ref.weights, rtol=1e-8, atol=1e-14)
    knots = model.basis.knot_set
    xs = np.linspace(knots.region_start, knots.region_end, 41)
    for q in (0, 1, 2):
        mean, sd = posterior_moments(fit, xs, q)
        ref_mean, ref_sd = posterior_moments(ref, xs, q)
        assert np.max(np.abs(mean - ref_mean) / ref_sd) <= 1e-8
        assert np.max(np.abs(sd - ref_sd) / ref_sd) <= 1e-8


def test_spectral_draws_match_moments_and_rerun_byte_identical():
    model = sine_model(fixed=True)
    fit = aghq_fit(model, num_quad=10, num_samples=4000, seed=3)
    xs = np.linspace(0.5, 19.5, 25)
    mean, sd = posterior_moments(fit, xs, 0)
    curve = posterior_function(fit, xs, 0)
    assert np.max(np.abs(curve.mean - mean) / (sd / math.sqrt(4000))) <= 5.0
    again = aghq_fit(model, num_quad=10, num_samples=4000, seed=3)
    assert again.samples.tobytes() == fit.samples.tobytes()
    assert again.weights.tobytes() == fit.weights.tobytes()
    assert not np.array_equal(aghq_fit(model, num_quad=10, num_samples=4000, seed=4).samples,
                              fit.samples)


def test_formed_fields_keep_their_meaning():
    """On spectral approximations the precision, its factor and the
    condition numbers that criterion 7 and the CLI manifest read are those of
    ``newton_mode``'s, and ``dataclasses.replace`` still works."""
    model = gmm_shape_model()
    fit = aghq_fit(model, num_quad=5, num_samples=0)
    refs = [newton_mode(model, theta) for theta in fit.theta_points]
    for approx, ref in zip(fit.approxes, refs):
        assert condition_number(approx) == pytest.approx(condition_number(ref), rel=1e-10)
        npt.assert_allclose(approx.precision, ref.precision, rtol=1e-14)
        npt.assert_allclose(approx.chol, ref.chol, rtol=1e-10, atol=1e-12 * np.max(ref.chol))
        assert approx.cov_basis is fit.approxes[0].cov_basis  # the shared W
    assert max_condition_number(fit) == pytest.approx(
        max(condition_number(r) for r in refs), rel=1e-10)

    approx, theta = fit.approxes[0], fit.theta_points[0]
    copy = dataclasses.replace(approx)
    assert isinstance(copy, GaussianApprox)
    assert laplace_log_marginal(model, theta, copy) == laplace_log_marginal(model, theta, approx)
    npt.assert_array_equal(copy.mode, approx.mode)
    moved = dataclasses.replace(approx, mode=approx.mode + 1.0, log_joint_at_mode=0.0)
    npt.assert_array_equal(moved.mode, approx.mode + 1.0)
    assert moved.log_joint_at_mode == 0.0
    npt.assert_array_equal(moved.precision, approx.precision)
