"""Independent numeric oracles used by the tests.

These deliberately avoid the closed-form code paths they certify: basis
functions are rebuilt by numerically integrating the raw test-function
indicator, joint densities are re-summed scalar by scalar, and marginal
likelihoods are integrated with dense quadrature over the full latent space.
The dense exact-process posterior is conditioned point by point and order by
order, as the comparator once did, so its consolidated path has a reference.
The Gaussian mode is solved from a likelihood Hessian assembled from the
design itself rather than from the model's Gram matrix, and curves are
summarized sample-major with ``np.quantile``, as the fitter once did.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, linalg
from scipy.special import gammaln, logsumexp

from osplines.basis import KnotSet, test_function_eval
from osplines.exact import IWPKernel, _poly_cov_matrix
from osplines.inference import LatentModel, PosteriorCurve, _curve_design, newton_mode


def repeated_integral_of_test_function(knot_set: KnotSet, i: int, x: float, p: int) -> float:
    """p-fold integral of the knot-cell indicator from the region start to x.

    Uses the reduction of an iterated integral to a single weighted one; the
    integrand stays the raw indicator so this is independent of any
    polynomial branch formulas.
    """
    lo = knot_set.region_start
    if x <= lo:
        return 0.0
    c = 1.0 / math.factorial(p - 1)
    cell = (float(knot_set.lower_knots[i - 1]), float(knot_set.knots[i - 1]))
    pts = [v for v in cell if lo < v < x]
    val, err = integrate.quad(
        lambda u: c * (x - u) ** (p - 1) * test_function_eval(knot_set, i, u),
        lo, x, points=pts or None, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    assert err < 1e-9
    return val


def log_joint_scalar(model: LatentModel, latent, theta=()) -> float:
    """Slow scalar-by-scalar re-implementation of the log joint density."""
    latent = np.asarray(latent, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)

    total = 0.0
    for wi, qi in zip(latent, qdiag):
        total += 0.5 * math.log(qi) - 0.5 * qi * wi * wi - 0.5 * math.log(2.0 * math.pi)

    for row in range(model.n_obs):
        eta_i = 0.0
        for j in range(model.latent_dim):
            eta_i += model.design[row, j] * latent[j]
        y_i = model.response[row]
        if model.family == "gaussian":
            kappa = hyper
            total += (
                -0.5 * ((y_i - eta_i) / kappa) ** 2
                - math.log(kappa)
                - 0.5 * math.log(2.0 * math.pi)
            )
        else:
            total += y_i * eta_i - math.exp(eta_i) - float(gammaln(y_i + 1.0))

    pos = 0
    if model.sigma_prior is not None:
        total += model.sigma_prior.log_pdf(sigma) + theta[pos]
        pos += 1
    if model.family_hyper_prior is not None:
        total += model.family_hyper_prior.log_pdf(hyper) + theta[pos]
    return total


def fd_hessian_of_log_joint(model: LatentModel, latent, theta=(), step=1e-4):
    """Central finite-difference Hessian of the log joint in the latent."""
    from osplines.inference import log_joint

    latent = np.asarray(latent, dtype=float)
    d = latent.size
    scale = step * (1.0 + np.abs(latent))
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = scale[i]
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = scale[j]
            hess[i, j] = hess[j, i] = (
                log_joint(model, latent + ei + ej, theta)
                - log_joint(model, latent + ei - ej, theta)
                - log_joint(model, latent - ei + ej, theta)
                + log_joint(model, latent - ei - ej, theta)
            ) / (4.0 * scale[i] * scale[j])
    return hess


def brute_log_marginal(model: LatentModel, theta, nodes: int = 40) -> float:
    """Dense Gauss-Hermite integration of the joint over the whole latent space.

    Adapted to the conditional mode and curvature for accuracy, then summed
    with the exact change of variables; no Laplace formula involved.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ga = newton_mode(model, theta)
    cov = np.linalg.inv(ga.precision)
    L = np.linalg.cholesky(cov)
    z, w = np.polynomial.hermite.hermgauss(nodes)
    dim = model.latent_dim
    pts = np.array(list(itertools.product(range(nodes), repeat=dim)))
    Z = z[pts]
    logw = np.log(w)[pts].sum(axis=1)
    W = ga.mode + np.sqrt(2.0) * Z @ L.T

    sigma, hyper = model.split_theta(theta)
    qd = model.prior_precision_diag(sigma, hyper)
    log_prior = (
        0.5 * np.sum(np.log(qd))
        - 0.5 * np.sum(W**2 * qd, axis=1)
        - 0.5 * dim * np.log(2.0 * np.pi)
    )
    eta = W @ model.design.T
    y = model.response
    if model.family == "gaussian":
        kappa = hyper
        log_lik = (
            -0.5 * np.sum(((y - eta) / kappa) ** 2, axis=1)
            - y.size * np.log(kappa)
            - 0.5 * y.size * np.log(2.0 * np.pi)
        )
    else:
        log_lik = np.sum(y * eta - np.exp(eta), axis=1) - np.sum(gammaln(y + 1.0))
    log_hyper = 0.0
    pos = 0
    if model.sigma_prior is not None:
        log_hyper += model.sigma_prior.log_pdf(sigma) + theta[pos]
        pos += 1
    if model.family_hyper_prior is not None:
        log_hyper += model.family_hyper_prior.log_pdf(hyper) + theta[pos]

    log_adj = (
        logw + (Z**2).sum(axis=1) + 0.5 * dim * np.log(2.0)
        + np.sum(np.log(np.diag(L)))
    )
    return float(logsumexp(log_prior + log_lik + log_hyper + log_adj))


def laplace_terms_in_original_coordinates(model: LatentModel, mode, theta=()):
    """Negative Hessian H = diag(q) + X' diag(curv) X at ``mode``, assembled in
    original coordinates, with its ``slogdet`` and the log joint there."""
    from osplines.inference import log_joint

    sigma, hyper = model.split_theta(theta)
    X = model.design
    if model.family == "gaussian":
        curv = np.full(model.n_obs, 1.0 / hyper**2)
    else:
        curv = np.exp(X @ mode)
    H = np.diag(model.prior_precision_diag(sigma, hyper)) + X.T @ np.diag(curv) @ X
    sign, logdet = np.linalg.slogdet(H)
    assert sign > 0
    return H, logdet, log_joint(model, mode, theta)


def gaussian_mode_dense(model: LatentModel, theta=()):
    """Gaussian-family mode and Laplace log marginal from a dense assembly.

    H = diag(q) + X' diag(curv) X with the constant curvature 1/kappa^2
    expanded over the rows of the design; one Newton step from zero is the
    mode.  The system is Jacobi-scaled before its Cholesky solve.
    """
    from osplines.inference import log_joint

    sigma, kappa = model.split_theta(theta)
    X, y = model.design, model.response
    curv = np.full(model.n_obs, 1.0 / kappa**2)
    H = np.diag(model.prior_precision_diag(sigma, kappa)) + (X.T * curv) @ X
    s = 1.0 / np.sqrt(np.diag(H))
    chol = linalg.cho_factor(H * np.outer(s, s), lower=True)
    mode = s * linalg.cho_solve(chol, s * (X.T @ (curv * y)))
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))) - np.sum(np.log(s)))
    lj = log_joint(model, mode, theta)
    return mode, lj + 0.5 * model.latent_dim * math.log(2.0 * math.pi) - 0.5 * log_det


def posterior_function_reference(fit, xs, q=0, transform=None, level=0.95) -> PosteriorCurve:
    """Sampled curve summaries formed sample-major: paths as samples x len(xs),
    summarized down the columns by ``np.quantile`` (inverted CDF), ``mean``
    and ``std``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ncoef = fit.model.n_spline + fit.model.n_poly
    coefs = fit.samples[:, :ncoef]
    paths = coefs @ _curve_design(fit, xs, q).T
    if transform == "exp":
        if q == 0:
            paths = np.exp(paths)
        else:
            base = coefs @ _curve_design(fit, xs, 0).T
            paths = paths * np.exp(base)
    # the decimal tails of the level, rounded once (0.025/0.975 for 0.95)
    tail = (1 - Fraction(str(level))) / 2
    lower, upper = np.quantile(paths, [float(tail), float(1 - tail)], axis=0,
                               method="inverted_cdf")
    return PosteriorCurve(
        xs=xs, derivative_order=q, transform=transform,
        mean=paths.mean(axis=0), sd=paths.std(axis=0, ddof=1),
        lower=lower, upper=upper, samples=paths, level=level,
    )


def gaussian_marginal_exact(model: LatentModel, theta=()) -> float:
    """Analytic Gaussian-family marginal: N(y; 0, X Sigma X' + kappa^2 I)."""
    sigma, kappa = model.split_theta(theta)
    qd = model.prior_precision_diag(sigma, kappa)
    X = model.design
    cov = (X / qd) @ X.T + kappa**2 * np.eye(model.n_obs)
    y = model.response
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = y @ np.linalg.solve(cov, y)
    val = -0.5 * (model.n_obs * math.log(2.0 * math.pi) + logdet + quad)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    pos = 0
    if model.sigma_prior is not None:
        val += model.sigma_prior.log_pdf(sigma) + theta[pos]
        pos += 1
    if model.family_hyper_prior is not None:
        val += model.family_hyper_prior.log_pdf(kappa) + theta[pos]
    return float(val)


def exact_mixture_moments(order, xs, ys, noise_sd, poly_prior_sd, predict_x, derivs,
                          sigma_grid, weights):
    """Mixture means and SDs of the dense exact-process posterior over a sigma grid.

    At each grid sigma the observation covariance is factorized afresh and
    each derivative order is conditioned with its own triangular solve; the
    per-point moments are then mixed with ``weights``.  Returns two dicts
    keyed by derivative order.
    """
    xs = np.asarray(xs, dtype=float)
    predict_x = np.asarray(predict_x, dtype=float)
    taus = np.asarray(poly_prior_sd, dtype=float)
    kern = IWPKernel(order, 1.0)
    means = {q: np.zeros(predict_x.size) for q in derivs}
    second = {q: np.zeros(predict_x.size) for q in derivs}
    for sigma, wgt in zip(sigma_grid, weights):
        cov = (
            _poly_cov_matrix(xs, xs, 0, 0, taus)
            + sigma**2 * kern.cov_matrix(xs, xs)
            + noise_sd**2 * np.eye(xs.size)
        )
        chol = linalg.cho_factor(cov, lower=True)
        alpha = linalg.cho_solve(chol, ys)
        for q in derivs:
            kx = _poly_cov_matrix(predict_x, xs, q, 0, taus) + sigma**2 * kern.cov_matrix(
                predict_x, xs, q, 0
            )
            prior_var = np.diag(_poly_cov_matrix(predict_x, predict_x, q, q, taus)) + (
                sigma**2 * np.diag(kern.cov_matrix(predict_x, predict_x, q, q))
            )
            mq = kx @ alpha
            half = linalg.solve_triangular(chol[0], kx.T, lower=True)
            vq = np.maximum(prior_var - np.sum(half**2, axis=0), 0.0)
            means[q] += wgt * mq
            second[q] += wgt * (vq + mq**2)
    sds = {q: np.sqrt(np.maximum(second[q] - means[q] ** 2, 0.0)) for q in derivs}
    return means, sds
