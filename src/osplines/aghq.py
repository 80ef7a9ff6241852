"""Adaptive Gauss-Hermite quadrature over a low-dimensional hyperparameter.

Shared by the latent-model fitter and the dense GP comparator: maximize a
log-posterior over the (log-transformed) hyperparameters, adapt a
Gauss-Hermite product grid to the mode and curvature, and return normalized
grid weights.  An even node count is permitted; the grid then simply
excludes the mode itself.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from .errors import IterationError

log = logging.getLogger("osplines")


@dataclass(frozen=True)
class AdaptedGrid:
    """Mode-and-curvature adapted quadrature grid with normalized weights."""

    mode: np.ndarray
    neg_hessian: np.ndarray
    chol_cov: np.ndarray
    points: np.ndarray
    log_post_values: np.ndarray
    log_adjust: np.ndarray
    weights: np.ndarray
    log_normconst: float
    states: list


def _fd_hessian(fun, x, step=1e-3):
    """Central finite-difference Hessian of ``fun`` at ``x``."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = step * (1.0 + np.abs(x))
    hess = np.empty((d, d))
    f0 = fun(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def adapt_quadrature(log_post, theta0, num_quad: int, maxiter: int = 2000) -> AdaptedGrid:
    """Optimize ``log_post``, adapt a GH product grid, normalize its weights.

    ``log_post`` maps a length-d array to ``(value, state)``, the state being
    whatever it built on the way (a Laplace approximation, a Cholesky factor);
    ``num_quad`` is the node count per dimension.  Each distinct theta the
    optimizer and the finite-difference Hessian request is evaluated once and
    only its value kept; every grid point is evaluated afresh and its state
    returned in ``states``.  Weights are the posterior masses of the grid
    points (they sum to one); ``log_normconst`` estimates log of the integral
    of exp(log_post).  An optimizer that stops without converging is logged
    as a warning on the ``osplines`` logger.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    d = theta0.size
    memo: dict[tuple, float] = {}

    def neg(th):
        th = np.asarray(th, dtype=float)
        key = tuple(th.tolist())
        if key not in memo:
            memo[key] = log_post(th)[0]
        return -memo[key]

    res = optimize.minimize(
        neg,
        theta0,
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": maxiter, "maxfev": maxiter},
    )
    if not np.all(np.isfinite(res.x)):
        raise IterationError(f"hyperparameter optimization failed: {res.message}")
    if not res.success:
        log.warning(
            "hyperparameter optimization did not converge after %d evaluations: %s",
            res.nfev, res.message,
        )
    mode = np.atleast_1d(res.x.astype(float))

    neg_hess = _fd_hessian(neg, mode)
    try:
        hess_chol = np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError:
        raise IterationError(
            "negative Hessian of the log posterior is not positive definite at the mode"
        )
    # cov = H^-1 = L^-T L^-1 with H = L L^T, so a Cholesky-like factor of the
    # covariance is L^-T (lower-triangular after transposition for d <= 2).
    eye = np.eye(d)
    chol_cov = np.linalg.solve(hess_chol, eye).T

    nodes, base_w = np.polynomial.hermite.hermgauss(int(num_quad))
    z_grid = np.array(list(itertools.product(range(int(num_quad)), repeat=d)), dtype=int)
    z = nodes[z_grid]
    logw = np.log(base_w)[z_grid].sum(axis=1)
    # substitution theta = mode + sqrt(2) L z, dtheta = 2^{d/2} |L| dz, and the
    # e^{z'z} factor reweights the GH kernel back out
    log_adjust = logw + (z**2).sum(axis=1) + 0.5 * d * np.log(2.0) + np.sum(
        np.log(np.abs(np.diag(chol_cov)))
    )
    points = mode + np.sqrt(2.0) * z @ chol_cov.T

    values, states = zip(*(log_post(pt) for pt in points))
    values = np.array(values)
    log_unnorm = values + log_adjust
    log_normconst = float(logsumexp(log_unnorm))
    weights = np.exp(log_unnorm - log_normconst)

    return AdaptedGrid(
        mode=mode,
        neg_hessian=neg_hess,
        chol_cov=chol_cov,
        points=points,
        log_post_values=values,
        log_adjust=log_adjust,
        weights=weights,
        log_normconst=log_normconst,
        states=list(states),
    )
