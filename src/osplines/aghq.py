"""Adaptive Gauss-Hermite quadrature over a low-dimensional hyperparameter.

Shared by the latent-model fitter and the dense GP comparator: find the mode
of a log-posterior over the (log-transformed) hyperparameters by damped
Newton steps, adapt a Gauss-Hermite product grid to the mode and curvature,
and return normalized grid weights.  The search takes exact gradients where
the log-posterior's states carry them and finite differences of values
elsewhere.  An even node count is permitted; the grid then simply excludes
the mode itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import IterationError

_TOL = 1e-5  # nats of predicted gain: the mode is then within ~0.005 posterior SDs
_MAX_ITER = 50
_MAX_HALVINGS = 30


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


def _stencil(fun, x):
    """Value, gradient and Hessian of ``fun`` at ``x`` from 2d^2 + 1 central differences."""
    d = x.size
    e = np.diag(1e-3 * (1.0 + np.abs(x)))
    f0 = fun(x)
    grad = np.empty(d)
    hess = np.empty((d, d))
    for i in range(d):
        h = e[i, i]
        fp, fm = fun(x + e[i]), fun(x - e[i])
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * f0 + fm) / h**2
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                fun(x + e[i] + e[j]) - fun(x + e[i] - e[j])
                - fun(x - e[i] + e[j]) + fun(x - e[i] - e[j])
            ) / (4.0 * h * e[j, j])
    return f0, grad, hess


def _gradient_stencil(value, gradient, x):
    """Value, exact gradient and Hessian at ``x``, the Hessian from central
    differences of exact gradients at x +- h e_i, with :func:`_stencil`'s h,
    symmetrized: 2d + 1 evaluations."""
    d = x.size
    e = np.diag(1e-3 * (1.0 + np.abs(x)))
    hess = np.empty((d, d))
    for i in range(d):
        hess[:, i] = (gradient(x + e[i]) - gradient(x - e[i])) / (2.0 * e[i, i])
    return value(x), gradient(x), 0.5 * (hess + hess.T)


def adapt_quadrature(log_post, theta0, num_quad: int) -> AdaptedGrid:
    """Find the mode of ``log_post``, adapt a GH product grid, normalize its weights.

    ``log_post`` maps a length-d array to ``(value, state)``, the state being
    whatever it built on the way (a Laplace approximation, a Cholesky factor);
    ``num_quad`` is the node count per dimension.  Damped Newton steps on one
    stencil per iterate climb from ``theta0`` until the predicted gain is at
    most 1e-5 nats, and the grid is adapted to the last stencil's curvature;
    a search that cannot get there raises :class:`IterationError`.  Where
    the state at ``theta0`` has a ``gradient`` that is not None (the count
    families' Laplace states), every iterate takes the exact gradient and a
    Hessian from differences of exact gradients, :func:`_gradient_stencil`,
    at 2d + 1 points; otherwise (the Gaussian pencil, whose theta costs
    O(k r^2), and the exact comparator) it takes the value :func:`_stencil`
    at 2d^2 + 1.  At d = 1 both take 3.  The centre of every iterate after
    the first is the last accepted step, already evaluated.
    With d = 0 the grid is the one empty point, with weight 1 and
    ``log_normconst`` its value.
    Each distinct theta the search requests is evaluated once and only its
    value and gradient kept; every grid point is evaluated afresh and its
    state returned in ``states``.  A 2-d grid is evaluated in serpentine
    order (rows in turn, every other row backwards), so each point is
    evaluated right after a neighbour; points, values and states are
    returned in ``itertools.product`` order.  Weights are the posterior
    masses of the grid points, normalized about the largest so that they
    sum to one within rounding at any scale of the log posterior;
    ``log_normconst`` estimates log of the integral of exp(log_post).
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    d = theta.size
    memo: dict[tuple, tuple] = {}

    def evaluate(th):
        key = tuple(th.tolist())
        if key not in memo:
            val, state = log_post(th)
            memo[key] = val, getattr(state, "gradient", None) if d else None
        return memo[key]

    def value(th):
        return evaluate(th)[0]

    def gradient(th):
        return evaluate(th)[1]

    exact = gradient(theta) is not None
    for _ in range(_MAX_ITER):
        if exact:
            f0, grad, hess = _gradient_stencil(value, gradient, theta)
        else:
            f0, grad, hess = _stencil(value, theta)
        try:
            hess_chol = np.linalg.cholesky(-hess)
        except np.linalg.LinAlgError:
            step = grad
        else:
            step = linalg.cho_solve((hess_chol, True), grad, check_finite=False)
            if 0.5 * grad @ step <= _TOL:
                break
        move = float(np.max(np.abs(step)))
        if not 0.0 < move < np.inf:
            raise IterationError(f"hyperparameter search stalled: step {step} at theta={theta}")
        step = step / max(move, 1.0)
        for _ in range(_MAX_HALVINGS + 1):
            if value(theta + step) > f0:
                break
            step = 0.5 * step
        else:
            raise IterationError(f"hyperparameter search found no increase from theta={theta}")
        theta = theta + step
    else:
        raise IterationError(f"hyperparameter search did not converge in {_MAX_ITER} iterations")

    # cov = H^-1 = L^-T L^-1 with H = L L^T, so a Cholesky-like factor of the
    # covariance is L^-T (lower-triangular after transposition for d <= 2).
    chol_cov = np.linalg.solve(hess_chol, np.eye(d)).T

    nodes, base_w = np.polynomial.hermite.hermgauss(int(num_quad))
    z_grid = np.array(list(itertools.product(range(int(num_quad)), repeat=d)), dtype=int)
    z = nodes[z_grid]
    logw = np.log(base_w)[z_grid].sum(axis=1)
    # substitution theta = mode + sqrt(2) L z, dtheta = 2^{d/2} |L| dz, and the
    # e^{z'z} factor reweights the GH kernel back out
    log_adjust = logw + (z**2).sum(axis=1) + 0.5 * d * np.log(2.0) + np.sum(
        np.log(np.abs(np.diag(chol_cov)))
    )
    points = theta + np.sqrt(2.0) * z @ chol_cov.T

    # a 2-d grid is solved in serpentine order, every other row walked
    # backwards, so each point follows a neighbour (the count families start
    # each Newton solve from the last mode); results stay in product order
    order = np.arange(len(points))
    if d == 2:
        order = np.lexsort((np.where(z_grid[:, 0] % 2, -z_grid[:, 1], z_grid[:, 1]), z_grid[:, 0]))
    values, states = np.empty(len(points)), [None] * len(points)
    for i in order:
        values[i], states[i] = log_post(points[i])
    # normalized about the largest value, which is added back to the
    # constant: exp(v - logsumexp(v)) rounds like |v|, and at v ~ -3e4 its
    # sum misses one by more than multinomial's 1e-12 (Blanchard, Higham &
    # Higham 2021, IMA J. Numer. Anal. 41(4))
    log_unnorm = values + log_adjust
    top = float(np.max(log_unnorm))
    mass = np.exp(log_unnorm - top)
    total = float(np.sum(mass))
    log_normconst = top + math.log(total)
    weights = mass / total

    return AdaptedGrid(
        mode=theta,
        neg_hessian=-hess,
        chol_cov=chol_cov,
        points=points,
        log_post_values=values,
        log_adjust=log_adjust,
        weights=weights,
        log_normconst=log_normconst,
        states=states,
    )
