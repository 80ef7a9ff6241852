"""Reference computations the benchmark checks the library against.

Nothing here calls into ``osplines``: the O-spline design, the conjugate
Gaussian posterior, the exact Gaussian marginal likelihood and the
hyperparameter integral are recomputed from their closed forms, so a
defect in the timed code path cannot also hide in its reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg


def exponential_rate_from_psd(order: int, h: float, u: float, alpha: float) -> float:
    """Rate of the exponential prior on sigma with P(psd(h) > u) = alpha.

    sigma = c * psd(h) with c = (p-1)! sqrt((2p-1) / h^(2p-1)).
    """
    c = math.factorial(order - 1) * math.sqrt((2 * order - 1) / h ** (2 * order - 1))
    return -math.log(alpha) / u / c


def design(x, region, k: int, order: int, q: int = 0) -> np.ndarray:
    """[O-spline block | polynomial block] for equal knots, derivative q.

    Basis function j is ((x - s_{j-1})_+^p - (x - s_j)_+^p) / p!, whose q-th
    derivative is the same expression at order p - q (an indicator of the
    right-closed cell when p = q).  The polynomial block holds the q-th
    derivatives of x^l, l = 0..p-1.
    """
    x = np.asarray(x, dtype=float)[:, None]
    edges = np.linspace(region[0], region[1], k + 1)
    lo, hi = edges[:-1][None, :], edges[1:][None, :]
    r = order - q
    if r == 0:
        spline = ((x > lo) & (x <= hi)).astype(float)
    else:
        spline = (np.where(x > lo, x - lo, 0.0) ** r - np.where(x > hi, x - hi, 0.0) ** r)
        spline /= math.factorial(r)
    poly = np.zeros((x.shape[0], order))
    for l in range(q, order):
        poly[:, l] = math.factorial(l) / math.factorial(l - q) * x[:, 0] ** (l - q)
    return np.hstack([spline, poly])


def prior_precision(region, k: int, order: int, sigma: float, poly_sd: float) -> np.ndarray:
    """Diagonal prior precision: knot spacing / sigma^2, then 1 / poly_sd^2."""
    d = (region[1] - region[0]) / k
    return np.concatenate([np.full(k, d / sigma**2), np.full(order, 1.0 / poly_sd**2)])


class ConjugatePosterior:
    """Gaussian posterior of the latent vector under y = X a + N(0, kappa^2 I).

    The mode solves (Q + X'X / kappa^2) a = X'y / kappa^2 on a
    diagonally equilibrated copy.  The log marginal of y uses the
    determinant lemma, det(kappa^2 I + X Q^-1 X') = kappa^2n det(P) / det(Q),
    and Woodbury for the quadratic form.
    """

    def __init__(self, X, y, qdiag, kappa: float, xtx=None):
        n = X.shape[0]
        xtx = X.T @ X if xtx is None else xtx
        b = X.T @ y / kappa**2
        prec = xtx / kappa**2
        prec[np.diag_indices_from(prec)] += qdiag
        scale = 1.0 / np.sqrt(np.diag(prec))
        self._chol = linalg.cho_factor(prec * np.outer(scale, scale), lower=True)
        self._scale = scale
        self.mode = scale * linalg.cho_solve(self._chol, scale * b)
        log_det_prec = 2.0 * float(np.sum(np.log(np.diag(self._chol[0])))) - 2.0 * float(
            np.sum(np.log(scale))
        )
        quad = float(y @ y) / kappa**2 - float(b @ self.mode)
        self.log_marginal = (
            -0.5 * n * math.log(2.0 * math.pi)
            - n * math.log(kappa)
            - 0.5 * (log_det_prec - float(np.sum(np.log(qdiag))))
            - 0.5 * quad
        )

    def variances(self, D) -> np.ndarray:
        """Posterior variances of the linear combinations in the rows of D."""
        half = linalg.solve_triangular(self._chol[0], (D * self._scale).T, lower=True)
        return np.sum(half**2, axis=0)


def log_hyper_posterior(log_marginal: float, theta: float, rate: float) -> float:
    """Add the exponential prior on sigma = exp(theta) and its Jacobian."""
    return log_marginal + math.log(rate) - rate * math.exp(theta) + theta


def mixture_moments(posterior, D, rate, coarse=np.linspace(-10.0, 10.0, 41), width=10.0,
                    num=61):
    """Posterior mean and SD of D a with theta = log sigma integrated out.

    ``posterior(theta)`` returns the :class:`ConjugatePosterior` at sigma =
    exp(theta), whose prior on sigma is exponential with ``rate``.  A coarse
    scan and a parabola through the best three points give the mode and
    scale of the hyperparameter posterior; the trapezoid rule on +-``width``
    scales then integrates that smooth, rapidly decaying density to far
    below the checks' tolerance.
    """
    def log_post(theta):
        return log_hyper_posterior(posterior(theta).log_marginal, theta, rate)

    values = np.array([log_post(t) for t in coarse])
    i = int(np.clip(np.argmax(values), 1, coarse.size - 2))
    step = coarse[1] - coarse[0]
    curv = (values[i - 1] - 2.0 * values[i] + values[i + 1]) / step**2
    slope = (values[i + 1] - values[i - 1]) / (2.0 * step)
    center, scale = (coarse[i] - slope / curv, 1.0 / math.sqrt(-curv)) if curv < 0 else (
        coarse[i], step)
    thetas = center + scale * np.linspace(-width, width, num)
    posts = [posterior(t) for t in thetas]
    logw = np.array([log_hyper_posterior(p.log_marginal, t, rate) for p, t in zip(posts, thetas)])
    w = np.exp(logw - logw.max())
    keep = w > 1e-14 * w.sum()
    w = w[keep] / w[keep].sum()
    mean = second = 0.0
    for wt, post in zip(w, (p for p, k in zip(posts, keep) if k)):
        mu = D @ post.mode
        mean = mean + wt * mu
        second = second + wt * (post.variances(D) + mu**2)
    return mean, np.sqrt(np.maximum(second - mean**2, 0.0))


def gaussian_mixture_moments(weights, modes, chols, D):
    """Mean and SD of D a when a is drawn from a weighted mixture of Gaussians.

    Component j has mean ``modes[j]`` and precision L L' with L = ``chols[j]``
    lower triangular.
    """
    mean = second = 0.0
    for wt, mode, chol in zip(weights, modes, chols):
        mu = D @ mode
        half = linalg.solve_triangular(chol, D.T, lower=True)
        mean = mean + wt * mu
        second = second + wt * (np.sum(half**2, axis=0) + mu**2)
    return mean, np.sqrt(np.maximum(second - mean**2, 0.0))


def fd_gradient(fun, x, steps) -> np.ndarray:
    """Central finite-difference gradient of ``fun`` at ``x``, per-coordinate steps."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = steps[i]
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * steps[i])
    return grad


def relative_error(value, reference) -> float:
    """max |value - reference| / max |reference| (a norm-wise relative error)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))
