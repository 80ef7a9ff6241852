"""Exact integrated-Wiener-process covariances and a dense GP comparator.

The process of order ``p`` started at the origin has the stochastic-integral
representation W_p(x) = int_0^x (x-u)^{p-1}/(p-1)! dB(u), so the covariance
of derivatives (q1, q2) is

    sigma^2 * int_0^{min(s,t)} (s-u)^{p-q1-1} (t-u)^{p-q2-1}
                / ((p-q1-1)! (p-q2-1)!) du,

which this module evaluates in closed form by binomial expansion and
termwise monomial integration (exact up to rounding, O(p^2) per value).
Precision degrades for large p because the expansion alternates in sign;
a high-precision variant backs the prior-elicitation oracle.

Also here: a brute-force repeated-integration oracle, the covariance of the
overlapping-spline approximation, sup-norm error scans, and dense GP
regression used as the inferential comparator.  Everything is a pure
function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath
import numpy as np
from scipy import integrate, linalg

from .aghq import adapt_quadrature
from .basis import MAX_ORDER, OSplineBasis, _basis_columns, build_equal_knots
from .errors import NumericError, _require


# ---------------------------------------------------------------------------
# covariance of the exact process
# ---------------------------------------------------------------------------


def _wp_cov_terms(p: int, s, t, q1: int, q2: int):
    """sigma-free covariance via binomial expansion; works on arrays."""
    a = p - q1 - 1
    b = p - q2 - 1
    m = np.minimum(s, t)
    acc = np.zeros(np.broadcast(s, t).shape)
    for i in range(a + 1):
        ci = math.comb(a, i)
        for j in range(b + 1):
            c = ci * math.comb(b, j) * (-1) ** (i + j) / (i + j + 1)
            acc = acc + c * s ** (a - i) * t ** (b - j) * m ** (i + j + 1)
    return acc / (math.factorial(a) * math.factorial(b))


def _wp_cov_mp(p: int, s, t, q1: int, q2: int):
    """High-precision variant of :func:`_wp_cov_terms` (scalar, mpmath)."""
    a = p - q1 - 1
    b = p - q2 - 1
    s = mpmath.mpf(s)
    t = mpmath.mpf(t)
    m = min(s, t)
    acc = mpmath.mpf(0)
    for i in range(a + 1):
        for j in range(b + 1):
            c = mpmath.binomial(a, i) * mpmath.binomial(b, j) * (-1) ** (i + j)
            acc += c * s ** (a - i) * t ** (b - j) * m ** (i + j + 1) / (i + j + 1)
    return acc / (mpmath.factorial(a) * mpmath.factorial(b))


@dataclass(frozen=True)
class IWPKernel:
    """Exact covariance evaluator for the integrated Wiener process.

    ``order`` is the number of integrations p (>= 1); ``sigma`` scales the
    driving white noise.  Locations are distances from the process origin
    and must be non-negative.
    """

    order: int
    sigma: float

    def __post_init__(self):
        _require(
            isinstance(self.order, (int, np.integer)) and 1 <= self.order <= MAX_ORDER,
            f"order must be an integer in 1..{MAX_ORDER}",
        )
        _require(math.isfinite(self.sigma) and self.sigma >= 0, "sigma must be finite and >= 0")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "sigma", float(self.sigma))

    def cov(self, s: float, t: float, q1: int = 0, q2: int = 0) -> float:
        """Cov of the q1-th derivative at ``s`` and the q2-th derivative at ``t``."""
        return float(self.cov_matrix([s], [t], q1, q2)[0, 0])

    def cov_matrix(self, s, t, q1: int = 0, q2: int = 0) -> np.ndarray:
        """len(s) x len(t) covariance block between derivatives q1 and q2."""
        p = self.order
        _require(
            0 <= q1 < p and 0 <= q2 < p, f"derivative orders ({q1}, {q2}) must lie in 0..{p - 1}"
        )
        s = np.asarray(s, dtype=float)[:, None]
        t = np.asarray(t, dtype=float)[None, :]
        _require(bool(np.all(s >= 0)) and bool(np.all(t >= 0)), "locations must be >= 0")
        if self.sigma == 0.0:
            return np.zeros((s.shape[0], t.shape[1]))
        return self.sigma**2 * _wp_cov_terms(self.order, s, t, q1, q2)


def integrate_cov_oracle(
    cov: Callable[[float, float], float],
    s: float,
    t: float,
    steps: tuple[int, int],
    abs_tol: float = 1e-9,
) -> float:
    """Repeated integration of a covariance function, by adaptive quadrature.

    ``steps = (a, b)`` integrates ``a`` times in the first argument (each step
    from 0) and ``b`` times in the second.  The iterated integrals are
    collapsed to at most a double integral through the classical repeated-
    integration identity I^a f(x) = int_0^x (x-u)^{a-1}/(a-1)! f(u) du, so the
    quadrature stays two-dimensional no matter how many steps are requested.

    This is deliberately independent of the closed-form kernel above and
    serves as its oracle.
    """
    a, b = steps
    _require(a >= 0 and b >= 0, "integration steps must be non-negative")
    _require(s >= 0 and t >= 0, "locations must be >= 0")
    if a == 0 and b == 0:
        return float(cov(s, t))
    if s == 0.0 or t == 0.0:
        return 0.0

    if b == 0:
        ca = 1.0 / math.factorial(a - 1)
        val, err = integrate.quad(
            lambda u: ca * (s - u) ** (a - 1) * cov(u, t), 0.0, s,
            points=[min(s, t)], epsabs=abs_tol / 10.0, epsrel=1e-12, limit=400,
        )
    elif a == 0:
        cb = 1.0 / math.factorial(b - 1)
        val, err = integrate.quad(
            lambda v: cb * (t - v) ** (b - 1) * cov(s, v), 0.0, t,
            points=[min(s, t)], epsabs=abs_tol / 10.0, epsrel=1e-12, limit=400,
        )
    else:
        # nested 1-D quadratures; the inner integral is split at v = u so
        # diagonal kinks (min-type covariances) do not poison the tolerance
        ca = 1.0 / math.factorial(a - 1)
        cb = 1.0 / math.factorial(b - 1)
        inner_tol = abs_tol / (10.0 * max(s, 1.0))

        def inner(u):
            wu = ca * (s - u) ** (a - 1) if a > 1 else ca
            val_in, _ = integrate.quad(
                lambda v: (cb * (t - v) ** (b - 1) if b > 1 else cb) * cov(u, v),
                0.0, t,
                points=[min(max(u, 0.0), t)],
                epsabs=inner_tol, epsrel=1e-13, limit=200,
            )
            return wu * val_in

        val, err = integrate.quad(
            inner, 0.0, s, points=[min(s, t)],
            epsabs=abs_tol / 10.0, epsrel=1e-12, limit=400,
        )
    if err > abs_tol:
        raise NumericError(
            f"repeated-integration quadrature did not reach tolerance: "
            f"estimated error {err:.3e} > {abs_tol:.3e} at (s={s}, t={t}, steps={steps})"
        )
    return float(val)


# ---------------------------------------------------------------------------
# covariance of the O-spline approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OSplineKernel:
    """Covariance evaluator for the O-spline approximation itself.

    Locations are covariate values in the basis region.  In the dense GP
    comparator it is interchangeable with :class:`IWPKernel` only when the
    region starts at 0, since :class:`IWPKernel` takes distances from the
    process origin.  There the two kernels turn weight-space fits and
    function-space conditioning into two independent routes to the same
    posterior.
    """

    basis: OSplineBasis
    sigma: float

    @property
    def order(self) -> int:
        return self.basis.order

    def cov(self, s: float, t: float, q1: int = 0, q2: int = 0) -> float:
        """Cov of the q1-th derivative at ``s`` and the q2-th derivative at ``t``."""
        return float(self.cov_matrix([s], [t], q1, q2)[0, 0])

    def cov_matrix(self, s, t, q1: int = 0, q2: int = 0) -> np.ndarray:
        """Covariance block sigma^2 * sum_i (1/d_i) phi_i^(q1)(s) phi_i^(q2)(t)."""
        p = self.basis.order
        _require(0 <= q1 <= p and 0 <= q2 <= p, f"derivative orders must lie in 0..{p}")
        inv_d = 1.0 / self.basis.knot_set.spacings
        left = _basis_columns(self.basis, np.asarray(s, dtype=float), q1) * inv_d
        right = _basis_columns(self.basis, np.asarray(t, dtype=float), q2)
        return self.sigma**2 * left @ right.T


def _cov_tables(order: int, k: int, region: tuple, grid_density: int, q1: int, q2: int):
    """Regular grid over ``region`` with the exact and ``k``-knot O-spline
    covariance tables on it (sigma = 1), the exact one at ``grid - a``, its
    distances from the origin.  At least 10 grid points per knot cell."""
    a, b = region
    _require(grid_density >= 10 * k, "grid density must be at least 10 points per knot cell")
    basis = OSplineBasis(order, build_equal_knots(a, b, k))
    grid = np.linspace(a, b, int(grid_density))
    exact = IWPKernel(order, 1.0).cov_matrix(grid - a, grid - a, q1, q2)
    approx = OSplineKernel(basis, 1.0).cov_matrix(grid, grid, q1, q2)
    return grid, exact, approx


def sup_cov_error(
    order: int,
    k: int,
    region: tuple[float, float] = (0.0, 1.0),
    grid_density: int | None = None,
    q1: int = 0,
    q2: int = 0,
) -> float:
    """Max |exact - O-spline| covariance over a regular (s, t) grid, sigma = 1.

    The grid must resolve knot cells: at least 10 points per cell (the
    default).  Each grid cell is evaluated independently so the maximum is
    deterministic regardless of evaluation order.
    """
    density = 10 * k if grid_density is None else grid_density
    _, exact, approx = _cov_tables(order, k, region, density, q1, q2)
    return float(np.max(np.abs(exact - approx)))


# ---------------------------------------------------------------------------
# dense GP regression comparator
# ---------------------------------------------------------------------------


def _poly_cov_matrix(s, t, q1: int, q2: int, taus: np.ndarray) -> np.ndarray:
    """Covariance of the random polynomial trend sum_l gamma_l x^l."""
    s = np.asarray(s, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)[None, :]
    p = taus.size
    acc = np.zeros(np.broadcast(s, t).shape)
    for l in range(p):
        if l < q1 or l < q2:
            continue
        cl = math.factorial(l) / math.factorial(l - q1) * math.factorial(l) / math.factorial(l - q2)
        acc += taus[l] ** 2 * cl * s ** (l - q1) * t ** (l - q2)
    return acc


def _target_cov(kernel, xs: np.ndarray, targets: Sequence[tuple[float, int]], taus: np.ndarray):
    """Kernel and polynomial parts of the cross-covariance of each (x, q)
    target g^(q)(x) with the values at ``xs``, and of its prior variance.

    Rows follow the order of ``targets`` and are computed one derivative
    order at a time.
    """
    m = len(targets)
    k_cross, p_cross = np.empty((m, xs.size)), np.empty((m, xs.size))
    k_var, p_var = np.empty(m), np.empty(m)
    for qq in sorted({q for _, q in targets}):
        idx = [i for i, (_, q) in enumerate(targets) if q == qq]
        xq = np.array([targets[i][0] for i in idx])
        k_cross[idx] = kernel.cov_matrix(xq, xs, qq, 0)
        p_cross[idx] = _poly_cov_matrix(xq, xs, qq, 0, taus)
        k_var[idx] = np.diag(kernel.cov_matrix(xq, xq, qq, qq))
        p_var[idx] = np.diag(_poly_cov_matrix(xq, xq, qq, qq, taus))
    return k_cross, p_cross, k_var, p_var


def _factor(cov: np.ndarray):
    """Lower Cholesky factor (``cho_factor`` form) of an observation covariance."""
    try:
        return linalg.cho_factor(cov, lower=True)
    except linalg.LinAlgError:
        raise NumericError(
            f"observation covariance is not numerically positive definite "
            f"(condition number {float(np.linalg.cond(cov)):.3e})"
        )


def _condition(chol, alpha, cross):
    """Conditional mean ``cross @ alpha`` and ``half = L^-1 cross^T``.

    ``chol`` factors the observation covariance, ``alpha`` solves it against
    the data; the conditional covariance is the prior less ``half.T @ half``.
    """
    return cross @ alpha, linalg.solve_triangular(chol[0], cross.T, lower=True)


@dataclass(frozen=True)
class GPFitResult:
    """Posterior summaries of a dense GP fit at the requested (x, q) pairs."""

    predict_at: tuple
    means: np.ndarray
    sds: np.ndarray


def exact_gp_fit(
    kernel,
    xs,
    ys,
    noise_sd: float,
    poly_prior_sd: Sequence[float],
    predict_at: Sequence[tuple[float, int]],
) -> GPFitResult:
    """Dense GP regression under kernel + random polynomial trend.

    Conditions the joint Gaussian of observations and requested derivative
    values on ``ys`` observed at ``xs`` with iid Gaussian noise.  The O(n^3)
    dense formulation is intentional: this is the correctness oracle and
    conditioning benchmark, not the production path.  ``kernel`` may be the
    exact process or an O-spline covariance adapter.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    _require(xs.size == ys.size, "xs and ys must have equal length")
    _require(xs.size <= 2000, "dense comparator is limited to n <= 2000")
    _require(noise_sd > 0, "noise_sd must be positive")
    taus = np.asarray(poly_prior_sd, dtype=float)
    _require(taus.size == kernel.order, "need one polynomial prior SD per power 0..p-1")
    _require(bool(np.all(taus >= 0)), "polynomial prior SDs must be >= 0")

    pts = [(float(x), int(q)) for x, q in predict_at]
    k_cross, p_cross, k_var, p_var = _target_cov(kernel, xs, pts, taus)
    prior_var = k_var + p_var
    if xs.size == 0:
        return GPFitResult(tuple(pts), means=np.zeros(len(pts)), sds=np.sqrt(prior_var))
    kobs = kernel.cov_matrix(xs, xs) + _poly_cov_matrix(xs, xs, 0, 0, taus)
    kobs[np.diag_indices_from(kobs)] += noise_sd**2
    chol = _factor(kobs)
    means, half = _condition(chol, linalg.cho_solve(chol, ys), k_cross + p_cross)
    sds = np.sqrt(np.maximum(prior_var - np.sum(half**2, axis=0), 0.0))
    return GPFitResult(predict_at=tuple(pts), means=means, sds=sds)


@dataclass
class ExactHierarchicalFit:
    """Dense-comparator fit with the scale hyperparameter integrated out."""

    order: int
    xs: np.ndarray
    derivs: tuple[int, ...]
    sigma_grid: np.ndarray
    weights: np.ndarray
    log_marginal: float
    kappa_max: float
    condition_numbers: np.ndarray
    means: dict = field(repr=False)
    sds: dict = field(repr=False)
    sample_curves: dict = field(repr=False, default_factory=dict)

    def moments(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        return self.means[q], self.sds[q]


def exact_hierarchical_fit(
    order: int,
    xs,
    ys,
    noise_sd: float,
    poly_prior_sd: Sequence[float],
    sigma_prior,
    predict_x=None,
    derivs: Sequence[int] = (0, 1, 2),
    num_quad: int = 10,
    num_samples: int = 0,
    seed: int = 0,
) -> ExactHierarchicalFit:
    """Dense GP fit with adaptive quadrature over theta = log(sigma).

    ``sigma_prior`` needs a ``log_pdf`` and a ``median`` (used to start the
    optimizer).  Posterior means/SDs of the requested derivatives are exact
    mixture moments over the quadrature grid.  With ``num_samples > 0`` the
    joint posterior of all derivative curves is additionally sampled, which
    mirrors the full sampling pipeline of the weight-space fitter.

    The reported condition numbers are those of the factorized observation
    covariance at each quadrature point, the linear system this method
    actually solves.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    taus = np.asarray(poly_prior_sd, dtype=float)
    _require(noise_sd > 0, "noise_sd must be positive")
    _require(taus.size == order, "need one polynomial prior SD per power 0..p-1")
    predict_x = xs if predict_x is None else np.atleast_1d(np.asarray(predict_x, dtype=float))
    derivs = tuple(int(q) for q in derivs)
    _require(all(0 <= q < order for q in derivs), "derivative orders must lie in 0..p-1")

    n = xs.size
    npred = predict_x.size
    kern_unit = IWPKernel(order, 1.0)
    kw_obs = kern_unit.cov_matrix(xs, xs)
    poly_obs = _poly_cov_matrix(xs, xs, 0, 0, taus)
    noise = noise_sd**2 * np.eye(n)

    # the targets stack one block of predict_x per derivative, in derivs order
    kw_cross, poly_cross, kw_pred, poly_pred = _target_cov(
        kern_unit, xs, [(x, q) for q in derivs for x in predict_x], taus
    )

    def obs_cov(sig2: float) -> np.ndarray:
        return poly_obs + sig2 * kw_obs + noise

    def log_post(theta):
        sigma = float(np.exp(theta[0]))
        chol = _factor(obs_cov(sigma**2))
        alpha = linalg.cho_solve(chol, ys)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        loglik = -0.5 * ys @ alpha - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
        return float(loglik + sigma_prior.log_pdf(sigma) + theta[0]), (chol, alpha)

    theta0 = np.array([np.log(sigma_prior.median)])
    grid = adapt_quadrature(log_post, theta0, num_quad)

    sigmas = np.exp(grid.points[:, 0])
    weights = grid.weights
    counts = np.random.default_rng([seed, 3]).multinomial(num_samples, weights)
    if num_samples > 0:
        kw_joint = np.block([
            [kern_unit.cov_matrix(predict_x, predict_x, qi, qj) for qj in derivs]
            for qi in derivs
        ])
        poly_joint = np.block([
            [_poly_cov_matrix(predict_x, predict_x, qi, qj, taus) for qj in derivs]
            for qi in derivs
        ])

    mean = np.zeros(kw_cross.shape[0])
    second = np.zeros(kw_cross.shape[0])
    draws = np.empty((num_samples, kw_cross.shape[0]))
    cns = np.empty(sigmas.size)
    row = 0
    for j, (sigma, (chol, alpha)) in enumerate(zip(sigmas, grid.states)):
        eigs = np.linalg.eigvalsh(obs_cov(sigma**2))
        cns[j] = np.inf if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        mj, half = _condition(chol, alpha, poly_cross + sigma**2 * kw_cross)
        vj = np.maximum(poly_pred + sigma**2 * kw_pred - np.sum(half**2, axis=0), 0.0)
        mean += weights[j] * mj
        second += weights[j] * (vj + mj**2)
        if counts[j] == 0:
            continue
        post_cov = poly_joint + sigma**2 * kw_joint - half.T @ half
        # the subtraction cancels prior-scale terms, leaving symmetric noise
        # well above the smallest true eigenvalues; escalate a diagonal
        # jitter until the factorization goes through
        scale = max(float(np.mean(np.diag(post_cov))), np.finfo(float).tiny)
        lpost = None
        jitter = 1e-10
        while jitter <= 1e-2:
            try:
                lpost = np.linalg.cholesky(
                    post_cov + jitter * scale * np.eye(post_cov.shape[0])
                )
                break
            except np.linalg.LinAlgError:
                jitter *= 100.0
        if lpost is None:
            raise NumericError(
                "joint predictive covariance failed to factorize "
                f"(n={xs.size}, sigma={sigma:.3g})"
            )
        z = np.random.default_rng([seed, 4, j]).standard_normal((counts[j], post_cov.shape[0]))
        draws[row : row + counts[j]] = mj + z @ lpost.T
        row += counts[j]
    sd = np.sqrt(np.maximum(second - mean**2, 0.0))

    blocks = {q: slice(i * npred, (i + 1) * npred) for i, q in enumerate(derivs)}
    return ExactHierarchicalFit(
        order=order,
        xs=predict_x,
        derivs=derivs,
        sigma_grid=sigmas,
        weights=weights,
        log_marginal=grid.log_normconst,
        kappa_max=float(np.max(cns)),
        condition_numbers=cns,
        means={q: mean[b] for q, b in blocks.items()},
        sds={q: sd[b] for q, b in blocks.items()},
        sample_curves={q: draws[:, b] for q, b in blocks.items()} if num_samples > 0 else {},
    )
