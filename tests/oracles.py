"""Independent numeric oracles used by the tests.

These deliberately avoid the closed-form code paths they certify: basis
functions are rebuilt by numerically integrating the raw test-function
indicator or summed column by column in their right-continuation form,
joint densities are re-summed scalar by scalar, and marginal
likelihoods are integrated with dense quadrature over the full latent space.
The dense exact-process posterior is conditioned point by point and order by
order, as the comparator once did, so its consolidated path has a reference.
The Gaussian mode is solved from a Jacobi-scaled likelihood Hessian
assembled from the design's rows, a fit is rebuilt from Newton solves at its
own grid points, and the Gaussian marginal is also solved in 50-digit
arithmetic, where neither the Newton nor the spectral path's rounding
reaches.  The overdispersed
family's observation effects, which the library eliminates by Schur
complement, are written out here as an explicit identity block of the
design, and its Newton mode is found by the dense loop over that design
that the library once ran; the extreme eigenvalues of its precision, which
the library reads by Lanczos on that structure, are taken from the formed
matrix in 50-digit arithmetic.  Curves are
summarized sample-major with ``np.quantile``, as the fitter once did.  The
quadrature's mode is found by Nelder-Mead and its curvature by a separate
finite-difference Hessian, as ``adapt_quadrature`` once did.  Single basis
functions and knot-cell indicators are evaluated one value at a time, and
covariances are integrated repeatedly by adaptive quadrature, as references
for the closed-form basis and kernels.  The predictive SD of the prior is
checked against Gaussian conditioning of the exact covariance in 60-digit
arithmetic.
"""

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable

import mpmath
import numpy as np
from scipy import integrate, linalg, optimize
from scipy.special import gammaln, logsumexp, ndtr, ndtri

from osplines import exact, inference
from osplines.aghq import AdaptedGrid
from osplines.basis import (
    _FACT,
    KnotSet,
    OSplineBasis,
    _basis_columns,
    design_matrix,
    polynomial_design,
)
from osplines.errors import NumericError, _require
from osplines.exact import IWPKernel, _poly_cov_matrix
from osplines.inference import (
    GaussianApprox,
    LatentModel,
    PosteriorCurve,
    newton_mode,
)


def test_function_eval(knot_set: KnotSet, i: int, x: float) -> float:
    """Indicator of the right-closed knot cell (s_{i-1}, s_i]; ``i`` is 1-based."""
    _require(1 <= i <= knot_set.size, f"basis index {i} outside 1..{knot_set.size}")
    lo = knot_set.lower_knots[i - 1]
    hi = knot_set.knots[i - 1]
    return 1.0 if (x > lo) and (x <= hi) else 0.0


def basis_eval(basis: OSplineBasis, i: int, x: float, q: int = 0) -> float:
    """q-th derivative of basis function ``i`` (1-based) at ``x``.

    For ``q = p`` this is the underlying test function (right-closed at
    knot points).  ``x`` must not lie left of the region start.
    """
    p = basis.order
    ks = basis.knot_set
    _require(1 <= i <= ks.size, f"basis index {i} outside 1..{ks.size}")
    _require(0 <= q <= p, f"derivative order {q} exceeds basis order {p}")
    _require(x >= ks.region_start, f"location {x} left of region start {ks.region_start}")
    return float(_basis_columns(basis, np.array([x], dtype=float), q)[0, i - 1])


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

    This is deliberately independent of the closed-form kernels in
    ``osplines.exact`` and serves as their oracle.
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


def _wp_cov_mp(p: int, s, t, q1: int, q2: int):
    """High-precision variant of ``exact._wp_cov_terms`` (scalar, mpmath)."""
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


def psd_conditional_check(kernel: IWPKernel, x: float, h: float, dps: int = 60) -> float:
    """Conditional SD of g(x+h) given g(x), g'(x), ..., g^(p-1)(x), numerically.

    Computed by Gaussian conditioning of the exact joint covariance.  The
    Schur complement cancels catastrophically in double precision when
    h << x (the conditional variance can sit fifteen orders below the
    marginal one), so the conditioning runs in extended precision; the
    mathematics is plain Gaussian conditioning either way.  This is the
    independent oracle for ``prior.sigma_to_psd`` and its location invariance.
    """
    _require(x >= 0, "x must be >= 0")
    _require(h > 0, "h must be positive")
    p = kernel.order
    with mpmath.workdps(dps):
        s11 = _wp_cov_mp(p, x + h, x + h, 0, 0)
        if x == 0.0:
            # every conditioning variable is almost surely zero at the origin
            cond_var = s11
        else:
            s22 = mpmath.matrix(p, p)
            s12 = mpmath.matrix(p, 1)
            for i in range(p):
                s12[i] = _wp_cov_mp(p, x + h, x, 0, i)
                for j in range(i, p):
                    s22[i, j] = s22[j, i] = _wp_cov_mp(p, x, x, i, j)
            try:
                sol = mpmath.lu_solve(s22, s12)
            except Exception as err:
                raise NumericError(f"singular conditioning matrix at x={x}: {err}")
            cond_var = s11 - sum(s12[i] * sol[i] for i in range(p))
        if cond_var < 0:
            raise NumericError(f"negative conditional variance {cond_var} at x={x}, h={h}")
        return kernel.sigma * float(mpmath.sqrt(cond_var))


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


def basis_columns_sum_form(basis: OSplineBasis, xs, q: int) -> np.ndarray:
    """(n, k) q-th basis derivatives, column by column: (x - s_{i-1})^m / m!
    inside the cell and the right-continuation sum
    sum_{j=1..m} d_i^j (x - s_i)^{m-j} / (j! (m-j)!) beyond it, m = p - q."""
    p_eff = basis.order - q
    x = np.asarray(xs, dtype=float)
    ks = basis.knot_set
    cols = np.zeros((x.size, ks.size))
    for j, (lo, hi, d) in enumerate(zip(ks.lower_knots, ks.knots, ks.spacings)):
        mid = (x > lo) & (x <= hi)
        if p_eff == 0:
            cols[mid, j] = 1.0
            continue
        cols[mid, j] = (x[mid] - lo) ** p_eff / _FACT[p_eff]
        right = x > hi
        z = x[right] - hi
        acc = np.zeros_like(z)
        for m in range(1, p_eff + 1):
            acc += d**m * z ** (p_eff - m) / (_FACT[m] * _FACT[p_eff - m])
        cols[right, j] = acc
    return cols


def full_design(model: LatentModel) -> np.ndarray:
    """The design over the whole latent vector: [X | I] for the overdispersed
    family, whose observation effects enter the linear predictor one per
    row, and X otherwise."""
    if model.family == "poisson_od":
        return np.hstack([model.design, np.eye(model.n_obs)])
    return model.design


def newton_mode_dense(model: LatentModel, theta=(), init=None) -> GaussianApprox:
    """Newton's mode by the dense loop over :func:`full_design`.

    Every iterate forms g = X_f' u - q w and H = X_f' diag(curv) X_f + diag(q)
    over the full latent vector, (n_coef + n)^2 for the overdispersed family,
    factors H and solves for the step; the stopping rule, line search, slack
    and whole-step rule are the library's.
    """
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    log_hyper = model.log_hyperprior(theta)
    X = full_design(model)

    def score(w):
        lp = 0.5 * float(np.sum(np.log(qdiag))) - 0.5 * float(w @ (qdiag * w))
        lp -= 0.5 * w.size * math.log(2.0 * math.pi)
        try:
            return lp + inference._log_lik(model, X @ w, hyper) + log_hyper
        except NumericError:
            return -math.inf

    w = np.zeros(X.shape[1]) if init is None else np.array(init, dtype=float)
    lj = score(w)
    if not np.isfinite(lj):
        w = np.zeros(X.shape[1])
        lj = score(w)
    iterations = 0
    while True:
        u, curv = inference._lik_grad_curv(model, X @ w, hyper)
        grad = X.T @ u - qdiag * w
        hess = (X.T * curv) @ X + np.diag(qdiag)
        chol = linalg.cho_factor(hess, lower=True)
        step = linalg.cho_solve(chol, grad)
        gain = 0.5 * float(grad @ step)
        if gain <= inference._NEWTON_TOL:
            break
        assert iterations < inference._NEWTON_MAX_ITER, gain
        slack = 1e-12 * (1.0 + abs(lj))
        whole = gain <= slack
        scale = 1.0
        for _ in range(50):
            w_new = w + scale * step
            lj_new = score(w_new)
            if lj_new > lj - slack or (whole and np.isfinite(lj_new)):
                break
            scale *= 0.5
        else:
            raise AssertionError(f"line search failed at predicted gain {gain:.3e}")
        w, lj = w_new, lj_new
        iterations += 1
    lower = np.tril(chol[0])
    return GaussianApprox(
        mode=w, log_det=2.0 * float(np.sum(np.log(np.diag(lower)))),
        log_joint_at_mode=lj, predicted_gain=gain, iterations=iterations,
        cov_scale=np.ones(w.size),
        # the first n_coef rows of L^-T: the coefficients' marginal covariance
        form_cov_basis=lambda: inference._covariance_basis(lower)[: model.n_coef],
        form_precision=lambda: hess,
    )


def precision_extremes_mp(model: LatentModel, mode, theta=(), dps: int = 50):
    """(lambda_min, lambda_max) of the negative Hessian at ``mode`` over
    :func:`full_design`, by ``mpmath.eigsy`` in ``dps``-digit arithmetic.

    The design, prior precisions and the curvature exp(eta) (1/kappa^2 for
    the Gaussian family) are taken as doubles, which mpmath represents
    exactly; H = X_f' diag(curv) X_f + diag(q) is then assembled and
    eigensolved in ``dps`` digits, so no step of it is rounded to double.
    Meant for latent dimensions of a few dozen.
    """
    mode = np.asarray(mode, dtype=float)
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    X = full_design(model)
    n, size = X.shape
    curv = np.full(n, 1.0 / hyper**2) if model.family == "gaussian" else np.exp(X @ mode)
    with mpmath.workdps(dps):
        Xm = mpmath.matrix(X.tolist())
        c = [mpmath.mpf(float(v)) for v in curv]
        H = mpmath.matrix(size, size)
        for i in range(size):
            for j in range(i + 1):
                H[i, j] = H[j, i] = mpmath.fsum(Xm[r, i] * c[r] * Xm[r, j] for r in range(n))
            H[i, i] += mpmath.mpf(float(qdiag[i]))
        eigs = mpmath.eigsy(H, eigvals_only=True)
        return float(min(eigs)), float(max(eigs))


def log_joint_scalar(model: LatentModel, latent, theta=()) -> float:
    """Slow scalar-by-scalar re-implementation of the log joint density."""
    latent = np.asarray(latent, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    X = full_design(model)

    total = 0.0
    for wi, qi in zip(latent, qdiag):
        total += 0.5 * math.log(qi) - 0.5 * qi * wi * wi - 0.5 * math.log(2.0 * math.pi)

    for row in range(model.n_obs):
        eta_i = 0.0
        for j in range(model.latent_dim):
            eta_i += X[row, j] * latent[j]
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
    eta = W @ full_design(model).T
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
    original coordinates over :func:`full_design`, with its ``slogdet`` and
    the log joint there."""
    from osplines.inference import log_joint

    sigma, hyper = model.split_theta(theta)
    X = full_design(model)
    if model.family == "gaussian":
        curv = np.full(model.n_obs, 1.0 / hyper**2)
    else:
        curv = np.exp(X @ mode)
    H = np.diag(model.prior_precision_diag(sigma, hyper)) + X.T @ np.diag(curv) @ X
    sign, logdet = np.linalg.slogdet(H)
    assert sign > 0
    return H, logdet, log_joint(model, mode, theta)


def newton_predicted_gain(model: LatentModel, mode, theta=()) -> float:
    """Newton's predicted gain g' H^-1 g / 2 at ``mode``, with the gradient
    g = X'(dlog-lik/deta) - q w formed from the rows of :func:`full_design`
    and H from :func:`laplace_terms_in_original_coordinates`."""
    mode = np.asarray(mode, dtype=float)
    sigma, hyper = model.split_theta(theta)
    X, y = full_design(model), model.response
    eta = X @ mode
    dlik = (y - eta) / hyper**2 if model.family == "gaussian" else y - np.exp(eta)
    grad = X.T @ dlik - model.prior_precision_diag(sigma, hyper) * mode
    H, _, _ = laplace_terms_in_original_coordinates(model, mode, theta)
    return 0.5 * float(grad @ np.linalg.solve(H, grad))


def newton_oracle(fit, grid):
    """The fit rebuilt from ``newton_mode`` at its own grid points: values,
    approximations, weights (with the grid's own adjustment) and the fit."""
    values, approxes = [], []
    for theta in fit.theta_points:
        ref = newton_mode(fit.model, theta)
        values.append(inference.laplace_log_marginal(fit.model, theta, ref))
        approxes.append(ref)
    values = np.array(values)
    return values, dataclasses.replace(fit, approxes=approxes, weights=grid_weights(values, grid))


def grid_weights(values, grid) -> np.ndarray:
    """Normalized weights of log posterior ``values`` at ``grid``'s points."""
    log_unnorm = values + grid.log_adjust
    return np.exp(log_unnorm - logsumexp(log_unnorm))


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


def curve_design(fit, xs, q=0) -> np.ndarray:
    """The dense len(xs) x (k + p) design of g^(q): basis and monomial columns."""
    p = fit.basis.order
    return np.hstack([design_matrix(fit.basis, xs, q).values, polynomial_design(xs, p, q)])


def posterior_function_reference(fit, xs, q=0, transform=None, level=0.95) -> PosteriorCurve:
    """Sampled curve summaries formed sample-major: paths as samples x len(xs),
    summarized down the columns by ``np.quantile`` (inverted CDF), ``mean``
    and ``std``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ncoef = fit.model.n_spline + fit.model.n_poly
    coefs = fit.samples[:, :ncoef]
    paths = coefs @ curve_design(fit, xs, q).T
    if transform == "exp":
        if q == 0:
            paths = np.exp(paths)
        else:
            base = coefs @ curve_design(fit, xs, 0).T
            paths = paths * np.exp(base)
    # the decimal tails of the level, rounded once (0.025/0.975 for 0.95)
    tail = (1 - Fraction(str(level))) / 2
    lower, upper = np.quantile(paths, [float(tail), float(1 - tail)], axis=0,
                               method="inverted_cdf")
    return PosteriorCurve(
        xs=xs, derivative_order=q, transform=transform,
        mean=paths.mean(axis=0), sd=paths.std(axis=0, ddof=1),
        lower=lower, upper=upper, level=level, form_samples=partial(np.asarray, paths),
    )


def curve_paths_longdouble(fit, xs, q=0) -> np.ndarray:
    """samples x len(xs) paths g^(q) of the fit's draws, summed in extended
    precision (``np.longdouble``) over :func:`curve_design_longdouble`."""
    coefs = fit.samples[:, : fit.basis.size + fit.basis.order].astype(np.longdouble)
    return coefs @ curve_design_longdouble(fit, xs, q).T


def mixture_moments_longdouble(fit, xs, q=0):
    """Mixture mean and SD of g^(q): each grid point's mean and variance in
    doubles, as ``posterior_moments`` forms them (from the per-cell states),
    combined in extended precision (``np.longdouble``) in the centred form
    sqrt(sum_j w_j (v_j + (mu_j - mean)^2)).  At a curve ~1e6 from zero the
    per-point means round by ~1e-10, 1e-8 of the SD, so only the same
    per-point moments can referee the combination to 1e-10."""
    mus, var = point_moments(fit, xs, q)
    w = fit.weights.astype(np.longdouble)
    mean = mus.astype(np.longdouble) @ w
    dev = mus.astype(np.longdouble) - mean[:, None]
    sd = np.sqrt((var.astype(np.longdouble) + dev * dev) @ w)
    return mean, sd


def point_moments(fit, xs, q=0):
    """(len(xs), G) per-grid-point means and variances of g^(q), as the
    library forms them for ``posterior_moments``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    blocks = list(inference._point_moments(fit, xs, q))
    return (np.vstack([mu for _, mu, _ in blocks]), np.vstack([var for _, _, var in blocks]))


def curve_design_longdouble(fit, xs, q=0) -> np.ndarray:
    """The truncated-power and monomial design of g^(q) in extended
    precision (``np.longdouble``), formed from the double knots and xs."""
    basis = fit.basis
    p, ks = basis.order, basis.knot_set
    m = p - q
    x = np.asarray(xs, dtype=np.longdouble)[:, None]
    lower = ks.lower_knots.astype(np.longdouble)
    upper = ks.knots.astype(np.longdouble)
    if m == 0:
        phi = ((x > lower) & (x <= upper)).astype(np.longdouble)
    else:
        phi = (np.maximum(x - lower, 0) ** m - np.maximum(x - upper, 0) ** m) / math.factorial(m)
    poly = np.zeros((x.shape[0], p), dtype=np.longdouble)
    for l in range(q, p):
        poly[:, l] = math.factorial(l) // math.factorial(l - q) * x[:, 0] ** (l - q)
    return np.hstack([phi, poly])


def point_moments_longdouble(fit, xs, q=0):
    """(len(xs), G) per-grid-point means and variances of g^(q) in extended
    precision: the extended-precision design times each point's double mode,
    and the squares of its product with the double ``cov_basis`` over
    ``cov_scale``."""
    design = curve_design_longdouble(fit, xs, q)
    c = design.shape[1]
    mus = design @ np.column_stack([a.mode[:c] for a in fit.approxes]).astype(np.longdouble)
    var = np.column_stack([
        np.square(design @ a.cov_basis[:c].astype(np.longdouble))
        @ (1 / a.cov_scale.astype(np.longdouble))
        for a in fit.approxes])
    return mus, var


def posterior_moments_dense(fit, xs, q=0):
    """Mixture mean and SD of g^(q) from the dense design X: each point's
    X mode and (X B)^2 (1/s), with B its ``cov_basis`` and s its
    ``cov_scale``, combined in doubles in the centred form."""
    design = curve_design(fit, np.atleast_1d(np.asarray(xs, dtype=float)), q)
    c = design.shape[1]
    mus = design @ np.column_stack([a.mode[:c] for a in fit.approxes])
    var = np.column_stack([np.square(design @ a.cov_basis[:c]) @ (1.0 / a.cov_scale)
                           for a in fit.approxes])
    mean = mus @ fit.weights
    return mean, np.sqrt((var + np.square(mus - mean[:, None])) @ fit.weights)


def mixture_cdf_longdouble(mus, var, weights, t):
    """sum_j w_j Phi((t - mu_j) / sd_j) for each row, summed in extended
    precision; Phi itself is scipy's ``ndtr`` in doubles."""
    u = (np.asarray(t, dtype=np.longdouble)[:, None] - mus) / np.sqrt(np.asarray(var, np.longdouble))
    return ndtr(u.astype(float)).astype(np.longdouble) @ np.asarray(weights, dtype=np.longdouble)


def mixture_quantiles_longdouble(mus, var, weights, prob, steps=200):
    """The ``prob`` quantile of each row's Gaussian mixture, by bisection of
    :func:`mixture_cdf_longdouble` in extended precision over a bracket of
    40 SDs about the per-point means."""
    mus = np.asarray(mus, dtype=np.longdouble)
    sd = np.sqrt(np.asarray(var, dtype=np.longdouble))
    lo, hi = np.min(mus - 40 * sd, axis=1), np.max(mus + 40 * sd, axis=1)
    for _ in range(steps):
        mid = (lo + hi) / 2
        below = mixture_cdf_longdouble(mus, var, weights, mid) < prob
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


def mixture_quantile_per_x(mu, sd, weights, tail, start, scale):
    """The mixture-CDF root each x once solved on its own, kept as the
    reference for the Chebyshev-started bounds: safeguarded Newton from
    ``start`` within the bracket of the points' own quantiles, stopping at
    4 eps of ``tail`` in F, at 4 eps of |t| + ``scale`` in the step, or at
    an unbisected step within 1e-8 ``scale``."""
    own = mu + sd * ndtri(tail)
    lo, hi = own.min(axis=1), own.max(axis=1)
    t = np.clip(start, lo, hi)
    sd = np.maximum(sd, np.finfo(float).tiny)
    eps = 4.0 * np.finfo(float).eps
    active = np.flatnonzero(lo < hi)
    for _ in range(100):
        if active.size == 0:
            return t
        now = t[active]
        u = (now[:, None] - mu[active]) / sd[active]
        gap = ndtr(u) @ weights - tail
        slope = (np.exp(-0.5 * u * u) / sd[active]) @ weights * (1.0 / math.sqrt(2.0 * math.pi))
        low, high = lo[active], hi[active]
        low[gap < 0] = now[gap < 0]
        high[gap > 0] = now[gap > 0]
        lo[active], hi[active] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = now - gap / slope
        outside = ~((nxt >= low) & (nxt <= high))
        nxt[outside] = 0.5 * (low[outside] + high[outside])
        close = np.abs(gap) <= eps * tail
        nxt[close] = now[close]
        t[active] = nxt
        step = np.abs(nxt - now)
        settled = step <= eps * (np.abs(nxt) + scale[active])
        settled |= ~outside & (step <= 1e-8 * scale[active])
        active = active[~(close | settled)]
    raise AssertionError("the per-x mixture quantile did not converge")


def posterior_bounds_per_x(fit, xs, q=0, level=0.95):
    """(lower, upper) of ``posterior_function`` as every x once solved them:
    :func:`mixture_quantile_per_x` from the moment-matched start, over the
    library's own per-point moments."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    tail = inference._interval_probs(level)[0]
    z = ndtri(tail)
    lower, upper = np.empty(xs.size), np.empty(xs.size)
    for at, mu, var in inference._point_moments(fit, xs, q):
        mean, sd = inference._mixture_moments(mu, var, fit.weights)
        spread = np.sqrt(var)
        lower[at] = mixture_quantile_per_x(mu, spread, fit.weights, tail, mean + sd * z, sd)
        upper[at] = -mixture_quantile_per_x(-mu, spread, fit.weights, tail, sd * z - mean, sd)
    return lower, upper


def pencil_from_design(model: LatentModel) -> "inference.GaussianPencil":
    """``GaussianPencil.from_model`` as it read the data through the dense
    design X: its Choleskys, eigendecomposition, reference steps and
    residuals run on X itself, O(n k^2), the reference for the per-cell
    statistics."""
    X, y, k = model.design, model.response, model.n_spline
    sigma0, kappa0 = model.split_theta(model.theta_start())
    b = model.prior_precision_diag(1.0, kappa0)
    lik_hess = (X.T * (1.0 / kappa0**2)) @ X
    chol1 = linalg.cholesky(lik_hess + np.diag(b), lower=True)
    V = linalg.solve_triangular(chol1, np.eye(b.size), lower=True).T
    xv = X @ V
    va = xv.T @ xv / kappa0**2 + V[k:].T @ (b[k:, None] * V[k:])
    vb = V[:k].T @ (b[:k, None] * V[:k])
    chol2 = linalg.cholesky(va + vb, lower=True)
    inv2 = linalg.solve_triangular(chol2, np.eye(b.size), lower=True)
    lam, U = np.linalg.eigh(inv2 @ vb @ inv2.T)
    W = V @ (inv2.T @ U)
    q0, s0 = model.prior_precision_diag(sigma0, kappa0), sigma0**-2
    ref = np.zeros_like(b)
    for _ in range(2):
        grad = X.T @ (y - X @ ref) / kappa0**2 - q0 * ref
        ref = ref + W @ ((W.T @ grad) / (1.0 + (s0 - 1.0) * lam))
    resid, bw = y - X @ ref, b * ref
    return inference.GaussianPencil(
        model=model, ref=ref, W=W, lam=lam, M=W[k:].T * np.sqrt(b[k:]),
        gx=W.T @ (X.T @ resid) / kappa0**2, f=W[:k].T @ bw[:k], gp=W[k:].T @ bw[k:],
        kappa0=kappa0, lik_hess=lik_hess,
        log_det_c=2.0 * float(np.sum(np.log(np.diag(chol1))) + np.sum(np.log(np.diag(chol2)))),
        rss=float(resid @ resid),
    )


def design_products_longdouble(model: LatentModel, pairs, shift=0.0):
    """Entries (i, j) in ``pairs`` of X'X, the diagonal of X'X, X'y and
    ||y||^2, of the dense design and the response less ``shift`` (taken
    in doubles, as the library takes it), summed in extended precision
    (``np.longdouble``) column by column: a full extended-precision X'X
    has no BLAS and takes minutes at k = 1000."""
    X = model.design.astype(np.longdouble)
    y = (model.response - shift).astype(np.longdouble)
    rows, cols = pairs
    return ((X[:, rows] * X[:, cols]).sum(axis=0), (X * X).sum(axis=0),
            (X * y[:, None]).sum(axis=0), y @ y)


def gaussian_marginal_exact(model: LatentModel, theta=()) -> float:
    """Analytic Gaussian-family marginal: N(y; 0, X Sigma X' + kappa^2 I).

    Its range is small, well-conditioned models.  It factors the n x n
    covariance in double precision, which the polynomial block's prior
    variance (1000 on columns up to x^3/6) makes ill-conditioned: on the
    mixture-study shape (n = 100, k = 100, order 3) it stands 2.4e-8,
    4.9e-8 and 1.1e-7 relative from :func:`gaussian_log_marginal_mp` at
    log sigma = -3, 0 and 2.5, so it cannot referee at 1e-8 there, and at
    n = 1e4 it needs an 800 MB matrix.  Use :func:`gaussian_log_marginal_mp`
    as the referee on such shapes.
    """
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


def gaussian_log_marginal_mp(model: LatentModel, theta=(), dps: int = 50) -> float:
    """:func:`gaussian_marginal_exact` solved in ``dps``-digit arithmetic.

    The covariance is sigma^2 X_s D^-1 X_s' + X_p T X_p' + kappa^2 I, with
    D the spline weights' precision at sigma = 1 and T the prior variances
    of the polynomial and fixed-effect blocks.  The design, response, prior
    precisions, sigma and kappa are taken as the doubles the model holds,
    which mpmath represents exactly, so the only rounding left is that of
    the ``dps``-digit arithmetic (sigma^2 scales D^-1 exactly, where
    ``prior_precision_diag`` rounds D / sigma^2 to doubles).  Both theta-free products are formed once
    per model (:func:`_mp_covariance_parts`); each call then assembles the
    lower triangle of the n x n covariance as lists of rows and factors it
    row by row with ``mpmath.fdot``, O(n^3) in Python arithmetic, so this is
    meant for n up to about a hundred.
    """
    sigma, kappa = model.split_theta(theta)
    spline, rest = _mp_covariance_parts(model, dps)
    with mpmath.workdps(dps):
        s2, k2 = mpmath.mpf(sigma) ** 2, mpmath.mpf(kappa) ** 2
        chol = []  # rows of the lower Cholesky factor (Cholesky-Banachiewicz)
        for i, (spline_row, rest_row) in enumerate(zip(spline, rest)):
            row = []
            for j in range(i):
                dot = mpmath.fdot(row, chol[j][:j])
                row.append((s2 * spline_row[j] + rest_row[j] - dot) / chol[j][j])
            row.append(mpmath.sqrt(s2 * spline_row[i] + rest_row[i] + k2 - mpmath.fdot(row, row)))
            chol.append(row)
        half = []  # L^-1 y by forward substitution
        for row, y in zip(chol, model.response.tolist()):
            half.append((y - mpmath.fdot(row[:-1], half)) / row[-1])
        log_det = 2 * mpmath.fsum(mpmath.log(row[-1]) for row in chol)
        quad = mpmath.fdot(half, half)
        val = -(model.n_obs * mpmath.log(2 * mpmath.pi) + log_det + quad) / 2
        return float(val + model.log_hyperprior(theta))


def _mp_covariance_parts(model: LatentModel, dps: int):
    """Lower triangles of X_s D^-1 X_s' and X_p T X_p' in ``dps`` digits.

    Kept on the model itself, which holds read-only arrays, so the cache
    lives and dies with the model.
    """
    cache = model.__dict__.setdefault("_mp_covariance_parts", {})
    if dps not in cache:
        k = model.n_spline
        with mpmath.workdps(dps):
            var = [1 / mpmath.mpf(float(q)) for q in model.prior_precision_diag(1.0, None)]

            def gram(block, block_var):  # lower triangle of block diag(block_var) block'
                x = [[mpmath.mpf(v) for v in row] for row in block.tolist()]
                xv = [[a * b for a, b in zip(row, block_var)] for row in x]
                return [[mpmath.fdot(xv[i], xj) for xj in x[: i + 1]] for i in range(len(x))]

            X = model.design
            cache[dps] = gram(X[:, :k], var[:k]), gram(X[:, k:], var[k:])
    return cache[dps]


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


def exact_mixture_moments_longdouble(order, xs, ys, noise_sd, poly_prior_sd, predict_x, derivs,
                                     sigma_grid, weights):
    """Mixture means and SDs of ``exact_hierarchical_fit``: each sigma's
    per-point moments in doubles, formed by the comparator's own steps,
    combined in extended precision (``np.longdouble``) in the centred form.
    Returns two dicts keyed by derivative order."""
    xs, ys, taus = exact._checked_data(order, xs, ys, noise_sd, poly_prior_sd)
    predict_x = np.asarray(predict_x, dtype=float)
    kern = IWPKernel(order, 1.0)
    kw_obs, poly_obs = kern.cov_matrix(xs, xs), _poly_cov_matrix(xs, xs, 0, 0, taus)
    kw_cross, poly_cross, kw_pred, poly_pred = exact._target_cov(
        kern, xs, [(x, q) for q in derivs for x in predict_x], taus)
    mus, var = [], []
    for sigma in sigma_grid:
        chol = exact._factor(poly_obs + sigma**2 * kw_obs + noise_sd**2 * np.eye(xs.size))
        mj, half = exact._condition(chol, linalg.cho_solve(chol, ys),
                                    poly_cross + sigma**2 * kw_cross)
        mus.append(mj)
        var.append(np.maximum(poly_pred + sigma**2 * kw_pred - np.sum(half**2, axis=0), 0.0))
    w = np.asarray(weights, dtype=np.longdouble)
    mus, var = np.array(mus, dtype=np.longdouble), np.array(var, dtype=np.longdouble)
    mean = w @ mus
    sd = np.sqrt(w @ (var + (mus - mean) ** 2))
    blocks = {q: slice(i * predict_x.size, (i + 1) * predict_x.size) for i, q in enumerate(derivs)}
    return {q: mean[b] for q, b in blocks.items()}, {q: sd[b] for q, b in blocks.items()}


def fd_hessian(fun, x, step=1e-3):
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


def adapt_quadrature_nelder_mead(log_post, theta0, num_quad: int) -> AdaptedGrid:
    """``adapt_quadrature`` with the mode from Nelder-Mead and the curvature
    from a separate finite-difference Hessian at that mode.

    The search must converge within 2000 evaluations; the grid is built as
    in the library, with states kept at the grid points.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    d = theta0.size
    memo = {}

    def neg(th):
        key = tuple(np.asarray(th, dtype=float).tolist())
        if key not in memo:
            memo[key] = log_post(np.asarray(th, dtype=float))[0]
        return -memo[key]

    res = optimize.minimize(
        neg, theta0, method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000, "maxfev": 2000},
    )
    assert res.success, res.message
    mode = np.atleast_1d(res.x.astype(float))
    neg_hess = fd_hessian(neg, mode)
    chol_cov = np.linalg.inv(np.linalg.cholesky(neg_hess)).T

    nodes, base_w = np.polynomial.hermite.hermgauss(num_quad)
    z_grid = np.array(list(itertools.product(range(num_quad), repeat=d)), dtype=int)
    z = nodes[z_grid]
    log_adjust = (
        np.log(base_w)[z_grid].sum(axis=1) + (z**2).sum(axis=1) + 0.5 * d * np.log(2.0)
        + np.sum(np.log(np.abs(np.diag(chol_cov))))
    )
    points = mode + np.sqrt(2.0) * z @ chol_cov.T
    values, states = zip(*(log_post(pt) for pt in points))
    values = np.array(values)
    log_normconst = float(logsumexp(values + log_adjust))
    return AdaptedGrid(
        mode=mode, neg_hessian=neg_hess, chol_cov=chol_cov, points=points,
        log_post_values=values, log_adjust=log_adjust,
        weights=np.exp(values + log_adjust - log_normconst),
        log_normconst=log_normconst, states=list(states),
    )
