"""Latent Gaussian model fitting for spline-smoothed regression.

The latent vector stacks the spline weights w, the polynomial coefficients
gamma, optional fixed effects beta and (for overdispersed counts) one
observation-level effect per data point.  Its prior precision is diagonal:
d_i / sigma^2 on the weights, 1/tau_l^2 on the polynomial block, and so on.
The linear predictor is eta = Phi w + P gamma + V beta (+ eps).

Fitting follows the usual route for such models: Newton mode finding with
step halving at fixed hyperparameters, a Laplace-approximated hyperparameter
marginal (exact for the Gaussian family), adaptive Gauss-Hermite quadrature
over the log-transformed hyperparameters, and posterior sampling from the
resulting Gaussian mixture.  Hyperparameters live on the log scale
internally with the exact Jacobian applied to their exponential priors.

Fits record their seed; per-quadrature-point sampling streams are derived
deterministically from the point index, so results do not depend on how the
work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import linalg
from scipy.special import gammaln

from .aghq import adapt_quadrature
from .basis import DesignBlock, OSplineBasis, design_matrix, polynomial_design
from .errors import IterationError, NumericError, _require
from .prior import ExponentialPrior

FAMILIES = ("gaussian", "poisson", "poisson_od")

DEFAULT_POLY_PRIOR_SD = math.sqrt(1000.0)


@dataclass
class LatentModel:
    """Response, likelihood family, design blocks and priors.

    Exactly one of ``sigma_prior``/``sigma_fixed`` must be given.  The
    Gaussian family needs a noise SD, either fixed (``family_hyper_fixed``)
    or on the quadrature grid (``family_hyper_prior``); the overdispersed
    Poisson family treats the overdispersion SD the same way.  Instances are
    treated as immutable after construction.
    """

    response: np.ndarray
    family: str
    spline_design: DesignBlock
    poly_design: np.ndarray
    weight_precision_diag: np.ndarray
    poly_prior_sd: np.ndarray
    sigma_prior: Optional[ExponentialPrior] = None
    sigma_fixed: Optional[float] = None
    fixed_design: Optional[np.ndarray] = None
    fixed_prior_sd: Optional[np.ndarray] = None
    family_hyper_prior: Optional[ExponentialPrior] = None
    family_hyper_fixed: Optional[float] = None
    basis: Optional[OSplineBasis] = None

    def __post_init__(self):
        self.response = np.atleast_1d(np.asarray(self.response, dtype=float))
        n = self.response.size
        _require(self.family in FAMILIES, f"unknown family '{self.family}'")
        _require(self.spline_design.values.shape[0] == n, "spline design row count != n")
        self.poly_design = np.asarray(self.poly_design, dtype=float)
        _require(self.poly_design.shape[0] == n, "polynomial design row count != n")
        self.weight_precision_diag = np.asarray(self.weight_precision_diag, dtype=float)
        _require(
            self.weight_precision_diag.size == self.spline_design.values.shape[1],
            "weight precision length != number of basis functions",
        )
        self.poly_prior_sd = np.atleast_1d(np.asarray(self.poly_prior_sd, dtype=float))
        _require(self.poly_prior_sd.size == self.poly_design.shape[1],
                 "need one polynomial prior SD per column of the polynomial design")
        _require(bool(np.all(self.poly_prior_sd > 0)), "prior SDs must be positive")
        if self.fixed_design is not None:
            self.fixed_design = np.asarray(self.fixed_design, dtype=float)
            _require(self.fixed_design.shape[0] == n, "fixed-effect design row count != n")
            self.fixed_prior_sd = np.atleast_1d(np.asarray(self.fixed_prior_sd, dtype=float))
            _require(self.fixed_prior_sd.size == self.fixed_design.shape[1],
                     "need one prior SD per fixed-effect column")
            _require(bool(np.all(self.fixed_prior_sd > 0)), "prior SDs must be positive")
        _require(
            (self.sigma_prior is None) != (self.sigma_fixed is None),
            "exactly one of sigma_prior / sigma_fixed is required",
        )
        if self.sigma_fixed is not None:
            _require(self.sigma_fixed > 0, "sigma_fixed must be positive")
        if self.family in ("gaussian", "poisson_od"):
            _require(
                (self.family_hyper_prior is None) != (self.family_hyper_fixed is None),
                f"family '{self.family}' needs exactly one of family_hyper_prior / family_hyper_fixed",
            )
            if self.family_hyper_fixed is not None:
                _require(self.family_hyper_fixed > 0, "family hyperparameter must be positive")
        else:
            _require(
                self.family_hyper_prior is None and self.family_hyper_fixed is None,
                "plain Poisson has no family hyperparameter",
            )

        blocks = [self.spline_design.values, self.poly_design]
        if self.fixed_design is not None:
            blocks.append(self.fixed_design)
        if self.family == "poisson_od":
            blocks.append(np.eye(n))
        self._X = np.hstack(blocks)
        self.n_obs = n
        self.n_spline = self.spline_design.values.shape[1]
        self.n_poly = self.poly_design.shape[1]
        self.n_fixed = 0 if self.fixed_design is None else self.fixed_design.shape[1]
        self.latent_dim = self._X.shape[1]
        if self.family == "gaussian":
            self._lik_const = -0.5 * n * math.log(2.0 * math.pi)
        else:
            self._lik_const = -float(np.sum(gammaln(self.response + 1.0)))

        names = []
        if self.sigma_prior is not None:
            names.append("log_sigma")
        if self.family_hyper_prior is not None:
            names.append("log_kappa" if self.family == "gaussian" else "log_phi")
        self.theta_names = tuple(names)

    # -- hyperparameter bookkeeping -------------------------------------

    def split_theta(self, theta) -> tuple[float, Optional[float]]:
        """Return (sigma, family hyperparameter) for a point on the log grid."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        _require(theta.size == len(self.theta_names),
                 f"theta has {theta.size} entries, expected {len(self.theta_names)}")
        pos = 0
        if self.sigma_prior is not None:
            sigma = float(np.exp(theta[pos]))
            pos += 1
        else:
            sigma = float(self.sigma_fixed)
        if self.family_hyper_prior is not None:
            hyper = float(np.exp(theta[pos]))
        else:
            hyper = self.family_hyper_fixed
        return sigma, hyper

    def theta_start(self) -> np.ndarray:
        starts = []
        if self.sigma_prior is not None:
            starts.append(math.log(self.sigma_prior.median))
        if self.family_hyper_prior is not None:
            starts.append(math.log(self.family_hyper_prior.median))
        return np.asarray(starts)

    def prior_precision_diag(self, sigma: float, hyper: Optional[float]) -> np.ndarray:
        parts = [self.weight_precision_diag / sigma**2, 1.0 / self.poly_prior_sd**2]
        if self.fixed_design is not None:
            parts.append(1.0 / self.fixed_prior_sd**2)
        if self.family == "poisson_od":
            parts.append(np.full(self.n_obs, 1.0 / hyper**2))
        return np.concatenate(parts)


# ---------------------------------------------------------------------------
# joint density, gradients, curvature
# ---------------------------------------------------------------------------


def _log_lik(model: LatentModel, eta: np.ndarray, hyper: Optional[float]) -> float:
    y = model.response
    if model.family == "gaussian":
        kappa = hyper
        return float(
            -0.5 * np.sum(((y - eta) / kappa) ** 2)
            - y.size * math.log(kappa)
            + model._lik_const
        )
    with np.errstate(over="ignore"):
        rate = np.exp(eta)
    if not np.all(np.isfinite(rate)):
        i = int(np.argmax(~np.isfinite(rate)))
        raise NumericError(f"Poisson rate overflow at observation {i} (eta={eta[i]:.3g})")
    return float(np.sum(y * eta - rate) + model._lik_const)


def _lik_grad_curv(model: LatentModel, eta: np.ndarray, hyper: Optional[float]):
    """d log-lik / d eta and the negative second derivative (both length n)."""
    y = model.response
    if model.family == "gaussian":
        kappa2 = hyper**2
        return (y - eta) / kappa2, np.full(y.size, 1.0 / kappa2)
    rate = np.exp(eta)
    return y - rate, rate


def log_joint(model: LatentModel, latent, theta=()) -> float:
    """log pi(latent, theta, y): Gaussian prior + likelihood + hyperpriors."""
    latent = np.asarray(latent, dtype=float)
    _require(latent.size == model.latent_dim,
             f"latent has {latent.size} entries, expected {model.latent_dim}")
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    lp = 0.5 * float(np.sum(np.log(qdiag))) - 0.5 * float(latent @ (qdiag * latent))
    lp -= 0.5 * model.latent_dim * math.log(2.0 * math.pi)
    eta = model._X @ latent
    lp += _log_lik(model, eta, hyper)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    pos = 0
    if model.sigma_prior is not None:
        lp += model.sigma_prior.log_pdf(sigma) + theta[pos]
        pos += 1
    if model.family_hyper_prior is not None:
        lp += model.family_hyper_prior.log_pdf(hyper) + theta[pos]
    return float(lp)


@dataclass
class GaussianApprox:
    """Gaussian approximation at the conditional mode of the latent field."""

    mode: np.ndarray
    precision: np.ndarray
    chol: np.ndarray
    log_det: float
    log_joint_at_mode: float
    grad_norm: float
    iterations: int


def _safe_log_joint(model, latent, theta) -> float:
    try:
        return log_joint(model, latent, theta)
    except NumericError:
        return -math.inf


def newton_mode(
    model: LatentModel,
    theta=(),
    init=None,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> GaussianApprox:
    """Maximize the log joint over the latent field at fixed hyperparameters.

    Newton steps with step halving; the Gaussian family converges in a single
    step from any start.  The iteration runs on a column-equilibrated copy of
    the design (unit-norm columns), which keeps the gradient's floating-point
    evaluation floor below the convergence threshold even when covariate
    powers span many orders of magnitude; convergence is declared when the
    equilibrated gradient norm drops to ``tol * (1 + |log joint|)``.  The
    returned mode and negative Hessian (diagonal prior precision plus
    design-weighted likelihood curvature) are in original coordinates.
    """
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    X = model._X
    col = np.sqrt(np.sum(X**2, axis=0))
    col[col == 0.0] = 1.0
    Xs = X / col
    qdiag_s = qdiag / col**2

    w = (
        np.zeros(model.latent_dim)
        if init is None
        else np.array(init, dtype=float, copy=True)
    )
    _require(w.size == model.latent_dim, "init has wrong length")
    if not np.all(np.isfinite(w)):
        w = np.zeros(model.latent_dim)
    ws = w * col
    lj = _safe_log_joint(model, ws / col, theta)
    if not np.isfinite(lj):
        ws = np.zeros(model.latent_dim)
        lj = log_joint(model, ws, theta)

    def assemble(wvec):
        eta = Xs @ wvec
        u, curv = _lik_grad_curv(model, eta, hyper)
        grad = -qdiag_s * wvec + Xs.T @ u
        hess = (Xs.T * curv) @ Xs
        hess[np.diag_indices_from(hess)] += qdiag_s
        return grad, hess

    grad, hess = assemble(ws)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.linalg.norm(grad) <= tol * (1.0 + abs(lj)):
            iterations -= 1
            break
        try:
            chol = linalg.cho_factor(hess, lower=True)
        except linalg.LinAlgError:
            raise NumericError("indefinite negative Hessian during Newton iteration")
        step = linalg.cho_solve(chol, grad)
        scale = 1.0
        for _ in range(50):
            ws_new = ws + scale * step
            lj_new = _safe_log_joint(model, ws_new / col, theta)
            if lj_new > lj - 1e-12 * (1.0 + abs(lj)):
                break
            scale *= 0.5
        else:
            raise IterationError(
                f"line search failed at |grad|={np.linalg.norm(grad):.3e}"
            )
        ws, lj = ws_new, lj_new
        grad, hess = assemble(ws)
    else:
        raise IterationError(
            f"Newton did not converge in {max_iter} iterations; "
            f"last |grad|={np.linalg.norm(grad):.3e}"
        )

    w = ws / col
    eta = X @ w
    u, curv = _lik_grad_curv(model, eta, hyper)
    hess = (X.T * curv) @ X
    hess[np.diag_indices_from(hess)] += qdiag
    try:
        chol = linalg.cho_factor(hess, lower=True)
    except linalg.LinAlgError:
        raise NumericError("negative Hessian not positive definite at the mode")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    return GaussianApprox(
        mode=w,
        precision=hess,
        chol=np.tril(chol[0]),
        log_det=log_det,
        log_joint_at_mode=lj,
        grad_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
    )


def laplace_log_marginal(model: LatentModel, theta=(), init=None, approx=None) -> float:
    """log of the Laplace-approximated marginal of (theta, y).

    Equals log joint at the mode plus dim/2 * log(2 pi) minus half the
    log-determinant of the negative Hessian; exact (not approximate) for the
    Gaussian family.
    """
    if approx is None:
        approx = newton_mode(model, theta, init=init)
    return float(
        approx.log_joint_at_mode
        + 0.5 * model.latent_dim * math.log(2.0 * math.pi)
        - 0.5 * approx.log_det
    )


# ---------------------------------------------------------------------------
# quadrature fit and posterior summaries
# ---------------------------------------------------------------------------


@dataclass
class PosteriorFit:
    """Quadrature grid, per-point Gaussian approximations and latent draws."""

    model: LatentModel
    basis: Optional[OSplineBasis]
    theta_points: np.ndarray
    weights: np.ndarray
    approxes: list
    log_marginal: float
    samples: np.ndarray
    sample_point_index: np.ndarray
    seed: int

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([self.model.split_theta(t)[0] for t in self.theta_points])

    @property
    def family_hypers(self) -> np.ndarray:
        return np.array(
            [
                np.nan if (h := self.model.split_theta(t)[1]) is None else h
                for t in self.theta_points
            ]
        )


def aghq_fit(
    model: LatentModel,
    num_quad: int = 10,
    num_samples: int = 3000,
    seed: int = 0,
    basis: Optional[OSplineBasis] = None,
) -> PosteriorFit:
    """Adaptive-quadrature fit of the hyperparameter and latent posteriors.

    With ``num_quad = 1`` this reduces to empirical Bayes at the Laplace-MAP
    hyperparameters; an even ``num_quad`` simply yields a grid without the
    mode point.  When all hyperparameters are fixed the grid degenerates to
    that single configuration.  ``num_samples`` latent draws are allocated
    to grid points proportionally to their weights.
    """
    _require(num_quad >= 1, "num_quad must be >= 1")
    _require(num_samples >= 0, "num_samples must be >= 0")
    _require(len(model.theta_names) <= 2, "at most two free hyperparameters are supported")
    if basis is None:
        basis = model.basis

    warm = None

    def log_post(theta):
        # warm-started from the last mode: neighbouring thetas share most of it
        nonlocal warm
        approx = newton_mode(model, theta, init=warm)
        warm = approx.mode
        return laplace_log_marginal(model, theta, approx=approx), approx

    if len(model.theta_names) == 0:
        log_marg, approx = log_post(())
        points = np.zeros((1, 0))
        weights = np.ones(1)
        approxes = [approx]
    else:
        grid = adapt_quadrature(log_post, model.theta_start(), num_quad)
        points = grid.points
        weights = grid.weights
        approxes = grid.states
        log_marg = grid.log_normconst

    counts = np.random.default_rng([seed, 1]).multinomial(num_samples, weights)
    samples = np.empty((num_samples, model.latent_dim))
    point_index = np.repeat(np.arange(len(weights)), counts)
    row = 0
    for j, cnt in enumerate(counts):
        if cnt == 0:
            continue
        child = np.random.default_rng([seed, 2, j])
        z = child.standard_normal((model.latent_dim, cnt))
        # precision = L L^T  =>  draws = mode + L^{-T} z
        dev = linalg.solve_triangular(approxes[j].chol, z, lower=True, trans="T")
        samples[row : row + cnt] = approxes[j].mode + dev.T
        row += cnt

    return PosteriorFit(
        model=model,
        basis=basis,
        theta_points=points,
        weights=weights,
        approxes=approxes,
        log_marginal=log_marg,
        samples=samples,
        sample_point_index=point_index,
        seed=seed,
    )


def _curve_design(fit: PosteriorFit, xs, q: int) -> np.ndarray:
    _require(fit.basis is not None, "fit carries no basis metadata for curve evaluation")
    p = fit.basis.order
    _require(0 <= q <= p, f"derivative order {q} exceeds basis order {p}")
    phi = design_matrix(fit.basis, xs, q).values
    poly = polynomial_design(xs, p, q)
    return np.hstack([phi, poly])


@dataclass
class PosteriorCurve:
    """Pointwise posterior summary of the smooth (or a derivative) on a grid."""

    xs: np.ndarray
    derivative_order: int
    transform: Optional[str]
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    samples: np.ndarray
    level: float


def posterior_function(
    fit: PosteriorFit,
    xs,
    q: int = 0,
    transform: Optional[str] = None,
    level: float = 0.95,
) -> PosteriorCurve:
    """Evaluate stored latent samples as curves g^(q) on ``xs``.

    ``transform='exp'`` reports exp(g) for q = 0 and g' * exp(g) for q = 1,
    per sample.  Interval endpoints are order-statistic quantiles, so a
    monotone transform of the samples maps intervals exactly.
    """
    _require(transform in (None, "exp"), "transform must be None or 'exp'")
    _require(fit.samples.shape[0] > 0, "fit holds no posterior samples")
    _require(0.0 < level < 1.0, "level must lie in (0, 1)")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ncoef = fit.model.n_spline + fit.model.n_poly
    coefs = fit.samples[:, :ncoef]
    paths = coefs @ _curve_design(fit, xs, q).T
    if transform == "exp":
        _require(q in (0, 1), "exp transform is defined for derivative orders 0 and 1")
        if q == 0:
            paths = np.exp(paths)
        else:
            base = coefs @ _curve_design(fit, xs, 0).T
            paths = paths * np.exp(base)
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(paths, [tail, 1.0 - tail], axis=0, method="inverted_cdf")
    return PosteriorCurve(
        xs=xs,
        derivative_order=q,
        transform=transform,
        mean=paths.mean(axis=0),
        sd=paths.std(axis=0, ddof=1),
        lower=lower,
        upper=upper,
        samples=paths,
        level=level,
    )


def posterior_moments(fit: PosteriorFit, xs, q: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean/SD of g^(q) under the fitted Gaussian mixture (no sampling)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    design = _curve_design(fit, xs, q)
    ncoef = design.shape[1]
    full = np.zeros((xs.size, fit.model.latent_dim))
    full[:, :ncoef] = design
    mean = np.zeros(xs.size)
    second = np.zeros(xs.size)
    for wgt, approx in zip(fit.weights, fit.approxes):
        mu = full @ approx.mode
        half = linalg.solve_triangular(approx.chol, full.T, lower=True)
        var = np.sum(half**2, axis=0)
        mean += wgt * mu
        second += wgt * (var + mu**2)
    sd = np.sqrt(np.maximum(second - mean**2, 0.0))
    return mean, sd


def condition_number(approx: GaussianApprox) -> float:
    """Ratio of extreme singular values of the precision.

    The precision is symmetric positive definite, so its singular values are
    its eigenvalues; a symmetric eigensolve is used.
    """
    eigs = np.linalg.eigvalsh(approx.precision)
    if eigs[0] <= 0:
        return math.inf
    return float(eigs[-1] / eigs[0])


def max_condition_number(fit: PosteriorFit) -> float:
    """Largest latent-precision condition number across the quadrature grid."""
    return max(condition_number(a) for a in fit.approxes)


# ---------------------------------------------------------------------------
# model assembly helpers
# ---------------------------------------------------------------------------


def sum_coded_design(values: Sequence, levels: Optional[Sequence] = None):
    """Sum-to-zero coding for a categorical column.

    Returns an (n, L-1) matrix and the names of its columns.  The last level
    acts as the reference: its rows carry -1 in every column, so the implied
    reference effect is minus the sum of the coded ones.
    """
    values = list(values)
    if levels is None:
        levels = sorted(set(values))
    levels = list(levels)
    _require(len(levels) >= 2, "need at least two levels to code a categorical effect")
    _require(set(values) <= set(levels), "values contain a level missing from `levels`")
    ref = levels[-1]
    index = {lev: i for i, lev in enumerate(levels[:-1])}
    out = np.zeros((len(values), len(levels) - 1))
    for row, val in enumerate(values):
        if val == ref:
            out[row, :] = -1.0
        else:
            out[row, index[val]] = 1.0
    return out, [str(lev) for lev in levels[:-1]]


def build_model(
    x,
    y,
    basis: OSplineBasis,
    family: str,
    *,
    sigma_prior: Optional[ExponentialPrior] = None,
    sigma_fixed: Optional[float] = None,
    poly_prior_sd=None,
    fixed_design: Optional[np.ndarray] = None,
    fixed_prior_sd=None,
    family_hyper_prior: Optional[ExponentialPrior] = None,
    family_hyper_fixed: Optional[float] = None,
) -> LatentModel:
    """Assemble a :class:`LatentModel` from data and a basis."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = basis.order
    if poly_prior_sd is None:
        poly_prior_sd = np.full(p, DEFAULT_POLY_PRIOR_SD)
    poly_prior_sd = np.broadcast_to(np.asarray(poly_prior_sd, dtype=float), (p,)).copy()
    if fixed_design is not None and fixed_prior_sd is not None:
        fixed_prior_sd = np.broadcast_to(
            np.asarray(fixed_prior_sd, dtype=float), (np.asarray(fixed_design).shape[1],)
        ).copy()
    return LatentModel(
        response=np.asarray(y, dtype=float),
        family=family,
        spline_design=design_matrix(basis, x, 0),
        poly_design=polynomial_design(x, p, 0),
        weight_precision_diag=basis.knot_set.spacings,
        poly_prior_sd=poly_prior_sd,
        sigma_prior=sigma_prior,
        sigma_fixed=sigma_fixed,
        fixed_design=fixed_design,
        fixed_prior_sd=fixed_prior_sd,
        family_hyper_prior=family_hyper_prior,
        family_hyper_fixed=family_hyper_fixed,
        basis=basis,
    )
