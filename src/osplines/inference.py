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

import dataclasses
import math
from dataclasses import dataclass, field
from decimal import Decimal
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


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _prior_sds(sd, ncols: int, block: str) -> np.ndarray:
    """One positive prior SD per column; a single value is broadcast."""
    sd = np.atleast_1d(np.asarray(sd, dtype=float))
    sd = np.full(ncols, sd[0]) if sd.size == 1 else sd
    _require(sd.size == ncols, f"need one {block} prior SD per column of the {block} design")
    _require(bool(np.all(sd > 0)), "prior SDs must be positive")
    return _readonly(sd)


@dataclass(frozen=True, eq=False)
class LatentModel:
    """Response, likelihood family, design blocks and priors.

    Exactly one of ``sigma_prior``/``sigma_fixed`` must be given.  The
    Gaussian family needs a noise SD, either fixed (``family_hyper_fixed``)
    or on the quadrature grid (``family_hyper_prior``); the overdispersed
    Poisson family treats the overdispersion SD the same way.  A scalar prior
    SD is broadcast over its block.  Instances are frozen and hold read-only
    copies of their arrays, so what is derived from the data at construction
    (the stacked ``design``, which the blocks view, its column norms, the
    likelihood constant and, for the Gaussian family, the Gram matrix
    ``gram`` = design' design) stays valid.
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
    design: np.ndarray = field(init=False, repr=False)
    # X'X for the Gaussian family, whose likelihood curvature is constant; else None
    gram: Optional[np.ndarray] = field(init=False, repr=False)
    _col_norms: np.ndarray = field(init=False, repr=False)
    _lik_const: float = field(init=False, repr=False)
    # the theta layout: (slot in split_theta's pair, name, prior) per free hyperparameter
    _free_hypers: tuple = field(init=False, repr=False)

    n_obs = property(lambda self: self.response.size)
    n_spline = property(lambda self: self.spline_design.values.shape[1])
    n_poly = property(lambda self: self.poly_design.shape[1])
    n_fixed = property(lambda self: 0 if self.fixed_design is None else self.fixed_design.shape[1])
    latent_dim = property(lambda self: self.design.shape[1])
    theta_names = property(lambda self: tuple(name for _, name, _ in self._free_hypers))

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("response", _readonly(np.atleast_1d(self.response)))
        n = self.response.size
        _require(self.family in FAMILIES, f"unknown family '{self.family}'")
        blocks = [np.asarray(self.spline_design.values, dtype=float),
                  np.asarray(self.poly_design, dtype=float)]
        if self.fixed_design is not None:
            blocks.append(np.asarray(self.fixed_design, dtype=float))
        _require(all(b.shape[0] == n for b in blocks), "design block row count != n")
        put("weight_precision_diag", _readonly(self.weight_precision_diag))
        _require(
            self.weight_precision_diag.size == blocks[0].shape[1],
            "weight precision length != number of basis functions",
        )
        put("poly_prior_sd", _prior_sds(self.poly_prior_sd, blocks[1].shape[1], "polynomial"))
        put("fixed_prior_sd", None if self.fixed_design is None
            else _prior_sds(self.fixed_prior_sd, blocks[2].shape[1], "fixed-effect"))
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

        if self.family == "poisson_od":
            blocks.append(np.eye(n))
        design = np.hstack(blocks)
        design.setflags(write=False)
        put("design", design)
        k, p = blocks[0].shape[1], blocks[1].shape[1]
        put("spline_design", dataclasses.replace(self.spline_design, values=design[:, :k]))
        put("poly_design", design[:, k : k + p])
        if self.fixed_design is not None:
            put("fixed_design", design[:, k + p : k + p + blocks[2].shape[1]])
        gaussian = self.family == "gaussian"
        if gaussian:
            gram = design.T @ design
            gram.setflags(write=False)
            col = np.sqrt(np.diag(gram))
        else:
            gram, col = None, np.linalg.norm(design, axis=0)
        put("gram", gram)
        put("_col_norms", _readonly(np.where(col > 0.0, col, 1.0)))
        put("_lik_const", -0.5 * n * math.log(2.0 * math.pi) if gaussian
            else -float(np.sum(gammaln(self.response + 1.0))))
        slots = ((0, "log_sigma", self.sigma_prior),
                 (1, "log_kappa" if gaussian else "log_phi", self.family_hyper_prior))
        put("_free_hypers", tuple(s for s in slots if s[2] is not None))

    # -- hyperparameter bookkeeping -------------------------------------

    def _theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        _require(theta.size == len(self._free_hypers),
                 f"theta has {theta.size} entries, expected {len(self._free_hypers)}")
        return theta

    def split_theta(self, theta) -> tuple[float, Optional[float]]:
        """Return (sigma, family hyperparameter) for a point on the log grid."""
        values = [self.sigma_fixed, self.family_hyper_fixed]
        for (slot, _, _), t in zip(self._free_hypers, self._theta(theta)):
            values[slot] = float(np.exp(t))
        return float(values[0]), values[1]

    def theta_start(self) -> np.ndarray:
        return np.array([math.log(prior.median) for _, _, prior in self._free_hypers])

    def log_hyperprior(self, theta) -> float:
        """Log prior density of the free hyperparameters on the log scale."""
        return float(sum(prior.log_pdf(float(np.exp(t))) + t
                         for (_, _, prior), t in zip(self._free_hypers, self._theta(theta))))

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
    """d log-lik / d eta (length n) and the negative second derivative
    (length n; a scalar for the Gaussian family, where it is constant)."""
    y = model.response
    if model.family == "gaussian":
        kappa2 = hyper**2
        return (y - eta) / kappa2, 1.0 / kappa2
    rate = np.exp(eta)
    return y - rate, rate


def _log_prior_lik(model: LatentModel, latent, qdiag, hyper) -> float:
    """Gaussian prior (precision diagonal ``qdiag``) plus likelihood at ``latent``."""
    lp = 0.5 * float(np.sum(np.log(qdiag))) - 0.5 * float(latent @ (qdiag * latent))
    lp -= 0.5 * model.latent_dim * math.log(2.0 * math.pi)
    return lp + _log_lik(model, model.design @ latent, hyper)


def log_joint(model: LatentModel, latent, theta=()) -> float:
    """log pi(latent, theta, y): Gaussian prior + likelihood + hyperpriors."""
    latent = np.asarray(latent, dtype=float)
    _require(latent.size == model.latent_dim,
             f"latent has {latent.size} entries, expected {model.latent_dim}")
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    return _log_prior_lik(model, latent, qdiag, hyper) + model.log_hyperprior(theta)


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


_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100


def newton_mode(model: LatentModel, theta=(), init=None) -> GaussianApprox:
    """Maximize the log joint over the latent field at fixed hyperparameters.

    Newton steps with step halving; the Gaussian family converges in a single
    step from any start.  The iteration runs in coordinates ws = w * col (col
    the design's column norms), which keeps the gradient's floating-point
    evaluation floor below the convergence threshold even when covariate
    powers span many orders of magnitude.  Each iterate assembles and factors
    the negative Hessian once, then tests the gradient norm against
    ``_NEWTON_TOL * (1 + |log joint|)``, raising :class:`IterationError`
    after ``_NEWTON_MAX_ITER`` iterations.  The Gaussian family's curvature
    is the constant 1/kappa^2, so its Hessian scales the Gram matrix, O(k^2),
    rather than forming X' C X, O(n k^2).  The gradient and the log joint
    still go through the residuals y - X w at O(n k): expanding them through
    X'X and X'y would cancel catastrophically when the response sits far from
    zero.  The returned precision (diagonal prior precision plus
    design-weighted likelihood curvature), Cholesky factor and log-determinant
    are the last factorization rescaled to original coordinates.
    """
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    log_hyper = model.log_hyperprior(theta)
    X, col = model.design, model._col_norms
    colcol = np.outer(col, col)
    qdiag_s = qdiag / col**2

    def score(ws):
        try:
            return _log_prior_lik(model, ws / col, qdiag, hyper) + log_hyper
        except NumericError:
            return -math.inf

    _require(init is None or np.size(init) == model.latent_dim, "init has wrong length")
    ws = np.zeros(model.latent_dim) if init is None else np.asarray(init, dtype=float) * col
    lj = score(ws)
    if not np.isfinite(lj):  # non-finite or overflowing start
        ws = np.zeros(model.latent_dim)
        lj = score(ws)

    iterations = 0
    while True:
        u, curv = _lik_grad_curv(model, X @ (ws / col), hyper)
        grad = (X.T @ u) / col - qdiag_s * ws
        if model.gram is None:
            hess = (X.T * curv) @ X / colcol
        else:  # constant curvature: scale the Gram matrix
            hess = model.gram * (curv / colcol)
        hess[np.diag_indices_from(hess)] += qdiag_s
        try:
            chol = linalg.cho_factor(hess, lower=True)
        except linalg.LinAlgError:
            raise NumericError("indefinite negative Hessian during Newton iteration")
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= _NEWTON_TOL * (1.0 + abs(lj)):
            break
        if iterations == _NEWTON_MAX_ITER:
            raise IterationError(
                f"Newton did not converge in {_NEWTON_MAX_ITER} iterations; "
                f"last |grad|={grad_norm:.3e}"
            )
        step = linalg.cho_solve(chol, grad)
        slack = 1e-12 * (1.0 + abs(lj))
        # a step predicted to gain less than the slack is below what the log
        # joint resolves (its terms may cancel to near zero), so it is taken whole
        whole = 0.5 * float(grad @ step) <= slack
        scale = 1.0
        for _ in range(50):
            ws_new = ws + scale * step
            lj_new = score(ws_new)
            if lj_new > lj - slack or (whole and np.isfinite(lj_new)):
                break
            scale *= 0.5
        else:
            raise IterationError(f"line search failed at |grad|={grad_norm:.3e}")
        ws, lj = ws_new, lj_new
        iterations += 1

    chol_s = np.tril(chol[0])
    return GaussianApprox(
        mode=ws / col,
        precision=hess * colcol,
        chol=col[:, None] * chol_s,
        log_det=2.0 * float(np.sum(np.log(np.diag(chol_s))) + np.sum(np.log(col))),
        log_joint_at_mode=lj,
        grad_norm=grad_norm,
        iterations=iterations,
    )


def laplace_log_marginal(model: LatentModel, theta=(), approx=None) -> float:
    """log of the Laplace-approximated marginal of (theta, y).

    Equals log joint at the mode plus dim/2 * log(2 pi) minus half the
    log-determinant of the negative Hessian; exact (not approximate) for the
    Gaussian family.
    """
    if approx is None:
        approx = newton_mode(model, theta)
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
    theta_points: np.ndarray
    weights: np.ndarray
    approxes: list
    log_marginal: float
    samples: np.ndarray
    sample_point_index: np.ndarray
    seed: int

    @property
    def basis(self) -> Optional[OSplineBasis]:
        return self.model.basis

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([self.model.split_theta(t)[0] for t in self.theta_points])

    @property
    def family_hypers(self) -> np.ndarray:
        # a model without a family hyperparameter gives None, stored as NaN
        return np.array([self.model.split_theta(t)[1] for t in self.theta_points], dtype=float)


def aghq_fit(
    model: LatentModel,
    num_quad: int = 10,
    num_samples: int = 3000,
    seed: int = 0,
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
        theta_points=points,
        weights=weights,
        approxes=approxes,
        log_marginal=log_marg,
        samples=samples,
        sample_point_index=point_index,
        seed=seed,
    )


def _require_order(fit: PosteriorFit, q: int) -> None:
    _require(fit.basis is not None, "fit carries no basis metadata for curve evaluation")
    p = fit.basis.order
    _require(0 <= q <= p, f"derivative order {q} exceeds basis order {p}")


def _curve_design(fit: PosteriorFit, xs, q: int) -> np.ndarray:
    p = fit.basis.order
    phi = design_matrix(fit.basis, xs, q).values
    poly = polynomial_design(xs, p, q)
    return np.hstack([phi, poly])


# rows summarized at a time: the sorted copy stays at 32 x samples
_SUMMARY_ROWS = 32


def _interval_probs(level: float) -> tuple[float, float]:
    """Tail probabilities of a central ``level`` interval, computed in
    decimal and rounded once: 0.95 gives exactly 0.025 and 0.975, where
    0.5 * (1 - 0.95) is 0.025000000000000022 and would pick the next order
    statistic up whenever S * 0.025 is an integer."""
    tail = (1 - Decimal(str(float(level)))) / 2
    return float(tail), float(1 - tail)


def _row_summaries(rows: np.ndarray, lower_prob: float, upper_prob: float):
    """Mean, SD (ddof=1) and two order-statistic quantiles of each row.

    The quantiles are exactly ``np.quantile(..., method="inverted_cdf")``:
    the order statistics at 0-based index ceil(S * prob - 1), S the row
    length, read from a row-wise sort.  Rows are visited in small blocks, so
    the temporaries stay at the size of one block.
    """
    m, s = rows.shape
    lo, hi = (max(math.ceil(s * prob - 1.0), 0) for prob in (lower_prob, upper_prob))
    mean, sd, lower, upper = (np.empty(m) for _ in range(4))
    for start in range(0, m, _SUMMARY_ROWS):
        block = rows[start : start + _SUMMARY_ROWS]
        at = slice(start, start + block.shape[0])
        mean[at] = block.mean(axis=1)
        sd[at] = block.std(axis=1, ddof=1)
        ordered = np.sort(block, axis=1)
        lower[at], upper[at] = ordered[:, lo], ordered[:, hi]
    return mean, sd, lower, upper


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
    per sample.  Arguments are checked before any curve is evaluated.  The
    paths are formed with one contiguous row per x and summarized in small
    row blocks; interval endpoints are the exact inverted-CDF order
    statistics at the decimal tails of ``level`` (0.025 and 0.975 for 0.95),
    so a monotone transform of the samples maps intervals exactly.
    ``samples`` (samples x len(xs)) is a transposed view of those rows.
    """
    _require(transform in (None, "exp"), "transform must be None or 'exp'")
    _require(transform is None or q in (0, 1),
             "exp transform is defined for derivative orders 0 and 1")
    _require(0.0 < level < 1.0, "level must lie in (0, 1)")
    _require(fit.samples.shape[0] > 0, "fit holds no posterior samples")
    _require_order(fit, q)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    coefs = fit.samples[:, : fit.model.n_spline + fit.model.n_poly]
    paths = _curve_design(fit, xs, q) @ coefs.T
    if transform == "exp":
        if q == 0:
            paths = np.exp(paths)
        else:
            paths *= np.exp(_curve_design(fit, xs, 0) @ coefs.T)
    mean, sd, lower, upper = _row_summaries(paths, *_interval_probs(level))
    return PosteriorCurve(
        xs=xs,
        derivative_order=q,
        transform=transform,
        mean=mean,
        sd=sd,
        lower=lower,
        upper=upper,
        samples=paths.T,
        level=level,
    )


def posterior_moments(fit: PosteriorFit, xs, q: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean/SD of g^(q) under the fitted Gaussian mixture (no sampling)."""
    _require_order(fit, q)
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
    return LatentModel(
        response=y,
        family=family,
        spline_design=design_matrix(basis, x, 0),
        poly_design=polynomial_design(x, basis.order, 0),
        weight_precision_diag=basis.knot_set.spacings,
        poly_prior_sd=DEFAULT_POLY_PRIOR_SD if poly_prior_sd is None else poly_prior_sd,
        sigma_prior=sigma_prior,
        sigma_fixed=sigma_fixed,
        fixed_design=fixed_design,
        fixed_prior_sd=fixed_prior_sd,
        family_hyper_prior=family_hyper_prior,
        family_hyper_fixed=family_hyper_fixed,
        basis=basis,
    )
