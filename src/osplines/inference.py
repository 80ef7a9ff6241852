"""Latent Gaussian model fitting for spline-smoothed regression.

The latent vector stacks the coefficients a = (w, gamma, beta) -- spline
weights, polynomial coefficients and optional fixed effects -- and, for
overdispersed counts, one observation-level effect eps_i per data point.
Its prior precision is diagonal: d_i / sigma^2 on the weights, 1/tau_l^2 on
the polynomial block, and so on.  The linear predictor is
eta = Phi w + P gamma + V beta (+ eps).  The design stores only the
coefficient columns; eps enters eta one entry per row and is never stored as
an identity block.  Its diagonal prior and identity design make the negative
Hessian an arrow matrix, so Newton eliminates eps by Schur complement and
works with a k x k system whatever n is (Rue, Martino & Chopin 2009; Rue &
Held 2005, ch. 2).

Fitting follows the usual route for such models: Newton mode finding with
step halving at fixed hyperparameters, a Laplace-approximated hyperparameter
marginal (exact for the Gaussian family), adaptive Gauss-Hermite quadrature
over the log-transformed hyperparameters, and posterior sampling from the
resulting Gaussian mixture.  Curve summaries are read off that mixture
exactly, per cell of the O-spline's Taylor form; only g' e^g is summarized
from the draws.  Hyperparameters live on the log scale internally with the
exact Jacobian applied to their exponential priors.
Every Gaussian fit goes through :class:`GaussianPencil`, which reads the
data once, through one QR per knot cell, and diagonalizes the negative
Hessian once per fit: each (sigma, kappa) then
costs O(k) plus a rank-r correction off the start kappa instead of a Newton
solve (Wood 2011).  Newton serves the count families, whose Laplace
states carry exact theta-gradients for the hyperparameter search.

Fits record their seed; per-quadrature-point sampling streams are derived
deterministically from the point index, so results do not depend on how the
work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import linalg
from scipy.special import gammaln, ndtr, ndtri

from .aghq import adapt_quadrature
from .basis import (_FACT, OSplineBasis, _basis_columns, _locations, cell_offsets, design_matrix,
                    polynomial_design)
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
    """Response, likelihood family, locations ``x`` with their O-spline
    ``basis``, fixed effects and priors; built by :func:`build_model`.

    Exactly one of ``sigma_prior``/``sigma_fixed`` must be given.  The
    Gaussian family needs a noise SD, either fixed (``family_hyper_fixed``)
    or on the quadrature grid (``family_hyper_prior``); the overdispersed
    Poisson family treats the overdispersion SD the same way.  A scalar prior
    SD is broadcast over its block.  Instances are frozen and hold read-only
    copies of their arrays, so what is derived from them (the ``design`` and
    the likelihood constant) stays valid.

    ``design`` is [Phi | P | V], n x ``n_coef`` with ``n_coef`` = k + p +
    ``n_fixed``: the basis functions and the polynomials of order p at
    ``x``, then the fixed effects; the spline weights' prior precision is
    the knot spacings over sigma^2.  It is formed on first read, read-only,
    and kept: the count families' Newton reads it, while a Gaussian fit
    reads the data through per-cell statistics (:func:`_cell_statistics`)
    and never forms it.  For the overdispersed Poisson family the latent
    vector ends in the n observation effects eps, which enter the linear
    predictor X a + eps implicitly, so ``latent_dim`` is ``n_coef + n``
    there and ``n_coef`` otherwise.
    """

    response: np.ndarray
    family: str
    x: np.ndarray
    basis: OSplineBasis
    poly_prior_sd: np.ndarray
    sigma_prior: Optional[ExponentialPrior] = None
    sigma_fixed: Optional[float] = None
    fixed_design: Optional[np.ndarray] = None
    fixed_prior_sd: Optional[np.ndarray] = None
    family_hyper_prior: Optional[ExponentialPrior] = None
    family_hyper_fixed: Optional[float] = None
    # the knot spacings, read once: the prior precision is formed per theta
    _weight_precision: np.ndarray = field(init=False, repr=False)
    _lik_const: float = field(init=False, repr=False)
    # the theta layout: (slot in split_theta's pair, name, prior) per free hyperparameter
    _free_hypers: tuple = field(init=False, repr=False)

    n_obs = property(lambda self: self.response.size)
    n_spline = property(lambda self: self.basis.size)
    n_poly = property(lambda self: self.basis.order)
    n_fixed = property(lambda self: 0 if self.fixed_design is None else self.fixed_design.shape[1])
    n_coef = property(lambda self: self.n_spline + self.n_poly + self.n_fixed)
    latent_dim = property(
        lambda self: self.n_coef + (self.n_obs if self.family == "poisson_od" else 0)
    )
    theta_names = property(lambda self: tuple(name for _, name, _ in self._free_hypers))

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("response", _readonly(np.atleast_1d(self.response)))
        n = self.response.size
        _require(self.family in FAMILIES, f"unknown family '{self.family}'")
        finite, negative = np.isfinite(self.response), self.response < 0
        _require(finite.all(), f"non-finite response at observation {np.argmin(finite)}")
        _require(self.family == "gaussian" or not negative.any(),
                 f"negative count at observation {np.argmax(negative)}")
        put("x", _readonly(_locations(self.basis, self.x)))
        if self.fixed_design is not None:
            put("fixed_design", _readonly(self.fixed_design))
            _require(self.fixed_design.ndim == 2, "the fixed design must be a matrix")
        _require(self.x.size == n and (self.fixed_design is None or self.fixed_design.shape[0] == n),
                 "x, fixed design and response differ in length")
        put("poly_prior_sd", _prior_sds(self.poly_prior_sd, self.n_poly, "polynomial"))
        put("fixed_prior_sd", None if self.fixed_design is None
            else _prior_sds(self.fixed_prior_sd, self.n_fixed, "fixed-effect"))
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

        put("_weight_precision", _readonly(self.basis.knot_set.spacings))
        gaussian = self.family == "gaussian"
        put("_lik_const", -0.5 * n * math.log(2.0 * math.pi) if gaussian
            else -float(np.sum(gammaln(self.response + 1.0))))
        slots = ((0, "log_sigma", self.sigma_prior),
                 (1, "log_kappa" if gaussian else "log_phi", self.family_hyper_prior))
        put("_free_hypers", tuple(s for s in slots if s[2] is not None))

    @cached_property
    def design(self) -> np.ndarray:
        blocks = [design_matrix(self.basis, self.x, 0).values,
                  polynomial_design(self.x, self.n_poly, 0)]
        if self.fixed_design is not None:
            blocks.append(self.fixed_design)
        design = np.hstack(blocks)
        design.setflags(write=False)
        return design

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
        parts = [self._weight_precision / sigma**2, 1.0 / self.poly_prior_sd**2]
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


def _linear_predictor(model: LatentModel, latent) -> np.ndarray:
    """eta = X a, plus the observation effects eps for the overdispersed family."""
    m = model.n_coef
    eta = model.design @ latent[:m]
    return eta + latent[m:] if model.family == "poisson_od" else eta


def _log_prior(latent, qdiag) -> float:
    """Log density at ``latent`` of the Gaussian prior with precision diagonal ``qdiag``."""
    return (0.5 * float(np.sum(np.log(qdiag))) - 0.5 * float(latent @ (qdiag * latent))
            - 0.5 * latent.size * math.log(2.0 * math.pi))


def log_joint(model: LatentModel, latent, theta=()) -> float:
    """log pi(latent, theta, y): Gaussian prior + likelihood + hyperpriors."""
    latent = np.asarray(latent, dtype=float)
    _require(latent.size == model.latent_dim,
             f"latent has {latent.size} entries, expected {model.latent_dim}")
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    lp = _log_prior(latent, qdiag) + _log_lik(model, _linear_predictor(model, latent), hyper)
    return lp + model.log_hyperprior(theta)


def _arrow_precision(X: np.ndarray, curv: np.ndarray, qdiag: np.ndarray) -> np.ndarray:
    """The full negative Hessian over (a, eps) of the overdispersed family:
    [[X' C X, X' C], [C X, C]] + diag(q) with C = diag(curv); O((n + k)^2)
    memory."""
    xc = X.T * curv
    hess = np.block([[xc @ X, xc], [xc.T, np.diag(curv)]])
    hess[np.diag_indices_from(hess)] += qdiag
    return hess


def _cho_solve(chol, b) -> np.ndarray:
    """S^-1 b from ``cho_factor``'s (factor, lower) pair, by LAPACK's dpotrs
    directly: ``cho_solve``'s argument checks cost it four times as much at
    k ~ 50, and Newton and Lanczos solve many times per factor."""
    x, _ = linalg.lapack.dpotrs(chol[0], b, lower=chol[1])
    return x


def _arrow_solve(X: np.ndarray, curv: np.ndarray, d: np.ndarray, chol, b_coef, b_obs):
    """H^-1 (b_coef, b_obs) for the overdispersed family's arrow precision,
    with d = curv + 1/phi^2, through the Cholesky factor ``chol`` of its
    Schur complement S over eps (as ``cho_solve`` takes it): solve S x_a =
    b_a - X'(curv b_eps / d), then x_eps = (b_eps - curv X x_a) / d."""
    coef = _cho_solve(chol, b_coef - X.T @ (curv * b_obs / d))
    return coef, (b_obs - curv * (X @ coef)) / d


# Lanczos settings for the arrow precision's extreme eigenvalues.  ARPACK
# stops on the Ritz vector's residual, and directions (a, -X a) put a cluster
# of eigenvalues next to 1/phi^2 at the bottom of the spectrum whose members
# differ by 1e-10 to 1e-4 relative.  Separating them to a residual of 1e-6
# took up to 8500 matvecs on the large-covariate test model or did not
# converge at all; at 1e-5 it took at most ~1300.  The eigenvalue's error is
# second order in the residual where it is isolated (~1e-13 on small models)
# and within the cluster's width where it is not, below what a dense
# eigensolve resolves there (~1e-5 at cond ~1e13).  Ten Lanczos vectors
# converge without a restart on well-separated spectra, at about half the
# matvecs of ARPACK's default 20.
_LANCZOS_TOL = 1e-5
_LANCZOS_NCV = 10


def _arrow_extremes(X: np.ndarray, curv: np.ndarray, qdiag: np.ndarray, chol) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the overdispersed family's arrow precision
    H = [X | I]' C [X | I] + diag(q), C = diag(curv), by Lanczos without
    forming H.

    lambda_max comes from the matvec H v = [X | I]' C (X v_a + v_eps) + q v,
    O(n k); lambda_min is 1 / lambda_max(H^-1), with H^-1 applied by
    :func:`_arrow_solve` through ``chol``, the Cholesky factor of
    S = X' diag(c / (1 + phi^2 c)) X + diag(q_a) at the same mode,
    O(n k + k^2), the solve Newton takes its steps with.  The start vector
    is fixed, so reruns give the same bytes; ARPACK's default start is
    random.  Non-convergence raises :class:`NumericError`.
    """
    # imported here rather than at module level: scipy.sparse.linalg adds tens
    # of milliseconds and several MB to every import of osplines, and only
    # this path needs it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    m = X.shape[1]
    q_coef, q_obs = qdiag[:m], qdiag[m:]
    d = curv + q_obs

    def hess(v):
        v = np.ravel(v)
        ct = curv * (X @ v[:m] + v[m:])
        return np.concatenate([X.T @ ct + q_coef * v[:m], ct + q_obs * v[m:]])

    def hess_inv(v):
        v = np.ravel(v)
        return np.concatenate(_arrow_solve(X, curv, d, chol, v[:m], v[m:]))

    size = qdiag.size
    start = np.random.default_rng(0).standard_normal(size)
    tops = []
    for matvec in (hess, hess_inv):
        op = LinearOperator((size, size), matvec=matvec, dtype=float)
        try:
            top = eigsh(op, k=1, which="LA", v0=start, ncv=min(_LANCZOS_NCV, size),
                        tol=_LANCZOS_TOL, return_eigenvectors=False)
        except ArpackNoConvergence as err:
            raise NumericError(f"Lanczos did not converge on the arrow precision: {err}") from err
        tops.append(float(top[0]))
    return 1.0 / tops[1], tops[0]


@dataclass
class GaussianApprox:
    """Gaussian approximation at the conditional mode of the latent field.

    ``log_det`` is the log-determinant of ``precision``, the negative Hessian
    over the whole latent vector, and ``chol`` is its lower Cholesky factor.
    The coefficients a, the first ``n_coef`` entries of ``mode``, have the
    covariance B diag(1 / s) B' with B = ``cov_basis`` and s = ``cov_scale``:
    B = L^-T and s = 1 at a Newton mode, L L' the coefficients' marginal
    precision (the Schur complement S for the overdispersed family), and at
    a :class:`GaussianPencil` point B = W, s = D or B = W D^-1/2 F, s = 1.
    ``cov_basis`` and ``precision`` are formed on first read by their
    ``form_*`` callables, ``chol`` from ``precision``, and each is kept; for
    the overdispersed family nothing (n + k)^2 is formed before that read.
    ``extremes``, the precision's smallest and largest eigenvalues, comes
    from ``form_extremes`` where one is set (the overdispersed family's
    Lanczos on the arrow structure, which never forms ``precision``) and
    otherwise from the ends of a dense ``eigvalsh`` of ``precision``.

    At a count-family Newton mode the approximation also carries the
    theta-derivatives of the Laplace approximation, each formed on first
    read and kept: ``tangent`` (d x latent_dim), the mode's derivative
    along each free hyperparameter, and ``gradient``, that of
    :func:`laplace_log_marginal` (see :func:`laplace_gradient`).  Elsewhere
    both read None.
    """

    mode: np.ndarray
    log_det: float
    log_joint_at_mode: float
    predicted_gain: float  # g' H^-1 g / 2 at the mode, in nats
    iterations: int
    cov_scale: np.ndarray
    form_cov_basis: Callable[[], np.ndarray] = field(repr=False)
    form_precision: Callable[[], np.ndarray] = field(repr=False)
    form_extremes: Optional[Callable[[], tuple[float, float]]] = field(default=None, repr=False)
    form_tangent: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)
    # called with the tangent, which the gradient's mode-movement term reads
    form_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    @cached_property
    def cov_basis(self) -> np.ndarray:
        return self.form_cov_basis()

    @cached_property
    def tangent(self) -> Optional[np.ndarray]:
        return None if self.form_tangent is None else self.form_tangent()

    @cached_property
    def gradient(self) -> Optional[np.ndarray]:
        return None if self.form_gradient is None else self.form_gradient(self.tangent)

    @cached_property
    def precision(self) -> np.ndarray:
        return self.form_precision()

    @cached_property
    def chol(self) -> np.ndarray:
        return linalg.cholesky(self.precision, lower=True)

    @cached_property
    def extremes(self) -> tuple[float, float]:
        if self.form_extremes is not None:
            return self.form_extremes()
        eigs = np.linalg.eigvalsh(self.precision)
        return float(eigs[0]), float(eigs[-1])


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower Cholesky factor, whose positive diagonal makes it exist."""
    inv, _ = linalg.lapack.dtrtri(chol, lower=1)
    return inv


def _covariance_basis(chol: np.ndarray) -> np.ndarray:
    """L^-T for a precision L L': the covariance is L^-T L^-1."""
    return _lower_inverse(chol).T


_NEWTON_TOL = 1e-14  # nats of predicted gain
_NEWTON_MAX_ITER = 100


def newton_mode(model: LatentModel, theta=(), init=None) -> GaussianApprox:
    """Maximize the log joint over the latent field at fixed hyperparameters.

    Newton steps with step halving on the latent vector itself; the Gaussian
    family converges in a single step from any start.  Each iterate forms the
    gradient g = X'u - q a and the negative Hessian H = X' diag(curv) X +
    diag(q), factors H once and stops when the step's predicted gain
    g' H^-1 g / 2 (half the squared Newton decrement, which does not depend
    on the coordinates) is at most ``_NEWTON_TOL`` nats, or, after a step
    taken whole because its gain was below what the log joint resolves, is
    no smaller than that step's: the gradient's rounding then floors the
    gain (eps |y| / kappa^2 for a response far from zero), so further steps
    are rounding, not progress.  It raises :class:`IterationError` after
    ``_NEWTON_MAX_ITER`` iterations.  The
    linear predictor of the accepted point carries over to the next
    gradient.  Gaussian fits go through :class:`GaussianPencil`; Newton
    serves that family for direct calls and as the pencil's test reference.

    For the overdispersed Poisson family the latent vector is (a, eps) and H
    is the arrow matrix [[A, B], [B', D]] with A = X' C X + Q_a, B = X' C and
    D = diag(d), d = c + 1/phi^2, c = exp(eta).  Each iterate eliminates eps:
    it factors the Schur complement S = A - B D^-1 B' = X' diag(c / (1 +
    phi^2 c)) X + Q_a, solves S s_a = g_a - X'(c g_eps / d) and sets s_eps =
    (g_eps - c X s_a) / d, so an iterate costs O(n k^2) and log det H =
    sum log d + log det S.  The log-determinant and the covariance basis
    L^-T (of S for the overdispersed family) come from the last
    factorization; the precision is the last Hessian, or for the
    overdispersed family the full arrow matrix, formed when read; its
    extreme eigenvalues are read without forming it, by Lanczos on the arrow
    structure through that same factorization.  For the count families the
    approximation's ``tangent`` and ``gradient`` (see
    :func:`laplace_gradient`) come from that factorization too, each on
    first read.  Solves with the factor go to LAPACK's dpotrs directly.
    """
    sigma, hyper = model.split_theta(theta)
    qdiag = model.prior_precision_diag(sigma, hyper)
    log_hyper = model.log_hyperprior(theta)
    X, m = model.design, model.n_coef
    q_coef = qdiag[:m]
    overdispersed = model.family == "poisson_od"

    def score(w):
        eta = _linear_predictor(model, w)
        try:
            return _log_prior(w, qdiag) + _log_lik(model, eta, hyper) + log_hyper, eta
        except NumericError:
            return -math.inf, eta

    _require(init is None or np.size(init) == model.latent_dim, "init has wrong length")
    w = np.zeros(model.latent_dim) if init is None else np.array(init, dtype=float)
    lj, eta = score(w)
    if not np.isfinite(lj):  # non-finite or overflowing start
        w = np.zeros(model.latent_dim)
        lj, eta = score(w)

    iterations = 0
    floor = math.inf  # the last predicted gain, where that step was taken whole
    while True:
        u, curv = _lik_grad_curv(model, eta, hyper)
        grad = X.T @ u - q_coef * w[:m]
        # for the overdispersed family eps is eliminated: H is the Schur complement S
        hess = (X.T * (curv / (1.0 + hyper**2 * curv) if overdispersed else curv)) @ X
        hess[np.diag_indices_from(hess)] += q_coef
        try:
            chol = linalg.cho_factor(hess, lower=True, check_finite=False)
        except linalg.LinAlgError:
            raise NumericError("indefinite negative Hessian during Newton iteration")
        if overdispersed:  # the arrow system, solved through S
            grad_obs = u - qdiag[m:] * w[m:]
            d = curv + qdiag[m:]
            step_coef, step_obs = _arrow_solve(X, curv, d, chol, grad, grad_obs)
            gain = 0.5 * (float(grad @ step_coef) + float(grad_obs @ step_obs))
            step = np.concatenate([step_coef, step_obs])
        else:
            step = _cho_solve(chol, grad)
            gain = 0.5 * float(grad @ step)
        if gain <= _NEWTON_TOL or gain >= floor:
            break
        if iterations == _NEWTON_MAX_ITER:
            raise IterationError(
                f"Newton did not converge in {_NEWTON_MAX_ITER} iterations; "
                f"last predicted gain {gain:.3e}"
            )
        slack = 1e-12 * (1.0 + abs(lj))
        # a step predicted to gain less than the slack is below what the log
        # joint resolves (its terms may cancel to near zero), so it is taken whole
        whole = gain <= slack
        scale = 1.0
        for _ in range(50):
            w_new = w + scale * step
            lj_new, eta_new = score(w_new)
            if lj_new > lj - slack or (whole and np.isfinite(lj_new)):
                break
            scale *= 0.5
        else:
            raise IterationError(f"line search failed at predicted gain {gain:.3e}")
        w, lj, eta = w_new, lj_new, eta_new
        floor = gain if whole else math.inf
        iterations += 1

    lower = np.tril(chol[0])
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    form_extremes = form_tangent = form_gradient = None
    if overdispersed:
        log_det += float(np.sum(np.log(d)))
        form_precision = partial(_arrow_precision, X, curv, qdiag)
        form_extremes = partial(_arrow_extremes, X, curv, qdiag, (lower, True))
    else:
        form_precision = partial(np.asarray, hess)  # the last Hessian, already formed
    if model.family != "gaussian":
        form_tangent = partial(_mode_tangent, model, qdiag, w, curv, (lower, True))
        form_gradient = partial(_gradient_at_mode, model, theta, qdiag, w, curv, lower)
    return GaussianApprox(
        mode=w, log_det=log_det, log_joint_at_mode=lj, predicted_gain=gain,
        iterations=iterations, cov_scale=np.ones(m),
        form_cov_basis=partial(_covariance_basis, lower), form_precision=form_precision,
        form_extremes=form_extremes, form_tangent=form_tangent, form_gradient=form_gradient,
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


def laplace_gradient(model: LatentModel, theta=(), approx=None) -> np.ndarray:
    """Gradient over the free log-hyperparameters of :func:`laplace_log_marginal`,
    for the count families, read from the Newton approximation ``approx``
    (solved afresh if None) as its ``gradient``.

    The envelope theorem leaves the partial derivative of the log joint at
    the mode, and the log-determinant adds -1/2 tr(H^-1 dH/dtheta) with
    dH/dtheta = dQ/dtheta + X~' diag(c v) X~: Q the diagonal prior
    precision, c = exp(eta), X~ = X (or [X | I] with eps) and v = X~ t the
    linear predictor's move along the mode's tangent t = H^-1 (-dQ/dtheta)
    mode (Kristensen et al. 2016, JSS).  Everything comes from Newton's
    last factor S = L L': with l = diag(X S^-1 X') from X L^-T, the
    leverages diag(X~ H^-1 X~') are l (phi^-2 / d)^2 + 1/d for the
    overdispersed family (l for plain Poisson), and diag(H^-1) over eps is
    1/d + (c/d)^2 l, d = c + 1/phi^2; O(n k^2) in all, the cost of one
    Newton iterate.
    """
    _require(model.family != "gaussian",
             "the Gaussian family's theta-derivatives are not carried by its approximation")
    if approx is None:
        approx = newton_mode(model, theta)
    return approx.gradient


def _hyper_blocks(model: LatentModel) -> list:
    """For each free hyperparameter of a count family, the slice of the
    latent vector whose prior precision it scales by exp(-2 theta): the
    spline weights for log sigma, eps for log phi."""
    blocks = (slice(0, model.n_spline), slice(model.n_coef, model.latent_dim))
    return [blocks[slot] for slot, _, _ in model._free_hypers]


def _mode_tangent(model: LatentModel, qdiag, mode, curv, chol) -> np.ndarray:
    """d mode / d theta at a count-family Newton mode, one row per free
    hyperparameter: H^-1 (-dQ/dtheta) mode, whose right-hand side is
    2 q mode on the hyperparameter's block; one solve through Newton's last
    factor ``chol`` each (the arrow solve for eps), O(n k + k^2); ``qdiag``
    is the diagonal of Q."""
    m = model.n_coef
    overdispersed = model.family == "poisson_od"
    d = curv + qdiag[m:] if overdispersed else None
    rows = np.zeros((len(model._free_hypers), model.latent_dim))
    for row, block in zip(rows, _hyper_blocks(model)):
        rhs = np.zeros(model.latent_dim)
        rhs[block] = 2.0 * qdiag[block] * mode[block]
        if overdispersed:
            row[:m], row[m:] = _arrow_solve(model.design, curv, d, chol, rhs[:m], rhs[m:])
        else:
            row[:] = _cho_solve(chol, rhs)
    return rows


def _gradient_at_mode(model: LatentModel, theta, qdiag, mode, curv, lower,
                      tangent) -> np.ndarray:
    """:func:`laplace_gradient` from Newton's last factor ``lower`` of S and
    the mode's ``tangent``."""
    theta = model._theta(theta)
    X, m = model.design, model.n_coef
    inv = _lower_inverse(lower)  # S^-1 = L^-T L^-1
    lev = np.sum(np.square(X @ inv.T), axis=1)  # diag(X S^-1 X')
    h_inv = np.sum(np.square(inv), axis=0)  # diag(H^-1) over the coefficients
    move = X @ tangent[:, :m].T  # (n, free) linear-predictor moves
    if model.family == "poisson_od":
        d = curv + qdiag[m:]
        h_inv = np.concatenate([h_inv, 1.0 / d + np.square(curv / d) * lev])
        lev = lev * np.square(qdiag[m:] / d) + 1.0 / d
        move += tangent[:, m:].T
    grad = -0.5 * ((curv * lev) @ move)
    for i, ((_, _, prior), t, block) in enumerate(zip(model._free_hypers, theta,
                                                      _hyper_blocks(model))):
        q = qdiag[block]
        # d log joint / d theta at the mode, -1/2 tr(H^-1 dQ/dtheta), and the
        # log-scale hyperprior's 1 - rate e^theta
        grad[i] += (float(q @ (np.square(mode[block]) + h_inv[block])) - q.size
                    + 1.0 - prior.rate * math.exp(t))
    return grad


def _gaussian_precision(lik_hess: np.ndarray, ratio: float, qdiag: np.ndarray) -> np.ndarray:
    """ratio * lik_hess + diag(q): the Gaussian family's negative Hessian."""
    hess = lik_hess * ratio
    hess[np.diag_indices_from(hess)] += qdiag
    return hess


# longest run of one cell's rows that one QR triangularizes, and floats of
# rows per batched QR call (4 MB)
_QR_ROWS = 256
_QR_FLOATS = 1 << 19


def _triangularize(cells: np.ndarray, rows: np.ndarray):
    """Replace each run of rows of one cell by the R of its QR.

    ``cells`` is sorted and ``rows`` is (len(cells), w).  A cell's rows are
    cut into runs of at most twice the mean rows per cell, capped at
    ``_QR_ROWS`` but never under 2w, so padding adds fewer rows than one
    run per cell, about twice the data's at most, and a cell's rows shrink
    at least by half with each call until one run holds them.
    The runs are zero-padded and factored by batched ``np.linalg.qr``,
    about ``_QR_FLOATS`` floats at a time.  A padded row leaves every
    Householder reflection untouched, so the R rows past a run's length
    are exactly zero; they are dropped.  Returns the cells and rows kept
    (each run's leading min(length, w) R rows) and each run's cell.
    """
    n, w = rows.shape
    counts = np.bincount(cells)
    height = max(2 * w, min(_QR_ROWS, 2 * -(-n // np.count_nonzero(counts))))
    pos = np.arange(n) - (np.cumsum(counts) - counts)[cells]
    starts = pos % height == 0
    heads, piece = np.flatnonzero(starts), np.cumsum(starts) - 1
    kept = np.minimum(np.diff(np.append(heads, n)), w)
    out = np.empty((int(kept.sum()), w))
    per, at = max(1, _QR_FLOATS // (height * w)), 0
    for lo in range(0, heads.size, per):
        sel = slice(heads[lo], heads[lo + per] if lo + per < heads.size else n)
        buf = np.zeros((min(per, heads.size - lo), height, w))
        buf[piece[sel] - lo, pos[sel] % height] = rows[sel]
        r = np.linalg.qr(buf, mode="r")
        r = r[np.arange(r.shape[1]) < kept[lo : lo + per, None]]
        out[at : at + r.shape[0]] = r
        at += r.shape[0]
    return np.repeat(cells[heads], kept), out, cells[heads]


def _cell_statistics(model: LatentModel, shift: float = 0.0):
    """The Gaussian family's data read through one QR per knot cell:
    (Z, Q'y, ||y_perp||^2) with Z'Z = X'X, Z'(Q'y) = X'y and
    ||Q'y||^2 + ||y_perp||^2 = ||y||^2, X = ``model.design`` and y the
    response less ``shift``; Z has at most min(n, ``n_coef``) rows.

    On cell c of :func:`cell_offsets` a row of X is
    [tau(t)' S_c | P(x) | v'], tau(t) = (t^m / m!)_{m<=p} at the offset t,
    P the monomials of the design and v the row's fixed effects.  S_c maps
    the spline weights to their part of the cell's Taylor state (see
    :func:`_cell_states`): its rows m < p are the basis' m-th derivatives
    at the cell's left end, and row p is the unit row of w_c.  The
    monomials ride along as the design evaluates them, not through their
    Taylor state: a polynomial block with a wide prior makes the marginal
    follow their rounding.  A cell's rows [tau' | P | v' | y], r + 1
    columns with r = 2p + 1 + n_fixed, reduce by QR to a triangle R_c, and
    Z_c = R_c[:r, :r] blockdiag(S_c, I), its Q'y the last column above row
    r and its y_perp the entry in that row (:func:`_triangularize`, in
    blocks of about ``_QR_FLOATS`` floats of data; a cell's triangles are
    stacked and reduced again until it has one).  A cell with at most r
    rows would not shrink, so its rows enter as the design's own.  Where
    the stacked rows outnumber the columns, one QR of them leaves Z
    triangular, whose products round less than the stacked rows' do.
    O(n r^2 + k r n_coef^2) work, and no n x k array beyond the rows of
    cells that hold at most r points.
    """
    basis, p, k, m = model.basis, model.n_poly, model.n_spline, model.n_coef
    cells, offsets = cell_offsets(basis, model.x)
    fixed = np.empty((model.n_obs, 0)) if model.fixed_design is None else model.fixed_design
    y = model.response - shift
    r = 2 * p + 1 + fixed.shape[1]
    few = np.bincount(cells)[cells] <= r
    Z, qty, perp = [], [], 0.0
    if few.any():
        own = np.flatnonzero(few)
        Z.append(np.hstack([design_matrix(basis, model.x[own], 0).values,
                            polynomial_design(model.x[own], p), fixed[own]]))
        qty.append(y[own])
    order = np.flatnonzero(~few)
    if order.size:
        order = order[np.argsort(cells[order], kind="stable")]
        blocks, step = [], max(1, _QR_FLOATS // (r + 1))
        for lo in range(0, order.size, step):
            at = order[lo : lo + step]
            rows = np.hstack([_taylor_rows(offsets[at], p + 1), polynomial_design(model.x[at], p),
                              fixed[at], y[at, None]])
            blocks.append(_triangularize(cells[at], rows))
        cell, rows, heads = (np.concatenate(parts) for parts in zip(*blocks))
        while np.any(np.diff(heads) == 0):  # some cell still has several triangles
            cell, rows, heads = _triangularize(cell, rows)
        counts = np.bincount(cell)
        index = np.arange(cell.size) - (np.cumsum(counts) - counts)[cell]  # row of its R
        perp = float(np.sum(np.square(rows[index == r, r])))
        rows, cell = rows[index < r], cell[index < r]
        used, inverse = np.unique(cell, return_inverse=True)
        ks = basis.knot_set
        left = np.concatenate(([ks.region_start, ks.region_start], ks.knots))[used]
        z = np.zeros((rows.shape[0], m))
        for d in range(p):
            z[:, :k] += rows[:, d, None] * _basis_columns(basis, left, d)[inverse]
        inner = (cell >= 1) & (cell <= k)  # the cells with a weight of their own
        z[np.flatnonzero(inner), cell[inner] - 1] += rows[inner, p]
        z[:, k:] = rows[:, p + 1 : r]
        Z.append(z)
        qty.append(rows[:, r])
    Z, qty = np.vstack(Z), np.concatenate(qty)
    if Z.shape[0] <= m:  # a QR would not shrink them
        return Z, qty, perp
    tri = np.linalg.qr(np.column_stack([Z, qty]), mode="r")
    return tri[:m, :m], tri[:m, m], perp + float(tri[m, m] ** 2)


@dataclass(frozen=True, eq=False)
class GaussianPencil:
    """The Gaussian family's exact posterior at every (sigma, kappa), from one
    eigendecomposition.

    The negative Hessian is H = u X'X + s B + P in s = 1/sigma^2 and
    u = 1/kappa^2, with B = diag(d, 0) the spline prior at sigma = 1 and
    P = diag(0, 1/tau^2) the polynomial and fixed-effect priors, of rank
    r = p + n_fixed.  :meth:`from_model` factors C = H(1, kappa0) = L L',
    kappa0 the start kappa, and eigendecomposes L^-1 B L^-T = U diag(lam) U'.
    With W = L^-T U, u' = kappa0^2 / kappa^2 and M = W' P^1/2 (P's r nonzero
    columns), W' H W = diag(D) + c M M' with D = u' + (s - u') lam and
    c = 1 - u', so the determinant lemma and Woodbury give log det H and
    solves at O(k r^2) (Wood 2011, JRSSB 73(1)).  The Laplace step is exact
    (Rue, Martino & Chopin 2009): about a reference w0 the mode is
    w0 + W (W' H W)^-1 z and the log joint gains z' (W' H W)^-1 z / 2 over
    w0's, z = u' gx - s f - gp with gx = W' X' r0 / kappa0^2, f = W' B w0,
    gp = W' P w0 and r0 = y - X w0 formed once, so nothing cancels when the
    response sits far from zero; w0 is the mode at the start theta, reached
    by two pencil steps with no stopping rule.  The data enter only through
    the per-cell statistics (Z, Q'y, ||y_perp||^2) of :func:`_cell_statistics`,
    with X'X = Z'Z and ||r0||^2 = ||Q'y - Z w0||^2 + ||y_perp||^2, so the
    residuals keep their accuracy without an n-row product.  L = L1 L2:
    L1 factors C as formed from the floating-point Z'Z, L2 factors
    L1^-1 C L1^-T with Z'Z taken through Z itself, so W diagonalizes H to
    rounding at every s.

    :meth:`log_post` costs O(k) at kappa = kappa0 (c = 0 exactly, as at
    every point when kappa is fixed), O(k r^2) elsewhere, and O(k^2) for
    the mode, after set-up: O(n p^2) for the statistics and O(k^3) for the
    rest, no n x k array.  At c = 0 the covariance basis is the ``W`` every
    such point shares, with scale D; elsewhere it is W D^-1/2 F with scale
    1, F = (I + c N N')^-1/2, N = D^-1/2 M, formed on first read at
    O(k^2 r), and the precision u' ``lik_hess`` + diag(q) on read, with
    ``lik_hess`` = Z'Z / kappa0^2: Newton's X'X / kappa0^2 bit for bit
    where no cell was compressed (Z is then the design's rows), and to
    rounding elsewhere.  The mode is exact: zero Newton iterations,
    predicted gain 0.
    """

    model: LatentModel
    ref: np.ndarray  # w0
    W: np.ndarray
    lam: np.ndarray
    M: np.ndarray
    gx: np.ndarray
    f: np.ndarray
    gp: np.ndarray
    kappa0: float
    lik_hess: np.ndarray  # Z'Z / kappa0^2, X'X / kappa0^2 to rounding
    log_det_c: float
    rss: float  # ||r0||^2

    @classmethod
    def from_model(cls, model: LatentModel) -> "GaussianPencil":
        """Set up at ``model.theta_start()`` from the per-cell statistics of
        the response less its mean, which the reference carries on the
        intercept; the Choleskys, eigendecomposition, reference steps and
        residuals run on Z, at most n_coef rows.  A C not positive definite
        raises NumericError."""
        _require(model.family == "gaussian", "the pencil needs a Gaussian model")
        # the response enters less its mean, which the constant column carries
        # exactly, so the compressed residuals hold no rounding of an offset
        shift = float(np.mean(model.response))
        Z, y, perp = _cell_statistics(model, shift)
        k = model.n_spline
        sigma0, kappa0 = model.split_theta(model.theta_start())
        b = model.prior_precision_diag(1.0, kappa0)  # (d, 1/tau^2): the diagonal of B + P
        lik_hess = (Z.T * (1.0 / kappa0**2)) @ Z
        try:
            chol1 = linalg.cholesky(_gaussian_precision(lik_hess, 1.0, b), lower=True)
            V = _lower_inverse(chol1).T  # L1^-T
            zv = Z @ V  # V'(C - B)V through Z, and V'BV
            va = zv.T @ zv / kappa0**2 + V[k:].T @ (b[k:, None] * V[k:])
            vb = V[:k].T @ (b[:k, None] * V[:k])
            chol2 = linalg.cholesky(va + vb, lower=True)
        except linalg.LinAlgError:
            raise NumericError("Gaussian posterior precision at sigma = 1 is not positive definite")
        inv2 = _lower_inverse(chol2)
        lam, U = np.linalg.eigh(inv2 @ vb @ inv2.T)
        W = V @ (inv2.T @ U)
        q0, s0 = model.prior_precision_diag(sigma0, kappa0), sigma0**-2
        start = np.zeros_like(b)
        start[k] = shift  # the intercept's part of the reference
        dev = np.zeros_like(b)
        # step 1 lands within W's rounding of the mode, step 2 at the residuals' floor
        for _ in range(2):
            grad = Z.T @ (y - Z @ dev) / kappa0**2 - q0 * (start + dev)
            dev = dev + W @ ((W.T @ grad) / (1.0 + (s0 - 1.0) * lam))
        ref = start + dev
        resid, bw = y - Z @ dev, b * ref
        return cls(
            model=model, ref=ref, W=W, lam=lam, M=W[k:].T * np.sqrt(b[k:]),
            gx=W.T @ (Z.T @ resid) / kappa0**2, f=W[:k].T @ bw[:k], gp=W[k:].T @ bw[k:],
            kappa0=kappa0, lik_hess=_readonly(lik_hess),
            log_det_c=2.0 * float(np.sum(np.log(np.diag(chol1))) + np.sum(np.log(np.diag(chol2)))),
            rss=float(resid @ resid) + perp,
        )

    def log_post(self, theta) -> tuple[float, GaussianApprox]:
        """Laplace log marginal (exact here) at ``theta`` and its approximation."""
        model = self.model
        sigma, kappa = model.split_theta(theta)
        qdiag = model.prior_precision_diag(sigma, kappa)
        s, ratio = sigma**-2, (self.kappa0 / kappa) ** 2  # u'
        c = 1.0 - ratio
        scale = ratio + (s - ratio) * self.lam  # D
        z = ratio * self.gx - s * self.f - self.gp
        step = z / scale
        log_det = self.log_det_c + float(np.sum(np.log(scale)))
        form_cov_basis, cov_scale = partial(np.asarray, self.W), scale
        if c != 0.0:  # the rank-r correction c M M'
            dm = self.M / scale[:, None]
            mu, V = np.linalg.eigh(self.M.T @ dm)  # N'N = M' D^-1 M
            shrink = 1.0 + c * mu
            if not np.all(shrink > 0):
                raise NumericError("Gaussian posterior precision is not positive definite")
            dmv = dm @ V
            step -= c * (dmv @ ((dmv.T @ z) / shrink))
            log_shrink = np.log1p(c * mu)
            log_det += float(np.sum(log_shrink))
            coef = np.expm1(-0.5 * log_shrink) / mu  # ((1 + c mu)^-1/2 - 1) / mu
            form_cov_basis = partial(self._cov_basis, scale, dmv, coef)
            cov_scale = np.ones_like(scale)
        lj = (_log_prior(self.ref, qdiag)
              - 0.5 * self.rss / kappa**2 - model.n_obs * math.log(kappa) + model._lik_const
              + model.log_hyperprior(theta) + 0.5 * float(z @ step))
        approx = GaussianApprox(
            mode=self.ref + self.W @ step, log_det=log_det,
            log_joint_at_mode=lj, predicted_gain=0.0, iterations=0, cov_scale=cov_scale,
            form_cov_basis=form_cov_basis,
            form_precision=lambda: _gaussian_precision(self.lik_hess, ratio, qdiag),
        )
        return laplace_log_marginal(model, theta, approx=approx), approx

    def _cov_basis(self, scale, dmv, coef) -> np.ndarray:
        """W D^-1/2 F with F = I + N V diag(coef) V' N', N V = D^1/2 (D^-1 M) V."""
        wd, nv = self.W / np.sqrt(scale), dmv * np.sqrt(scale)[:, None]
        return wd + ((wd @ nv) * coef) @ nv.T


# ---------------------------------------------------------------------------
# quadrature fit and posterior summaries
# ---------------------------------------------------------------------------


@dataclass
class PosteriorFit:
    """Quadrature grid, per-point Gaussian approximations and coefficient
    draws (``samples`` is num_samples x ``model.n_coef``)."""

    model: LatentModel
    theta_points: np.ndarray
    weights: np.ndarray
    approxes: list
    log_marginal: float
    samples: np.ndarray
    sample_point_index: np.ndarray
    seed: int

    @property
    def basis(self) -> OSplineBasis:
        return self.model.basis

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([self.model.split_theta(t)[0] for t in self.theta_points])

    @property
    def family_hypers(self) -> np.ndarray:
        # a model without a family hyperparameter gives None, stored as NaN
        return np.array([self.model.split_theta(t)[1] for t in self.theta_points], dtype=float)

    @cached_property
    def _mixture_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Every grid point's per-cell Taylor-state means and covariances
        (:func:`_form_mixture_cells`), formed on first read and kept."""
        return _form_mixture_cells(self)


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
    that single configuration.  ``num_samples`` draws of the coefficients
    a (the first ``model.n_coef`` latent entries; the observation effects of
    the overdispersed family are not drawn) are allocated to grid points
    proportionally to their weights; a grid point draws mode + B s^-1/2 z
    from its ``cov_basis`` B and ``cov_scale`` s, whatever the family.
    Gaussian models go through one :class:`GaussianPencil` and no Newton
    solve; the count families through one Newton solve per hyperparameter
    value, started from the last solve's mode moved along its ``tangent``
    by the step in theta (where that start's log joint is not finite,
    :func:`newton_mode` restarts from zero).  Their states carry exact
    gradients (:func:`laplace_gradient`), so the hyperparameter search
    takes 2d + 1 solves per iterate where the pencil takes 2d^2 + 1 values.
    """
    _require(num_quad >= 1, "num_quad must be >= 1")
    _require(num_samples >= 0, "num_samples must be >= 0")
    _require(len(model.theta_names) <= 2, "at most two free hyperparameters are supported")

    if model.family == "gaussian":
        log_post = GaussianPencil.from_model(model).log_post
    else:
        last = None  # (theta, approx) of the last solve

        def log_post(theta):
            # started from the last mode moved along its tangent by the theta-step
            nonlocal last
            init = None
            if last is not None:
                init = last[1].mode + (theta - last[0]) @ last[1].tangent
            approx = newton_mode(model, theta, init=init)
            last = theta, approx
            return laplace_log_marginal(model, theta, approx=approx), approx

    grid = adapt_quadrature(log_post, model.theta_start(), num_quad)
    m = model.n_coef
    counts = np.random.default_rng([seed, 1]).multinomial(num_samples, grid.weights)
    samples = np.empty((num_samples, m))
    point_index = np.repeat(np.arange(len(grid.weights)), counts)
    row = 0
    for j, (approx, cnt) in enumerate(zip(grid.states, counts)):
        if cnt > 0:  # covariance B diag(1/s) B'  =>  draws = mode + B s^-1/2 z
            z = np.random.default_rng([seed, 2, j]).standard_normal((m, cnt))
            dev = approx.cov_basis @ (z / np.sqrt(approx.cov_scale)[:, None])
            samples[row : row + cnt] = approx.mode[:m] + dev.T
            row += cnt

    return PosteriorFit(
        model=model,
        theta_points=grid.points,
        weights=grid.weights,
        approxes=grid.states,
        log_marginal=grid.log_normconst,
        samples=samples,
        sample_point_index=point_index,
        seed=seed,
    )


def _require_order(fit: PosteriorFit, q: int) -> None:
    p = fit.basis.order
    _require(0 <= q <= p, f"derivative order {q} exceeds basis order {p}")


# rows summarized at a time: the sorted copy stays at 32 x samples; sampled
# paths are formed in blocks of as many rows
_SUMMARY_ROWS = 32
# (x, grid point) pairs whose moments are formed at a time: 3276 xs at 10
# grid points, so a block's arrays stay at 256 KB whatever the grid size
_MOMENT_PAIRS = 1 << 15
# floats of covariance-basis states formed at a time (4 MB)
_STATE_FLOATS = 1 << 19
_QUANTILE_MAX_ITER = 100
# a Newton step on the mixture CDF within this many mixture SDs is taken as
# the root: convergence is quadratic, so the step's error is about its square
_QUANTILE_SETTLED = 1e-8
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# a cell holding more xs than this has its interval bounds solved first at
# as many first-kind Chebyshev nodes of the offset, and each x there starts
# its own solve from their interpolant (:func:`_chebyshev_bounds`)
_CHEB_NODES = 14
_CHEB_ANGLES = (2.0 * np.arange(_CHEB_NODES) + 1.0) * np.pi / (2.0 * _CHEB_NODES)
_CHEB_UNIT = 0.5 * (1.0 - np.cos(_CHEB_ANGLES))  # the nodes on [0, 1], ascending
_CHEB_WEIGHTS = (-1.0) ** np.arange(_CHEB_NODES) * np.sin(_CHEB_ANGLES)  # barycentric


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
    length, read from a row-wise sort.  The SD is taken from the squared
    deviations about the mean, as ``np.std`` takes it.  Rows are visited in
    small blocks, so the temporaries stay at the size of one block.
    """
    m, s = rows.shape
    lo, hi = (max(math.ceil(s * prob - 1.0), 0) for prob in (lower_prob, upper_prob))
    mean, sd, lower, upper = (np.empty(m) for _ in range(4))
    for start in range(0, m, _SUMMARY_ROWS):
        block = rows[start : start + _SUMMARY_ROWS]
        at = slice(start, start + block.shape[0])
        mean[at] = np.sum(block, axis=1) / s
        dev = block - mean[at, None]
        dev *= dev
        sd[at] = np.sqrt(np.sum(dev, axis=1) / (s - 1))
        ordered = np.sort(block, axis=1)
        lower[at], upper[at] = ordered[:, lo], ordered[:, hi]
    return mean, sd, lower, upper


def _taylor_rows(t: np.ndarray, terms: int) -> np.ndarray:
    """(len(t), terms) array of t^j / j!, j = 0..terms-1."""
    out = np.empty((t.size, terms))
    out[:, 0] = 1.0
    for j in range(1, terms):
        out[:, j] = out[:, j - 1] * t / j
    return out


def _cell_states(basis: OSplineBasis, coefs: np.ndarray, out: Optional[np.ndarray] = None):
    """Yield the (p + 1, m) Taylor states of the m curves whose coefficients
    are the rows of ``coefs`` (k spline weights, then p polynomial
    coefficients; later columns are not read), one cell of
    :func:`cell_offsets` at a time, c = 0..k+1: row r < p of cell c holds
    g^(r)(s_{c-1}) and row p holds g^(p) on the cell, w_c (0 in cells 0 and
    k + 1).  Given ``out``, (k + 2, p + 1, m), each state is written to
    ``out[c]`` and kept; otherwise two buffers alternate, and a consumer
    copies what it keeps before advancing.

    At s_0 the basis functions vanish with their first p - 1 derivatives, so
    the state there is the polynomial block's; each later state is the
    Taylor shift of the one before over its cell's width h,
    a'_r = a_r + sum_{l>r} a_l h^(l-r) / (l-r)!, O(p^2 m) per cell.  The
    additions to a_r are compensated (Kahan), so the rounding they leave
    does not grow with k: on posterior draws of a smooth curve at k = 1000,
    whose states are large against the path, the paths stand 2e-15 of
    their scale from an extended-precision sum, and 1.0e-13 without it.
    """
    k, p = basis.size, basis.order
    m = coefs.shape[0]
    slots = np.empty((2, p + 1, m)) if out is None else out
    start = np.vstack([polynomial_design([basis.region_start], p, r) for r in range(p)])
    np.matmul(start, coefs[:, k : k + p].T, out=slots[0, :p])
    slots[0, p] = 0.0
    widths = _taylor_rows(np.concatenate(([0.0], basis.knot_set.spacings)), p + 1)
    lag = np.arange(p + 1) - np.arange(p)[:, None]  # l - r
    rises = np.where(lag > 0, widths[:, np.maximum(lag, 0)], 0.0)  # (k + 1, p, p + 1)
    rise, carry = np.empty((p, m)), np.zeros((p, m))
    heads, tails, count = slots[:, :p], slots[:, p], len(slots)
    for c in range(k + 1):
        now, nxt = c % count, (c + 1) % count
        yield slots[now]
        np.matmul(rises[c], slots[now], out=rise)
        rise -= carry
        np.add(heads[now], rise, out=heads[nxt])
        np.subtract(heads[nxt], heads[now], out=carry)
        carry -= rise
        tails[nxt] = coefs[:, c] if c < k else 0.0
    yield slots[(k + 1) % count]


def _evaluate_states(states, state_index, taylor, deriv: int) -> np.ndarray:
    """g^(deriv) at len(taylor) xs from the (cells, p + 1, m) ``states``:
    row i reads cell ``state_index[i]`` and the Taylor row ``taylor[i]``,
    sum_{r>=deriv} a_r t^(r-deriv) / (r-deriv)!, one product per run of
    equal cells."""
    p = states.shape[1] - 1
    out = np.empty((taylor.shape[0], states.shape[2]))
    runs = np.flatnonzero(np.diff(state_index)) + 1
    for a, b in zip([0, *runs], [*runs, taylor.shape[0]]):
        np.matmul(taylor[a:b, : p + 1 - deriv], states[state_index[a], deriv:], out=out[a:b])
    return out


def _path_blocks(fit: PosteriorFit, cells: np.ndarray, offsets: np.ndarray, q: int,
                 transform: Optional[str]):
    """Yield (indices into xs, paths) blocks of the sampled curves at the
    xs whose :func:`cell_offsets` are ``cells`` and ``offsets``, one row of
    S samples per x, ``_SUMMARY_ROWS`` rows at a time.

    The xs are visited in order of their cells, so a block spans few cells
    and each x costs p + 1 - q terms of its cell's Taylor state:
    g^(q)(x) = sum_{m>=q} a_m t^(m-q) / (m-q)!, t its offset in the cell.
    The recursion of :func:`_cell_states` advances with the blocks, and only
    the states of the cells a block uses are kept, so a call holds
    O(samples) floats per block whatever k is.  The blocks depend on the xs
    alone, so every pass over them forms the same bits.
    """
    taylor = _taylor_rows(offsets, fit.basis.order + 1)
    order = np.argsort(cells, kind="stable")
    walk = enumerate(_cell_states(fit.basis, fit.samples))
    at, state = next(walk)
    for start in range(0, cells.size, _SUMMARY_ROWS):
        rows = order[start : start + _SUMMARY_ROWS]
        used, index = np.unique(cells[rows], return_inverse=True)
        states = np.empty((used.size, *state.shape))
        for i, c in enumerate(used):
            while at < c:
                at, state = next(walk)
            states[i] = state
        paths = _evaluate_states(states, index, taylor[rows], q)
        if transform == "exp":
            if q == 0:
                np.exp(paths, out=paths)
            else:
                paths *= np.exp(_evaluate_states(states, index, taylor[rows], 0))
        yield rows, paths


def _curve_samples(fit: PosteriorFit, xs: np.ndarray, q: int, transform: Optional[str]):
    """samples x len(xs) paths, the transpose of a C-contiguous x-major array."""
    paths = np.empty((xs.size, fit.samples.shape[0]))
    for rows, block in _path_blocks(fit, *cell_offsets(fit.basis, xs), q, transform):
        paths[rows] = block
    return paths.T


def _shared_bases(approxes: list, per_group: int):
    """Yield groups of at most ``per_group`` distinct covariance bases, each
    as [basis, first, stop): the run of consecutive grid points that share
    it (the pencil's points share W where kappa is fixed).  Each basis is
    formed afresh by ``form_cov_basis`` when its group is reached."""
    group = []
    for j, approx in enumerate(approxes):
        basis = approx.form_cov_basis()
        if group and basis is group[-1][0]:
            group[-1][2] = j + 1
            continue
        if len(group) == per_group:
            yield group
            group = []
        group.append([basis, j, j + 1])
    yield group


def _form_mixture_cells(fit: PosteriorFit) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of :func:`cell_offsets`, every grid point's Taylor-state
    means, (p + 1, k + 2, G), and covariances, (p + 1, p + 1, k + 2, G).

    The means are the states of the modes.  A point's covariance in cell c
    is A_c diag(1/s) A_c' with A_c the states of the columns of its
    ``cov_basis`` B and s its ``cov_scale``: the recursion is linear, so it
    walks B's columns as it walks draws.  Each distinct B is walked once,
    a few together (up to about ``_STATE_FLOATS`` floats of states), and
    dropped, so no basis is kept; the entries of A_c diag(1/s) A_c' for
    every point that shares B are one product with their 1/s.  O(k p^2 m)
    per distinct basis and per point, m = ``n_coef``.
    """
    basis = fit.basis
    k, p = basis.size, basis.order
    c, points, m = k + p, len(fit.approxes), fit.approxes[0].cov_scale.size
    covs = np.empty((p + 1, p + 1, k + 2, points))
    per_walk = max(1, _STATE_FLOATS // ((k + 2) * (p + 1) * m))
    per_product = max(1, _STATE_FLOATS // ((p + 1) ** 2 * m))  # cells
    modes = np.column_stack([approx.mode[:c] for approx in fit.approxes])
    lead = points  # the modes ride along with the first group's bases
    for group in _shared_bases(fit.approxes, per_walk):
        stack = np.hstack([modes[:, :lead]] + [b[:c] for b, _, _ in group])
        states = np.empty((k + 2, p + 1, stack.shape[1]))
        for _ in _cell_states(basis, stack.T, out=states):
            pass
        if lead:
            means = states[:, :, :lead].transpose(1, 0, 2).copy()
        states, lead = states[:, :, lead:], 0
        for n, (_, first, stop) in enumerate(group):
            inverse = np.column_stack([1.0 / a.cov_scale for a in fit.approxes[first:stop]])
            for lo in range(0, k + 2, per_product):
                block = states[lo : lo + per_product, :, n * m : (n + 1) * m]
                outer = (block[:, :, None] * block[:, None]).reshape(-1, m) @ inverse
                covs[:, :, lo : lo + per_product, first:stop] = (
                    outer.reshape(block.shape[0], p + 1, p + 1, -1).transpose(1, 2, 0, 3))
    return means, covs


def _point_moments(fit: PosteriorFit, xs: np.ndarray, q: int, located=None):
    """Yield (slice into ``xs``, mu, var): each grid point's mean and
    variance of g^(q), (rows, G), at a block of ``xs``, about
    ``_MOMENT_PAIRS`` (x, point) pairs at a time.  ``xs`` are checked as
    :func:`cell_offsets` checks them before any work; ``located`` is their
    (cells, offsets) where the caller has them.

    On a cell both are polynomials in the offset t, read from the fit's
    per-cell states (:func:`_state_moments`), so an x costs O(p) per point
    at any k.  With no more xs than cells a walk over every cell costs more
    than the xs themselves, so they take the dense design instead
    (:func:`_design_moments`).
    """
    basis = fit.basis
    if xs.size <= basis.size + 2:
        yield _design_moments(fit, xs, q)
    else:
        yield from _state_moments(fit, *(located or cell_offsets(basis, xs)), q)


def _design_moments(fit: PosteriorFit, xs: np.ndarray, q: int):
    """(slice(None), mu, var) at ``xs`` from the dense design X of g^(q):
    mu = X mode and var = (X B)^2 (1/s) for each distinct ``cov_basis`` B,
    formed afresh and dropped, O(len(xs) k) per distinct basis."""
    basis = fit.basis
    design = np.hstack([design_matrix(basis, xs, q).values, polynomial_design(xs, basis.order, q)])
    c = design.shape[1]
    mu = design @ np.column_stack([approx.mode[:c] for approx in fit.approxes])
    var = np.empty_like(mu)
    for [(cov_basis, first, stop)] in _shared_bases(fit.approxes, 1):
        dev = design @ cov_basis[:c]
        np.square(dev, out=dev)
        var[:, first:stop] = dev @ np.column_stack(
            [1.0 / approx.cov_scale for approx in fit.approxes[first:stop]])
    return slice(None), mu, var


def _state_moments(fit: PosteriorFit, cells: np.ndarray, offsets: np.ndarray, q: int):
    """Yield (slice, mu, var) at the locations with :func:`cell_offsets`
    ``cells`` and ``offsets``, from the fit's per-cell states
    (:func:`_form_mixture_cells`, formed on the fit's first such call and
    kept): mu = sum_{i<=p-q} a_{q+i} t^i / i! and
    var = sum_{i,l<=p-q} C_{q+i,q+l} t^(i+l) / (i! l!) from the states'
    means a and covariance C."""
    means, covs = fit._mixture_cells
    terms, points = means.shape[0] - q, means.shape[2]
    mean_coef = means[q:] / _FACT[:terms, None, None]
    # the weight of C_{q+i,q+l} in the coefficient of t^d: 1 / (i! l!) where i + l = d
    degree = np.add.outer(np.arange(terms), np.arange(terms))
    weight = (np.arange(2 * terms - 1)[:, None, None] == degree) / np.multiply.outer(
        _FACT[:terms], _FACT[:terms])
    var_coef = np.tensordot(weight, covs[q:, q:], axes=2)
    rows = max(1, _MOMENT_PAIRS // points)
    for start in range(0, cells.size, rows):
        at = slice(start, start + rows)
        cell, t = cells[at], offsets[at, None]
        mu, var = mean_coef[-1][cell], var_coef[-1][cell]
        for coef in mean_coef[-2::-1]:
            mu *= t
            mu += coef[cell]
        for coef in var_coef[-2::-1]:
            var *= t
            var += coef[cell]
        yield at, mu, np.maximum(var, 0.0, out=var)


def _mixture_moments(mu: np.ndarray, var: np.ndarray, weights: np.ndarray):
    """Mean and SD of each row's Gaussian mixture, the SD in the centred form
    sqrt(sum_j w_j (v_j + (mu_j - mean)^2)), which does not cancel where
    |mean| >> SD."""
    mean = mu @ weights
    dev = mu - mean[:, None]
    dev *= dev
    dev += var
    return mean, np.sqrt(dev @ weights)


def _cdf_pass(mu: np.ndarray, sd: np.ndarray, weights: np.ndarray, tail: float, t: np.ndarray):
    """F(t) - ``tail`` and F'(t) of each row's mixture
    F(t) = sum_j w_j Phi((t - mu_j) / sd_j), on two (rows, G) buffers."""
    u = t[:, None] - mu
    u /= sd
    buf = ndtr(u)
    gap = buf @ weights - tail
    np.multiply(u, -0.5, out=buf)
    buf *= u
    np.exp(buf, out=buf)
    buf /= sd
    return gap, buf @ weights * _INV_SQRT_2PI


def _mixture_quantile(mu: np.ndarray, sd: np.ndarray, weights: np.ndarray, tail: float,
                      start: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """t with F(t) = sum_j w_j Phi((t - mu_j) / sd_j) = ``tail`` (at most
    1/2) in each row of the (rows, G) ``mu`` and ``sd``, by Newton from
    ``start``.

    The root lies between the smallest and largest of the points' own
    quantiles mu_j + sd_j Phi^-1(tail), and each iterate narrows that
    bracket; a Newton step that leaves it is replaced by bisection, so every
    row converges.  F is summed from lower tails, so it carries rounding
    relative to ``tail``, and a row stops once |F(t) - tail| is within
    4 eps of ``tail``, or its step is within 4 eps of |t| + ``scale`` (the
    mixture's SD), or a Newton step that was not bisected is within
    ``_QUANTILE_SETTLED`` of ``scale``, which it takes without evaluating F
    again; a row whose bracket is one value returns it.  Not
    converging in ``_QUANTILE_MAX_ITER`` iterations raises
    :class:`IterationError`.  A start within ``_QUANTILE_SETTLED`` ``scale``
    of the root (a Chebyshev interpolant's, 5e-14 to 4e-10 SDs off, see
    :func:`posterior_function`) settles in one pass; :func:`_polish` takes that pass without forming
    the bracket, and only a row it leaves unsettled comes here.
    """
    own = mu + sd * ndtri(tail)
    lo, hi = own.min(axis=1), own.max(axis=1)
    t = np.clip(start, lo, hi)
    sd = np.maximum(sd, np.finfo(float).tiny)
    eps = 4.0 * np.finfo(float).eps
    active = np.flatnonzero(lo < hi)
    for _ in range(_QUANTILE_MAX_ITER):
        if active.size == 0:
            return t
        now = t[active]
        gap, slope = _cdf_pass(mu[active], sd[active], weights, tail, now)
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
        settled |= ~outside & (step <= _QUANTILE_SETTLED * scale[active])
        active = active[~(close | settled)]
    raise IterationError(f"mixture quantile at {tail} did not converge at {active.size} xs")


def _mixture_bounds(mu: np.ndarray, var: np.ndarray, weights: np.ndarray, tail: float,
                    mean: np.ndarray, sd: np.ndarray, starts=None):
    """The lower and upper bounds, at tails ``tail`` and 1 - ``tail``, of
    each row's mixture (``mean`` and ``sd`` its moments).  The upper bound
    is minus the lower one of -g, so each solve sums lower tails.  A row
    with finite (lower, upper) ``starts`` takes one Newton step from them
    (:func:`_polish`); every other row, and one whose step does not settle,
    is solved by :func:`_mixture_quantile`, from the moment-matched start
    or from its given one."""
    z = ndtri(tail)
    spread = np.sqrt(var)
    given = np.zeros(mu.shape[0], bool) if starts is None else np.isfinite(starts[0])
    rows = np.flatnonzero(given)
    bounds = []
    for sign, start in ((1.0, mean + sd * z), (-1.0, sd * z - mean)):
        signed = mu if sign > 0 else -mu
        solve = ~given
        if rows.size:
            guess = sign * starts[0 if sign > 0 else 1][rows]
            step, settled = _polish(signed[rows], spread[rows], weights, tail, guess, sd[rows])
            start[rows] = np.where(settled, step, guess)
            solve[rows[~settled]] = True
        if solve.any():
            start[solve] = _mixture_quantile(signed[solve], spread[solve], weights, tail,
                                             start[solve], sd[solve])
        bounds.append(sign * start)
    return bounds


def _polish(mu: np.ndarray, sd: np.ndarray, weights: np.ndarray, tail: float, t: np.ndarray,
            scale: np.ndarray):
    """One Newton step on each row's mixture CDF from ``t``, close to its
    root: (the step's end, whether it settled by :func:`_mixture_quantile`'s
    rules).  A start within d of the root lands within about d^2 / scale,
    so a step within ``_QUANTILE_SETTLED`` of ``scale`` is taken as the
    root; no bracket is formed."""
    gap, slope = _cdf_pass(mu, np.maximum(sd, np.finfo(float).tiny), weights, tail, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        nxt = t - gap / slope
    eps = 4.0 * np.finfo(float).eps
    close = np.abs(gap) <= eps * tail
    nxt[close] = t[close]
    step = np.abs(nxt - t)
    settled = close | (step <= _QUANTILE_SETTLED * scale) | (step <= eps * (np.abs(nxt) + scale))
    return nxt, settled


def _chebyshev_bounds(fit: PosteriorFit, cells: np.ndarray, q: int, tail: float):
    """Interval bounds of g^(q) at ``_CHEB_NODES`` first-kind Chebyshev
    nodes of the offset, in every cell of :func:`cell_offsets` (1..k+1)
    that ``cells`` names more often than that: (slot, nodes, lower, upper),
    slot[c] the row of cell c in the (cells, nodes) arrays or -1; None
    where no cell qualifies.  Cell 0 is the single point s_0.  The node
    solves start from their moments, as every x outside such cells does."""
    basis = fit.basis
    ks, k = basis.knot_set, basis.size
    busy = np.flatnonzero(np.bincount(cells, minlength=k + 2)[1:] > _CHEB_NODES) + 1
    if busy.size == 0:
        return None
    widths = np.concatenate(([0.0], ks.spacings, [ks.region_end - ks.knots[-1]]))
    nodes = widths[busy, None] * _CHEB_UNIT
    lower, upper = np.empty(nodes.size), np.empty(nodes.size)
    for at, mu, var in _state_moments(fit, np.repeat(busy, _CHEB_NODES), nodes.ravel(), q):
        mean, sd = _mixture_moments(mu, var, fit.weights)
        lower[at], upper[at] = _mixture_bounds(mu, var, fit.weights, tail, mean, sd)
    slot = np.full(k + 2, -1)
    slot[busy] = np.arange(busy.size)
    return slot, nodes, lower.reshape(nodes.shape), upper.reshape(nodes.shape)


def _chebyshev_starts(solved, cells: np.ndarray, offsets: np.ndarray):
    """(lower, upper) starts at the locations ``cells``, ``offsets`` from
    the barycentric interpolant of their cell's node bounds ``solved``
    (:func:`_chebyshev_bounds`), NaN in cells without nodes (Berrut &
    Trefethen 2004, SIAM Rev. 46(3)).  An x on a node takes its value."""
    slot, nodes, lower, upper = solved
    which = slot[cells]
    inside = np.flatnonzero(which >= 0)
    which = which[inside]
    diff = offsets[inside, None] - nodes[which]
    hit_row, hit_node = np.nonzero(diff == 0.0)
    diff[hit_row, hit_node] = 1.0  # replaced below
    coef = _CHEB_WEIGHTS / diff
    total = coef.sum(axis=1)
    starts = np.full((2, cells.size), np.nan)
    for start, values in zip(starts, (lower, upper)):
        values = values[which]
        start[inside] = np.einsum("ij,ij->i", coef, values) / total
        start[inside[hit_row]] = values[hit_row, hit_node]
    return starts


@dataclass
class PosteriorCurve:
    """Pointwise posterior summary of the smooth (or a derivative) on a grid.

    ``samples`` (samples x len(xs)) holds the fit's draws as paths.  It is
    formed by ``form_samples`` on first read and kept, at
    O(len(xs) x samples) memory; until then a curve holds O(len(xs)) floats.
    """

    xs: np.ndarray
    derivative_order: int
    transform: Optional[str]
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    form_samples: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def samples(self) -> np.ndarray:
        return self.form_samples()


def _curve(fit: PosteriorFit, xs: np.ndarray, q: int, transform: Optional[str], level: float,
           summaries: tuple) -> PosteriorCurve:
    """The curve with ``summaries`` (mean, sd, lower, upper) and the fit's
    draws as its ``samples``, formed on first read."""
    return PosteriorCurve(xs, q, transform, *summaries, level,
                          partial(_curve_samples, fit, xs, q, transform))


def _check_curve_args(fit: PosteriorFit, q: int, transform: Optional[str], level: float) -> None:
    _require(transform in (None, "exp"), "transform must be None or 'exp'")
    _require(transform is None or q in (0, 1),
             "exp transform is defined for derivative orders 0 and 1")
    _require(0.0 < level < 1.0, "level must lie in (0, 1)")
    _require(fit.samples.shape[0] > 0, "fit holds no posterior samples")
    _require_order(fit, q)


def posterior_function(
    fit: PosteriorFit,
    xs,
    q: int = 0,
    transform: Optional[str] = None,
    level: float = 0.95,
) -> PosteriorCurve:
    """Posterior summaries of the curve g^(q) on ``xs``, exact under the
    fitted Gaussian mixture.

    Given the grid, g^(q)(x) is a mixture over the grid points of
    N(mu_j(x), v_j(x)) with weights w_j (Rue, Martino & Chopin 2009, §3).
    The mean and SD are the mixture's (as :func:`posterior_moments` gives
    them), and the interval bounds solve sum_j w_j Phi((t - mu_j) / sd_j) =
    alpha at the decimal tails of ``level`` (0.025 and 0.975 for 0.95), by
    safeguarded Newton (:func:`_mixture_quantile`).  In a cell holding more
    than ``_CHEB_NODES`` xs (cell 0, the single point s_0, aside) the
    bounds are solved first at that many first-kind Chebyshev nodes of the
    offset, where they are analytic, and each x there takes one Newton
    step from the nodes' barycentric interpolant, about one pass over the
    grid per x; every other x starts from its moment-matched guess, so a
    call with no such cell solves each x as on its own.  ``transform='exp'``
    reports exp(g) for q = 0: a lognormal mixture, whose mean and SD have
    closed forms and whose bounds are exp of the plain ones.  For q = 1,
    g' * exp(g) has no closed form, and that curve alone is the sampled
    one of :func:`posterior_paths`.  The cost follows k and the grid size,
    not the number of samples (see :func:`posterior_moments`), and the
    bounds add one to a few Newton steps per x, each O(G).  Arguments,
    ``xs`` included (finite and
    inside the region), are checked before any curve is evaluated, and the
    fit must hold samples: every curve's ``samples`` (samples x len(xs))
    are its draws' paths, formed as :func:`posterior_paths` forms them on
    first read.
    """
    _check_curve_args(fit, q, transform, level)
    if transform == "exp" and q == 1:
        return posterior_paths(fit, xs, q, transform, level)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cells, offsets = cell_offsets(fit.basis, xs)
    mean, sd, lower, upper = (np.empty(xs.size) for _ in range(4))
    tail = _interval_probs(level)[0]
    weights = fit.weights
    solved = _chebyshev_bounds(fit, cells, q, tail)
    for at, mu, var in _point_moments(fit, xs, q, (cells, offsets)):
        mean[at], sd[at] = _mixture_moments(mu, var, weights)
        starts = None if solved is None else _chebyshev_starts(solved, cells[at], offsets[at])
        lower[at], upper[at] = _mixture_bounds(mu, var, weights, tail, mean[at], sd[at], starts)
        if transform == "exp":  # lognormal means m_j and variances m_j^2 (e^v_j - 1)
            means = np.exp(mu + 0.5 * var)
            mean[at], sd[at] = _mixture_moments(means, means * means * np.expm1(var), weights)
    if transform == "exp":
        np.exp(lower, out=lower)
        np.exp(upper, out=upper)
    return _curve(fit, xs, q, transform, level, (mean, sd, lower, upper))


def posterior_paths(
    fit: PosteriorFit,
    xs,
    q: int = 0,
    transform: Optional[str] = None,
    level: float = 0.95,
) -> PosteriorCurve:
    """Summaries of the fit's sampled curves g^(q) on ``xs``.

    ``transform='exp'`` reports exp(g) for q = 0 and g' * exp(g) for q = 1,
    per sample.  Arguments, ``xs`` included (finite and inside the region),
    are checked before any curve is evaluated.  Each draw is turned into
    per-cell Taylor states, O(k p^2) per sample, and each x then costs
    p + 1 - q terms per sample; the recursion advances with the xs in
    order of their cells, keeping only the cells a block of xs uses.  The
    paths are formed in blocks of a few rows, one contiguous row per x,
    summarized and dropped, so the call holds O(samples) floats per block
    and no len(xs) x samples array.  Mean and SD are the samples' (ddof=1),
    and the interval endpoints are the exact inverted-CDF order statistics
    at the decimal tails of ``level`` (0.025 and 0.975 for 0.95), so a
    monotone transform of the samples maps intervals exactly.  The curve's
    ``samples`` (samples x len(xs), a transposed view of x-major rows) are
    formed through the same blocks on first read, so the intervals are
    order statistics of exactly those values.
    """
    _check_curve_args(fit, q, transform, level)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cells, offsets = cell_offsets(fit.basis, xs)
    mean, sd, lower, upper = (np.empty(xs.size) for _ in range(4))
    probs = _interval_probs(level)
    for rows, paths in _path_blocks(fit, cells, offsets, q, transform):
        mean[rows], sd[rows], lower[rows], upper[rows] = _row_summaries(paths, *probs)
    return _curve(fit, xs, q, transform, level, (mean, sd, lower, upper))


def posterior_moments(fit: PosteriorFit, xs, q: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean/SD of g^(q) under the fitted Gaussian mixture (no sampling).

    Each grid point's mean and variance at x come from per-cell Taylor
    states of its mode and of the columns of its ``cov_basis``, formed once
    per fit (O(k p^2 n_coef) per distinct basis, each basis formed afresh
    and dropped) and kept on it, so a call costs O(p) per x and grid point
    and holds a fixed number of (x, point) pairs at a time whatever the
    grid size.  A call with no more xs than knot cells takes the dense
    design instead, O(len(xs) k n_coef) per distinct basis.  The SD is the
    centred sqrt(sum_j w_j (v_j + (mu_j - mean)^2)), so it holds where the
    curve sits far from zero.
    """
    _require_order(fit, q)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    mean, sd = np.empty(xs.size), np.empty(xs.size)
    for at, mu, var in _point_moments(fit, xs, q):
        mean[at], sd[at] = _mixture_moments(mu, var, fit.weights)
    return mean, sd


def condition_number(approx: GaussianApprox) -> float:
    """Ratio of the largest to the smallest eigenvalue of the precision.

    The precision is symmetric positive definite, so this is the ratio of its
    extreme singular values.  Both ends come from ``approx.extremes``: for
    the Gaussian and Poisson families the ends of a dense ``eigvalsh`` of the
    k x k precision; for the overdispersed Poisson family, whose precision
    over (a, eps) is (n_coef + n)^2, Lanczos on its arrow structure at
    O(n k) per step, which forms no (n + k)^2 matrix.

    Reach: an eigenvalue from either method may carry an error of up to
    about eps x lambda_max, so lambda_min, and with it the ratio, is
    guaranteed only to about eps x cond relative.  On the CLI benchmark's
    data (order 3, 50 knots) the two methods' lambda_max agree to 1e-15 and
    their lambda_min to 2e-5 at n = 300 (cond ~ 3e13), 4e-4 at n = 1000
    (1e17) and 1e-4 at n = 2000 (5e19).  Past cond ~ 1e16, eps x cond > 1,
    so neither figure is certified, and the ratio says only that the
    precision is numerically singular.
    """
    lo, hi = approx.extremes
    if lo <= 0:
        return math.inf
    return hi / lo


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
    """Assemble a :class:`LatentModel` from data and a basis, whose design at
    ``x`` and weight precision the model derives; the polynomial prior SD
    defaults to ``DEFAULT_POLY_PRIOR_SD``."""
    return LatentModel(
        response=y,
        family=family,
        x=x,
        basis=basis,
        poly_prior_sd=DEFAULT_POLY_PRIOR_SD if poly_prior_sd is None else poly_prior_sd,
        sigma_prior=sigma_prior,
        sigma_fixed=sigma_fixed,
        fixed_design=fixed_design,
        fixed_prior_sd=fixed_prior_sd,
        family_hyper_prior=family_hyper_prior,
        family_hyper_fixed=family_hyper_fixed,
    )
