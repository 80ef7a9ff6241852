import logging

import numpy as np
import pytest

from osplines import (
    ExponentialPrior,
    OSplineBasis,
    PSDSpec,
    aghq_fit,
    build_equal_knots,
    build_model,
    laplace_log_marginal,
    newton_mode,
    prior_from_psd,
)
from osplines import inference
from osplines.aghq import adapt_quadrature
from osplines.errors import IterationError


def correlated_log_post(calls):
    """A 2-d Gaussian log density that records each theta it is asked for."""
    prec = np.array([[4.0, 1.0], [1.0, 2.0]])
    centre = np.array([0.3, -0.2])

    def log_post(theta):
        calls.append(tuple(theta.tolist()))
        dev = theta - centre
        return -0.5 * float(dev @ prec @ dev), len(calls)

    return log_post


def test_quadrature_evaluates_each_theta_once_and_keeps_grid_states():
    calls = []
    grid = adapt_quadrature(correlated_log_post(calls), [0.0, 0.0], 3)
    m = grid.points.shape[0]
    before, after = calls[:-m], calls[-m:]
    # the optimizer and the finite-difference Hessian ask for some thetas
    # more than once (the mode, at least); each reaches log_post once
    assert len(before) == len(set(before))
    assert tuple(grid.mode.tolist()) in before
    # every grid point is evaluated afresh, the mode included, in serpentine
    # order (the middle row of the 3 x 3 grid backwards); results stay in
    # product order
    serpentine = [0, 1, 2, 5, 4, 3, 6, 7, 8]
    assert after == [tuple(grid.points[i].tolist()) for i in serpentine]
    assert tuple(grid.mode.tolist()) in after
    assert [grid.states[i] for i in serpentine] == list(range(len(before) + 1, len(calls) + 1))
    np.testing.assert_allclose(grid.weights.sum(), 1.0)


def test_a_search_over_no_hyperparameters_is_the_one_point_grid():
    """With every hyperparameter fixed the grid is theta = () with weight 1,
    and the normalizing constant is the log posterior there, to the bit."""
    grid = adapt_quadrature(lambda theta: (-3.25, "state"), np.zeros(0), 10)
    assert grid.points.shape == (1, 0)
    assert grid.weights.tolist() == [1.0]
    assert grid.log_normconst == -3.25
    assert grid.states == ["state"]


def test_newton_search_finds_a_gaussian_mode_in_two_stencils():
    """On a quadratic the stencil is exact, so one Newton step lands on the
    mode and a second stencil confirms it: at most 2 * 3^d distinct thetas
    before the grid."""
    calls = []
    grid = adapt_quadrature(correlated_log_post(calls), [0.0, 0.0], 3)
    before = calls[: -grid.points.shape[0]]
    assert len(set(before)) <= 2 * 3**2
    np.testing.assert_allclose(grid.mode, [0.3, -0.2], rtol=0, atol=1e-8)
    np.testing.assert_allclose(grid.neg_hessian, [[4.0, 1.0], [1.0, 2.0]], rtol=1e-6)


def test_newton_search_steps_out_of_a_convex_region():
    # -log(1 + theta^2) is convex for |theta| > 1, so the search starts with
    # gradient steps and finishes with Newton steps at the mode 0
    grid = adapt_quadrature(lambda th: (-float(np.log1p(th[0] ** 2)), None), [3.0], 3)
    assert abs(grid.mode[0]) < 1e-3
    np.testing.assert_allclose(grid.neg_hessian, [[2.0]], rtol=1e-4)


@pytest.mark.parametrize("log_post", [
    lambda th: (2.0 * float(th[0]), None),  # no mode: steps until the iteration cap
    lambda th: (1.0, None),  # flat: the first step is zero
    lambda th: (float("nan"), None),  # the first step is not finite
], ids=["linear", "constant", "nan"])
def test_newton_search_without_a_mode_raises(log_post):
    with pytest.raises(IterationError):
        adapt_quadrature(log_post, [0.0], 3)


def test_library_logger_writes_nothing_by_default():
    handlers = logging.getLogger("osplines").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_aghq_fit_solves_once_per_theta_and_keeps_grid_approxes(monkeypatch):
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 4.0, 30)
    ys = rng.poisson(np.exp(1.0 + np.sin(xs)))
    basis = OSplineBasis(2, build_equal_knots(0.0, 4.0, 8))
    model = build_model(
        xs, ys, basis, "poisson",
        sigma_prior=prior_from_psd(PSDSpec(h=1.0, order=2), 1.0, 0.5),
    )
    solved = []
    real_newton = inference.newton_mode

    def newton(model, theta=(), **kwargs):
        approx = real_newton(model, theta, **kwargs)
        solved.append((tuple(np.atleast_1d(theta).tolist()), approx))
        return approx

    monkeypatch.setattr(inference, "newton_mode", newton)
    fit = aghq_fit(model, num_quad=5, num_samples=50, seed=2)
    m = fit.theta_points.shape[0]
    before = [theta for theta, _ in solved[:-m]]
    assert len(before) == len(set(before))
    assert [theta for theta, _ in solved[-m:]] == [tuple(pt) for pt in fit.theta_points.tolist()]
    assert all(a is b for a, (_, b) in zip(fit.approxes, solved[-m:]))
    assert fit.weights.sum() == pytest.approx(1.0)


def test_count_family_grid_is_solved_in_serpentine_order_to_cold_solve_weights(monkeypatch):
    """On a 4 x 4 poisson_od grid each Newton solve follows a grid
    neighbour's, and the log posterior values and weights agree with cold
    solves from zero at the same points to the Newton tolerance.  A
    predicted gain of 1e-14 nats leaves the mode ~1e-7 from exact in the
    precision's norm, and the log-determinant moves with the mode to first
    order, so warm and cold solves stand up to ~1e-7 nats apart (8e-8 here;
    1.6e-8 when the grid was solved in product order)."""
    xs = np.linspace(0.0, 10.0, 40)
    ys = np.random.default_rng(3).poisson(np.exp(0.7 * np.sin(xs / 2.0) + 1.0)).astype(float)
    model = build_model(
        xs, ys, OSplineBasis(2, build_equal_knots(0.0, 10.0, 6)), "poisson_od",
        sigma_prior=ExponentialPrior(1.0), family_hyper_prior=ExponentialPrior(np.log(2.0) / 0.2),
        poly_prior_sd=3.0,
    )
    grids, solved = [], []
    adapt, real_newton = inference.adapt_quadrature, inference.newton_mode
    monkeypatch.setattr(inference, "adapt_quadrature",
                        lambda *args: grids.append(adapt(*args)) or grids[-1])
    monkeypatch.setattr(inference, "newton_mode", lambda model, theta=(), **kwargs: (
        solved.append(tuple(np.atleast_1d(theta).tolist())) or real_newton(model, theta, **kwargs)))
    fit = aghq_fit(model, num_quad=4, num_samples=0)
    grid = grids[0]
    # each point's node index along each axis, from its standardized coordinates
    z = np.round((grid.points - grid.mode) @ np.linalg.inv(grid.chol_cov).T, 8)
    nodes = np.column_stack([np.unique(col, return_inverse=True)[1] for col in z.T])
    order = [fit.theta_points.tolist().index(list(theta)) for theta in solved[-16:]]
    assert sorted(order) == list(range(16))
    assert np.all(np.abs(np.diff(nodes[order], axis=0)).sum(axis=1) == 1)
    cold = np.array([laplace_log_marginal(model, t, newton_mode(model, t))
                     for t in fit.theta_points])
    np.testing.assert_allclose(grid.log_post_values, cold, rtol=0, atol=2e-7)
    weights = np.exp(cold + grid.log_adjust - np.logaddexp.reduce(cold + grid.log_adjust))
    np.testing.assert_allclose(fit.weights, weights, rtol=2e-7)


@pytest.mark.parametrize("offset", [0.0, -3e4, -3e6])
def test_grid_weights_sum_to_one_at_any_scale(offset):
    """A 2-d Gaussian log posterior offset by up to -3e6 on a 10 x 10 grid:
    the weights sum to one within 1e-14 and equal an extended-precision
    normalization of the same computed values to 1e-14 relative.  (The
    values round by up to 5e-10 at -3e6, so the referee takes them as
    computed, with their log adjustment, in doubles.)  Normalized by logsumexp, their sum missed one by 1.6e-10
    at -3e6, and by more than multinomial's 1e-12 at -3e4."""
    prec = np.array([[4.0, 1.0], [1.0, 2.0]])
    centre = np.array([0.3, -0.2])

    def log_post(theta):
        dev = theta - centre
        return offset - 0.5 * float(dev @ prec @ dev), None

    grid = adapt_quadrature(log_post, [0.0, 0.0], 10)
    assert abs(np.sum(grid.weights) - 1.0) <= 1e-14
    v = (grid.log_post_values + grid.log_adjust).astype(np.longdouble)  # as computed
    mass = np.exp(v - np.max(v))
    want = mass / np.sum(mass)
    assert np.max(np.abs(grid.weights - want) / want) <= 1e-14
    assert grid.log_normconst == pytest.approx(float(np.max(v) + np.log(np.sum(mass))),
                                               rel=1e-15)
