import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from osplines import (
    InvalidArgumentError,
    IWPKernel,
    KnotSet,
    OSplineBasis,
    PSDSpec,
    build_equal_knots,
    design_matrix,
    polynomial_design,
)
from osplines.basis import _basis_columns
from oracles import basis_columns_sum_form, basis_eval, repeated_integral_of_test_function
from oracles import test_function_eval as cell_indicator


# ---------------------------------------------------------------------------
# knots
# ---------------------------------------------------------------------------


def test_equal_knots_examples():
    ks = build_equal_knots(0.0, 1.0, 2)
    npt.assert_allclose(ks.knots, [0.5, 1.0])
    npt.assert_allclose(ks.spacings, [0.5, 0.5])

    ks = build_equal_knots(0.0, 15.0, 5)
    npt.assert_allclose(ks.knots, [3.0, 6.0, 9.0, 12.0, 15.0])

    ks = build_equal_knots(0.0, 20.0, 100)
    assert ks.size == 100
    npt.assert_allclose(ks.spacings, 0.2)


def test_equal_knots_near_equal_spacing():
    ks = build_equal_knots(-2.0, 13.0, 37)
    spread = ks.spacings.max() - ks.spacings.min()
    assert spread <= 1e-12 * (ks.region_end - ks.region_start)


@pytest.mark.parametrize(
    "args",
    [
        (np.nan, 1.0, 3),
        (0.0, np.inf, 3),
        (0.0, 1.0, 0),
        (1.0, 0.0, 3),
    ],
)
def test_equal_knots_rejects_bad_arguments(args):
    with pytest.raises(InvalidArgumentError):
        build_equal_knots(*args)


def test_knotset_invariants_enforced():
    with pytest.raises(InvalidArgumentError):
        KnotSet(0.0, 1.0, [0.5, 0.5])
    with pytest.raises(InvalidArgumentError):
        KnotSet(0.0, 1.0, [0.0, 0.5])  # first knot must exceed region start
    with pytest.raises(InvalidArgumentError):
        KnotSet(0.0, 1.0, [0.5, 1.2])


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_test_function_right_closed_cells():
    ks = build_equal_knots(0.0, 1.0, 2)
    assert cell_indicator(ks, 1, 0.3) == 1.0
    assert cell_indicator(ks, 1, 0.5) == 1.0
    assert cell_indicator(ks, 1, 0.50001) == 0.0
    assert cell_indicator(ks, 2, 0.3) == 0.0
    assert cell_indicator(ks, 1, 0.0) == 0.0


def test_test_function_index_validation():
    ks = build_equal_knots(0.0, 1.0, 2)
    with pytest.raises(InvalidArgumentError):
        cell_indicator(ks, 0, 0.3)
    with pytest.raises(InvalidArgumentError):
        cell_indicator(ks, 3, 0.3)


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------


def test_basis_eval_examples():
    b1 = OSplineBasis(1, build_equal_knots(0.0, 1.0, 2))
    assert basis_eval(b1, 1, 0.75, 0) == pytest.approx(0.5)

    b2 = OSplineBasis(2, build_equal_knots(0.0, 1.0, 2))
    assert basis_eval(b2, 1, 0.5, 0) == pytest.approx(0.125)


def test_basis_eval_matches_repeated_integration_oracle():
    ks = KnotSet(0.0, 3.0, [1.0, 2.0, 3.0])
    b3 = OSplineBasis(3, ks)
    want = repeated_integral_of_test_function(ks, 2, 2.7, 3)
    assert basis_eval(b3, 2, 2.7, 0) == pytest.approx(want, abs=1e-8)


def test_basis_eval_random_triples_match_oracle(rng):
    ks = build_equal_knots(0.0, 4.0, 6)
    for _ in range(12):
        p = int(rng.integers(1, 5))
        i = int(rng.integers(1, 7))
        x = float(rng.uniform(0.0, 4.0))
        basis = OSplineBasis(p, ks)
        want = repeated_integral_of_test_function(ks, i, x, p)
        assert basis_eval(basis, i, x, 0) == pytest.approx(want, abs=1e-8)


def test_basis_eval_order_p_is_test_function():
    ks = build_equal_knots(0.0, 3.0, 4)
    basis = OSplineBasis(3, ks)
    for i in (1, 3):
        for x in (0.2, 0.75, 1.5, 2.25, 3.0):
            assert basis_eval(basis, i, x, 3) == cell_indicator(ks, i, x)


def test_basis_eval_validation():
    b = OSplineBasis(2, build_equal_knots(0.0, 1.0, 3))
    with pytest.raises(InvalidArgumentError):
        basis_eval(b, 1, 0.5, 3)
    with pytest.raises(InvalidArgumentError):
        basis_eval(b, 1, -0.1, 0)
    with pytest.raises(InvalidArgumentError):
        OSplineBasis(0, build_equal_knots(0.0, 1.0, 3))
    with pytest.raises(InvalidArgumentError):
        OSplineBasis(21, build_equal_knots(0.0, 1.0, 3))


@given(
    p=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=8),
    scale=st.floats(min_value=0.1, max_value=50.0),
)
def test_continuity_at_every_knot(p, k, scale):
    """Values and derivatives up to order p-1 agree across each knot."""
    basis = OSplineBasis(p, build_equal_knots(0.0, scale, k))
    boundaries = np.concatenate(([0.0], basis.knot_set.knots))
    for q in range(p):
        for i in range(1, k + 1):
            for s in boundaries:
                left = basis_eval(basis, i, s, q)
                right = basis_eval(basis, i, float(np.nextafter(s, np.inf)), q)
                assert abs(left - right) <= 1e-10 * (1.0 + abs(left))


@given(
    p=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=9),
)
def test_sparsity_left_of_support(p, k):
    basis = OSplineBasis(p, build_equal_knots(0.0, 2.0, k))
    lows = basis.knot_set.lower_knots
    for i in range(1, k + 1):
        for q in range(p + 1):
            x = float(lows[i - 1] * 0.7)
            assert basis_eval(basis, i, x, q) == 0.0
            assert basis_eval(basis, i, float(lows[i - 1]), q) == 0.0


def test_zero_at_origin_all_derivatives():
    basis = OSplineBasis(4, build_equal_knots(0.0, 5.0, 7))
    for i in range(1, 8):
        for q in range(4):
            assert basis_eval(basis, i, 0.0, q) == 0.0


# ---------------------------------------------------------------------------
# design matrices
# ---------------------------------------------------------------------------


def test_design_matrix_zero_row_at_region_start():
    basis = OSplineBasis(3, build_equal_knots(0.0, 1.0, 4))
    block = design_matrix(basis, [0.0], 0)
    npt.assert_array_equal(block.values, 0.0)


def test_design_matrix_matches_scalar_eval(rng):
    basis = OSplineBasis(3, build_equal_knots(0.0, 2.0, 5))
    xs = rng.uniform(0.0, 2.0, 17)
    for q in range(4):
        block = design_matrix(basis, xs, q)
        assert block.derivative_order == q and block.source_order == 3
        for r, x in enumerate(xs):
            for j in range(5):
                assert block.values[r, j] == pytest.approx(
                    basis_eval(basis, j + 1, float(x), q), rel=1e-13, abs=1e-15
                )


def test_derivative_consistency_design_equals_lower_order():
    ks = build_equal_knots(0.0, 10.0, 8)
    xs = np.linspace(0.0, 10.0, 33)
    for p in (2, 3, 4):
        for q in range(1, p):
            high = design_matrix(OSplineBasis(p, ks), xs, q).values
            low = design_matrix(OSplineBasis(p - q, ks), xs, 0).values
            npt.assert_allclose(high, low, atol=1e-12, rtol=0)


def test_design_matrix_quadrature_oracle_columns():
    ks = build_equal_knots(0.0, 15.0, 5)
    basis = OSplineBasis(3, ks)
    xs = np.linspace(0.0, 15.0, 50)
    block = design_matrix(basis, xs, 0)
    for j in range(5):
        want = [repeated_integral_of_test_function(ks, j + 1, float(x), 3) for x in xs]
        npt.assert_allclose(block.values[:, j], want, atol=1e-8, rtol=0)


@pytest.mark.parametrize("k", [10, 100, 1000])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_closed_form_columns_match_sum_form(p, k, rng):
    """The truncated-power difference agrees with the per-knot sum form at
    the region start, at every knot and between knots."""
    ks = build_equal_knots(-3.0, 17.0, k)
    xs = np.concatenate(([ks.region_start], ks.knots, rng.uniform(-3.0, 17.0, 200)))
    basis = OSplineBasis(p, ks)
    for q in range(p + 1):
        got = _basis_columns(basis, xs, q)
        want = basis_columns_sum_form(basis, xs, q)
        npt.assert_array_equal(got != 0.0, want != 0.0)
        nz = want != 0.0
        assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) <= 1e-12


def test_design_matrix_rejects_extrapolation():
    basis = OSplineBasis(2, build_equal_knots(0.0, 1.0, 3))
    with pytest.raises(InvalidArgumentError):
        design_matrix(basis, [0.5, 1.2], 0)
    with pytest.raises(InvalidArgumentError):
        design_matrix(basis, [-0.1], 0)


def test_design_matrix_upper_trapezoidal_zeros(rng):
    basis = OSplineBasis(3, build_equal_knots(0.0, 6.0, 6))
    xs = np.sort(rng.uniform(0.0, 6.0, 25))
    lows = basis.knot_set.lower_knots
    vals = design_matrix(basis, xs, 0).values
    for j in range(6):
        npt.assert_array_equal(vals[xs <= lows[j], j], 0.0)


# ---------------------------------------------------------------------------
# polynomial design and weight precision
# ---------------------------------------------------------------------------


def test_polynomial_design_examples():
    npt.assert_allclose(polynomial_design([2.0], 3, 0), [[1.0, 2.0, 4.0]])
    npt.assert_allclose(polynomial_design([2.0], 3, 1), [[0.0, 1.0, 4.0]])
    npt.assert_allclose(polynomial_design([0.0], 4, 2), [[0.0, 0.0, 2.0, 0.0]])


def test_polynomial_design_validation():
    with pytest.raises(InvalidArgumentError):
        polynomial_design([1.0], 0, 0)
    with pytest.raises(InvalidArgumentError):
        polynomial_design([1.0], 3, 4)


@pytest.mark.parametrize("make", [
    lambda p: OSplineBasis(p, build_equal_knots(0.0, 1.0, 4)),
    lambda p: IWPKernel(p, 1.0),
    lambda p: PSDSpec(h=1.0, order=p),
    lambda p: polynomial_design([0.5], p),
], ids=["OSplineBasis", "IWPKernel", "PSDSpec", "polynomial_design"])
@pytest.mark.parametrize("order", [True, 0, 21, 2.5])
def test_every_order_check_rejects_the_same_values(make, order):
    with pytest.raises(InvalidArgumentError, match="order must be an integer in 1..20"):
        make(order)


def test_weight_precision_examples():
    ks = build_equal_knots(0.0, 1.0, 10)
    npt.assert_allclose(ks.spacings, 0.1)
    npt.assert_allclose(1.0 / ks.spacings, 10.0)  # weight variance k

    npt.assert_allclose(build_equal_knots(0.0, 1.0, 2).spacings, [0.5, 0.5])
    npt.assert_allclose(KnotSet(0.0, 4.0, [1.0, 4.0]).spacings, [1.0, 3.0])
