"""Knots, piecewise-constant test functions and the overlapping-spline basis.

The order-``p`` basis on knots ``s_1 < ... < s_k`` (with the process origin
``s_0`` at the left end of the region) is built by integrating the indicator
test function of each knot cell ``p`` times.  Basis function ``i`` is
therefore a difference of two truncated powers,

    phi_i(x) = [(x - s_{i-1})_+^p - (x - s_i)_+^p] / p!,

which vanishes on ``[s_0, s_{i-1}]``, equals ``(x - s_{i-1})^p / p!`` inside
its own cell, and continues to the right as the degree-``(p-1)`` polynomial

    sum_{j=1..p} d_i^j (x - s_i)^{p-j} / (j! (p-j)!),   d_i = s_i - s_{i-1}

(expand ``(z + d_i)^p`` with ``z = x - s_i``).  For ``p = 0`` the
difference is the step ``[x > s_{i-1}] - [x > s_i]``, the cell indicator.

Differentiating the order-``p`` basis ``q`` times lands exactly on the
order-``(p-q)`` basis over the same knots, so joint inference for a function
and its derivatives only ever requires re-evaluating design matrices at a
lower order with unchanged weights.

On each knot cell a function in the span -- weights ``w`` on the basis plus
the degree-``(p-1)`` polynomials -- is a degree-``p`` polynomial, fixed by
its Taylor state at the cell's left end: the derivatives
``g^(m)(s_{c-1})``, m < p, and ``g^(p) = w_c`` inside the cell.  The state
carries from cell to cell by the Taylor shift
``a'_m = sum_{r>=m} a_r h_c^{r-m} / (r-m)!`` over the cell width ``h_c``,
which is the recursion by which the ``p``-fold integrated Wiener process
integrates its piecewise-constant ``p``-th derivative.  :func:`cell_offsets`
places locations in cells for evaluation in that form.

Knot cells are right-closed, ``(s_{i-1}, s_i]``, which fixes evaluation
exactly at knot locations.  All types are immutable and all operations are
pure functions, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _require

# Practical process orders are small; a fixed factorial table avoids any
# overflow policy for huge p.
MAX_ORDER = 20
_FACT = np.array([math.factorial(i) for i in range(MAX_ORDER + 2)], dtype=float)


def _require_order(value) -> int:
    """``value`` as a process order: an integer, not a bool, in 1..MAX_ORDER."""
    _require(
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and 1 <= value <= MAX_ORDER,
        f"order must be an integer in 1..{MAX_ORDER}",
    )
    return int(value)


@dataclass(frozen=True)
class KnotSet:
    """Ordered knot locations over a closed region.

    The process origin ``s_0`` equals ``region_start`` and is not a stored
    knot.  ``spacings[i-1] = s_i - s_{i-1}``.
    """

    region_start: float
    region_end: float
    knots: np.ndarray

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "region_start", float(self.region_start))
        object.__setattr__(self, "region_end", float(self.region_end))
        _require(
            math.isfinite(self.region_start) and math.isfinite(self.region_end),
            "region bounds must be finite",
        )
        _require(self.region_end > self.region_start, "region must have positive length")
        _require(knots.ndim == 1 and knots.size >= 1, "need at least one knot")
        _require(bool(np.all(np.isfinite(knots))), "knots must be finite")
        _require(knots[0] > self.region_start, "first knot must lie strictly right of region_start")
        _require(bool(np.all(np.diff(knots) > 0)), "knots must be strictly increasing")
        _require(knots[-1] <= self.region_end, "knots must not exceed region_end")

    @property
    def size(self) -> int:
        return int(self.knots.size)

    @property
    def spacings(self) -> np.ndarray:
        """Cell widths d_i = s_i - s_{i-1}, with s_0 = region_start: the
        diagonal of the weight prior precision at sigma = 1, so the weight
        variances are 1/d_i."""
        return np.diff(self.knots, prepend=self.region_start)

    @property
    def lower_knots(self) -> np.ndarray:
        """Left cell boundaries s_0 .. s_{k-1}."""
        return np.concatenate(([self.region_start], self.knots[:-1]))


def build_equal_knots(region_start: float, region_end: float, k: int) -> KnotSet:
    """Place ``k`` equally spaced knots, s_i = start + i * (end - start) / k.

    ``s_0 = region_start`` is the process origin, not a stored knot;
    ``s_k = region_end``.
    """
    _require(isinstance(k, (int, np.integer)) and not isinstance(k, bool), "k must be an integer")
    _require(k >= 1, "k must be positive")
    _require(
        math.isfinite(region_start) and math.isfinite(region_end),
        "region bounds must be finite",
    )
    _require(region_end > region_start, "region must have positive length")
    knots = np.linspace(region_start, region_end, int(k) + 1)[1:]
    return KnotSet(region_start, region_end, knots)


@dataclass(frozen=True)
class OSplineBasis:
    """Overlapping-spline basis of a given order over a knot set."""

    order: int
    knot_set: KnotSet

    def __post_init__(self):
        object.__setattr__(self, "order", _require_order(self.order))

    @property
    def size(self) -> int:
        return self.knot_set.size

    @property
    def region_start(self) -> float:
        return self.knot_set.region_start

    @property
    def region_end(self) -> float:
        return self.knot_set.region_end


@dataclass(frozen=True)
class DesignBlock:
    """Dense design matrix of basis-function derivatives.

    ``values[i, j]`` is the ``derivative_order``-th derivative of basis
    function ``j+1`` (of order ``source_order``) at the i-th location.  Rows
    for locations left of a basis function's support are zero, giving the
    upper-trapezoidal structure; the matrix is stored dense.
    """

    values: np.ndarray
    derivative_order: int
    source_order: int

    @property
    def shape(self):
        return self.values.shape


def _basis_columns(basis: OSplineBasis, xs: np.ndarray, q: int) -> np.ndarray:
    """(n, k) array of q-th basis derivatives at ``xs``; no range validation.

    With m = p - q, column i is [(x - s_{i-1})_+^m - (x - s_i)_+^m] / m!, and
    for m = 0 the indicator of the right-closed cell (s_{i-1}, s_i].  Powers
    are taken by repeated multiplication, which is faster than ``**``; two
    (n, k) temporaries are held besides the result.
    """
    m = basis.order - q
    x = np.asarray(xs, dtype=float)[:, None]
    ks = basis.knot_set
    if m == 0:
        return ((x > ks.lower_knots) & (x <= ks.knots)).astype(float)
    base = x - ks.lower_knots
    np.maximum(base, 0.0, out=base)
    cols = base.copy()
    for _ in range(m - 1):
        cols *= base
    np.subtract(x, ks.knots, out=base)
    np.maximum(base, 0.0, out=base)
    power = base.copy()
    for _ in range(m - 1):
        power *= base
    cols -= power
    cols /= _FACT[m]
    return cols


def _locations(basis: OSplineBasis, xs) -> np.ndarray:
    """``xs`` as a float array, checked to be finite and inside the region."""
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    _require(bool(np.all(np.isfinite(x))), "locations must be finite")
    bad = (x < basis.region_start) | (x > basis.region_end)
    if bad.any():
        raise InvalidArgumentError(
            f"location {x[bad][0]} outside region "
            f"[{basis.region_start}, {basis.region_end}]"
        )
    return x


def design_matrix(basis: OSplineBasis, xs, q: int = 0) -> DesignBlock:
    """Design matrix with entry (i, j) = q-th derivative of basis j at xs[i].

    Locations must lie inside the region; extrapolation is not supported.
    Locations exactly at the region start produce zero rows.
    """
    p = basis.order
    _require(0 <= q <= p, f"derivative order {q} exceeds basis order {p}")
    x = _locations(basis, xs)
    return DesignBlock(values=_basis_columns(basis, x, q), derivative_order=q, source_order=p)


def cell_offsets(basis: OSplineBasis, xs) -> tuple[np.ndarray, np.ndarray]:
    """Knot cell of each location and its offset from the cell's left end.

    Cells are numbered 0..k+1: cell c in 1..k is (s_{c-1}, s_c]; cell 0 is
    the point s_0 itself, which no right-closed cell contains; cell k+1 is
    (s_k, region_end], empty when the last knot is the region's end.  The
    offset is x - s_{c-1} (0 in cell 0, x - s_k in cell k+1).  Locations are
    checked as :func:`design_matrix` checks them.
    """
    x = _locations(basis, xs)
    ks = basis.knot_set
    cells = np.searchsorted(ks.knots, x, side="left") + 1
    cells[x == ks.region_start] = 0
    left = np.concatenate(([ks.region_start, ks.region_start], ks.knots))
    return cells, x - left[cells]


def polynomial_design(xs, p: int, q: int = 0) -> np.ndarray:
    """n x p matrix of q-th derivatives of the monomials x^l, l = 0..p-1.

    Columns with l < q are zero; at x = 0 the surviving column l = q holds q!.
    """
    p = _require_order(p)
    _require(0 <= q <= p, f"derivative order {q} exceeds polynomial block order {p}")
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.zeros((x.size, p))
    for l in range(q, p):
        out[:, l] = (_FACT[l] / _FACT[l - q]) * x ** (l - q)
    return out
