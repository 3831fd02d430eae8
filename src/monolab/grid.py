"""Uniform periodic grids on the 4-torus and finite-difference calculus.

A chart is a uniform lattice on [0, L_0) x ... x [0, L_3) with periodic
wraparound, node coordinates x_i = j * h_i and spacing h_i = L_i / n_i.
All derivative operators are 7-point 6th-order central differences, each
applied as one cached dense periodic circulant per axis (a matrix product
along that axis).  They are exactly zero on fields constant along the
axis, the first-derivative matrix is exactly antisymmetric (summation by
parts holds to machine precision under plain sums), and they commute
across axes.  A third circulant per axis, d1's Gram matrix D^T D, is
exactly symmetric and runs through the same kernel; `_gradient_gram` sums
it over the axes, L = sum_k D_k^T D_k, the operator that `_gradient_T`
after `_gradient` applies in two passes.  Code that works one axis-0 slab
at a time takes the axis-0 rows of d1 and d2 from `_slab_stencils`, which
reads only the slab's neighbouring slices.  Quadrature is the
metric-weighted Riemann sum sum_p f(p) vol(p) prod_i h_i, which is
spectrally accurate for smooth periodic integrands.

The d1 Fourier symbol `_stencil_symbol2`, which preconditions the harmonic
solve and the lambda minimiser, is computed from the same stencil table;
it is the symbol of L.  Every stencil matrix is a symmetric-circulant
problem (D^T D for d1, d2 itself): a real orthonormal Fourier basis per
axis, `_real_fourier`, diagonalises it (Davis, Circulant Matrices, 1979;
Strang, SIAM Review 41, 1999).  `_fourier_multiply` therefore applies a
symbol as dense per-axis matrix products, the same kernel as the
derivatives.

Every field and tensor in memory is component-major, (c..., n0, n1, n2,
n3), C order: the public value objects here and in `selfdual`, `rayleigh`,
`spinc` and `curvature`, the stencil kernel behind `d1` and `d2`, and every
array behind them.  Each component is one contiguous block, so a stencil
along any grid axis is one matrix product into a C-contiguous result, each
per-node contraction runs over the long node axis, and a scalar field
times a field broadcasts as it stands.  Only files are node-major (grid
axes first, components last); `io` converts at that boundary.  Plain sums
are taken over an array as it is stored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "integrate",
    "d1",
    "d2",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous view of `a`; the caller's own array stays writable."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


def _worst_node(values: np.ndarray) -> tuple:
    """Grid node of the largest entry of a scalar grid array, as plain ints;
    of a mask, the first node that holds a True."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(values)), values.shape))


@dataclass(frozen=True)
class GridSpec:
    """Shape of a periodic 4-torus chart: node counts and box periods."""

    dims: tuple[int, int, int, int]
    periods: tuple[float, float, float, float] = (2 * np.pi,) * 4

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        periods = tuple(float(L) for L in self.periods)
        if len(dims) != 4 or len(periods) != 4:
            raise ValueError("GridSpec needs exactly 4 dims and 4 periods")
        if any(n < 4 for n in dims):
            raise ValueError(f"dims must be >= 4 per axis, got {dims}")
        if any(L <= 0 for L in periods):
            raise ValueError(f"periods must be positive, got {periods}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "periods", periods)

    # the derived values are computed once per instance; cached_property
    # writes the instance __dict__ directly, which a frozen dataclass allows
    @functools.cached_property
    def spacing(self) -> tuple[float, float, float, float]:
        return tuple(L / n for L, n in zip(self.periods, self.dims))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @functools.cached_property
    def node_count(self) -> int:
        return int(np.prod(self.dims))

    @functools.cached_property
    def spectral_scale(self) -> float:
        """(2 pi / L)^2 of the longest period, the chart's lowest squared wavenumber."""
        return min((2.0 * np.pi / L) ** 2 for L in self.periods)

    def coordinate(self, axis: int) -> np.ndarray:
        """1D node coordinates along one axis."""
        h = self.spacing[axis]
        return np.arange(self.dims[axis]) * h

    def mesh(self, axis: int) -> np.ndarray:
        """Coordinate of `axis` broadcast to the full grid shape."""
        shape = [1, 1, 1, 1]
        shape[axis] = self.dims[axis]
        return np.broadcast_to(
            self.coordinate(axis).reshape(shape), self.dims
        ).copy()

    def compatible(self, other: "GridSpec") -> bool:
        return self.dims == other.dims and np.allclose(self.periods, other.periods)


@dataclass(frozen=True)
class ScalarField:
    """Immutable real scalar samples on a grid chart."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.dims:
            raise ValueError(f"scalar field shape {v.shape} != grid dims {self.grid.dims}")
        object.__setattr__(self, "values", _freeze(v))


# 7-point 6th-order stencils: (integer weights at offsets -3..3, common
# denominator, derivative order); offset k reads node i + k
_STENCILS = {
    "d1": ((-1, 9, -45, 0, 45, -9, 1), 60.0, 1),
    "d2": ((2, -27, 270, -490, 270, -27, 2), 180.0, 2),
}


def _integer_circulant(stencil: str, n: int) -> np.ndarray:
    """A stencil's periodic n x n matrix of integer weights; offsets that wrap
    onto one column when n < 7 are summed."""
    m = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for offset, w in zip(range(-3, 4), _STENCILS[stencil][0]):
        np.add.at(m, (rows, (rows + offset) % n), w)
    return m


@functools.cache
def _circulant(stencil: str, n: int, h: float) -> np.ndarray:
    """Dense periodic n x n matrix of one stencil at spacing h, read-only:
    "d1", "d2", or "gram", d1's Gram matrix D^T D.

    Entries are summed as integers and divided once, so the d1 matrix is
    exactly antisymmetric and the d2 matrix exactly symmetric.  The Gram
    matrix is M^T M of d1's integer matrix M over (60 h)^2, so it is
    exactly symmetric too.
    """
    if stencil == "gram":
        m = _integer_circulant("d1", n)
        return _freeze((m.T @ m) / (_STENCILS["d1"][1] * h) ** 2)
    _, denom, order = _STENCILS[stencil]
    return _freeze(_integer_circulant(stencil, n) / (denom * h**order))


@functools.cache
def _real_fourier(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real Fourier basis of length n and each column's frequency,
    both read-only.

    Column order: the constant, then cos and sin of each frequency j from 1
    to (n - 1) // 2, then the alternating mode when n is even.  Q^T D Q is
    diagonal for every symmetric circulant D, so any real multiplier that is
    even in each frequency acts column by column.
    """
    j = (np.arange(n) + 1) // 2
    # the phase j k mod n is reduced in integers before scaling, so the
    # basis is as accurate at every n
    phase = 2.0 * np.pi / n * ((np.arange(n)[:, None] * j) % n)
    q = np.cos(phase)
    q[:, 2::2] = np.sin(phase[:, 2::2])
    q *= np.where((j == 0) | (2 * j == n), 1.0, np.sqrt(2.0)) / np.sqrt(n)
    return _freeze(q), _freeze(j)


def _stencil_symbol2(grid: GridSpec) -> np.ndarray:
    """|s|^2 = sum_k s_k^2 of the d1 stencil on the full grid, in the column
    layout of `_real_fourier` along every axis.  d1 maps the cos and sin
    pair of frequency j into each other with gain s_k, the sum of
    w sin(o phi) over the positive offsets o and weights w of the stencil,
    divided by (denominator / 2) h; s_k is exactly 0 at zero and half
    frequency."""
    weights, denom, _ = _STENCILS["d1"]
    k2 = 0.0
    for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        j = _real_fourier(n)[1]
        phi = 2.0 * np.pi * j / n
        s = sum(w * np.sin(o * phi) for o, w in enumerate(weights[4:], 1)) / (denom / 2 * h)
        s[(2 * j) % n == 0] = 0.0
        shape = [1, 1, 1, 1]
        shape[ax] = s.size
        k2 = k2 + (s**2).reshape(shape)
    return k2


def _fourier_multiply(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply a real multiplier, even in each frequency and given in
    `_stencil_symbol2`'s layout, over the grid axes of a component-major
    (c..., dims) array.

    Each component is one contiguous scalar field.  Of it, four products
    x.reshape(n, -1).T @ Q transform the front grid axis and rotate it to
    the back, the symbol multiplies the frequencies, and four products
    Q @ x.reshape(-1, n).T transform back in reverse order, the last one
    straight into the component's block of the result.  Each output entry
    is one length-n dot product per axis, so a stacked field and its
    components get equal bits.
    """
    dims = values.shape[-4:]
    out = np.empty(values.shape)
    for x, o in zip(values.reshape((-1,) + dims), out.reshape((-1,) + dims)):
        for n in dims:
            x = x.reshape(n, -1).T @ _real_fourier(n)[0]
        x = x.reshape(dims)
        x *= symbol
        for n in reversed(dims[1:]):
            x = _real_fourier(n)[0] @ x.reshape(-1, n).T
        np.matmul(_real_fourier(dims[0])[0], x.reshape(-1, dims[0]).T,
                  out=o.reshape(dims[0], -1))
    return out


def _stencil_along(stencil: str, values: np.ndarray, axis: int, h: float,
                   out: np.ndarray | None, rows=None) -> np.ndarray:
    """The one stencil kernel behind `d1`, `d2` and `_gradient_gram`: one
    C-contiguous product along grid `axis`, counted from the end of the
    shape.

    Viewed as (pre, n, post), with post the nodes after the axis, the
    derivative is np.matmul(D, x), one D @ (n, post) block per leading
    index; along the last axis (post = 1) it is x.reshape(-1, n) @ D^T.
    The first slice along the axis is subtracted first, which the stencils
    annihilate, so the result is exactly zero (not roundoff) on fields
    constant along the axis.  With `rows`, each of those indices of the
    first axis is one such product on its view of `values`, so nothing is
    gathered into a copy first.
    """
    n = values.shape[axis - 4]
    D = _circulant(stencil, n, float(h))
    post = math.prod(values.shape[axis - 3:]) if axis < 3 else 1
    if rows is None:
        blocks, shape = [values], values.shape
    else:
        blocks, shape = [values[i] for i in rows], (len(rows),) + values.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=values.dtype)
    for block, o in zip(blocks, out.reshape(len(blocks), -1)):
        x = block.reshape(-1, n, post)
        shifted = np.subtract(x, x[:, :1])
        if axis == 3:
            np.matmul(shifted.reshape(-1, n), D.T, out=o.reshape(-1, n))
        else:
            np.matmul(D, shifted, out=o.reshape(x.shape))
    return out


def _slab_stencils(values: np.ndarray, i: int, h: float, rows) -> np.ndarray:
    """d1 and d2 along grid axis 0 of the components `rows` of a
    component-major (c, n0, n1, n2, n3) array at the one axis-0 index i,
    stacked as (2, len(rows), n1, n2, n3).

    Row i of a circulant D applied to x is sum_{j != i} D[i, j] (x_j - x_i),
    since each row of a stencil sums to zero: the slices j where row i of
    either stencil is nonzero are gathered once, x_i is subtracted, and
    both rows are one (2, columns) @ (columns, rest) product.  Only those
    neighbouring slices are read, never a whole-grid copy.  The result is
    exactly zero on fields constant along axis 0, and for n0 < 7 the
    circulant's own entries sum the offsets that wrap onto one column.  It
    agrees with the same rows of the whole-grid `d1` and `d2` to roundoff,
    not in bits.
    """
    n = values.shape[1]
    weights = np.stack([_circulant(s, n, float(h))[i] for s in ("d1", "d2")])
    cols = np.flatnonzero(weights.any(axis=0) & (np.arange(n) != i))
    rows = np.asarray(rows)
    # (columns, rows, n1, n2, n3): each neighbour's slices minus slice i
    diff = values[rows[None, :], cols[:, None]]
    diff -= values[rows, i]
    both = np.matmul(weights[:, cols], diff.reshape(len(cols), -1))
    return both.reshape((2,) + diff.shape[1:])


def d1(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
       rows=None) -> np.ndarray:
    """Centred 6th-order first derivative along grid `axis` of a
    component-major (c..., n0, n1, n2, n3) array, or of an axis-0 slab of
    one, (c..., n1, n2, n3), with the grid's own axis numbers; into `out`,
    which must be C-contiguous, when given.  With `rows`, a sequence of
    indices of the first axis, only those components: the bits of
    d1(values[rows]) without its copy.  The plain-sum adjoint is exactly
    its negative, and a slab gets the bits of the same rows of the
    whole-grid call."""
    return _stencil_along("d1", values, axis, h, out, rows)


def d2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Dedicated 6th-order second derivative (same axis twice), on the
    layouts of `d1`; the curvature stack uses it where composing two first
    derivatives would waste accuracy."""
    return _stencil_along("d2", values, axis, h, None)


def _gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """d of component-major 0-forms (c..., dims): d1 of every component along
    each grid axis k, stacked as a new leading axis, (4, c..., dims)."""
    out = np.empty((4,) + values.shape, dtype=values.dtype)
    for k, h in enumerate(grid.spacing):
        d1(values, k, h, out=out[k])
    return out


def _gradient_T(flux: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Plain-sum transpose of `_gradient`, -sum_k d1(flux[k]) along axis k
    (the d1 stencil's transpose is its negative)."""
    out = np.zeros(flux.shape[1:], dtype=flux.dtype)
    for k, h in enumerate(grid.spacing):
        out -= d1(flux[k], k, h)
    return out


def _gradient_gram(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """L = sum_k D_k^T D_k of component-major (c..., dims) values, one Gram
    circulant per grid axis k: in exact arithmetic
    `_gradient_T`(`_gradient`(values)), and its real-Fourier symbol is
    `_stencil_symbol2`.  It is exactly zero on constant fields."""
    out = _stencil_along("gram", values, 0, grid.spacing[0], None)
    term = np.empty_like(out)
    for k in range(1, 4):
        out += _stencil_along("gram", values, k, grid.spacing[k], term)
    return out


def integrate(values, m) -> float:
    """Riemann-sum integral of `values` under the metric m: sum f vol prod(h)."""
    # flattened C-order sum: fixed reduction order for reproducibility
    return float(np.sum(values * m.vol) * m.grid.cell_volume)
