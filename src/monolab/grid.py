"""Uniform periodic grids on the 4-torus and finite-difference calculus.

A chart is a uniform lattice on [0, L_0) x ... x [0, L_3) with periodic
wraparound, node coordinates x_i = j * h_i and spacing h_i = L_i / n_i.
All derivative operators are 7-point 6th-order central differences, each
applied as one cached dense periodic circulant per axis (a matrix product
along that axis).  They are exactly zero on fields constant along the
axis, the first-derivative matrix is exactly antisymmetric (summation by
parts holds to machine precision under plain sums), and they commute
across axes.  Quadrature is the metric-weighted Riemann sum
sum_p f(p) vol(p) prod_i h_i, which is spectrally accurate for smooth
periodic integrands.

The d1 Fourier symbol `_stencil_symbol2`, which preconditions the harmonic
solve and the lambda minimiser through `_fourier_multiply`, is computed
from the same stencil table.

Fields are immutable value objects: a `GridSpec` plus a read-only ndarray
whose leading four axes are the grid axes (axis-major, C order).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "integrate",
    "d1",
    "d2",
    "gradient",
    "gradient_T",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _worst_node(values: np.ndarray) -> tuple:
    """Grid node of the largest entry of a (dims, ...) array, as plain ints;
    of a mask, the first node that holds a True."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(values)), values.shape)[:4])


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

    @property
    def spacing(self) -> tuple[float, float, float, float]:
        return tuple(L / n for L, n in zip(self.periods, self.dims))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def node_count(self) -> int:
        return int(np.prod(self.dims))

    @property
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


@functools.cache
def _circulant(stencil: str, n: int, h: float) -> np.ndarray:
    """Dense periodic n x n matrix of one stencil at spacing h, read-only.

    Entries are summed as integers (offsets wrap onto each other when n < 7)
    and divided once, so the d1 matrix is exactly antisymmetric and the d2
    matrix exactly symmetric.
    """
    weights, denom, order = _STENCILS[stencil]
    m = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for offset, w in zip(range(-3, 4), weights):
        np.add.at(m, (rows, (rows + offset) % n), w)
    return _freeze(m / (denom * h**order))


def _stencil_symbol2(grid: GridSpec) -> np.ndarray:
    """|s|^2 = sum_k s_k^2 of the d1 stencil, rfftn layout.  d1 multiplies
    exp(i j x) by i s_k, the sum of w sin(o phi) over the positive offsets o
    and weights w of the stencil, divided by (denominator / 2) h; s_k is
    exactly 0 at zero and half frequency."""
    weights, denom, _ = _STENCILS["d1"]
    k2 = 0.0
    for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        j = np.arange(n // 2 + 1) if ax == 3 else np.fft.fftfreq(n, 1.0 / n)
        phi = 2.0 * np.pi * j / n
        s = sum(w * np.sin(o * phi) for o, w in enumerate(weights[4:], 1)) / (denom / 2 * h)
        s[(2 * j) % n == 0] = 0.0
        shape = [1, 1, 1, 1]
        shape[ax] = s.size
        k2 = k2 + (s**2).reshape(shape)
    return k2


def _fourier_multiply(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply a real, even Fourier multiplier given in rfftn layout over the
    grid axes, one trailing component at a time.

    Each component is transformed as a scalar field of its own, which gives
    the bits of one transform over the stacked array's grid axes without
    its strided passes over the trailing axes.
    """
    dims = values.shape[:4]
    flat = values.reshape(dims + (-1,))
    out = np.empty(flat.shape)
    for j in range(flat.shape[-1]):
        spec = np.fft.rfftn(flat[..., j], axes=(0, 1, 2, 3))
        spec *= symbol
        out[..., j] = np.fft.irfftn(spec, s=dims, axes=(0, 1, 2, 3))
    return out.reshape(values.shape)


def _apply_along(stencil: str, values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """One product D @ values along `axis`, the same BLAS call whatever the
    trailing components, so a stacked field and its components get equal bits."""
    D = _circulant(stencil, values.shape[axis], float(h))
    moved = values.swapaxes(0, axis)
    # the stencils annihilate constants; removing one slice first makes the
    # result exactly zero (not roundoff) on fields constant along the axis.
    # The same copy puts the axis first in C order, ready for one matmul
    shifted = np.subtract(moved, moved[:1], order="C")
    out = D @ shifted.reshape(shifted.shape[0], -1)
    return out.reshape(shifted.shape).swapaxes(0, axis)


def d1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centred 6th-order first derivative along `axis`; the plain-sum
    adjoint is exactly its negative."""
    return _apply_along("d1", values, axis, h)


def _axis_derivatives(values: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """d1 of every stored component along each grid axis k, one call per axis."""
    return [d1(values, k, h) for k, h in enumerate(grid.spacing)]


def gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """d of 0-forms: d1 of every stored component along each grid axis,
    stacked as a new axis right after the grid axes."""
    return np.stack(_axis_derivatives(values, grid), axis=4)


def gradient_T(flux: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Plain-sum transpose of `gradient`, -sum_k d1(flux[:, :, :, :, k]) along
    axis k (the d1 stencil's transpose is its negative)."""
    out = np.zeros(grid.dims + flux.shape[5:])
    for k, h in enumerate(grid.spacing):
        out -= d1(flux[:, :, :, :, k], k, h)
    return out


def d2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Dedicated 6th-order second derivative (same axis twice); the curvature
    stack uses it where composing two first derivatives would waste accuracy."""
    return _apply_along("d2", values, axis, h)


def integrate(values, m) -> float:
    """Riemann-sum integral of `values` under the metric m: sum f vol prod(h)."""
    # flattened C-order sum: fixed reduction order for reproducibility
    return float(np.sum(values * m.vol) * m.grid.cell_volume)
