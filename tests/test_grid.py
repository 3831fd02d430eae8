"""Grid container and stencil behaviour."""

import numpy as np
import pytest

from monolab.grid import (
    GridSpec,
    ScalarField,
    _circulant,
    _gradient,
    _gradient_T,
    _gradient_gram,
    _real_fourier,
    _slab_stencils,
    _stencil_along,
    _stencil_symbol2,
    d1,
    d2,
    integrate,
)

from conftest import layout, rel_err, roll_d1, roll_d2

TWO_PI = 2.0 * np.pi


def keff(phi, h):
    # symbol of the 7-point first-derivative stencil at phase phi
    return (45 * np.sin(phi) - 9 * np.sin(2 * phi) + np.sin(3 * phi)) / (30 * h)


def test_gridspec_basics():
    g = GridSpec((8, 8, 16, 8), (TWO_PI, TWO_PI, 2 * TWO_PI, TWO_PI))
    assert g.node_count == 8 * 8 * 16 * 8
    assert np.allclose(g.spacing, TWO_PI / 8)
    assert np.isclose(g.cell_volume, (TWO_PI / 8) ** 4)
    assert g.coordinate(2).shape == (16,)
    assert g.mesh(2).shape == g.dims
    assert g.compatible(GridSpec((8, 8, 16, 8), (TWO_PI, TWO_PI, 2 * TWO_PI, TWO_PI)))
    assert not g.compatible(GridSpec((8,) * 4, (TWO_PI,) * 4))


def test_gridspec_rejects_bad_input():
    with pytest.raises(ValueError):
        GridSpec((3, 8, 8, 8), (TWO_PI,) * 4)
    with pytest.raises(ValueError):
        GridSpec((8,) * 4, (0.0, TWO_PI, TWO_PI, TWO_PI))


def test_field_shape_validation():
    g = GridSpec((8,) * 4, (TWO_PI,) * 4)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 8, 8, 7)))


def test_d1_exact_on_resolved_mode():
    # translation invariance makes the stencil act by its symbol exactly
    g = GridSpec((8,) * 4, (TWO_PI,) * 4)
    h = g.spacing[0]
    x = g.mesh(0)
    for k in (1, 2, 3):
        got = d1(np.sin(k * x), 0, h)
        want = keff(k * h, h) * np.cos(k * x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_d1_symbol_matches_circulant_spectrum():
    # the real Fourier basis is orthonormal and diagonalises C^T C for the
    # d1 matrix C, with the symbol's axis-k line, s_k^2, on the diagonal
    # (the other axes contribute exactly 0 at column 0); the line also
    # matches the circulant's eigenvalues i s_k, read off the FFT of its
    # first row.  Below 7 nodes the stencil wraps onto itself
    for dims in ((4, 5, 6, 7), (8, 9, 16, 7)):
        grid = GridSpec(dims, (1.0, 2.0, 3.0, 4.0))
        k2 = _stencil_symbol2(grid)
        for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
            q, j = _real_fourier(n)
            got = k2[(0,) * ax + (slice(None),) + (0,) * (3 - ax)]
            c = _circulant("d1", n, h)
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-15
            assert np.max(np.abs(q.T @ c.T @ c @ q - np.diag(got))) <= 1e-13 * np.max(got)
            want = np.fft.fft(c[0]).imag[j] ** 2
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
            assert np.all(got[(j == 0) | (2 * j == n)] == 0.0)


def test_gram_circulant_is_symmetric_with_the_symbol_as_its_spectrum():
    # D^T D is summed in integers and divided once, so it is exactly
    # symmetric; the real Fourier basis
    # diagonalises it with the symbol's axis-k line, s_k^2, on the diagonal.
    # Below 7 nodes the stencil wraps onto itself
    for dims in ((4, 5, 6, 7), (8, 9, 16, 7)):
        grid = GridSpec(dims, (1.0, 2.0, 3.0, 4.0))
        k2 = _stencil_symbol2(grid)
        for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
            gram = _circulant("gram", n, h)
            assert np.array_equal(gram, gram.T)
            q = _real_fourier(n)[0]
            got = k2[(0,) * ax + (slice(None),) + (0,) * (3 - ax)]
            assert np.max(np.abs(q.T @ gram @ q - np.diag(got))) <= 1e-12 * np.max(got)


def test_d1_constant_is_zero():
    g = GridSpec((8,) * 4, (TWO_PI,) * 4)
    assert np.max(np.abs(d1(np.full(g.dims, 0.7), 1, g.spacing[1]))) < 1e-13
    assert np.max(np.abs(d2(np.full(g.dims, 0.7), 1, g.spacing[1]))) < 1e-13


def order_between(err_coarse, err_fine, ratio):
    return np.log(err_coarse / err_fine) / np.log(ratio)


def test_stencils_are_sixth_order():
    errs1, errs2 = [], []
    for n in (16, 32):
        x = np.arange(n) * (TWO_PI / n)
        h = TWO_PI / n
        f = np.exp(np.sin(x))
        want1 = np.cos(x) * f
        want2 = (np.cos(x) ** 2 - np.sin(x)) * f
        # a 1-D line is differenced as the last grid axis, the one counted
        # from the end of the shape
        errs1.append(np.max(np.abs(d1(f, 3, h) - want1)))
        errs2.append(np.max(np.abs(d2(f, 3, h) - want2)))
    assert order_between(errs1[0], errs1[1], 2.0) > 5.5
    assert order_between(errs2[0], errs2[1], 2.0) > 5.5


def test_d1_antisymmetric():
    rng = np.random.default_rng(3)
    g = GridSpec((8,) * 4, (TWO_PI,) * 4)
    f = rng.standard_normal(g.dims)
    w = rng.standard_normal(g.dims)
    lhs = np.sum(d1(f, 2, g.spacing[2]) * w)
    rhs = -np.sum(f * d1(w, 2, g.spacing[2]))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_integrate_matches_hand_written_sum(m8_conf):
    # the metric-weighted Riemann sum, summed in the same order: equal bits
    g = m8_conf.grid
    f = np.sin(g.mesh(0)) * np.cos(g.mesh(3)) + 0.3
    assert integrate(f, m8_conf) == float(np.sum(f * m8_conf.vol) * g.cell_volume)
    assert integrate(1.0, m8_conf) == float(np.sum(m8_conf.vol) * g.cell_volume)


# (node counts, periods, trailing component shape of the node-major field);
# the last grid has four distinct (n, h) pairs, two with equal h and two
# with equal n, so that a stencil matrix cached under the wrong key gives a
# wrong derivative.  The kernels see the field's component-major copy,
# (tail, dims), as every caller in the package hands it over
KERNEL_CASES = [
    ((8,) * 4, (TWO_PI,) * 4, ()),
    ((8,) * 4, (TWO_PI,) * 4, (6,)),
    ((8,) * 4, (TWO_PI,) * 4, (4, 3)),
    ((8, 8, 16, 8), (TWO_PI, 3.0, 2 * TWO_PI, 5.0), ()),
]


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_kernels_match_roll_stencils(dims, periods, tail):
    g = GridSpec(dims, periods)
    v = layout(np.random.default_rng(8).standard_normal(dims + tail), "comp")
    for axis, h in enumerate(g.spacing):
        assert rel_err(d1(v, axis, h), roll_d1(v, axis - 4, h)) < 1e-14
        assert rel_err(d2(v, axis, h), roll_d2(v, axis - 4, h)) < 1e-14


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_kernels_exactly_zero_along_constant_axis(dims, periods, tail):
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(9)
    for axis, h in enumerate(g.spacing):
        shape = list(dims + tail)
        shape[axis] = 1
        v = layout(np.broadcast_to(rng.standard_normal(shape), dims + tail), "comp")
        assert np.array_equal(d1(v, axis, h), np.zeros_like(v))
        assert np.array_equal(d2(v, axis, h), np.zeros_like(v))


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_d1_plain_sum_adjoint(dims, periods, tail):
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(10)
    f = layout(rng.standard_normal(dims + tail), "comp")
    w = layout(rng.standard_normal(dims + tail), "comp")
    for axis, h in enumerate(g.spacing):
        lhs = np.sum(d1(f, axis, h) * w)
        rhs = -np.sum(f * d1(w, axis, h))
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(d1(f, axis, h) * w))


@pytest.mark.parametrize("tail, rows", [((6,), [0, 2, 5]), ((4, 3), [3, 0, 1]),
                                        ((6,), [1, 2, 3, 5, 4, 0, 1])])
def test_d1_rows_match_the_gathered_call(tail, rows):
    # the bits of d1(f[rows]) on the whole grid and on an axis-0 slab
    g = GridSpec((8, 8, 16, 8), (TWO_PI, 3.0, 2 * TWO_PI, 5.0))
    f = layout(np.random.default_rng(12).standard_normal(g.dims + tail), "comp")
    slab = np.ascontiguousarray(f[..., 3, :, :, :])
    for axis, h in enumerate(g.spacing):
        assert np.array_equal(d1(f, axis, h, rows=rows), d1(f[rows], axis, h))
        if axis:
            assert np.array_equal(d1(slab, axis, h, rows=rows), d1(slab[rows], axis, h))


# n0 from below the stencil's width, where offsets wrap onto one column, up
# to a full row, and a non-cubic grid
SLAB_GRIDS = [GridSpec((n0, 5, 6, 4), (TWO_PI, 3.0, 7.0, 5.0)) for n0 in (4, 5, 6, 7, 8)] + [
    GridSpec((8, 9, 10, 12), (6.0, 7.0, 5.5, 8.0))]


@pytest.mark.parametrize("g", SLAB_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
def test_axis0_slab_stencils_match_the_whole_grid_rows(g):
    f = np.random.default_rng(13).standard_normal((12,) + g.dims)
    h = g.spacing[0]
    whole = np.stack([d1(f, 0, h), d2(f, 0, h)])
    for i in range(g.dims[0]):
        for rows in (range(12), [5, 6, 7, 0]):
            slab = _slab_stencils(f, i, h, rows)
            ref = whole[:, rows, i]
            assert slab.shape == ref.shape
            assert np.max(np.abs(slab - ref)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("g", SLAB_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
def test_axis0_slab_stencils_are_exactly_zero_on_fields_constant_along_axis_0(g):
    rng = np.random.default_rng(14)
    f = np.broadcast_to(rng.standard_normal((3, 1) + g.dims[1:]), (3,) + g.dims).copy()
    f += 1e3  # far from 0: only subtracting x_i makes the rows exactly 0
    for i in range(g.dims[0]):
        assert np.all(_slab_stencils(f, i, g.spacing[0], [2, 0]) == 0.0)


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_gradient_pair_is_adjoint(dims, periods, tail):
    # the derivative axis leads; the component axes ride along behind it
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(tail + dims)
    flux = rng.standard_normal((4,) + tail + dims)
    df = _gradient(f, g)
    for axis, h in enumerate(g.spacing):
        assert np.array_equal(df[axis], d1(f, axis, h))
    lhs = np.sum(df * flux)
    rhs = np.sum(f * _gradient_T(flux, g))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(df * flux))


# every KERNEL_CASES grid plus one whose axes are shorter than the stencil
GRAM_CASES = KERNEL_CASES + [((4, 5, 6, 9), (1.0, 2.0, 3.0, 4.0), (3,))]


@pytest.mark.parametrize("dims, periods, tail", GRAM_CASES)
def test_gradient_gram_matches_the_gradient_pair(dims, periods, tail):
    # L = sum_k D_k^T D_k in one pass per axis is the gradient followed by
    # its transpose, to roundoff
    g = GridSpec(dims, periods)
    f = np.random.default_rng(15).standard_normal(tail + dims)
    assert rel_err(_gradient_gram(f, g), _gradient_T(_gradient(f, g), g)) < 1e-13


@pytest.mark.parametrize("dims, periods, tail", GRAM_CASES)
def test_gradient_gram_is_exactly_zero_along_constant_axis(dims, periods, tail):
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(16)
    for axis, h in enumerate(g.spacing):
        shape = list(tail + dims)
        shape[len(tail) + axis] = 1
        v = np.broadcast_to(rng.standard_normal(shape), tail + dims) + 1e3
        assert np.array_equal(_stencil_along("gram", v, axis, h, None), np.zeros_like(v))
    assert np.array_equal(_gradient_gram(np.full(tail + dims, 0.7), g), np.zeros(tail + dims))
