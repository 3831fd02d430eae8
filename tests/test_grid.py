"""Grid container and stencil behaviour."""

import numpy as np
import pytest

from monolab import GridSpec, ScalarField, integrate
from monolab.grid import _circulant, _stencil_symbol2, d1, d2, gradient, gradient_T

from conftest import rel_err, roll_d1

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
    # the first row of a circulant transforms to its eigenvalues, i s_k for
    # the d1 matrix; the symbol's axis-k line is s_k^2, since the other
    # axes contribute exactly 0 at index 0
    grid = GridSpec((7, 8, 9, 16), (1.0, 2.0, 3.0, 4.0))
    k2 = _stencil_symbol2(grid)
    for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        got = k2[(0,) * ax + (slice(None),) + (0,) * (3 - ax)]
        want = np.fft.fft(_circulant("d1", n, h)[0]).imag[: got.size] ** 2
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        assert got[0] == 0.0
        if n % 2 == 0:
            assert got[n // 2] == 0.0


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
        errs1.append(np.max(np.abs(d1(f, 0, h) - want1)))
        errs2.append(np.max(np.abs(d2(f, 0, h) - want2)))
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


def roll_d2(v, axis, h):
    r = np.roll
    return (2 * r(v, -3, axis) - 27 * r(v, -2, axis) + 270 * r(v, -1, axis) - 490 * v
            + 270 * r(v, 1, axis) - 27 * r(v, 2, axis) + 2 * r(v, 3, axis)) / (180.0 * h * h)


# (node counts, periods, trailing component shape); the last grid has four
# distinct (n, h) pairs, two with equal h and two with equal n, so that a
# stencil matrix cached under the wrong key gives a wrong derivative
KERNEL_CASES = [
    ((8,) * 4, (TWO_PI,) * 4, ()),
    ((8,) * 4, (TWO_PI,) * 4, (6,)),
    ((8,) * 4, (TWO_PI,) * 4, (4, 3)),
    ((8, 8, 16, 8), (TWO_PI, 3.0, 2 * TWO_PI, 5.0), ()),
]


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_kernels_match_roll_stencils(dims, periods, tail):
    g = GridSpec(dims, periods)
    v = np.random.default_rng(8).standard_normal(dims + tail)
    for axis, h in enumerate(g.spacing):
        assert rel_err(d1(v, axis, h), roll_d1(v, axis, h)) < 1e-14
        assert rel_err(d2(v, axis, h), roll_d2(v, axis, h)) < 1e-14


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_kernels_exactly_zero_along_constant_axis(dims, periods, tail):
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(9)
    for axis, h in enumerate(g.spacing):
        shape = list(dims + tail)
        shape[axis] = 1
        v = np.broadcast_to(rng.standard_normal(shape), dims + tail).copy()
        assert np.array_equal(d1(v, axis, h), np.zeros_like(v))
        assert np.array_equal(d2(v, axis, h), np.zeros_like(v))


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_d1_plain_sum_adjoint(dims, periods, tail):
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(dims + tail)
    w = rng.standard_normal(dims + tail)
    for axis, h in enumerate(g.spacing):
        lhs = np.sum(d1(f, axis, h) * w)
        rhs = -np.sum(f * d1(w, axis, h))
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(d1(f, axis, h) * w))


@pytest.mark.parametrize("dims, periods, tail", KERNEL_CASES)
def test_gradient_pair_is_adjoint(dims, periods, tail):
    # the derivative axis sits right after the grid axes; trailing axes ride along
    g = GridSpec(dims, periods)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(dims + tail)
    flux = rng.standard_normal(dims + (4,) + tail)
    df = gradient(f, g)
    for axis, h in enumerate(g.spacing):
        assert np.array_equal(df[:, :, :, :, axis], d1(f, axis, h))
    lhs = np.sum(df * flux)
    rhs = np.sum(f * gradient_T(flux, g))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(df * flux))
