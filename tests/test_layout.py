"""The one stencil kernel and the component-major layout against np.roll
and node-major references.

Behind the public node-major types, every field and every tensor that
`MetricField` caches is stored as (components, [batch,] n0, n1, n2, n3).
A reshape that mixes up grid axes goes unseen on a cubic grid, so each
kernel is also checked on the odd, non-cubic grid (7, 9, 11, 13) with four
distinct spacings.
"""

import numpy as np
import pytest

from monolab import GridSpec, build_metric, selfdual
from monolab.bases import PAIRS, TRIPLES
from monolab.grid import (
    _component_major,
    _gradient,
    _gradient_T,
    _node_major,
    d1,
    d2,
)
from monolab.selfdual import _d, _nabla, _nabla_T

from conftest import (
    D_TERMS,
    generic_metric,
    rel_err,
    roll_d1,
    roll_d2,
    textbook_christoffel,
    textbook_eta,
)

CUBIC = GridSpec((8,) * 4)
ODD = GridSpec((7, 9, 11, 13), (6.0, 7.0, 8.0, 9.0))
PAIR_INDEX = {pair: p for p, pair in enumerate(PAIRS)}


def roll_d(f, spacing):
    """d of component-major 1-form or pair components by the textbook
    formulas on np.roll stencils: (dA)_ij = d_i A_j - d_j A_i and
    (d omega)_abc = d_a omega_bc - d_b omega_ac + d_c omega_ab."""
    def dk(v, k):
        return roll_d1(v, k - 4, spacing[k])

    if f.shape[0] == 4:
        return np.stack([dk(f[j], i) - dk(f[i], j) for i, j in PAIRS])
    return np.stack([dk(f[PAIR_INDEX[b, c]], a) - dk(f[PAIR_INDEX[a, c]], b)
                     + dk(f[PAIR_INDEX[a, b]], c) for a, b, c in TRIPLES])


def full_stencil_d(f, grid, transpose=False):
    """`_d` as a scan of the flat coupling-term list that takes d1 of every
    component along every axis and adds each term's plane, axis by axis."""
    width = 10 - f.shape[0] if transpose else f.shape[0]
    n_out, terms = D_TERMS[width]
    out = np.zeros((width if transpose else n_out,) + f.shape[1:])
    for k, h in enumerate(grid.spacing):
        dk = d1(f, k, h)
        for o, axis, i, s in terms:
            if axis != k:
                continue
            if transpose:
                o, i, s = i, o, -s
            if s > 0:
                out[o] += dk[i]
            else:
                out[o] -= dk[i]
    return out


def roll_nabla(sigma, m):
    """Coordinate covariant derivative on np.roll stencils, node-major
    cross products with the cached connection."""
    a = np.moveaxis(m.sd_connection, (0, 1), (-2, -1))
    s = np.moveaxis(sigma, 0, -1)
    nab = np.stack([roll_d1(s, k, h) for k, h in enumerate(m.grid.spacing)], axis=-2)
    nab += np.cross(a, s[..., None, :])
    return np.moveaxis(nab, (-2, -1), (0, 1))


@pytest.mark.parametrize("grid", [CUBIC, ODD], ids=["8^4", "odd"])
@pytest.mark.parametrize("lead", [(3,), (4, 3)], ids=["single", "batched"])
def test_d1_matches_roll(grid, lead):
    v = np.random.default_rng(61).standard_normal(lead + grid.dims)
    for k, h in enumerate(grid.spacing):
        got = d1(v, k, h)
        assert got.flags.c_contiguous
        assert rel_err(got, roll_d1(v, k - 4, h)) < 1e-14
    flux = np.random.default_rng(62).standard_normal((4,) + lead + grid.dims)
    df = _gradient(v, grid)
    lhs = np.sum(df * flux)
    rhs = np.sum(v * _gradient_T(flux, grid))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(df * flux))


@pytest.mark.parametrize("lead", [(), (3,), (4, 3)], ids=["scalar", "single", "batched"])
def test_d2_matches_roll(lead):
    v = np.random.default_rng(66).standard_normal(lead + ODD.dims)
    for k, h in enumerate(ODD.spacing):
        got = d2(v, k, h)
        assert got.flags.c_contiguous
        assert rel_err(got, roll_d2(v, k - 4, h)) < 1e-14


@pytest.mark.parametrize("grid", [CUBIC, ODD], ids=["8^4", "odd"])
@pytest.mark.parametrize("lead", [(), (3,), (4, 3)], ids=["scalar", "single", "batched"])
def test_conversions_and_node_major_sums(grid, lead):
    # both conversions are C-contiguous and invert each other exactly
    rng = np.random.default_rng(65)
    a = rng.standard_normal(grid.dims + lead)
    ca = _component_major(a)
    assert ca.shape == lead + grid.dims and ca.flags.c_contiguous
    assert np.array_equal(np.moveaxis(ca, range(len(lead)), range(-len(lead), 0)), a)
    back = _node_major(ca)
    assert back.flags.c_contiguous and np.array_equal(back, a)


@pytest.mark.parametrize("grid", [CUBIC, ODD], ids=["8^4", "odd"])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
def test_d_matches_roll_reference_and_transposes(grid, batch):
    rng = np.random.default_rng(63)
    for width, out_width in ((4, 6), (6, 4)):
        f = rng.standard_normal((width,) + batch + grid.dims)
        y = rng.standard_normal((out_width,) + batch + grid.dims)
        df = _d(f, grid)
        dty = _d(y, grid, transpose=True)
        assert df.shape == y.shape and dty.shape == f.shape
        assert rel_err(df, roll_d(f, grid.spacing)) < 1e-13
        # three components per axis give the bits of all of them
        assert np.array_equal(df, full_stencil_d(f, grid))
        assert np.array_equal(dty, full_stencil_d(y, grid, transpose=True))
        lhs = np.sum(df * y)
        rhs = np.sum(f * dty)
        assert abs(lhs - rhs) <= 1e-12 * np.sqrt(np.sum(df**2) * np.sum(y**2))
        # each batch column is the unbatched field's derivative, bit for bit
        for col in np.ndindex(*batch):
            one = (slice(None),) + col
            assert np.array_equal(df[one], _d(np.ascontiguousarray(f[one]), grid))
            assert np.array_equal(dty[one], _d(np.ascontiguousarray(y[one]), grid,
                                               transpose=True))
    # d d = 0 up to roundoff: the stencils commute
    a = rng.standard_normal((4,) + batch + grid.dims)
    assert np.max(np.abs(_d(_d(a, grid), grid))) < 1e-12


def test_d_differentiates_three_components_per_axis(monkeypatch):
    # along each axis, 3 of the 4 1-forms feed 3 pairs and 3 of the 6 pairs
    # feed 3 of the 4 3-forms, in either direction
    calls = []

    def recording_d1(values, axis, h, out=None):
        calls.append((axis, values.shape[0]))
        return d1(values, axis, h, out)

    monkeypatch.setattr(selfdual, "d1", recording_d1)
    for width in (4, 6):
        for transpose in (False, True):
            calls.clear()
            _d(np.ones((width, 2) + CUBIC.dims), CUBIC, transpose)
            assert calls == [(k, 3) for k in range(4)]


@pytest.mark.parametrize("grid", [CUBIC, ODD], ids=["8^4", "odd"])
def test_covariant_derivative_kernels_match_roll_and_transpose(grid):
    m = build_metric(grid, generic_metric(grid.dims, periods=grid.periods)[1])
    rng = np.random.default_rng(64)
    sigma = rng.standard_normal((3,) + grid.dims)
    flux = rng.standard_normal((4, 3) + grid.dims)
    nab = _nabla(sigma, m)
    assert nab.shape == flux.shape
    assert rel_err(nab, roll_nabla(sigma, m)) < 1e-13
    lhs = np.sum(nab * flux)
    rhs = np.sum(sigma * _nabla_T(flux, m))
    assert abs(lhs - rhs) <= 1e-12 * np.sqrt(np.sum(nab**2) * np.sum(flux**2))
    if grid is CUBIC:
        # the stencil on the stacked components plus np.cross, bit for bit
        a = np.moveaxis(m.sd_connection, (0, 1), (-2, -1))
        s = np.moveaxis(sigma, 0, -1)
        ref = np.stack([d1(sigma, k, h) for k, h in enumerate(grid.spacing)])
        ref += np.moveaxis(np.cross(a, s[..., None, :]), (-2, -1), (0, 1))
        assert np.array_equal(nab, ref)


def metric_references(g, spacing):
    """Node-major references for every tensor `MetricField` caches, built
    with LAPACK, np.roll stencils and full index tensors."""
    e = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    einv, gi = np.linalg.inv(e), np.linalg.inv(g)
    vol = np.sqrt(np.linalg.det(g))
    gam = textbook_christoffel(g, spacing)
    eta = textbook_eta()
    pi, pj = np.array(PAIRS).T
    # eta_a with lower and with raised coordinate indices, on stored pairs
    eta_low = np.einsum("aAB,...Ai,...Bj->...ija", eta, e, e)
    eta_up = np.einsum("...ik,...jl,...kla->...ija", gi, gi, eta_low)
    # a_k = -sqrt(2) H+ (w_k - w_k^T)_pairs / 2 with w_k = (e Gamma_k - d_k e) e^-1
    conn = np.empty(g.shape[:4] + (4, 3))
    for k, h in enumerate(spacing):
        w = (e @ gam[..., :, k, :] - roll_d1(e, k, h)) @ einv
        conn[..., k, :] = -np.einsum("aij,...ij->...a", eta, w) / np.sqrt(2.0)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return {
        "g": g,
        "coframe": e,
        "vol": vol,
        "inv_coframe": einv,
        "ginv": gi,
        "sd_pairs": eta_low[..., pi, pj, :],
        "sd_pairs_up": eta_up[..., pi, pj, :],
        "sd_connection": conn,
        "hodge_weight": 2.0 * signs[:, None] * g * signs / vol[..., None, None],
        "flux_weight": vol[..., None, None] * gi,
    }


def test_metric_field_tensors_are_component_major():
    # every cached tensor has its grid axes last, and its node-major copy is
    # the reference tensor
    g = generic_metric(ODD.dims, periods=ODD.periods)[1]
    m = build_metric(ODD, g)
    for name, ref in metric_references(g, ODD.spacing).items():
        got = getattr(m, name)
        assert got.shape[-4:] == ODD.dims, name
        assert got.flags.c_contiguous and not got.flags.writeable, name
        if got.ndim > 4:
            got = _node_major(got)
        assert rel_err(got, ref) <= 1e-14, name
