"""Curvature stack against closed forms and an independent eigenvalue oracle."""

import numpy as np
import pytest

from monolab import (
    CurvatureBundle,
    GridSpec,
    ScalarField,
    build_metric,
    curvature_stack,
    lowest_eigenvalue,
    metric_from_preset,
)
from monolab.bases import EPS, TRIPLES, X3

TWO_PI = 2.0 * np.pi


def sym3x3_eigs(a):
    """Closed-form eigenvalues of a symmetric 3x3 matrix (trigonometric cubic)."""
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p = np.sqrt(max(np.sum(b * b) / 6.0, 0.0))
    if p < 1e-300:
        return np.array([q, q, q])
    r = np.clip(np.linalg.det(b / p) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eigs = q + 2.0 * p * np.cos(phi + 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(eigs)


def test_flat_is_flat(m8, curv8):
    assert m8.is_flat
    assert np.max(np.abs(curv8.scalar.values)) < 1e-11
    assert np.max(np.abs(curv8.wplus)) < 1e-11
    assert np.max(np.abs(curv8.w.values)) < 1e-11


def test_build_metric_rejects_bad_storage():
    g = GridSpec((8,) * 4)
    bad = np.tile(np.eye(4), g.dims + (1, 1))
    bad[..., 0, 1] = 0.1
    with pytest.raises(ValueError):
        build_metric(g, bad)
    spd = np.tile(np.eye(4), g.dims + (1, 1))
    spd[2, 3, 4, 5, 0, 0] = -1.0
    with pytest.raises(ValueError, match="node"):
        build_metric(g, spd)


def test_conformal_scalar_matches_closed_form():
    g = GridSpec((10,) * 4)
    m = metric_from_preset("conformal:0.1*sin(x0)*cos(x2)", g)
    cb = curvature_stack(m)
    x0, x2 = g.mesh(0), g.mesh(2)
    f = 0.1 * np.sin(x0) * np.cos(x2)
    lap = -2.0 * f
    grad2 = (0.1 * np.cos(x0) * np.cos(x2)) ** 2 + (0.1 * np.sin(x0) * np.sin(x2)) ** 2
    closed = np.exp(-2 * f) * (-6.0 * lap - 6.0 * grad2)
    assert np.max(np.abs(cb.scalar.values - closed)) < 5e-3
    # conformally flat, so the self-dual Weyl part vanishes
    assert np.max(np.abs(cb.wplus)) < 1e-12
    assert np.max(np.abs(cb.w.values)) < 1e-12


def test_kaehler_product_matches_closed_form():
    g = GridSpec((10,) * 4)
    m = metric_from_preset("kaehler-product:0.1*sin(x2)*cos(x3)", g)
    cb = curvature_stack(m)
    u = 0.1 * np.sin(g.mesh(2)) * np.cos(g.mesh(3))
    scalar = -2.0 * np.exp(-2 * u) * (-2.0 * u)
    assert np.max(np.abs(cb.scalar.values - scalar)) < 2e-3
    eigs = np.linalg.eigvalsh(cb.wplus)
    closed = np.sort(np.stack([scalar / 6, -scalar / 12, -scalar / 12], axis=-1), axis=-1)
    assert np.max(np.abs(eigs - closed)) < 1e-3
    assert np.max(np.abs(cb.w.values - np.minimum(scalar / 6, -scalar / 12))) < 1e-3


def test_lowest_eigenvalue_against_cubic_oracle():
    g = GridSpec((4, 4, 4, 4))
    rng = np.random.default_rng(12)
    a = rng.standard_normal(g.dims + (3, 3))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    low = lowest_eigenvalue(a, g).values
    flat = a.reshape(-1, 3, 3)
    idx = rng.choice(flat.shape[0], size=40, replace=False)
    for i in idx:
        assert abs(low.reshape(-1)[i] - sym3x3_eigs(flat[i])[0]) < 1e-10
    with pytest.raises(ValueError):
        lowest_eigenvalue(np.zeros(g.dims + (3, 4)), g)


def test_coframe_gauge_only_rotates_weyl(m8_conf, curv8_conf):
    # any coframe with e^T e = g gives the same scalars and Weyl spectrum
    g = m8_conf.grid
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array(
        [[c, -s, 0, 0], [s, c, 0, 0], [0, 0, c, s], [0, 0, -s, c]]
    )
    e = np.einsum("...ab,bc->...ac", m8_conf.coframe, rot)
    cb2 = curvature_stack(m8_conf, coframe=e)
    assert np.max(np.abs(cb2.scalar.values - curv8_conf.scalar.values)) < 1e-9
    assert np.max(np.abs(cb2.w.values - curv8_conf.w.values)) < 1e-9
    e1 = np.linalg.eigvalsh(curv8_conf.wplus)
    e2 = np.linalg.eigvalsh(cb2.wplus)
    assert np.max(np.abs(e1 - e2)) < 1e-9


def test_bundle_rejects_bad_weyl_storage(m8):
    g = m8.grid
    zeros = ScalarField(g, np.zeros(g.dims))
    wbad = np.zeros(g.dims + (3, 3))
    wbad[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        CurvatureBundle(m8, zeros, wbad, zeros)
    wpos = ScalarField(g, np.full(g.dims, 0.5))
    with pytest.raises(ValueError):
        CurvatureBundle(m8, zeros, np.zeros(g.dims + (3, 3)), wpos)


def test_three_form_algebra_matches_tensor_definitions():
    # a generic metric: non-diagonal SPD and not conformally flat; no
    # derivatives are taken, so a small grid suffices
    grid = GridSpec((4, 4, 4, 4))
    rng = np.random.default_rng(31)
    a = rng.standard_normal(grid.dims + (4, 4))
    g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
    m = build_metric(grid, g)
    gi, vol = m.ginv, m.vol

    star3 = np.einsum(
        "...,...ia,...jb,...kc,labc,ijkm->...ml", vol, gi, gi, gi, X3, EPS, optimize=True
    ) / 6.0
    gram3 = np.empty(grid.dims + (4, 4))
    for l, I in enumerate(TRIPLES):
        for k, J in enumerate(TRIPLES):
            gram3[..., l, k] = np.linalg.det(gi[..., I, :][..., :, J])
    w1 = gi * vol[..., None, None]
    weight = gram3 * vol[..., None, None] + np.einsum(
        "...ml,...mn,...nk->...lk", star3, w1, star3, optimize=True
    )

    def rel(x, y):
        return np.max(np.abs(x - y)) / np.max(np.abs(y))

    assert rel(m.star3, star3) < 1e-13
    assert rel(m.gram3, gram3) < 1e-13
    assert rel(m.hodge_weight, weight) < 1e-13
