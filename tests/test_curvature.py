"""Curvature stack against closed forms and an independent eigenvalue oracle."""

import numpy as np
import pytest

from monolab import (
    CurvatureBundle,
    GridSpec,
    ScalarField,
    build_metric,
    curvature_stack,
    metric_from_preset,
    random_smooth_scalar,
)
from monolab.bases import H_MINUS, PAIRS, TRIPLES, X3
from monolab.curvature import curvature_operator
from monolab.grid import integrate

from conftest import (
    generic_metric,
    rel_err,
    roll_d1,
    textbook_christoffel,
    textbook_eta,
    textbook_three_form_star,
)

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
    for value in (np.nan, np.inf):
        finite = np.tile(np.eye(4), g.dims + (1, 1))
        finite[1, 2, 3, 4, 2, 2] = value
        with pytest.raises(ValueError, match=r"node \(1, 2, 3, 4\)"):
            build_metric(g, finite)
    # SPD, but det g overflows or underflows
    for scale in (1e200, 1e-200):
        with pytest.raises(ValueError, match="volume factor"):
            build_metric(g, np.tile(scale * np.eye(4), g.dims + (1, 1)))


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
    # w is the lowest eigenvalue of the stack's own W+, node by node
    grid, g = generic_metric(8)
    cb = curvature_stack(build_metric(grid, g))
    cubic = [sym3x3_eigs(a)[0] for a in cb.wplus.reshape(-1, 3, 3)]
    assert np.max(np.abs(cb.w.values.reshape(-1) - cubic)) < 1e-12 * np.max(np.abs(cb.wplus))


def test_bundle_rejects_bad_weyl_storage(grid8):
    g = grid8
    zeros = ScalarField(g, np.zeros(g.dims))
    wbad = np.zeros(g.dims + (3, 3))
    wbad[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        CurvatureBundle(zeros, wbad, zeros)
    wpos = ScalarField(g, np.full(g.dims, 0.5))
    with pytest.raises(ValueError):
        CurvatureBundle(zeros, np.zeros(g.dims + (3, 3)), wpos)


def test_three_form_algebra_matches_tensor_definitions():
    # a generic metric: non-diagonal SPD and not conformally flat; no
    # derivatives are taken, so a small grid suffices
    grid = GridSpec((4, 4, 4, 4))
    rng = np.random.default_rng(31)
    a = rng.standard_normal(grid.dims + (4, 4))
    g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
    m = build_metric(grid, g)
    gi, vol = m.ginv, m.vol

    star_stored = np.einsum("...mijk,lijk->...ml", textbook_three_form_star(g), X3)
    gram3 = np.empty(grid.dims + (4, 4))
    for l, I in enumerate(TRIPLES):
        for k, J in enumerate(TRIPLES):
            gram3[..., l, k] = np.linalg.det(gi[..., I, :][..., :, J])
    w1 = gi * vol[..., None, None]
    weight = gram3 * vol[..., None, None] + np.einsum(
        "...ml,...mn,...nk->...lk", star_stored, w1, star_stored, optimize=True
    )

    def rel(x, y):
        return np.max(np.abs(x - y)) / np.max(np.abs(y))

    assert rel(m.hodge_weight, weight) < 1e-13


# ---------------------------------------------------------------------------
# generic metrics: a test-only textbook chain and the topological oracles of T^4


def _roll_d2(v, axis, h):
    r = np.roll
    return (2 * r(v, -3, axis) - 27 * r(v, -2, axis) + 270 * r(v, -1, axis) - 490 * v
            + 270 * r(v, 1, axis) - 27 * r(v, 2, axis) + 2 * r(v, 3, axis)) / (180.0 * h * h)


def textbook_curvature(g, spacing):
    """Scalar curvature and W+ by the textbook chain on full index tensors:
    ddg -> Riemann -> Ricci -> Weyl -> frame.  It shares no code with the
    package; the eta basis, the Christoffel symbols and the stencils are
    written out here and in conftest."""
    gi = np.linalg.inv(g)
    dg = [roll_d1(g, k, h) for k, h in enumerate(spacing)]
    gam = textbook_christoffel(g, spacing)
    ddg = np.empty(g.shape[:4] + (4, 4, 4, 4))
    for i in range(4):
        for j in range(4):
            if i == j:
                ddg[..., i, i, :, :] = _roll_d2(g, i, spacing[i])
            else:
                ddg[..., i, j, :, :] = roll_d1(dg[max(i, j)], min(i, j), spacing[min(i, j)])
    riem = 0.5 * (np.einsum("...jkil->...ijkl", ddg) + np.einsum("...iljk->...ijkl", ddg)
                  - np.einsum("...jlik->...ijkl", ddg) - np.einsum("...ikjl->...ijkl", ddg))
    riem += np.einsum("...np,...njk,...pil->...ijkl", g, gam, gam, optimize=True)
    riem -= np.einsum("...np,...njl,...pik->...ijkl", g, gam, gam, optimize=True)
    ricci = np.einsum("...ik,...ijkl->...jl", gi, riem)
    scal = np.einsum("...jl,...jl->...", gi, ricci)
    gric = (np.einsum("...ik,...jl->...ijkl", g, ricci)
            - np.einsum("...il,...jk->...ijkl", g, ricci)
            + np.einsum("...jl,...ik->...ijkl", g, ricci)
            - np.einsum("...jk,...il->...ijkl", g, ricci))
    gg = np.einsum("...ik,...jl->...ijkl", g, g) - np.einsum("...il,...jk->...ijkl", g, g)
    weyl = riem - 0.5 * gric + (scal / 6.0)[..., None, None, None, None] * gg
    einv = np.linalg.inv(np.swapaxes(np.linalg.cholesky(g), -1, -2))
    wf = np.einsum("...ia,...jb,...ijkl,...kc,...ld->...abcd", einv, einv, weyl, einv, einv,
                   optimize=True)
    eta = textbook_eta()
    return scal, 0.25 * np.einsum("ast,...stuv,buv->...ab", eta, wf, eta)


def test_pair_operator_matches_textbook_chain():
    grid, g = generic_metric(8)
    m = build_metric(grid, g)
    cb = curvature_stack(m)
    scal, wplus = textbook_curvature(g, grid.spacing)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(cb.wplus, wplus) < 1e-12


# full antisymmetric components of the stored pairs: X2[p, i, j]
X2 = np.zeros((6, 4, 4))
for p, (i, j) in enumerate(PAIRS):
    X2[p, i, j], X2[p, j, i] = 1.0, -1.0


def _topology_and_covariance(n):
    """On one generic metric: the relative signature gap of int |W+|^2 - |W-|^2,
    the relative Chern-Gauss-Bonnet integral (chi(T^4) = 0), and the pointwise
    error of W+(e^{2f} g) = e^{-2f} W+(g) relative to max |W+(g)|."""
    grid, g = generic_metric(n)
    m = build_metric(grid, g)
    op = curvature_operator(m)
    cb = curvature_stack(m)
    scal, wplus = cb.scalar.values, cb.wplus
    wminus = H_MINUS @ op @ H_MINUS.T - (scal / 12.0)[..., None, None] * np.eye(3)
    full = np.einsum("pab,...pq,qcd->...abcd", X2, op, X2, optimize=True)
    ric0 = np.einsum("...abad->...bd", full) - (scal / 4.0)[..., None, None] * np.eye(4)
    wp2 = integrate(np.sum(wplus**2, axis=(-2, -1)), m)
    wm2 = integrate(np.sum(wminus**2, axis=(-2, -1)), m)
    r2 = integrate(scal**2 / 24.0, m)
    ric2 = integrate(np.sum(ric0**2, axis=(-2, -1)) / 2.0, m)
    gap = abs(wp2 - wm2) / (wp2 + wm2)
    euler = abs(wp2 + wm2 + r2 - ric2) / (wp2 + wm2 + r2 + ric2)

    f = random_smooth_scalar(grid, np.random.default_rng(99), 1, 0.2)
    conf = curvature_stack(build_metric(grid, np.exp(2.0 * f)[..., None, None] * g))
    cov = rel_err(conf.wplus, np.exp(-2.0 * f)[..., None, None] * wplus)
    return np.array([gap, euler, cov])


@pytest.fixture(scope="module")
def refinement():
    ns = (8, 12, 16)
    errs = [_topology_and_covariance(n) for n in ns]
    orders = [np.log(errs[k] / errs[k + 1]) / np.log(ns[k + 1] / ns[k]) for k in range(2)]
    return errs, orders


def test_signature_integral_converges_to_zero(refinement):
    # tau(T^4) = 0: int |W+|^2 = int |W-|^2, a divergence at the stencil's order
    errs, orders = refinement
    assert errs[-1][0] < 1e-5
    assert min(o[0] for o in orders) >= 5.0


def test_chern_gauss_bonnet_integral_converges_to_zero(refinement):
    # chi(T^4) = 0 pins the relative weights of |W+-|^2, R^2/24 and |Ric0|^2/2
    errs, orders = refinement
    assert errs[-1][1] < 1e-4
    assert min(o[1] for o in orders) >= 5.0


def test_selfdual_weyl_is_conformally_covariant(refinement):
    # W+(e^{2f} g) = e^{-2f} W+(g) pointwise in the frame, up to the
    # discretisation error of two different metrics
    errs, orders = refinement
    assert errs[-1][2] < 1e-2
    assert min(o[2] for o in orders) >= 4.5
