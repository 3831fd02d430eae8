"""Curvature stack against closed forms and an independent eigenvalue oracle."""

import tracemalloc

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
from monolab.bases import H_MINUS, H_PLUS, PAIRS, TRIPLES, X3
from monolab.curvature import _SYM_I, _SYM_J, _lambda2, _metric_slabs, _pair_riemann
from monolab.grid import _component_major, _node_major, d1, d2, integrate

from conftest import (
    generic_metric,
    rel_err,
    roll_d1,
    roll_d2,
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


def test_is_flat_is_an_absolute_test(grid8):
    # conformal:4e-6*sin(x0) is the identity to a relative 1e-5 only:
    # |g - 1| reaches 8e-6, so its connection and e^-T may not be dropped
    assert not metric_from_preset("conformal:4e-6*sin(x0)", grid8).is_flat
    g = np.tile(np.eye(4), grid8.dims + (1, 1))
    g[1, 2, 3, 4, 0, 1] = g[1, 2, 3, 4, 1, 0] = 5e-13
    assert build_metric(grid8, g).is_flat
    g[1, 2, 3, 4, 0, 1] = g[1, 2, 3, 4, 1, 0] = 2e-12
    assert not build_metric(grid8, g).is_flat


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
    # SPD, but det g = vol^2 overflows or underflows, though vol may not
    for scale in (1e200, 1e-200, 1e100, 1e-100):
        with pytest.raises(ValueError, match="volume factor"):
            build_metric(g, np.tile(scale * np.eye(4), g.dims + (1, 1)))


def test_metric_algebra_from_the_factor():
    # LAPACK references on a generic (non-diagonal) metric; the package
    # reads these off the Cholesky factor without inverse or determinant
    grid, g = generic_metric(8)
    m = build_metric(grid, g)
    e, einv, gi = (_node_major(x) for x in (m.coframe, m.inv_coframe, m.ginv))
    eye = np.broadcast_to(np.eye(4), g.shape)
    assert np.max(np.abs(np.swapaxes(e, -1, -2) @ e - g)) < 1e-13
    assert np.max(np.abs(einv @ e - eye)) < 1e-13
    assert np.max(np.abs(gi @ g - eye)) < 1e-13
    assert np.array_equal(np.tril(e, -1), np.zeros(g.shape))
    assert rel_err(m.vol, np.sqrt(np.linalg.det(g))) < 1e-14


def test_metric_is_factored_once(monkeypatch):
    grid, g = generic_metric(8)
    factors = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factors.append(cholesky(a))
        return factors[-1]

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    m = build_metric(grid, g)
    curvature_stack(m)
    for derived in (m.ginv, m.vol, m.sd_pairs, m.sd_connection):
        assert np.isfinite(derived).all()
    assert len(factors) == 1
    assert np.array_equal(m.coframe, _component_major(np.swapaxes(factors[0], -1, -2)))


def test_flat_metric_algebra_is_exact(m8):
    # a -0.0 that reaches a report prints as -0.0 and breaks flat byte-identity
    eye = np.broadcast_to(np.eye(4).reshape(4, 4, 1, 1, 1, 1), m8.g.shape)
    for x, ref in ((m8.ginv, eye), (m8.inv_coframe, eye), (m8.coframe, eye),
                   (m8.vol, np.ones(m8.vol.shape))):
        assert np.array_equal(x, ref)
        assert not np.signbit(x).any()


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


@pytest.mark.parametrize("n, expr", [(8, "4*sin(x0)"), (16, "8*sin(x0)")])
def test_bundle_checks_scale_with_the_scalar_curvature(n, expr):
    # W+ = B - R/12 is 0 in the continuum, but its trace and w carry the
    # roundoff of R: measured max|tr W+| 8.9e-8 and 12 against max|R| 3.2e9
    # and 3.0e17, above 1e-8 of max(1, max|W+|)
    curv = curvature_stack(metric_from_preset(f"conformal:{expr}", GridSpec((n,) * 4)))
    rmax = float(np.max(np.abs(curv.scalar.values)))
    assert rmax > 1e8 * max(1.0, float(np.max(np.abs(curv.wplus))))
    traced = curv.wplus.copy()
    traced[..., 0, 0] += 1e-6 * rmax
    with pytest.raises(ValueError, match="trace-free"):
        CurvatureBundle(curv.scalar, traced, curv.w)


def test_three_form_algebra_matches_tensor_definitions():
    # a generic metric: non-diagonal SPD and not conformally flat; no
    # derivatives are taken, so a small grid suffices
    grid = GridSpec((4, 4, 4, 4))
    rng = np.random.default_rng(31)
    a = rng.standard_normal(grid.dims + (4, 4))
    g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
    m = build_metric(grid, g)
    gi, vol = _node_major(m.ginv), m.vol

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

    # the weight is cached component-major, [l, k, ...]
    assert rel(np.moveaxis(m.hodge_weight, (0, 1), (-2, -1)), weight) < 1e-13


# ---------------------------------------------------------------------------
# generic metrics: a test-only textbook chain and the topological oracles of T^4


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
                ddg[..., i, i, :, :] = roll_d2(g, i, spacing[i])
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


def _frame_operator(m):
    """L^T R_pair L with L = Lambda^2(e^-1), e^-1 by LAPACK: the frame
    curvature operator whose trace is R/2 and whose eta-plus and eta-minus
    blocks are W+ and W- plus (R/12) 1."""
    lam = _node_major(_lambda2(_component_major(np.linalg.inv(_node_major(m.coframe)))))
    pair = _node_major(np.stack(list(_pair_riemann(m)), axis=2))
    return np.swapaxes(lam, -1, -2) @ pair @ lam


def test_stack_matches_frame_operator():
    grid, g = generic_metric(8)
    m = build_metric(grid, g)
    cb = curvature_stack(m)
    op = _frame_operator(m)
    scal = 2.0 * np.trace(op, axis1=-2, axis2=-1)
    wplus = H_PLUS @ op @ H_PLUS.T - (scal / 12.0)[..., None, None] * np.eye(3)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(cb.wplus, wplus) < 1e-12


def test_pair_operator_matches_textbook_chain():
    grid, g = generic_metric(8)
    m = build_metric(grid, g)
    cb = curvature_stack(m)
    scal, wplus = textbook_curvature(g, grid.spacing)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(cb.wplus, wplus) < 1e-12


# unequal node counts and periods: a transposed axis, a swapped spacing or a
# slab that is not one index of axis 0 shows here and not on a cube
NONCUBIC = dict(n=(8, 9, 10, 12), seed=17, periods=(6.0, 7.0, 5.5, 8.0))


def test_pair_operator_matches_textbook_chain_on_a_noncubic_grid():
    grid, g = generic_metric(**NONCUBIC)
    m = build_metric(grid, g)
    cb = curvature_stack(m)
    scal, wplus = textbook_curvature(g, grid.spacing)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(cb.wplus, wplus) < 1e-12
    gam = np.stack([gam for _, _, gam in _metric_slabs(m)], axis=2)
    textbook = textbook_christoffel(g, grid.spacing)
    assert rel_err(_node_major(gam), textbook[..., _SYM_I, _SYM_J]) < 1e-13


def test_slab_stencils_match_the_whole_grid_rows():
    # the stack differences along axes 1-3 one axis-0 slab (10, n1, n2, n3)
    # of the component-major g at a time, with the grid's own axis numbers,
    # and relies on getting the whole-grid call's bits
    grid, g = generic_metric(**NONCUBIC)
    g10 = _component_major(g[..., _SYM_I, _SYM_J])
    for k in (1, 2, 3):
        h = grid.spacing[k]
        whole1, whole2 = d1(g10, k, h), d2(g10, k, h)
        for i in range(grid.dims[0]):
            for slab in (g10[:, i], np.ascontiguousarray(g10[:, i])):
                assert np.array_equal(d1(slab, k, h), whole1[:, i])
                assert np.array_equal(d2(slab, k, h), whole2[:, i])


def test_stack_builds_no_whole_grid_matrix_field():
    # with the metric's cached tensors built, the stack's own allocations
    # stay below one (dims,10,10) float64 array, the size of the matrix M
    # behind the pair form, which the stack forms one axis-0 slab at a time
    grid, g = generic_metric(12)
    m = build_metric(grid, g)
    assert m.inv_coframe.size and m.sd_pairs_up.size
    tracemalloc.start()
    try:
        curvature_stack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.node_count * 100 * 8


def test_cold_stack_differences_g_along_axis_0_once(monkeypatch):
    # the first derivatives of g feed both the Christoffel symbols and the
    # pair form; the whole-grid axis-0 stencil of its 10 stored components
    # is the one that costs a (dims,10) array
    grid, g = generic_metric(8)
    m = build_metric(grid, g)
    calls = []

    def counted(values, axis, h, out=None):
        calls.append((values.shape, axis))
        return d1(values, axis, h, out=out)

    monkeypatch.setattr("monolab.curvature.d1", counted)
    curvature_stack(m)
    assert calls.count(((10,) + grid.dims, 0)) == 1


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
    op = _frame_operator(m)
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
