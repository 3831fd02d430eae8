"""Curvature stack against closed forms and an independent eigenvalue oracle."""

import tracemalloc

import numpy as np
import pytest

from monolab.bases import H_PLUS, PAIRS, TRIPLES
from monolab.curvature import (
    CurvatureBundle,
    _SYM_I,
    _SYM_J,
    _frame_components,
    _inverse_coframe,
    _inverse_metric,
    _metric_slabs,
    _pair_riemann,
    build_metric,
    curvature_stack,
)
import monolab.curvature as curvature_module
import monolab.grid as grid_module
from monolab.grid import GridSpec, ScalarField, d1, d2, integrate
from monolab.presets import metric_from_preset, random_smooth_scalar, theta_from_preset
from monolab.rayleigh import LambdaOptions, minimize_lambda
from monolab.selfdual import (
    _hodge_forward,
    harmonic_selfdual_basis,
    integral_identity_check_s,
    weitzenboeck_residual,
)

from conftest import (
    X3,
    generic_metric,
    layout,
    pack,
    rel_err,
    roll_d1,
    roll_d2,
    spectral_d1,
    textbook_christoffel,
    textbook_eta,
    textbook_lambda2,
    textbook_three_form_star,
    unpack,
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
    assert build_metric(grid8, pack(g)).is_flat
    g[1, 2, 3, 4, 0, 1] = g[1, 2, 3, 4, 1, 0] = 2e-12
    assert not build_metric(grid8, pack(g)).is_flat


def test_build_metric_rejects_bad_storage():
    # g is packed, (10, dims); a full g, either layout, is not a metric here.
    # The asymmetry check is the file reader's (test_cli's bad files)
    g = GridSpec((8,) * 4)
    eye = np.tile(np.eye(4), g.dims + (1, 1))
    for full in (eye, layout(eye, "comp")):
        with pytest.raises(ValueError, match=r"metric shape \(.*\) != \(10, 8, 8, 8, 8\)"):
            build_metric(g, full)
    spd = np.tile(np.eye(4), g.dims + (1, 1))
    spd[2, 3, 4, 5, 0, 0] = -1.0
    with pytest.raises(ValueError, match=r"not positive definite at node \(2, 3, 4, 5\)"):
        build_metric(g, pack(spd))
    # the first two pivots are 1, the third 1 - 0.8^2 - 0.8^2 < 0
    third = np.tile(np.eye(4), g.dims + (1, 1))
    for i in (0, 1):
        third[3, 1, 4, 1, i, 2] = third[3, 1, 4, 1, 2, i] = 0.8
    with pytest.raises(ValueError, match=r"not positive definite at node \(3, 1, 4, 1\) "
                                         r"\(lowest eigenvalue -1\.3"):
        build_metric(g, pack(third))
    for value in (np.nan, np.inf):
        finite = np.tile(np.eye(4), g.dims + (1, 1))
        finite[1, 2, 3, 4, 2, 2] = value
        with pytest.raises(ValueError, match=r"node \(1, 2, 3, 4\)"):
            build_metric(g, pack(finite))
    # SPD, but det g = vol^2 overflows or underflows, though vol may not
    for scale in (1e200, 1e-200, 1e100, 1e-100):
        with pytest.raises(ValueError, match="volume factor"):
            build_metric(g, pack(np.tile(scale * np.eye(4), g.dims + (1, 1))))


def test_metric_algebra_from_the_factor():
    # LAPACK references on a generic (non-diagonal) metric; the package
    # reads these off the Cholesky factor without inverse or determinant
    grid, g = generic_metric(8)
    m = build_metric(grid, pack(g))
    # g, the factor and g^-1 are packed on the 10 pairs i <= j
    assert m.g.shape == m.coframe.shape == (10,) + grid.dims
    assert np.array_equal(layout(unpack(m.g), "node"), g)
    e = layout(unpack(m.coframe, symmetric=False), "node")
    einv = layout(_inverse_coframe(m.coframe), "node")
    gi = layout(unpack(_inverse_metric(m.coframe)), "node")
    eye = np.broadcast_to(np.eye(4), g.shape)
    assert np.max(np.abs(np.swapaxes(e, -1, -2) @ e - g)) < 1e-13
    assert np.max(np.abs(einv @ e - eye)) < 1e-13
    assert np.max(np.abs(gi @ g - eye)) < 1e-13
    assert np.array_equal(np.tril(einv, -1), np.zeros(g.shape))
    assert rel_err(m.vol, np.sqrt(np.linalg.det(g))) < 1e-14
    # e^-T v by forward substitution, for a v[k, a, ...] with an axis between
    # k and the grid's, against LAPACK's solve of e^T x = v node by node
    v = np.random.default_rng(0).standard_normal((4, 3) + grid.dims)
    node = lambda x: np.moveaxis(x, (0, 1), (-1, -2))  # [..., a, k]
    want = np.linalg.solve(np.swapaxes(e, -1, -2)[..., None, :, :], node(v)[..., None])[..., 0]
    assert np.max(np.abs(node(_frame_components(m.coframe, v)) - want)) < 1e-13


def test_metric_is_factored_without_lapack(monkeypatch):
    # the factor is the closed-form Cholesky on whole planes; every derived
    # tensor is read off it, so no LAPACK factorisation runs anywhere
    grid, g = generic_metric(8)
    cholesky = np.linalg.cholesky

    def refused(a):
        raise AssertionError("np.linalg.cholesky was called")

    monkeypatch.setattr(np.linalg, "cholesky", refused)
    m = build_metric(grid, pack(g))
    curvature_stack(m)
    for derived in (m.flux_weight, m.vol, m.sd_pairs, m.sd_connection):
        assert np.isfinite(derived).all()
    e = layout(unpack(m.coframe, symmetric=False), "node")
    assert rel_err(e, np.swapaxes(cholesky(g), -1, -2)) < 1e-15


def test_flat_metric_algebra_is_exact(m8):
    # a -0.0 that reaches a report prints as -0.0 and breaks flat byte-identity
    eye = np.broadcast_to(np.eye(4).reshape(4, 4, 1, 1, 1, 1), (4, 4) + m8.grid.dims)
    packed_eye = np.broadcast_to((_SYM_I == _SYM_J).reshape(10, 1, 1, 1, 1), m8.g.shape)
    for x, ref in ((_inverse_metric(m8.coframe), packed_eye),
                   (_inverse_coframe(m8.coframe), eye), (m8.coframe, packed_eye),
                   (m8.flux_weight, packed_eye), (m8.vol, np.ones(m8.vol.shape))):
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
    eigs = np.linalg.eigvalsh(layout(cb.wplus, "node"))
    closed = np.sort(np.stack([scalar / 6, -scalar / 12, -scalar / 12], axis=-1), axis=-1)
    assert np.max(np.abs(eigs - closed)) < 1e-3
    assert np.max(np.abs(cb.w.values - np.minimum(scalar / 6, -scalar / 12))) < 1e-3


def test_lowest_eigenvalue_against_cubic_oracle():
    # w is the lowest eigenvalue of the stack's own W+, node by node
    grid, g = generic_metric(8)
    cb = curvature_stack(build_metric(grid, pack(g)))
    cubic = [sym3x3_eigs(a)[0] for a in np.reshape(layout(cb.wplus, "node"), (-1, 3, 3))]
    assert np.max(np.abs(cb.w.values.reshape(-1) - cubic)) < 1e-12 * np.max(np.abs(cb.wplus))


def test_bundle_rejects_bad_weyl_storage(grid8):
    g = grid8
    zeros = ScalarField(g, np.zeros(g.dims))
    wbad = np.zeros((3, 3) + g.dims)
    wbad[0, 1] = 1.0
    with pytest.raises(ValueError):
        CurvatureBundle(zeros, wbad, zeros)
    wpos = ScalarField(g, np.full(g.dims, 0.5))
    with pytest.raises(ValueError):
        CurvatureBundle(zeros, np.zeros((3, 3) + g.dims), wpos)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
def test_bundle_rejects_asymmetry_in_any_off_diagonal_pair(grid8, i, j):
    zeros = ScalarField(grid8, np.zeros(grid8.dims))
    wbad = np.zeros((3, 3) + grid8.dims)
    wbad[i, j, 2, 3, 4, 5] = 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        CurvatureBundle(zeros, wbad, zeros)
    wbad[j, i, 2, 3, 4, 5] = 1e-6
    CurvatureBundle(zeros, wbad, zeros)


@pytest.mark.parametrize("a", range(3))
def test_bundle_rejects_a_trace_on_any_diagonal_entry(grid8, a):
    zeros = ScalarField(grid8, np.zeros(grid8.dims))
    wbad = np.zeros((3, 3) + grid8.dims)
    wbad[a, a, 2, 3, 4, 5] = 1e-6
    with pytest.raises(ValueError, match="trace-free"):
        CurvatureBundle(zeros, wbad, zeros)
    wbad[a - 1, a - 1, 2, 3, 4, 5] = -1e-6
    CurvatureBundle(zeros, wbad, zeros)


def test_bundle_checks_make_no_whole_weyl_temporary(curv8_conf):
    # the checks read W+ one (i, j) plane at a time: a few whole-grid
    # doubles per node, where one (3, 3, dims) temporary is 9
    curv, grid = curv8_conf, curv8_conf.scalar.grid
    tracemalloc.start()
    try:
        CurvatureBundle(curv.scalar, curv.wplus, curv.w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.node_count * 4 * 8


@pytest.mark.parametrize("n, expr", [(8, "4*sin(x0)"), (16, "8*sin(x0)")])
def test_bundle_checks_scale_with_the_scalar_curvature(n, expr):
    # W+ = B - R/12 is 0 in the continuum, but its trace and w carry the
    # roundoff of R: measured max|tr W+| 8.9e-8 and 12 against max|R| 3.2e9
    # and 3.0e17, above 1e-8 of max(1, max|W+|)
    curv = curvature_stack(metric_from_preset(f"conformal:{expr}", GridSpec((n,) * 4)))
    rmax = float(np.max(np.abs(curv.scalar.values)))
    assert rmax > 1e8 * max(1.0, float(np.max(np.abs(curv.wplus))))
    traced = curv.wplus.copy()
    traced[0, 0] += 1e-6 * rmax
    with pytest.raises(ValueError, match="trace-free"):
        CurvatureBundle(curv.scalar, traced, curv.w)


def test_three_form_algebra_matches_tensor_definitions():
    # a generic metric: non-diagonal SPD and not conformally flat; no
    # derivatives are taken, so a small grid suffices
    grid = GridSpec((4, 4, 4, 4))
    rng = np.random.default_rng(31)
    a = rng.standard_normal(grid.dims + (4, 4))
    g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
    m = build_metric(grid, pack(g))
    gi, vol = layout(unpack(_inverse_metric(m.coframe)), "node"), m.vol

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

    # the weight is applied in closed form from g and vol, never formed:
    # W tau against the textbook weight times tau
    tau, wtau = _hodge_forward(rng.standard_normal((3,) + grid.dims), m)
    want = np.einsum("...lk,...k->...l", weight, layout(tau, "node"))
    assert rel(layout(wtau, "node"), want) < 1e-13


# ---------------------------------------------------------------------------
# generic metrics: a test-only textbook chain and the topological oracles of T^4


def textbook_curvature(g, spacing, d1=roll_d1, d2=roll_d2):
    """Scalar curvature and W+ by the textbook chain on full index tensors:
    ddg -> Riemann -> Ricci -> Weyl -> frame, from the first and second
    derivatives d1 and d2 (np.roll stencils by default).  It shares no code
    with the package; the eta basis, the Christoffel symbols and the
    stencils are written out here and in conftest.  The derivatives of g
    are taken on the whole grid, and the pointwise chain runs one axis-0
    slab at a time, so that no other (dims, 4, 4, 4, 4) tensor is formed."""
    dg = [d1(g, k, h) for k, h in enumerate(spacing)]
    gam = textbook_christoffel(g, spacing, d1)
    ddg = np.empty(g.shape[:4] + (4, 4, 4, 4))
    for i in range(4):
        for j in range(4):
            if i == j:
                ddg[..., i, i, :, :] = d2(g, i, spacing[i])
            else:
                ddg[..., i, j, :, :] = d1(dg[max(i, j)], min(i, j), spacing[min(i, j)])
    del dg
    scal = np.empty(g.shape[:4])
    wplus = np.empty(g.shape[:4] + (3, 3))
    for i in range(g.shape[0]):
        scal[i], wplus[i] = _textbook_slab_curvature(g[i], gam[i], ddg[i])
    return scal, wplus


def _textbook_slab_curvature(g, gam, ddg):
    """R and W+ of `textbook_curvature` at the nodes of one slab, from g, the
    Christoffel symbols and the second derivatives of g there."""
    gi = np.linalg.inv(g)
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
    lam = textbook_lambda2(np.linalg.inv(layout(unpack(m.coframe, symmetric=False), "node")))
    pair = layout(np.stack(list(_pair_riemann(m)), axis=2), "node")
    return np.swapaxes(lam, -1, -2) @ pair @ lam


def test_stack_matches_frame_operator():
    grid, g = generic_metric(8)
    m = build_metric(grid, pack(g))
    cb = curvature_stack(m)
    op = _frame_operator(m)
    scal = 2.0 * np.trace(op, axis1=-2, axis2=-1)
    wplus = H_PLUS @ op @ H_PLUS.T - (scal / 12.0)[..., None, None] * np.eye(3)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(layout(cb.wplus, "node"), wplus) < 1e-12


def test_pair_operator_matches_textbook_chain():
    grid, g = generic_metric(8)
    m = build_metric(grid, pack(g))
    cb = curvature_stack(m)
    scal, wplus = textbook_curvature(g, grid.spacing)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(layout(cb.wplus, "node"), wplus) < 1e-12


def spectral_d2(v, axis, h):
    return spectral_d1(spectral_d1(v, axis, h), axis, h)


def test_stack_converges_to_the_exact_curvature():
    # generic_metric's entries are trig polynomials of degree 1, so the
    # textbook chain on np.fft derivatives is exact at every node: its R and
    # W+ at 8^4 and 16^4 agree to 1.6e-14 and 1.3e-14 on the shared nodes.
    # Measured errors relative to the largest exact entry at 8^4 and 12^4:
    # R 1.46e-3 and 1.44e-4 (order 5.70), the W+ spectrum 2.88e-3 and
    # 2.69e-4 (5.84), the spectrum of R/3 - 2 W+ 2.11e-3 and 1.94e-4 (5.88)
    def spectra(scal, wplus):
        return np.linalg.eigvalsh(wplus), np.linalg.eigvalsh(
            scal[..., None, None] / 3.0 * np.eye(3) - 2.0 * wplus)

    errs = []
    for n in (8, 12):
        grid, g = generic_metric(n)
        scal, wplus = textbook_curvature(g, grid.spacing, spectral_d1, spectral_d2)
        cb = curvature_stack(build_metric(grid, pack(g)))
        got = spectra(cb.scalar.values, layout(cb.wplus, "node"))
        errs.append([rel_err(cb.scalar.values, scal)]
                    + [rel_err(x, ref) for x, ref in zip(got, spectra(scal, wplus))])
    orders = np.log(np.divide(*errs)) / np.log(12 / 8)
    assert max(errs[1]) < 4e-4
    assert min(orders) >= 5.5


# unequal node counts and periods: a transposed axis, a swapped spacing or a
# slab that is not one index of axis 0 shows here and not on a cube
NONCUBIC = dict(n=(8, 9, 10, 12), seed=17, periods=(6.0, 7.0, 5.5, 8.0))


def test_pair_operator_matches_textbook_chain_on_a_noncubic_grid():
    grid, g = generic_metric(**NONCUBIC)
    m = build_metric(grid, pack(g))
    cb = curvature_stack(m)
    scal, wplus = textbook_curvature(g, grid.spacing)
    assert rel_err(cb.scalar.values, scal) < 1e-12
    assert rel_err(layout(cb.wplus, "node"), wplus) < 1e-12
    # Gamma^k_x = (e^-1 F)[k, x] from the frame symbols
    gam = np.stack([np.einsum("ka...,ax...->kx...", einv, frame)
                    for *_, frame, einv in _metric_slabs(m)], axis=2)
    textbook = textbook_christoffel(g, grid.spacing)
    assert rel_err(layout(gam, "node"), textbook[..., _SYM_I, _SYM_J]) < 1e-13


def test_slab_stencils_match_the_whole_grid_rows():
    # the stack differences along axes 1-3 one axis-0 slab (10, n1, n2, n3)
    # of the component-major g at a time, with the grid's own axis numbers,
    # and relies on getting the whole-grid call's bits
    grid, g = generic_metric(**NONCUBIC)
    g10 = np.ascontiguousarray(layout(g[..., _SYM_I, _SYM_J], "comp"))
    for k in (1, 2, 3):
        h = grid.spacing[k]
        whole1, whole2 = d1(g10, k, h), d2(g10, k, h)
        for i in range(grid.dims[0]):
            for slab in (g10[:, i], np.ascontiguousarray(g10[:, i])):
                assert np.array_equal(d1(slab, k, h), whole1[:, i])
                assert np.array_equal(d2(slab, k, h), whole2[:, i])


def test_stack_builds_no_whole_grid_matrix_field():
    # the stack's own allocations, e^-1 and the projection weights among
    # them, stay below one (dims,10,10) float64 array, the size of the matrix
    # M behind the pair form, which the stack forms one axis-0 slab at a time
    grid, g = generic_metric(12)
    m = build_metric(grid, pack(g))
    tracemalloc.start()
    try:
        curvature_stack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.node_count * 100 * 8


def test_stack_peak_at_16_stays_near_its_outputs():
    # R, W+ and w are 11 whole-grid doubles per node; the per-slab work and
    # the bundle's checks add the rest.  Measured 28.5 doubles per node with
    # each slab's arrays dropped before the next slab is made, 38.7 with the
    # previous slab's kept alive meanwhile; the whole-grid axis-0 stencils
    # of g and the (dims, 3, 3) check temporaries made it 66.1
    grid, g = generic_metric(16)
    m = build_metric(grid, pack(g))
    tracemalloc.start()
    try:
        curvature_stack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.node_count * 30 * 8


def test_connection_peak_at_16_stays_near_its_output():
    # the connection is 12 whole-grid doubles per node, built one axis-0
    # slab at a time: measured 29.1 doubles per node with each slab's
    # arrays dropped before the next slab is made, 32.4 with the previous
    # slab's kept alive meanwhile
    grid, g = generic_metric(16)
    m = build_metric(grid, pack(g))
    tracemalloc.start()
    try:
        m.sd_connection
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.node_count * 30 * 8


def test_sd_pairs_peak_at_16_stays_near_its_output():
    # the eta pairs are 18 whole-grid doubles per node, built in blocks of
    # 8192 nodes: measured 22.9 doubles per node, 54.0 with the 36 minors
    # of Lambda^2 e formed on the whole grid
    grid, g = generic_metric(16)
    m = build_metric(grid, pack(g))
    tracemalloc.start()
    try:
        m.sd_pairs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.node_count * 24 * 8


def test_metric_holds_g_its_factor_and_vol_packed():
    # after build_metric the field holds g and its factor, 10 planes each
    # (one plane being one float64 grid array), and vol: 21 planes.  With g
    # and the factor stored as full (4, 4, dims) arrays it held 33.  The
    # packed g is made inside the trace, as build_metric keeps it uncopied
    grid, g = generic_metric(16)
    tracemalloc.start()
    try:
        m = build_metric(grid, pack(g))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m.g.shape == (10,) + grid.dims
    assert held < grid.node_count * 21.1 * 8


def test_cold_stack_runs_no_whole_grid_stencil(monkeypatch):
    # the stack and the frame connection difference g one axis-0 slab at a
    # time, axis 0 included: no stencil sees a whole-grid (10,) + dims or
    # (4, 4) + dims array, nor any other.  The connection takes the axis-0
    # rows once per slab, of g, and differentiates no factor
    grid, g = generic_metric(**NONCUBIC)
    m = build_metric(grid, pack(g))
    shapes, slabbed = [], []
    stencil_along = grid_module._stencil_along
    slab_stencils = curvature_module._slab_stencils

    def recorded(stencil, values, axis, h, out, rows=None):
        shapes.append(values.shape)
        return stencil_along(stencil, values, axis, h, out, rows)

    def slab_recorded(values, i, h, rows):
        slabbed.append(values)
        return slab_stencils(values, i, h, rows)

    monkeypatch.setattr(grid_module, "_stencil_along", recorded)
    monkeypatch.setattr(curvature_module, "_slab_stencils", slab_recorded)
    m.sd_connection
    assert len(slabbed) == grid.dims[0]
    assert all(np.shares_memory(values, m.g) for values in slabbed)
    curvature_stack(m)
    assert shapes
    assert not any(s[-4:] == grid.dims for s in shapes)
    assert set(shapes) == {(10,) + grid.dims[1:]}


# full antisymmetric components of the stored pairs: X2[p, i, j]
X2 = np.zeros((6, 4, 4))
for p, (i, j) in enumerate(PAIRS):
    X2[p, i, j], X2[p, j, i] = 1.0, -1.0

# the anti-self-dual frame basis in pair order: e^0^e^1 - e^2^e^3,
# e^0^e^2 - e^3^e^1 and e^0^e^3 - e^1^e^2, each over sqrt(2)
H_MINUS = np.array([[1.0, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]]) / np.sqrt(2.0)


def _topology_and_covariance(n):
    """On one generic metric: the relative signature gap of int |W+|^2 - |W-|^2,
    the relative Chern-Gauss-Bonnet integral (chi(T^4) = 0), and the pointwise
    error of W+(e^{2f} g) = e^{-2f} W+(g) relative to max |W+(g)|."""
    grid, g = generic_metric(n)
    m = build_metric(grid, pack(g))
    op = _frame_operator(m)
    cb = curvature_stack(m)
    scal, wplus = cb.scalar.values, layout(cb.wplus, "node")
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
    conf = curvature_stack(build_metric(grid, np.exp(2.0 * f) * pack(g)))
    cov = rel_err(conf.wplus, np.exp(-2.0 * f) * cb.wplus)
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


def test_metric_keeps_only_what_every_application_reads():
    # e^-1, g^-1 and the projection weights are formed per slab or per use;
    # after every kernel that reads them has run, the metric holds only its
    # inputs and the tensors an application of the lambda operator reads
    grid, g = generic_metric(8)
    m = build_metric(grid, pack(g))
    curv = curvature_stack(m)
    sigma = harmonic_selfdual_basis(m)[0]
    weitzenboeck_residual(sigma, m, curv)
    theta = theta_from_preset("coord:1", m)
    integral_identity_check_s(sigma, theta, m, curv)
    minimize_lambda(theta, m, opts=LambdaOptions(n_random=0, max_iter=5))
    # the symmetric g and flux weight and the upper-triangular factor are
    # packed, 10 planes each: no (4, 4, dims) array is kept
    shapes = {"g": (10,), "coframe": (10,), "flux_weight": (10,), "vol": (),
              "sd_pairs": (6, 3), "sd_connection": (4, 3)}
    assert set(vars(m)) <= set(shapes) | {"grid", "is_flat"}, sorted(set(vars(m)) - set(shapes))
    for name, lead in shapes.items():
        assert vars(m)[name].shape == lead + grid.dims, name
