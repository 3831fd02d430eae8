"""The one stencil kernel and the component-major layout against np.roll
and node-major references.

Every field, public or not, and every tensor that `MetricField` caches is
stored as (components, [batch,] n0, n1, n2, n3); only files are node-major.
A reshape that mixes up grid axes goes unseen on a cubic grid, and where a
grid dimension equals a field's width (4^4 for 1-forms and g, 6^4 for
pairs) a node-major array has the shape of a component-major one.  So each
kernel and each public field type is also checked on the odd, non-cubic
grid (7, 9, 11, 13) with four distinct spacings.
"""

import numpy as np
import pytest

from monolab import io, selfdual
from monolab.bases import H_PLUS, PAIRS, TRIPLES
from monolab.curvature import (
    _inverse_coframe,
    _inverse_metric,
    _pair_riemann,
    build_metric,
    curvature_stack,
)
from monolab.grid import GridSpec, _gradient, _gradient_T, d1, d2
from monolab.presets import metric_from_preset
from monolab.rayleigh import theta_from_angle
from monolab.selfdual import SelfDualField, _d, _nabla, _nabla_T
from monolab.spinc import SpinorField, U1Connection, gauge_transform, nabla_a

from conftest import (
    D_TERMS,
    coframe,
    generic_metric,
    layout,
    pack,
    rel_err,
    roll_d1,
    roll_d2,
    textbook_cholesky_derivative,
    textbook_christoffel,
    textbook_eta,
    textbook_lambda2,
    unpack,
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
    # the file boundary's view in `io`: a dumped field goes node-major as a
    # view, no copy, with the entries of conftest's node-major copy
    rng = np.random.default_rng(65)
    a = rng.standard_normal(lead + grid.dims)
    na = io._node_major(a)
    assert na.shape == grid.dims + lead and np.shares_memory(na, a)
    assert np.array_equal(na, layout(a, "node"))


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
    # feed 3 of the 4 3-forms, in either direction; d1 reads them from f
    # itself, not from a gathered copy
    calls = []

    def recording_d1(values, axis, h, out=None, rows=None):
        calls.append((axis, len(rows), values is f))
        return d1(values, axis, h, out, rows)

    monkeypatch.setattr(selfdual, "d1", recording_d1)
    for width in (4, 6):
        for transpose in (False, True):
            calls.clear()
            f = np.ones((width, 2) + CUBIC.dims)
            _d(f, CUBIC, transpose)
            assert calls == [(k, 3, True) for k in range(4)]


@pytest.mark.parametrize("grid", [CUBIC, ODD], ids=["8^4", "odd"])
def test_covariant_derivative_kernels_match_roll_and_transpose(grid):
    m = build_metric(grid, pack(generic_metric(grid.dims, periods=grid.periods)[1]))
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
    """Node-major references for every tensor `MetricField` caches, for the
    three it forms per slab (coframe, inv_coframe, ginv) and for the two
    that the kernels apply in closed form (sd_pairs_up, hodge_weight),
    built with LAPACK, np.roll stencils of g and full index tensors."""
    e, einv, de = textbook_cholesky_derivative(g, spacing)
    gi = np.linalg.inv(g)
    vol = np.sqrt(np.linalg.det(g))
    gam = textbook_christoffel(g, spacing)
    eta = textbook_eta()
    pi, pj = np.array(PAIRS).T
    # eta_a with lower and with raised coordinate indices, on stored pairs
    eta_low = np.einsum("aAB,...Ai,...Bj->...ija", eta, e, e)
    eta_up = np.einsum("...ik,...jl,...kla->...ija", gi, gi, eta_low)
    # a_k = -<eta_a, w_k> / sqrt(2) with w_k = (e Gamma_k - d_k e) e^-1
    conn = np.empty(g.shape[:4] + (4, 3))
    for k in range(4):
        w = (e @ gam[..., :, k, :] - de[..., k, :, :]) @ einv
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
    # every cached tensor and every one formed per use has its grid axes
    # last, and its node-major copy is the reference tensor; the raised eta
    # pairs and the Hodge weight are never formed, so the kernels that apply
    # them must give the reference tensor applied to node-major components
    g = generic_metric(ODD.dims, periods=ODD.periods)[1]
    m = build_metric(ODD, pack(g))
    refs = metric_references(g, ODD.spacing)
    rng = np.random.default_rng(5)
    omega = rng.standard_normal((6,) + ODD.dims)
    tau, wtau = selfdual._hodge_forward(rng.standard_normal((3,) + ODD.dims), m)
    applied = {
        "sd_pairs_up": (selfdual._sd_part(omega.copy(), m), np.einsum(
            "...pa,...p->...a", refs.pop("sd_pairs_up"), layout(omega, "node"))),
        "hodge_weight": (wtau, np.einsum(
            "...lk,...k->...l", refs.pop("hodge_weight"), layout(tau, "node"))),
    }
    for name, (got, ref) in applied.items():
        assert got.shape[-4:] == ODD.dims, name
        assert rel_err(layout(got, "node"), ref) <= 1e-14, name
    e = coframe(m)
    formed = {"coframe": e, "inv_coframe": _inverse_coframe(e), "ginv": _inverse_metric(e)}
    # the symmetric g, g^-1 and flux weight and the upper-triangular factor
    # are stored packed, on the pairs i <= j in np.triu_indices(4) order
    upper = np.triu_indices(4)
    for name, ref in refs.items():
        got = formed[name] if name in formed else getattr(m, name)
        if name in ("g", "coframe", "ginv", "flux_weight"):
            assert got.shape == (10,) + ODD.dims, name
            ref = ref[(...,) + upper]
        assert got.shape[-4:] == ODD.dims, name
        assert got.flags.c_contiguous, name
        assert name in formed or not got.flags.writeable, name
        assert rel_err(layout(got, "node"), ref) <= 1e-14, name


# Each public field type on ODD: (the stored array, the component axes it
# must lead with, a package result that reads it, and that result's
# node-major reference on np.roll stencils or node-major matrix products).
# A stored array or a reader with a swapped axis fails the shape check or
# the reference.

def _selfdual_field(rng):
    ref = rng.standard_normal(ODD.dims + (3,))
    sigma = SelfDualField(ODD, layout(ref, "comp"))
    # on the flat metric the covariant derivative is the stencil of each component
    want = np.stack([roll_d1(ref, k, h) for k, h in enumerate(ODD.spacing)], axis=-2)
    return sigma.comps, (3,), _nabla(sigma.comps, metric_from_preset("flat", ODD)), want


def _two_form_field(rng):
    a = rng.standard_normal(ODD.dims + (4,))
    curv = U1Connection(ODD, layout(a, "comp")).curv
    da = [roll_d1(a, k, h) for k, h in enumerate(ODD.spacing)]
    want = np.stack([da[i][..., j] - da[j][..., i] for i, j in PAIRS], axis=-1)
    return curv.comps, (6,), curv.comps, want


def _spinor_field(rng):
    ref = rng.standard_normal(ODD.dims + (2,)) + 1j * rng.standard_normal(ODD.dims + (2,))
    a = rng.standard_normal(ODD.dims + (4,))
    phi = SpinorField(ODD, layout(ref, "comp"))
    nab = nabla_a(phi, U1Connection(ODD, layout(a, "comp")))
    want = np.stack([roll_d1(ref, k, h) + 1j * a[..., k, None] * ref
                     for k, h in enumerate(ODD.spacing)], axis=-2)
    return phi.comps, (2,), nab, want


def _connection_form(rng):
    chi = rng.standard_normal(ODD.dims)
    conn = U1Connection(ODD, np.zeros((4,) + ODD.dims))
    phi = SpinorField(ODD, np.ones((2,) + ODD.dims))
    a = gauge_transform(conn, phi, chi)[0].a
    want = np.stack([roll_d1(chi, k, h) for k, h in enumerate(ODD.spacing)], axis=-1)
    return a, (4,), a, want


def _theta_differential(rng):
    angle = rng.standard_normal(ODD.dims)
    dtheta = theta_from_angle(angle, metric_from_preset("flat", ODD)).dtheta
    s, c = np.sin(angle), np.cos(angle)
    want = np.stack([c * roll_d1(s, k, h) - s * roll_d1(c, k, h)
                     for k, h in enumerate(ODD.spacing)], axis=-1)
    return dtheta, (4,), dtheta, want


def _selfdual_weyl(rng):
    # W+ = H+ L^T r L H+^T - R/12 with L = Lambda^2(e^-1), as node-major
    # matrix products on the pair form and LAPACK's e^-1
    m = build_metric(ODD, pack(generic_metric(ODD.dims, periods=ODD.periods)[1]))
    wplus = curvature_stack(m).wplus
    einv = np.linalg.inv(layout(unpack(coframe(m), symmetric=False), "node"))
    lam = textbook_lambda2(einv)
    pair = layout(np.stack([_pair_riemann(m, i)[0] for i in range(m.grid.dims[0])], axis=2),
                  "node")
    op = np.swapaxes(lam, -1, -2) @ pair @ lam
    scal = 2.0 * np.trace(op, axis1=-2, axis2=-1)
    want = H_PLUS @ op @ H_PLUS.T - (scal / 12.0)[..., None, None] * np.eye(3)
    return wplus, (3, 3), wplus, want


@pytest.mark.parametrize("case", [_selfdual_field, _two_form_field, _spinor_field,
                                  _connection_form, _theta_differential, _selfdual_weyl],
                         ids=["SelfDualField", "TwoFormField", "SpinorField",
                              "U1Connection.a", "ThetaField.dtheta", "CurvatureBundle.wplus"])
def test_public_fields_are_component_major(case):
    stored, width, got, want = case(np.random.default_rng(67))
    assert stored.shape == width + ODD.dims and stored.flags.c_contiguous
    assert got.shape[-4:] == ODD.dims
    assert rel_err(layout(got, "node"), want) < 1e-12
