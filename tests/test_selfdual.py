"""Self-dual two-form algebra, Hodge operators and harmonic solver."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from monolab.bases import PAIRS, WEDGE2, WEDGE2_SIGNS
from monolab.curvature import (
    _SYM_I,
    _SYM_J,
    _inverse_metric,
    _metric_slab,
    build_metric,
    curvature_stack,
)
from monolab.grid import GridSpec, _stencil_symbol2, d1
from monolab.presets import metric_from_preset, random_smooth_scalar, theta_from_preset
from monolab.selfdual import (
    SelfDualField,
    _d,
    _dirichlet_forward,
    _hodge_forward,
    _hodge_transpose,
    _nabla,
    _nabla_T,
    embed,
    harmonic_selfdual_basis,
    hodge_rayleigh,
    integral_identity_check_c,
    integral_identity_check_s,
    project,
    sd_l2_norm,
    wedge_integral,
    weitzenboeck_residual,
)
from monolab.spinc import U1Connection

from conftest import (
    CONFORMAL_PRESET,
    D_TERMS,
    coframe,
    generic_metric,
    layout,
    levi_civita,
    make_grid,
    pack,
    pulled_back_flat_chart,
    rel_err,
    roll_d1,
    spectral_d1,
    textbook_cholesky_derivative,
    textbook_christoffel,
    textbook_eta,
    textbook_lambda2,
    textbook_three_form_star,
    unpack,
)


def smooth_sd(grid, seed, offset=1.0, amp=0.4):
    rng = np.random.default_rng(seed)
    comps = np.stack(
        [offset + random_smooth_scalar(grid, rng, fmax=1, amp=amp) for _ in range(3)]
    )
    return SelfDualField(grid, comps)


def test_projection_algebra(generic8):
    m = generic8[1]
    sig = smooth_sd(m.grid, 0)
    omega = embed(sig, m)
    back = project(omega, m)
    assert np.max(np.abs(back.comps - sig.comps)) < 1e-12
    # self-dual at every node: omega ^ omega = |omega|^2 vol
    wedge = np.einsum("p...,pq,q...->...", omega.comps, WEDGE2, omega.comps)
    gram = textbook_lambda2(layout(unpack(_inverse_metric(coframe(m))), "node"))
    node = layout(omega.comps, "node")
    norm2 = layout(np.einsum("...p,...pq,...q->...", node, gram, node), "comp")
    assert rel_err(wedge, m.vol * norm2) < 1e-12


def test_wedge_pairing_is_a_signed_reversal_of_pairs():
    # the closed forms of the star read WEDGE2 as its signs and a reversal
    # of pair order; the wedge pairing is the permutation symbol on pairs
    eps = levi_civita()
    assert np.array_equal(np.array([[eps[i, j, k, l] for k, l in PAIRS] for i, j in PAIRS]),
                          WEDGE2)
    assert np.array_equal(np.diag(WEDGE2_SIGNS)[:, ::-1], WEDGE2)


def test_d_squared_vanishes(grid8):
    rng = np.random.default_rng(7)
    a = layout(rng.standard_normal(grid8.dims + (4,)), "comp")
    dd = _d(_d(a, grid8), grid8)
    assert np.max(np.abs(dd)) < 1e-12


def hodge_energy_and_grad(comps, m):
    """The Hodge energy and its gradient on eta components, from the forward
    and transpose kernels."""
    tau, wtau = _hodge_forward(comps, m)
    cell = m.grid.cell_volume
    return float(np.sum(tau * wtau)) * cell, 2.0 * cell * _hodge_transpose(wtau, m)


def dirichlet_energy_and_grad(comps, m):
    """The Dirichlet energy ||nabla sigma||^2 and its gradient, likewise."""
    nab, flux = _dirichlet_forward(comps, m)
    cell = m.grid.cell_volume
    return float(np.sum(nab * flux)) * cell, 2.0 * cell * _nabla_T(flux, m)


def test_constant_form_is_harmonic(m8):
    sig = SelfDualField(m8.grid, layout(np.tile([1.0, -0.3, 0.2], m8.grid.dims + (1,)), "comp"))
    _, grad = hodge_energy_and_grad(sig.comps, m8)
    assert np.max(np.abs(grad)) < 1e-12
    assert hodge_rayleigh(sig, m8) < 1e-12


def grad_check(fn, x0, seed):
    energy, grad = fn(x0)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(x0.shape)
    direction /= np.sqrt(np.sum(direction**2))
    eps = 1e-5
    ep, _ = fn(x0 + eps * direction)
    em, _ = fn(x0 - eps * direction)
    fd = (ep - em) / (2 * eps)
    an = np.sum(grad * direction)
    assert abs(fd - an) < 1e-6 * max(1.0, abs(fd))


def _d_per_component(f, grid, n_in, transpose=False):
    # one stencil call per (axis, component): the reference for the stacked form
    hs = grid.spacing
    n_out, terms = D_TERMS[n_in]
    out = np.zeros(((n_in,) if transpose else (n_out,)) + f.shape[1:])
    for o, k, i, s in terms:
        if transpose:
            out[i] -= s * d1(f[o], k, hs[k])
        else:
            out[o] += s * d1(f[i], k, hs[k])
    return out


@pytest.mark.parametrize("extra", [(), (5,)], ids=["single", "batched"])
def test_stacked_d_pairs_match_per_component(grid8, extra):
    # extra=(5,) is the block layout of the harmonic solver's operator; both
    # degrees' couplings, 1-forms -> pairs and pairs -> 3-forms
    rng = np.random.default_rng(17)
    for n_in, n_out in ((6, 4), (4, 6)):
        omega = layout(rng.standard_normal(grid8.dims + (n_in,) + extra), "comp")
        tau = layout(rng.standard_normal(grid8.dims + (n_out,) + extra), "comp")
        d_omega = _d(omega, grid8)
        dt_tau = _d(tau, grid8, transpose=True)
        assert np.array_equal(d_omega, _d_per_component(omega, grid8, n_in))
        assert np.array_equal(dt_tau, _d_per_component(tau, grid8, n_in, transpose=True))
        lhs = np.sum(d_omega * tau)
        rhs = np.sum(omega * dt_tau)
        assert abs(lhs - rhs) < 1e-12 * np.sqrt(np.sum(d_omega**2) * np.sum(tau**2))


@pytest.mark.parametrize("extra", [(), (3,)], ids=["single", "batched"])
def test_d_one_transpose_is_adjoint(grid8, extra):
    rng = np.random.default_rng(23)
    a = layout(rng.standard_normal(grid8.dims + (4,) + extra), "comp")
    omega = layout(rng.standard_normal(grid8.dims + (6,) + extra), "comp")
    d_a = _d(a, grid8)
    dt_omega = _d(omega, grid8, transpose=True)
    lhs = np.sum(d_a * omega)
    rhs = np.sum(a * dt_omega)
    assert abs(lhs - rhs) < 1e-12 * np.sqrt(np.sum(d_a**2) * np.sum(omega**2))
    # the batch columns are independent 1-forms
    col = (slice(None),) + (0,) * len(extra)
    assert np.array_equal(d_a[col], U1Connection(grid8, a[col]).curv.comps)


def test_energy_gradients_match_finite_differences(m8_conf):
    x0 = smooth_sd(m8_conf.grid, 11).comps
    grad_check(lambda x: hodge_energy_and_grad(x, m8_conf), x0, 1)
    grad_check(lambda x: dirichlet_energy_and_grad(x, m8_conf), x0, 2)


def textbook_eta_fields(g):
    """The Cholesky coframe e of g and eta_a in coordinate components, with
    lower and with raised indices, on full antisymmetric index tensors."""
    gi = np.linalg.inv(g)
    e = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    eta = np.einsum("aAB,...Ai,...Bj->...aij", textbook_eta(), e, e)
    return e, eta, np.einsum("...ik,...jl,...akl->...aij", gi, gi, eta)


def textbook_omega_chain(g, spacing, sigma):
    """(nabla sigma)[..., c, a] by the coordinate chain on full index tensors:
    the 2-form omega_ij = sigma_a (eta_a)_ij, its covariant derivative
    d_k omega_ij - Gamma^m_ki omega_mj - Gamma^m_kj omega_im, and the eta_a
    component along the frame vector E_c.  Its Cholesky coframe, eta basis,
    Christoffel symbols and stencil are its own."""
    e, eta, eta_up = textbook_eta_fields(g)
    omega = np.einsum("...aij,...a->...ij", eta, sigma)
    gam = textbook_christoffel(g, spacing)
    nab = np.stack([roll_d1(omega, k, h) for k, h in enumerate(spacing)], axis=-3)
    nab -= np.einsum("...mki,...mj->...kij", gam, omega)
    nab -= np.einsum("...mkj,...im->...kij", gam, omega)
    return 0.5 * np.einsum("...kc,...kij,...aij->...ca", np.linalg.inv(e), nab, eta_up)


def frame_levi_civita(e, einv, gam, de):
    """w[..., k, a, b] = (e Gamma_k - d_k e) e^-1, the Levi-Civita connection
    in the frame of the factor e, on full index tensors."""
    return (np.einsum("...am,...mki->...kai", e, gam) - de) @ einv[..., None, :, :]


def textbook_frame_covariant_derivative(g, spacing, sigma):
    """(nabla sigma)[..., c, a] by the product rule in the Cholesky frame, on
    full index tensors: w_k = (e Gamma_k - d_k e) e^-1 is the Levi-Civita
    connection in that frame and W_k its antisymmetric part, the frame form
    Omega = sigma_a eta_a has nabla_k Omega = d_k Omega + [W_k, Omega], and
    <nabla_k Omega, eta_a> is its eta_a component.  Its Cholesky factor,
    inverse and derivative, Christoffel symbols, eta basis and stencil are
    its own."""
    e, einv, de = textbook_cholesky_derivative(g, spacing)
    w = frame_levi_civita(e, einv, textbook_christoffel(g, spacing), de)
    w = 0.5 * (w - np.swapaxes(w, -1, -2))
    eta = textbook_eta()
    omega = np.einsum("...a,aij->...ij", sigma, eta)
    nab = np.stack([roll_d1(omega, k, h) for k, h in enumerate(spacing)], axis=-3)
    omega = omega[..., None, :, :]
    nab += w @ omega - omega @ w
    return 0.5 * np.einsum("...kc,...kij,aij->...ca", einv, nab, eta)


def coordinate_components(g, frame):
    """nabla_k sigma, [..., k, a], from a reference's frame components
    [..., c, a]: nabla_k = e[c, k] nabla_{E_c}, with LAPACK's upper factor
    e of g, the one both references read."""
    e = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    return np.einsum("...ck,...ca->...ka", e, frame)


def textbook_hodge_square(g, spacing, sigma):
    """eta components of (d+d*)^2 sigma by the coordinate chain on full
    index tensors: omega = sigma_a eta_a, tau = d omega, u = d* omega =
    -star tau (omega is self-dual), and (d+d*)^2 omega = du + star du, whose
    eta_a component is 2 <du, eta_a>.  Its Cholesky coframe, eta basis,
    Hodge star and stencil are its own."""
    _, eta, eta_up = textbook_eta_fields(g)
    omega = np.einsum("...aij,...a->...ij", eta, sigma)
    dom = np.stack([roll_d1(omega, k, h) for k, h in enumerate(spacing)], axis=-3)
    tau = dom + np.einsum("...jki->...ijk", dom) + np.einsum("...kij->...ijk", dom)
    u = -np.einsum("...mijk,...ijk->...m", textbook_three_form_star(g), tau)
    du = np.stack([roll_d1(u, k, h) for k, h in enumerate(spacing)], axis=-2)
    du -= np.swapaxes(du, -1, -2)
    return np.einsum("...ij,...aij->...a", du, eta_up)


@pytest.fixture(scope="module")
def generic8():
    grid, g = generic_metric(8)
    return g, build_metric(grid, pack(g))


def test_christoffel_matches_textbook(generic8):
    g, m = generic8
    # Gamma^k_x = (e^-1 F)[k, x] from the frame symbols
    slabs = [_metric_slab(m, i) for i in range(m.grid.dims[0])]
    gam = np.stack([np.einsum("ka...,ax...->kx...", einv, frame)
                    for *_, frame, einv in slabs], axis=2)
    textbook = textbook_christoffel(g, m.grid.spacing)
    assert rel_err(layout(gam, "node"), textbook[..., _SYM_I, _SYM_J]) < 1e-13


def test_frame_connection_matches_textbook(generic8):
    # a_k = -<eta_a, w_k> / sqrt(2) with w_k = (e Gamma_k - d_k e) e^-1 on full
    # index tensors: LAPACK's factor and inverse, d e by the Cholesky
    # derivative, the textbook Christoffel symbols, np.roll stencils and the
    # eta basis of its own
    g, m = generic8
    e, einv, de = textbook_cholesky_derivative(g, m.grid.spacing)
    w = frame_levi_civita(e, einv, textbook_christoffel(g, m.grid.spacing), de)
    # the Christoffel symbols and d e read the same differences of g, so w is
    # antisymmetric and the package reads only its lower triangle
    assert rel_err(w, -np.swapaxes(w, -1, -2)) < 1e-14  # measured: 6.8e-16
    a = -np.einsum("aij,...kij->...ka", textbook_eta(), w) / np.sqrt(2.0)
    assert rel_err(layout(m.sd_connection, "node"), a) < 1e-13


def test_frame_connection_converges_to_the_spectral_connection():
    # generic_metric's entries are trig polynomials of degree 1, so the
    # reference, np.fft derivatives of g carried to d e by the Cholesky
    # derivative, is exact at every node: at 8^4 and 16^4 it agrees to
    # 2.7e-15 on the shared nodes (differencing LAPACK's factor by np.fft
    # left 8.3e-7 of its own error at 16^4).  Measured: 1.4e-4 and 2.5e-5
    # at 12^4 and 16^4, order 5.9
    errs = []
    for n in (12, 16):
        grid, g = generic_metric(n)
        e, einv, de = textbook_cholesky_derivative(g, grid.spacing, spectral_d1)
        gam = textbook_christoffel(g, grid.spacing, spectral_d1)
        w = frame_levi_civita(e, einv, gam, de)
        ref = -np.einsum("aij,...kij->...ka", textbook_eta(), w) / np.sqrt(2.0)
        m = build_metric(grid, pack(g))
        errs.append(rel_err(layout(m.sd_connection, "node"), ref))
    assert errs[1] <= 5e-5
    assert np.log(errs[0] / errs[1]) / np.log(16 / 12) >= 5.5


def test_covariant_derivative_matches_textbook_chain(generic8):
    g, m = generic8
    sigma = np.random.default_rng(41).standard_normal(m.grid.dims + (3,))
    nab = _nabla(layout(sigma, "comp"), m)
    ref = coordinate_components(g, textbook_frame_covariant_derivative(g, m.grid.spacing, sigma))
    assert rel_err(layout(nab, "node"), ref) < 1e-12


def test_covariant_derivative_converges_to_the_omega_chain():
    # the frame product rule and the coordinate chain on the embedded 2-form
    # discretise one continuum derivative: their distance falls at the
    # stencil's order
    errs = []
    for n in (12, 16):
        grid, g = generic_metric(n)
        sigma = smooth_sd(grid, 3)
        nab = _nabla(sigma.comps, build_metric(grid, pack(g)))
        ref = coordinate_components(g, textbook_omega_chain(g, grid.spacing,
                                                            layout(sigma.comps, "node")))
        errs.append(rel_err(layout(nab, "node"), ref))
    assert np.log(errs[0] / errs[1]) / np.log(16 / 12) >= 5.0  # measured: 5.30


def test_conformal_connection_matches_closed_form():
    # g = exp(2f) delta has e = exp(f) 1 and w_k[a, i] = delta_ak d_i f - delta_ik d_a f,
    # here with the exact d f
    errs = []
    for n in (12, 16):
        grid = GridSpec((n,) * 4)
        x0, x1, x2, x3 = (grid.mesh(i) for i in range(4))
        f = 0.3 * np.sin(x0) * np.cos(x1) + 0.2 * np.sin(x2 + x3)
        df = np.stack([0.3 * np.cos(x0) * np.cos(x1), -0.3 * np.sin(x0) * np.sin(x1),
                       0.2 * np.cos(x2 + x3), 0.2 * np.cos(x2 + x3)], axis=-1)
        m = build_metric(grid, pack(np.exp(2.0 * f)[..., None, None] * np.eye(4)))
        eye = np.eye(4)
        w = np.einsum("ka,...i->...kai", eye, df) - np.einsum("ki,...a->...kai", eye, df)
        closed = -np.einsum("...kij,cij->...kc", w, textbook_eta()) / np.sqrt(2.0)
        # the connection is cached component-major, [k, a, ...]
        errs.append(rel_err(layout(m.sd_connection, "node"), closed))
    assert np.log(errs[0] / errs[1]) / np.log(16 / 12) >= 5.0  # measured: 5.53


def test_kaehler_form_is_parallel(grid8):
    # on a Kaehler product eta_1 is the Kaehler form: the connection turns
    # only about it, so it and the constant field along it are exactly parallel
    m = metric_from_preset("kaehler-product:0.3*sin(x2)*cos(x3)", grid8)
    assert np.any(m.sd_connection[:, 0])
    assert not np.any(m.sd_connection[:, 1:])
    kaehler = SelfDualField(grid8, layout(np.broadcast_to([1.0, 0.0, 0.0], grid8.dims + (3,)),
                                          "comp"))
    assert not np.any(_nabla(kaehler.comps, m))


def test_hodge_gradient_is_the_textbook_hodge_square(generic8):
    # the left side of the Weitzenboeck residual
    g, m = generic8
    sigma = np.random.default_rng(47).standard_normal(m.grid.dims + (3,))
    _, grad = hodge_energy_and_grad(layout(sigma, "comp"), m)
    lhs = layout(grad / (2.0 * m.grid.cell_volume * m.vol), "node")
    assert rel_err(lhs, textbook_hodge_square(g, m.grid.spacing, sigma)) < 1e-12


def test_nabla_transpose_is_adjoint(m8, m8_conf, generic8):
    # the coordinate covariant derivative's kernels on component-major
    # components, (3, dims) -> (4, 3, dims) and back
    rng = np.random.default_rng(43)
    for m in (m8, m8_conf, generic8[1]):
        sigma = rng.standard_normal((3,) + m.grid.dims)
        flux = rng.standard_normal((4, 3) + m.grid.dims)
        nab = _nabla(sigma, m)
        lhs = np.sum(nab * flux)
        rhs = np.sum(sigma * _nabla_T(flux, m))
        assert abs(lhs - rhs) < 1e-12 * np.sqrt(np.sum(nab**2) * np.sum(flux**2))


def test_wrapping_leaves_the_callers_arrays_writable():
    grid, g = generic_metric(8)
    # a g build_metric cannot keep as given, here Fortran-ordered, is copied:
    # the caller's array stays writable and writing it leaves the field as it was
    g = np.asfortranarray(pack(g))
    m = build_metric(grid, g)
    kept = m.g.copy()
    comps = smooth_sd(grid, 3).comps.copy()
    sigma = SelfDualField(grid, comps)
    other = comps.copy()
    _nabla(SelfDualField(grid, other).comps, m)
    g[...] = 2.0
    comps[...] = 0.0
    other[...] = 0.0
    assert np.array_equal(m.g, kept)
    assert not m.g.flags.writeable and not sigma.comps.flags.writeable


def test_build_metric_freezes_the_g_it_takes_over():
    # a packed C-contiguous float64 g is kept with no copy, so it is made
    # read-only: the field caches tensors derived from it
    grid, g = generic_metric(8)
    g = pack(g)
    m = build_metric(grid, g)
    assert np.shares_memory(m.g, g) and not g.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 2.0
    # a rejected g is not taken over
    bad = pack(generic_metric(8)[1])
    bad[0, 1, 2, 3, 4] = -1.0
    with pytest.raises(ValueError, match="not positive definite"):
        build_metric(grid, bad)
    assert bad.flags.writeable


def test_weitzenboeck_flat_is_machine_zero(m8, curv8):
    sig = smooth_sd(m8.grid, 3)
    assert weitzenboeck_residual(sig, m8, curv8) < 1e-12


def test_weitzenboeck_conformal_small(m8_conf, curv8_conf):
    sig = smooth_sd(m8_conf.grid, 3)
    assert weitzenboeck_residual(sig, m8_conf, curv8_conf) < 0.05


_RESIDUAL_SCRIPT = """
import numpy as np
from monolab.curvature import build_metric, curvature_stack
from monolab.grid import GridSpec
from monolab.presets import random_smooth_scalar
from monolab.selfdual import SelfDualField, weitzenboeck_residual
grid = GridSpec((8,) * 4)
f = random_smooth_scalar(grid, np.random.default_rng(601), 1, 0.3)
g = np.zeros((10,) + grid.dims)
g[[0, 4, 7, 9]] = np.exp(2.0 * f)  # the diagonal of a packed g
m = build_metric(grid, g)
rng = np.random.default_rng(601)
comps = np.stack([random_smooth_scalar(grid, rng, 1, 0.3) + o for o in (1.0, 0.0, 0.0)])
sigma = SelfDualField(grid, comps)
print(repr(weitzenboeck_residual(sigma, m, curvature_stack(m))))
"""


def test_weitzenboeck_residual_ignores_the_hash_seed():
    # numpy names the "..." axes of an optimised einsum with letters taken
    # from a set; with three operands that moved the last digit of this
    # residual between string-hash seeds 1 and 18
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    outs = {
        subprocess.run([sys.executable, "-c", _RESIDUAL_SCRIPT], check=True, text=True,
                       capture_output=True, env=dict(env, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "18")
    }
    assert len(outs) == 1


def test_integral_identities_constant_theta(m8, curv8):
    sig = smooth_sd(m8.grid, 5)
    theta = theta_from_preset("const:0.3", m8)
    lhs, rhs = integral_identity_check_s(sig, theta, m8, curv8)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
    lhs, rhs = integral_identity_check_c(sig, theta, m8)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_integral_identities_coordinate_theta(m8, curv8):
    sig = smooth_sd(m8.grid, 5)
    theta = theta_from_preset("coord:0", m8)
    lhs, rhs = integral_identity_check_s(sig, theta, m8, curv8)
    assert abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)) < 1e-2
    lhs, rhs = integral_identity_check_c(sig, theta, m8)
    assert abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)) < 1e-2


def test_energy_only_callers_keep_the_energies_bits(generic8):
    # the identity checks and the Hodge quotient read only the forward half
    # of the energies; they must give the bits of the energy-and-gradient
    # kernel pairs
    m = generic8[1]
    sig = smooth_sd(m.grid, 5)
    comps = sig.comps
    theta = theta_from_preset("coord:0", m)
    lhs_s, _ = integral_identity_check_s(sig, theta, m, curvature_stack(m))
    assert lhs_s == hodge_energy_and_grad(theta.s * comps, m)[0]
    lhs_c, _ = integral_identity_check_c(sig, theta, m)
    assert lhs_c == dirichlet_energy_and_grad(theta.c * comps, m)[0]
    energy = hodge_energy_and_grad(comps, m)[0]
    assert hodge_rayleigh(sig, m) == energy / sd_l2_norm(sig, m) ** 2


def test_integral_identities_generic_metric(generic8):
    # non-diagonal and not conformally flat: both identities check the lambda
    # quotient's energies on a curved metric, at an observed order
    residuals = []
    grid12, g12 = generic_metric(12)
    for m in (generic8[1], build_metric(grid12, pack(g12))):
        sig = smooth_sd(m.grid, 5)
        theta = theta_from_preset("coord:0", m)
        sides = (integral_identity_check_s(sig, theta, m, curvature_stack(m)),
                 integral_identity_check_c(sig, theta, m))
        residuals.append([abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)) for lhs, rhs in sides])
    coarse, fine = np.array(residuals)
    assert np.all(fine <= 2e-3)
    assert np.all(np.log(coarse / fine) / np.log(12 / 8) >= 4.5)


def test_nyquist_mask():
    # the modes the centred first difference cannot see: on even axes the
    # stencil symbol vanishes on the constant and the alternating column
    # (0 and n - 1), on odd axes only on the constant
    even = GridSpec((8,) * 4)
    blind = np.argwhere(_stencil_symbol2(even) == 0.0)
    assert len(blind) == 16 and np.all(np.isin(blind, (0, 7)))
    odd = GridSpec((7,) * 4)
    assert np.array_equal(np.argwhere(_stencil_symbol2(odd) == 0.0), np.zeros((1, 4)))


def b_gram(basis, m):
    w = m.vol * m.grid.cell_volume
    return np.array([[np.sum(a.comps * b.comps * w) for b in basis] for a in basis])


def max_principal_sine(a, b):
    """Sine of the largest principal angle between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.norm(qb - qa @ (qa.T @ qb), 2)


def test_harmonic_basis_flat(m8):
    basis = harmonic_selfdual_basis(m8)
    assert len(basis) == 3
    gram = b_gram(basis, m8)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8
    for omega in basis:
        assert hodge_rayleigh(omega, m8) < 1e-7


def test_harmonic_basis_conformal(m8_conf):
    # star on 2-forms is conformally invariant in 4D, so for g = e^{2f} delta
    # the harmonic self-dual forms are the flat ones, e^{-2f} e_a in eta
    # components
    basis = harmonic_selfdual_basis(m8_conf)
    assert len(basis) == 3
    weight = 1.0 / m8_conf.g[0]
    oracle = np.stack([(np.eye(3)[a].reshape(3, 1, 1, 1, 1) * weight).ravel()
                       for a in range(3)], -1)
    found = np.stack([omega.comps.ravel() for omega in basis], -1)
    assert max_principal_sine(oracle, found) < 1e-12


def test_harmonic_basis_generic_metric(grid8):
    # seeded, non-diagonal SPD and not conformally flat
    rng = np.random.default_rng(5)
    a = np.array([[random_smooth_scalar(grid8, rng, 1, 0.1) for _ in range(4)] for _ in range(4)])
    g = np.eye(4).reshape(4, 4, 1, 1, 1, 1) + 0.5 * (a + np.swapaxes(a, 0, 1))
    m = build_metric(grid8, pack(layout(g, "node")))
    basis = harmonic_selfdual_basis(m)
    assert len(basis) == 3
    assert basis.solve["converged"] and basis.solve["iterations"] > 0
    assert np.max(np.abs(b_gram(basis, m) - np.eye(3))) < 1e-12
    for omega in basis:
        assert hodge_rayleigh(omega, m) < 1e-16
    again = harmonic_selfdual_basis(m)
    assert all(np.array_equal(a.comps, b.comps) for a, b in zip(basis, again))
    assert again.solve == basis.solve


@pytest.mark.parametrize("preset, bound", [
    ("generic", 88.0),
    ("kaehler-product:0.3*sin(x2)*cos(x3)", 52.0),
    (CONFORMAL_PRESET, 52.0),
])
def test_harmonic_solve_peak_at_8(preset, bound):
    # the solve applies G = vol Lambda^2(g^-1) from sd_pairs and vol in
    # place, iterates only the classes whose start is not harmonic, as one
    # block gathered once, and frees its PCG state before the tail:
    # measured 84.3 planes on the generic metric (3 classes, 14 PCG
    # iterations), 48.2 on the Kaehler product (1 class, 5 iterations) and
    # 48.1 on the conformal one (none), one plane being one float64 grid
    # array.  Gathering and scattering the live columns on every iteration
    # made the first two 111.3 and 61.2; a formed G (36 planes), the loop
    # state kept through the tail and the tail's e^-1 and Lambda^2(e^-1)
    # made the generic and conformal peaks 215.2 and 179.1
    if preset == "generic":
        grid, g = generic_metric(8)
        m = build_metric(grid, pack(g))
    else:
        m = metric_from_preset(preset, make_grid(8))
    m.sd_pairs  # the metric's caches are built before the solve
    tracemalloc.start()
    try:
        basis = harmonic_selfdual_basis(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * m.grid.node_count * 8
    # the spectral preconditioner's bound, as tools/ci_runs.py checks it on
    # the CLI's generic 8^4 hodge run
    assert basis.solve["converged"] and basis.solve["iterations"] <= 16


def pulled_back_flat(n):
    """The pulled-back flat metric g of `pulled_back_flat_chart` and the eta
    components of the pullbacks phi^* c_a of the flat self-dual classes,
    which are self-dual and harmonic for g."""
    grid, _, jac, g = pulled_back_flat_chart(n)
    _, _, eta_up = textbook_eta_fields(g)
    flat = np.sqrt(2.0) * textbook_eta()  # dx01 + dx23, dx02 + dx31, dx03 + dx12
    pulled = np.einsum("...ki,bkl,...lj->...bij", jac, flat, jac)
    sd = 0.5 * np.einsum("...bij,...aij->...ba", pulled, eta_up)
    return build_metric(grid, pack(g)), sd


@pytest.mark.parametrize("n", [8, 12])
def test_harmonic_basis_spans_pulled_back_flat_classes(n):
    # non-diagonal and varying from node to node, yet isometric to the flat
    # torus.  phi^* c_a - c_a is exact, and each of its Fourier modes has
    # frequency at most 1 on every axis, where the stencil's d is the exact d
    # times one constant; so it is exact for the discrete d too, and the
    # span agrees to roundoff
    m, oracle = pulled_back_flat(n)
    basis = harmonic_selfdual_basis(m)
    assert basis.solve["converged"]
    w = np.linalg.det(layout(unpack(m.g), "node")) ** 0.25  # L2 weight sqrt(vol)
    found = np.stack([(w * omega.comps).ravel() for omega in basis], -1)
    expected = np.stack([(w * layout(oracle[..., b, :], "comp")).ravel() for b in range(3)], -1)
    assert max_principal_sine(expected, found) < 1e-10


def test_harmonic_basis_kaehler_product(grid8):
    m = metric_from_preset("kaehler-product:0.3*sin(x2)*cos(x3)", grid8)
    basis = harmonic_selfdual_basis(m)
    assert len(basis) == 3
    for omega in basis:
        assert hodge_rayleigh(omega, m) < 1e-16


def test_wedge_of_selfdual_is_l2_norm(m8):
    basis = harmonic_selfdual_basis(m8)
    omega = basis[0]
    two = embed(omega, m8)
    assert abs(wedge_integral(two, two) - sd_l2_norm(omega, m8) ** 2) < 1e-9
