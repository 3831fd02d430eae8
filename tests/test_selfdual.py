"""Self-dual two-form algebra, Hodge operators and harmonic solver."""

import numpy as np
import pytest

from monolab import (
    GridSpec,
    HarmonicSolveError,
    OneFormField,
    SelfDualField,
    TwoFormField,
    d_one_form,
    d_plus_dstar,
    d_two_form,
    embed,
    harmonic_selfdual_basis,
    hodge_rayleigh,
    integral_identity_check_c,
    integral_identity_check_s,
    metric_from_preset,
    project,
    project_asd,
    random_smooth_scalar,
    sd_l2_norm,
    star_two_form,
    theta_from_preset,
    wedge_integral,
    weitzenboeck_residual,
)
from monolab.grid import d1
from monolab.selfdual import (
    _D3_TERMS,
    _d_pairs,
    _d_pairs_T,
    _resolved_filter,
    hodge_energy_and_grad,
    nyquist_mask,
    sd_dirichlet_energy_and_grad,
)


def smooth_sd(grid, seed, offset=1.0, amp=0.4):
    rng = np.random.default_rng(seed)
    comps = np.stack(
        [offset + random_smooth_scalar(grid, rng, fmax=1, amp=amp) for _ in range(3)],
        axis=-1,
    )
    return SelfDualField(grid, comps)


def test_projection_algebra(m8):
    grid = m8.grid
    sig = smooth_sd(grid, 0)
    omega = embed(sig, m8)
    back = project(omega, m8)
    assert np.max(np.abs(back.comps - sig.comps)) < 1e-12
    assert np.max(np.abs(project_asd(omega, m8).comps)) < 1e-12
    starred = star_two_form(omega, m8)
    assert np.max(np.abs(starred.comps - omega.comps)) < 1e-12


def test_star_is_involutive(m8_conf):
    rng = np.random.default_rng(4)
    omega = TwoFormField(m8_conf.grid, rng.standard_normal(m8_conf.grid.dims + (6,)))
    twice = star_two_form(star_two_form(omega, m8_conf), m8_conf)
    assert np.max(np.abs(twice.comps - omega.comps)) < 1e-10


def test_d_squared_vanishes(grid8):
    rng = np.random.default_rng(7)
    a = OneFormField(grid8, rng.standard_normal(grid8.dims + (4,)))
    dd = d_two_form(d_one_form(a))
    assert np.max(np.abs(dd.comps)) < 1e-12


def test_constant_form_is_harmonic(m8):
    sig = SelfDualField(m8.grid, np.tile([1.0, -0.3, 0.2], m8.grid.dims + (1,)))
    tau, u = d_plus_dstar(sig, m8)
    assert np.max(np.abs(tau.comps)) < 1e-12
    assert np.max(np.abs(u.comps)) < 1e-12
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


def _d_pairs_per_component(omega, grid, transpose=False):
    # one stencil call per (axis, component): the reference for the stacked form
    hs = grid.spacing
    n_out = 6 if transpose else 4
    out = np.zeros(grid.dims + (n_out,) + omega.shape[5:])
    for l, k, p, s in _D3_TERMS:
        if transpose:
            out[:, :, :, :, p] -= s * d1(omega[:, :, :, :, l], k, hs[k])
        else:
            out[:, :, :, :, l] += s * d1(omega[:, :, :, :, p], k, hs[k])
    return out


@pytest.mark.parametrize("extra", [(), (5,)], ids=["single", "batched"])
def test_stacked_d_pairs_match_per_component(grid8, extra):
    # extra=(5,) is the block layout of the harmonic solver's operator
    rng = np.random.default_rng(17)
    omega = rng.standard_normal(grid8.dims + (6,) + extra)
    tau = rng.standard_normal(grid8.dims + (4,) + extra)
    d_omega = _d_pairs(omega, grid8)
    dt_tau = _d_pairs_T(tau, grid8)
    assert np.array_equal(d_omega, _d_pairs_per_component(omega, grid8))
    assert np.array_equal(dt_tau, _d_pairs_per_component(tau, grid8, transpose=True))
    lhs = np.sum(d_omega * tau)
    rhs = np.sum(omega * dt_tau)
    assert abs(lhs - rhs) < 1e-12 * np.sqrt(np.sum(d_omega**2) * np.sum(tau**2))


def test_energy_gradients_match_finite_differences(m8_conf):
    x0 = smooth_sd(m8_conf.grid, 11).comps
    grad_check(lambda x: hodge_energy_and_grad(x, m8_conf), x0, 1)
    grad_check(lambda x: sd_dirichlet_energy_and_grad(x, m8_conf), x0, 2)


def test_weitzenboeck_flat_is_machine_zero(m8, curv8):
    sig = smooth_sd(m8.grid, 3)
    assert weitzenboeck_residual(sig, m8, curv8) < 1e-12


def test_weitzenboeck_conformal_small(m8_conf, curv8_conf):
    sig = smooth_sd(m8_conf.grid, 3)
    assert weitzenboeck_residual(sig, m8_conf, curv8_conf) < 0.05


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


def test_nyquist_mask():
    even = GridSpec((8,) * 4)
    mask = nyquist_mask(even)
    assert mask is not None and mask.shape == even.dims
    odd = GridSpec((7,) * 4)
    assert nyquist_mask(odd) is None


def test_resolved_filter_kills_blind_mode(grid8):
    # the alternating-sign mode sits in the d1 stencil kernel; the subspace
    # filter must remove it so it cannot fake a harmonic form
    n = grid8.dims[0]
    alt = np.cos(np.pi * np.arange(n))
    blind = alt[:, None, None, None] * alt[None, :, None, None] * np.ones(grid8.dims)
    comps = np.stack([blind, np.zeros_like(blind), np.zeros_like(blind)], axis=-1)
    filt = _resolved_filter(grid8)
    assert np.max(np.abs(filt(comps))) < 1e-12
    smooth = smooth_sd(grid8, 8).comps
    assert np.max(np.abs(filt(smooth) - smooth)) < 1e-10


def test_harmonic_basis_flat(m8):
    basis = harmonic_selfdual_basis(m8)
    assert len(basis) == 3
    gram = np.array(
        [
            [np.sum(a.comps * b.comps * m8.vol[..., None]) * m8.grid.cell_volume for b in basis]
            for a in basis
        ]
    )
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8
    for omega in basis:
        assert hodge_rayleigh(omega, m8) < 1e-7


def test_harmonic_basis_conformal(m8_conf):
    basis = harmonic_selfdual_basis(m8_conf)
    assert len(basis) == 3


def test_harmonic_basis_refuses_a_fourth_form(grid8):
    # LOBPCG keeps four candidates below the cutoff on this metric, and
    # Gram-Schmidt turned the near-duplicate into a form with quotient 3.38
    m = metric_from_preset("kaehler-product:0.3*sin(x2)*cos(x3)", grid8)
    with pytest.raises(HarmonicSolveError, match=r"4 harmonic self-dual candidates"):
        harmonic_selfdual_basis(m)


def test_harmonic_basis_rejects_tiny_block(m8):
    with pytest.raises(ValueError):
        harmonic_selfdual_basis(m8, n_candidates=3)


def test_wedge_of_selfdual_is_l2_norm(m8):
    basis = harmonic_selfdual_basis(m8)
    omega = basis[0]
    two = embed(omega, m8)
    assert abs(wedge_integral(two, two) - sd_l2_norm(omega, m8) ** 2) < 1e-9
