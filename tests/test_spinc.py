"""Clifford model, sigma map, coupled Dirac operator and gauge behaviour."""

import numpy as np
import pytest

from monolab import (
    CliffordModel,
    GridSpec,
    SpinorField,
    U1Connection,
    dirac,
    dirac_weitzenboeck_check,
    gauge_transform,
    log_kato_check,
    nabla_a,
    random_smooth_scalar,
    sigma_map,
)

TWO_PI = 2.0 * np.pi


def keff(phi, h):
    return (45 * np.sin(phi) - 9 * np.sin(2 * phi) + np.sin(3 * phi)) / (30 * h)


def smooth_pair(grid, seed, amplitude=0.3):
    """Random smooth connection and spinor, bounded away from zero."""
    rng = np.random.default_rng(seed)
    a = np.stack([random_smooth_scalar(grid, rng, amp=amplitude) for _ in range(4)], axis=-1)
    conn = U1Connection(grid, a)
    parts = [random_smooth_scalar(grid, rng, amp=amplitude) for _ in range(4)]
    comps = np.stack(
        [1.0 + parts[0] + 1j * parts[1], 0.4 + parts[2] + 1j * parts[3]], axis=-1
    )
    return conn, SpinorField(grid, comps)


def test_clifford_identities():
    res = CliffordModel().identity_residuals()
    for key, value in res.items():
        assert value < 1e-12, key


def test_sigma_norm_identity():
    g = GridSpec((10,) * 4)
    rng = np.random.default_rng(1)
    comps = rng.standard_normal(g.dims + (2,)) + 1j * rng.standard_normal(g.dims + (2,))
    phi = SpinorField(g, comps)
    sig = sigma_map(phi)
    err = np.abs(sig.norm() ** 2 - phi.norm2() ** 2 / 8.0)
    assert np.max(err) < 1e-12 * max(1.0, np.max(phi.norm2() ** 2))


def test_dirac_plane_wave(grid8):
    # resolved Fourier mode: the coupled Dirac acts through the stencil symbol
    h = grid8.spacing[0]
    wave = np.exp(1j * grid8.mesh(0))
    phi = SpinorField(grid8, np.stack([wave, np.zeros_like(wave)], axis=-1))
    conn = U1Connection(grid8, np.zeros(grid8.dims + (4,)))
    dphi = dirac(phi, conn)
    assert np.max(np.abs(dphi.norm() - abs(keff(h, h)) * phi.norm())) < 1e-12


def test_nabla_a_grid_mismatch(grid8):
    other = GridSpec((10,) * 4)
    phi = SpinorField(other, np.zeros(other.dims + (2,), dtype=complex))
    conn = U1Connection(grid8, np.zeros(grid8.dims + (4,)))
    with pytest.raises(ValueError):
        nabla_a(phi, conn)


def test_curvature_of_exact_form_vanishes(grid8):
    rng = np.random.default_rng(3)
    chi = random_smooth_scalar(grid8, rng, amp=0.5)
    hs = grid8.spacing
    from monolab.grid import d1

    dchi = np.stack([d1(chi, i, hs[i]) for i in range(4)], axis=-1)
    conn = U1Connection(grid8, dchi)
    assert np.max(np.abs(conn.curv.comps)) < 1e-12
    assert np.max(np.abs(conn.curv_plus.comps)) < 1e-12


def covariance_error(grid, seed=4):
    conn, phi = smooth_pair(grid, seed)
    rng = np.random.default_rng(5)
    chi = random_smooth_scalar(grid, rng, amp=0.1)
    conn2, phi2 = gauge_transform(conn, phi, chi)
    # sigma is gauge invariant on the nose
    assert np.max(np.abs(sigma_map(phi2).comps - sigma_map(phi).comps)) < 1e-12
    lhs = dirac(phi2, conn2).comps
    rhs = np.exp(-1j * chi)[..., None] * dirac(phi, conn).comps
    return np.max(np.abs(lhs - rhs)) / (np.max(np.abs(rhs)) + 1.0)


def test_gauge_covariance_constant_phase(grid8):
    conn, phi = smooth_pair(grid8, 4)
    chi = np.full(grid8.dims, 0.9)
    conn2, phi2 = gauge_transform(conn, phi, chi)
    lhs = dirac(phi2, conn2).comps
    rhs = np.exp(-1j * chi)[..., None] * dirac(phi, conn).comps
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gauge_covariance_converges(grid8):
    # product-rule mismatch is pure stencil error: small and shrinking
    err8 = covariance_error(grid8)
    err12 = covariance_error(GridSpec((12,) * 4))
    assert err8 < 1e-2
    assert err12 < 0.3 * err8


def test_dirac_weitzenboeck_identity(grid8):
    conn, phi = smooth_pair(grid8, 6)
    lhs, rhs, residual = dirac_weitzenboeck_check(phi, conn)
    assert np.isfinite(lhs) and np.isfinite(rhs)
    assert residual < 5e-3


def test_log_kato(grid8):
    conn, phi = smooth_pair(grid8, 7)
    margin = log_kato_check(phi, conn)
    # continuum inequality, allow stencil slack near small |Phi|
    assert margin > -0.05
    zero = SpinorField(grid8, np.zeros(grid8.dims + (2,), dtype=complex))
    with pytest.raises(ValueError):
        log_kato_check(zero, conn)


def test_dirac_rejects_curved_metric(m8_conf):
    g = m8_conf.grid
    phi = SpinorField(g, np.ones(g.dims + (2,), dtype=complex))
    conn = U1Connection(g, np.zeros(g.dims + (4,)))
    with pytest.raises(NotImplementedError):
        dirac(phi, conn, m8_conf)
