"""Monopole residuals, a-priori bounds, curvature inequalities, catalog."""

import math

import numpy as np
import pytest

from monolab.curvature import curvature_stack
from monolab.functionals import (
    CATALOG,
    MonopoleConfig,
    PerturbationSpec,
    catalog_delta_sweep,
    catalog_linear,
    catalog_quadratic,
    check_curvature_bound,
    check_phi_l4_bound,
    constant_config,
    gauge_trick_config,
    general_psw_residual,
    key_inequality_check,
    lebrun_linear,
    lebrun_quadratic,
    psw_residual,
    reducible_config,
    reduction_spec,
    rotating_config,
)
from monolab.grid import GridSpec
from monolab.presets import metric_from_preset, random_smooth_scalar, theta_from_preset
from monolab.rayleigh import assemble_K, rayleigh_quotient, theta_from_angle
from monolab.selfdual import SelfDualField, TwoFormField, harmonic_selfdual_basis, sd_l2_norm
from monolab.spinc import SpinorField, U1Connection, sigma_map

from conftest import layout

SQRT8 = math.sqrt(8.0)
EPS = 0.5


@pytest.fixture(scope="module")
def kzero(m8, curv8):
    return assemble_K(theta_from_preset("const:0.0", m8), curv8, lam=0.0)


def zeros_sd(grid):
    return SelfDualField(grid, np.zeros((3,) + grid.dims))


def test_perturbation_spec_validation(grid8):
    with pytest.raises(ValueError):
        PerturbationSpec("weird", eps=0.5)
    with pytest.raises(ValueError):
        PerturbationSpec("full", eps=0.0)
    with pytest.raises(ValueError):
        PerturbationSpec("simple", eps=0.5, omega_hat=zeros_sd(grid8))
    big = SelfDualField(grid8, np.full((3,) + grid8.dims, 1.0))
    with pytest.raises(ValueError):
        PerturbationSpec("full", eps=0.5, omega_hat=big)  # |omega_hat| = sqrt(3)
    with pytest.raises(ValueError):
        PerturbationSpec("general", eta=zeros_sd(grid8))


def test_config_grid_mismatch(m8):
    other = GridSpec((10,) * 4)
    conn = U1Connection(other, np.zeros((4,) + other.dims))
    phi = SpinorField(other, np.zeros((2,) + other.dims, dtype=complex))
    with pytest.raises(ValueError):
        MonopoleConfig(conn, phi, m8)


def test_reducible_solution_is_exact(m8, kzero):
    cfg = reducible_config(m8)
    res = psw_residual(cfg, PerturbationSpec("full", eps=EPS), kzero)
    assert all(v == 0.0 for v in res.norms.values())
    bc = check_curvature_bound(cfg, kzero, EPS, residual=res)
    bl = check_phi_l4_bound(cfg, kzero, EPS, residual=res)
    vol = (2 * np.pi) ** 4
    assert bc.applicable and bl.applicable
    assert abs(bc.margin - EPS / SQRT8) < 1e-14
    assert abs(bl.margin - 8.0 * vol) < 1e-9


def test_constant_probe_residual(m8, kzero):
    cfg = constant_config(m8)
    res = psw_residual(cfg, PerturbationSpec("full", eps=EPS), kzero)
    assert res.norms["r1_linf"] == 0.0
    # |sigma| = 1/(2 sqrt 2) < 1, so beta = 1 and |r2| = eps |sigma|
    assert abs(res.norms["r2_linf"] - EPS / (2 * math.sqrt(2))) < 1e-14
    # the simple variant reads its coefficient off cfg.curv
    with pytest.raises(ValueError):
        psw_residual(cfg, PerturbationSpec("simple", eps=EPS), kzero)


def test_simple_variant_matches_full_on_flat(m8, curv8, kzero):
    base = constant_config(m8)
    cfg = MonopoleConfig(base.conn, base.phi, base.metric, curv=curv8)
    full = psw_residual(cfg, PerturbationSpec("full", eps=EPS), kzero)
    simple = psw_residual(cfg, PerturbationSpec("simple", eps=EPS), kzero)
    assert np.array_equal(full.r2.comps, simple.r2.comps)


def test_gauge_trick_residual(m8, kzero):
    rng = np.random.default_rng(3)
    chi = random_smooth_scalar(m8.grid, rng, amp=0.4)
    cfg = gauge_trick_config(m8, chi, phi0=(0.5, 0.0))
    res = psw_residual(cfg, PerturbationSpec("full", eps=EPS), kzero)
    # curvature of d(chi) cancels exactly; |sigma| = 0.25/(2 sqrt 2)
    assert abs(res.norms["r2_linf"] - EPS * 0.25 / (2 * math.sqrt(2))) < 1e-12
    # Dirac residual is pure product-rule stencil error
    assert 0.0 < res.norms["r1_linf"] < 0.05


def test_rotating_config_solves_curvature_equation(m8, kzero):
    cfg = rotating_config(m8, EPS, amplitude=0.9)
    res = psw_residual(cfg, PerturbationSpec("full", eps=EPS), kzero)
    assert res.norms["r2_linf"] < 1e-12
    smax = float(np.max(sigma_map(cfg.phi).norm()))
    assert smax < 0.9 + 1e-12  # beta stays inactive
    bc = check_curvature_bound(cfg, kzero, EPS, residual=res, gate=np.inf)
    assert abs(bc.margin - EPS * (1.0 - smax) / SQRT8) < 1e-12
    bl = check_phi_l4_bound(cfg, kzero, EPS, residual=res, gate=np.inf)
    vol = (2 * np.pi) ** 4
    assert abs(bl.lhs - 8.0 * smax**2 * vol) < 1e-6 * vol
    assert bl.margin > 0
    with pytest.raises(ValueError):
        rotating_config(m8, EPS, amplitude=1.1)
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps"):
            rotating_config(m8, eps)


@pytest.mark.parametrize("period", [3.0, 2.0 * np.pi * (1.0 + 1e-6), 1e-3],
                         ids=["3", "2pi(1+1e-6)", "1e-3"])
def test_rotating_config_needs_whole_turns_on_axis_2(period):
    # sin(x2), cos(x2) and exp(-i x2) are periodic only over 2 pi k
    grid = GridSpec((8,) * 4, (2.0 * np.pi, 2.0 * np.pi, period, 2.0 * np.pi))
    with pytest.raises(ValueError, match="axis 2's period"):
        rotating_config(metric_from_preset("flat", grid), EPS)


def test_rotating_config_on_two_turns():
    # a period of 4 pi holds two turns of the pair and stays an exact solution;
    # axis 0's period 3 does not matter, the pair does not depend on x0
    grid = GridSpec((8,) * 4, (3.0, 2.0 * np.pi, 4.0 * np.pi, 2.0 * np.pi))
    m = metric_from_preset("flat", grid)
    k = assemble_K(theta_from_preset("const:0.0", m), curvature_stack(m), lam=0.0)
    res = psw_residual(rotating_config(m, EPS), PerturbationSpec("full", eps=EPS), k)
    assert res.norms["r2_linf"] < 1e-12


def test_default_gate_flags_near_solutions(m8, kzero):
    # the rotating pair solves only the curvature equation; its Dirac
    # residual is O(1), so the solution-only bounds must be gated off
    cfg = rotating_config(m8, EPS)
    bc = check_curvature_bound(cfg, kzero, EPS)
    assert not bc.applicable
    assert bc.residual_l2 > bc.gate
    assert bc.margin > 0  # the conclusion itself still holds here


def test_bound_violation_is_reported(m8, kzero):
    # a large flux with Phi = 0 violates the sup bound; the margin goes
    # negative and the gate keeps the report marked non-applicable
    a = np.zeros((4,) + m8.grid.dims)
    a[0] = 5.0 * np.sin(m8.grid.mesh(1))
    conn = U1Connection(m8.grid, a)
    phi = SpinorField(m8.grid, np.zeros((2,) + m8.grid.dims, dtype=complex))
    cfg = MonopoleConfig(conn, phi, m8)
    bc = check_curvature_bound(cfg, kzero, EPS)
    assert bc.margin < 0
    assert not bc.applicable
    forced = check_curvature_bound(cfg, kzero, EPS, gate=np.inf)
    assert forced.applicable and forced.margin < 0


def test_psw_needs_flat_metric(m8_conf):
    # a manufactured pair on a curved metric is refused where it is built
    with pytest.raises(NotImplementedError, match="flat charts only"):
        constant_config(m8_conf)


def mixed_K(m8, curv8, seed=5):
    rng = np.random.default_rng(seed)
    theta = theta_from_angle(0.8 * random_smooth_scalar(m8.grid, rng, amp=1.0), m8)
    return theta, assemble_K(theta, curv8, lam=0.3)


def test_general_admissibility_rejections(m8, curv8):
    _, K = mixed_K(m8, curv8)
    assert float(np.max(K.kminus.values)) > 0  # the test needs a negative part
    cfg = constant_config(m8)
    dead = PerturbationSpec(
        "general",
        F=lambda k, t: np.zeros_like(k),
        eta=zeros_sd(m8.grid),
        kappa=1.0,
        t_switch=1.0,
        delta=0.1,
    )
    with pytest.raises(ValueError, match="K_-"):
        general_psw_residual(cfg, dead, K)
    toobig = PerturbationSpec(
        "general",
        F=lambda k, t: np.full_like(k, 10.0),
        eta=zeros_sd(m8.grid),
        kappa=1.0,
        t_switch=1.0,
        delta=0.0,
    )
    with pytest.raises(ValueError, match="kappa"):
        general_psw_residual(cfg, toobig, K)
    # t*F leaves [0, kappa] at one node only; the message names that node
    spike = np.full(m8.grid.dims, 0.1)
    spike[3, 4, 5, 6] = 50.0
    peak = PerturbationSpec(
        "general",
        F=lambda k, t: spike,
        eta=zeros_sd(m8.grid),
        kappa=1.0,
        t_switch=1.0,
        delta=0.0,
    )
    with pytest.raises(ValueError, match=r"node=\(3, 4, 5, 6\): t\*F=15\.62 outside"):
        general_psw_residual(cfg, peak, K)
    from monolab.rayleigh import beta

    shift = SelfDualField(m8.grid, np.full((3,) + m8.grid.dims, 10.0))
    badeta = PerturbationSpec(
        "general",
        F=lambda k, t: beta(t) * (k + EPS),
        eta=shift,
        kappa=float(np.max(K.kminus.values)) + EPS,
        t_switch=1.0,
        delta=EPS / 2,
    )
    with pytest.raises(ValueError, match="eta"):
        general_psw_residual(cfg, badeta, K)
    with pytest.raises(ValueError):
        general_psw_residual(cfg, PerturbationSpec("full", eps=EPS), K)


def test_reduction_identity_is_bitwise(m8, curv8):
    theta, K = mixed_K(m8, curv8)
    rng = np.random.default_rng(8)
    a = np.stack([random_smooth_scalar(m8.grid, rng, amp=0.3) for _ in range(4)])
    parts = [random_smooth_scalar(m8.grid, rng, amp=0.3) for _ in range(4)]
    phi = SpinorField(
        m8.grid,
        np.stack([1.0 + parts[0] + 1j * parts[1], 0.4 + parts[2] + 1j * parts[3]]),
    )
    cfg = MonopoleConfig(U1Connection(m8.grid, a), phi, m8)
    hat = SelfDualField(m8.grid, layout(np.tile([0.6, 0.8, 0.0], m8.grid.dims + (1,)), "comp"))
    full = PerturbationSpec("full", eps=EPS, omega_hat=hat)
    res_full = psw_residual(cfg, full, K)
    res_gen = general_psw_residual(cfg, reduction_spec(full, K), K)
    assert np.array_equal(res_full.r2.comps, res_gen.r2.comps)
    assert np.array_equal(res_full.r1.comps, res_gen.r1.comps)
    assert res_full.norms == res_gen.norms


def flux_rep(grid, n):
    comps = np.zeros((6,) + grid.dims)
    comps[0] = n / (2.0 * np.pi)
    return TwoFormField(grid, comps)


def flux_pairing(rep, omega, m, kfield):
    return lebrun_linear(omega, m, kfield=kfield, c1=rep).notes["c1_dot_omega"]


def test_lebrun_linear_pairs_integer_fluxes(m8, kzero):
    omega = SelfDualField(m8.grid, layout(np.tile([1.0, 0.0, 0.0], m8.grid.dims + (1,)), "comp"))
    want = (2.0 * np.pi) ** 2 / math.sqrt(2.0)
    p1 = flux_pairing(flux_rep(m8.grid, 1), omega, m8, kzero)
    p2 = flux_pairing(flux_rep(m8.grid, 2), omega, m8, kzero)
    assert abs(p1 - want) < 1e-9
    assert abs(p2 - 2.0 * p1) < 1e-9


def test_lebrun_linear_pairing_ignores_exact_forms(m8, kzero):
    rng = np.random.default_rng(11)
    a = U1Connection(
        m8.grid,
        np.stack([random_smooth_scalar(m8.grid, rng, amp=0.5) for _ in range(4)]),
    )
    omega = SelfDualField(m8.grid, layout(np.tile([1.0, 0.0, 0.0], m8.grid.dims + (1,)), "comp"))
    rep = flux_rep(m8.grid, 1)
    shifted = TwoFormField(m8.grid, rep.comps + a.curv.comps)
    p0 = flux_pairing(rep, omega, m8, kzero)
    p1 = flux_pairing(shifted, omega, m8, kzero)
    assert abs(p0 - p1) < 1e-9


def test_lebrun_linear_pairing_guards(m8, kzero):
    omega = SelfDualField(m8.grid, layout(np.tile([1.0, 0.0, 0.0], m8.grid.dims + (1,)), "comp"))
    rng = np.random.default_rng(12)
    open_form = TwoFormField(
        m8.grid,
        np.stack([random_smooth_scalar(m8.grid, rng, amp=1.0) for _ in range(6)]),
    )
    with pytest.raises(ValueError, match="closed"):
        flux_pairing(open_form, omega, m8, kzero)
    wobbly = SelfDualField(
        m8.grid,
        np.stack([1 + random_smooth_scalar(m8.grid, rng, amp=0.5) for _ in range(3)]),
    )
    with pytest.raises(ValueError, match="harmonic"):
        flux_pairing(flux_rep(m8.grid, 1), wobbly, m8, kzero)


def test_lebrun_linear_flat_equality(m8, kzero):
    omega = SelfDualField(m8.grid, layout(np.tile([0.0, 1.0, 0.0], m8.grid.dims + (1,)), "comp"))
    rep = lebrun_linear(omega, m8, kfield=kzero, c1=0.0)
    assert abs(rep.lhs) < 1e-8
    assert abs(rep.rhs) < 1e-8


def test_lebrun_linear_scales_with_omega(curv8_conf, m8_conf):
    omega = harmonic_selfdual_basis(m8_conf)[0]
    K = assemble_K(theta_from_preset("coord:0", m8_conf), curv8_conf, lam=0.2)
    r1 = lebrun_linear(omega, m8_conf, kfield=K, c1=0.25)
    two = SelfDualField(m8_conf.grid, 2.0 * omega.comps)
    r2 = lebrun_linear(two, m8_conf, kfield=K, c1=0.5)
    assert abs(r2.lhs - 2.0 * r1.lhs) < 1e-9 * max(1.0, abs(r1.lhs))
    assert abs(r2.rhs - 2.0 * r1.rhs) < 1e-12


def test_lebrun_quadratic_zero_class(m8, kzero, curv8):
    theta, K = mixed_K(m8, curv8)
    rep = lebrun_quadratic(K, m8, c1plus_sq=0.0)
    assert rep.lhs == 0.0
    assert rep.margin >= 0.0
    with pytest.raises(ValueError):
        lebrun_quadratic(K, m8)
    with pytest.raises(ValueError):
        lebrun_quadratic(K, m8, c1plus_sq=0.0, f_rep=flux_rep(m8.grid, 1))


def test_lebrun_quadratic_from_representative(m8, kzero):
    # flux n dx0^dx1 projects onto the constant basis with (c1+)^2 = n^2/2
    rep = lebrun_quadratic(kzero, m8, f_rep=flux_rep(m8.grid, 2))
    assert abs(rep.notes["c1plus_sq"] - 2.0) < 1e-9
    assert rep.notes["b_plus"] == 3
    exact = lebrun_quadratic(kzero, m8, f_rep=U1Connection(m8.grid, np.stack(
        [random_smooth_scalar(m8.grid, np.random.default_rng(1), amp=0.5)
         for _ in range(4)])).curv)
    assert abs(exact.notes["c1plus_sq"]) < 1e-12


def test_catalog_closed_forms():
    e = CATALOG["t2xsigma2"]
    vol = 16.0 * np.pi**3
    assert abs(e.volume - vol) < 1e-9
    assert e.scalar == -2.0
    assert abs(e.w - (-1.0 / 3.0)) < 1e-15
    assert abs(e.c1_dot_omega - (-vol / (2 * np.pi))) < 1e-9
    assert abs(e.c1plus_sq - vol / (8 * np.pi**2)) < 1e-12
    s = CATALOG["t2xs2"]
    assert s.scalar == 2.0
    assert abs(s.w - (-1.0 / 6.0)) < 1e-15
    assert CATALOG["flat-t4"].scalar == 0.0
    with pytest.raises(KeyError):
        catalog_linear("nope", 0.0)


def test_catalog_linear_reports():
    vol = CATALOG["t2xsigma2"].volume
    for delta in (0.0, 0.4, 1.0):
        rep = catalog_linear("t2xsigma2", delta)
        assert abs(rep.lhs - (-2.0 * vol)) < 1e-9
        assert abs(rep.margin) < 1e-9  # Kaehler-Einstein equality for all delta
    vols = CATALOG["t2xs2"].volume
    for delta in (0.0, 0.5, 1.0):
        rep = catalog_linear("t2xs2", delta)
        assert abs(rep.margin - delta * vols) < 1e-9
    flat = catalog_linear("flat-t4", 0.3)
    assert flat.lhs == 0.0 and flat.rhs == 0.0


def test_catalog_quadratic_reports():
    vol = CATALOG["t2xsigma2"].volume
    rep = catalog_quadratic("t2xsigma2", 0.0)
    assert abs(rep.lhs - 4.0 * vol) < 1e-9
    assert abs(rep.margin) < 1e-9
    pos = catalog_quadratic("t2xs2", 0.0)
    assert pos.rhs == 0.0
    assert pos.margin < 0  # positive curvature: quadratic bound fails at c1+ != 0
    flat = catalog_quadratic("flat-t4", 0.0)
    assert flat.lhs == 0.0 and flat.rhs == 0.0 and flat.margin == 0.0


def test_catalog_delta_sweep_sign_pattern():
    vol = CATALOG["t2xs2"].volume
    rows = catalog_delta_sweep("t2xs2", [0.0, 2.0, 3.9, 4.0, 5.0], kind="quadratic")
    margins = [r["margin"] for r in rows]
    assert margins[0] < 0 and margins[1] < 0 and margins[2] < 0
    assert abs(margins[3]) < 1e-9 * vol
    assert margins[4] > 0
    lin = catalog_delta_sweep("t2xsigma2", [0.0, 0.5, 1.0], kind="linear")
    assert all(abs(r["margin"]) < 1e-9 for r in lin)


def random_config(m8, curv8, seed):
    rng = np.random.default_rng(seed)
    a = np.stack([random_smooth_scalar(m8.grid, rng, amp=0.3) for _ in range(4)])
    parts = [random_smooth_scalar(m8.grid, rng, amp=0.3) for _ in range(4)]
    phi = SpinorField(
        m8.grid,
        np.stack([1.0 + parts[0] + 1j * parts[1], 0.4 + parts[2] + 1j * parts[3]]),
    )
    return MonopoleConfig(U1Connection(m8.grid, a), phi, m8, curv=curv8)


@pytest.mark.parametrize("theta_preset", ["const:0.4", "coord:0"])
def test_key_inequality_random_configs(m8, curv8, theta_preset):
    theta = theta_from_preset(theta_preset, m8)
    for seed in (0, 1, 2):
        cfg = random_config(m8, curv8, seed)
        rep = key_inequality_check(cfg, theta)
        assert rep.margin >= -1e-3 * rep.notes["scale"]
        # the gradient side is the lambda quotient's numerator at sigma(Phi)
        sigma = sigma_map(cfg.phi)
        numerator = rayleigh_quotient(sigma, theta, m8) * sd_l2_norm(sigma, m8) ** 2
        assert abs(rep.lhs - numerator) <= 1e-13 * abs(numerator)

