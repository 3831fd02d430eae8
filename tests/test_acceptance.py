"""Acceptance gate: one test per shipped guarantee, at desk scale.

Run with -v to get one pass/fail line per criterion.  Grid sizes stay in
the 8^4..16^4 range and the whole file is budgeted for a few minutes.
"""

import filecmp
import json
import math

import numpy as np
import pytest

from monolab.cli import main as cli_main
from monolab.curvature import curvature_stack
from monolab.functionals import (
    CATALOG,
    MonopoleConfig,
    PerturbationSpec,
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
from monolab.rayleigh import LambdaOptions, assemble_K, minimize_lambda, theta_from_angle
from monolab.selfdual import SelfDualField, harmonic_selfdual_basis, weitzenboeck_residual
from monolab.spinc import SpinorField, U1Connection, dirac_weitzenboeck_check, sigma_map

TWO_PI = 2.0 * np.pi
SQRT8 = math.sqrt(8.0)


@pytest.fixture(scope="module")
def flat8():
    m = metric_from_preset("flat", GridSpec((8,) * 4))
    return m, curvature_stack(m)


def smooth_sd(grid, seed):
    rng = np.random.default_rng(seed)
    comps = np.stack(
        [1.0 + random_smooth_scalar(grid, rng, fmax=1, amp=0.4) for _ in range(3)],
    )
    return SelfDualField(grid, comps)


def smooth_pair(grid, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    a = np.stack([random_smooth_scalar(grid, rng, amp=amplitude) for _ in range(4)])
    parts = [random_smooth_scalar(grid, rng, amp=amplitude) for _ in range(4)]
    comps = np.stack(
        [1.0 + parts[0] + 1j * parts[1], 0.4 + parts[2] + 1j * parts[3]]
    )
    return U1Connection(grid, a), SpinorField(grid, comps)


def test_c01_sigma_map_normalization():
    # |sigma(Phi)|^2 = |Phi|^4 / 8 at every node, 10^4 random spinors
    grid = GridSpec((10,) * 4)
    rng = np.random.default_rng(0)
    comps = rng.standard_normal(grid.dims + (2,)) + 1j * rng.standard_normal(grid.dims + (2,))
    phi = SpinorField(grid, np.moveaxis(comps, -1, 0))
    err = np.abs(sigma_map(phi).norm() ** 2 - phi.norm2() ** 2 / 8.0)
    assert grid.node_count == 10_000
    assert np.max(err) <= 1e-12


def test_c02_selfdual_weitzenboeck():
    # (d+d*)^2 = nabla*nabla + R/3 - 2W+ on smooth forms, flat and conformal
    residuals = {}
    for n in (8, 16):
        grid = GridSpec((n,) * 4)
        sig = smooth_sd(grid, 2)
        for name, preset in (("flat", "flat"), ("conformal", "conformal:0.1*sin(x0)")):
            m = metric_from_preset(preset, grid)
            residuals[name, n] = weitzenboeck_residual(sig, m, curvature_stack(m))
    assert residuals["flat", 16] <= 1e-3
    assert residuals["conformal", 16] <= 1e-3
    # flat holds at machine scale by the discrete symbol identity; the
    # refinement order is read off the conformal case
    assert residuals["flat", 8] <= 1e-12 and residuals["flat", 16] <= 1e-12
    order = np.log(residuals["conformal", 8] / residuals["conformal", 16]) / np.log(2.0)
    assert order >= 2.0


def test_c03_dirac_weitzenboeck_integral():
    # integral identity for 5 random smooth pairs, decreasing under refinement
    res = {8: [], 16: []}
    for n in (8, 16):
        grid = GridSpec((n,) * 4)
        for seed in range(5):
            conn, phi = smooth_pair(grid, seed)
            _, _, r = dirac_weitzenboeck_check(phi, conn)
            res[n].append(r)
    assert max(res[16]) <= 1e-3
    assert all(r16 < r8 for r8, r16 in zip(res[8], res[16]))


def test_c04_key_inequality(flat8):
    m, curv = flat8
    thetas = [theta_from_preset("const:0.4", m), theta_from_preset("coord:0", m)]
    for seed in range(20):
        conn, phi = smooth_pair(m.grid, seed)
        cfg = MonopoleConfig(conn, phi, m, curv=curv)
        for theta in thetas:
            rep = key_inequality_check(cfg, theta)
            assert rep.lhs <= rep.rhs + 1e-3 * rep.notes["scale"], (seed, theta.s.flat[0])


def test_c05_lambda_kaehler_characterization(flat8):
    m, _ = flat8
    const = minimize_lambda(theta_from_preset("const:0.0", m), m)
    assert const.lam <= 1e-6
    theta = theta_from_preset("coord:0", m)
    runs = [
        minimize_lambda(theta, m),
        minimize_lambda(theta, m, opts=LambdaOptions(seed=23)),
    ]
    lams = [r.lam for r in runs]
    assert all(lam >= 0.05 for lam in lams)
    assert (max(lams) - min(lams)) <= 0.10 * max(lams)


def test_c06_curvature_oracles_16():
    grid = GridSpec((16,) * 4)
    x0, x2 = grid.mesh(0), grid.mesh(2)

    m = metric_from_preset("conformal:0.1*sin(x0)", grid)
    cb = curvature_stack(m)
    f = 0.1 * np.sin(x0)
    closed = np.exp(-2 * f) * (6 * 0.1 * np.sin(x0) - 6 * (0.1 * np.cos(x0)) ** 2)
    assert np.max(np.abs(cb.scalar.values - closed)) <= 1e-4
    wplus = np.moveaxis(cb.wplus, (0, 1), (-2, -1))
    assert np.max(np.abs(np.linalg.eigvalsh(wplus))) <= 1e-4  # W+ = 0 closed form

    mk = metric_from_preset("kaehler-product:0.1*sin(x2)", grid)
    ck = curvature_stack(mk)
    u = 0.1 * np.sin(x2)
    scalar = -2.0 * np.exp(-2 * u) * (-u)
    assert np.max(np.abs(ck.scalar.values - scalar)) <= 1e-4
    eigs = np.linalg.eigvalsh(np.moveaxis(ck.wplus, (0, 1), (-2, -1)))
    closed_eigs = np.sort(
        np.stack([scalar / 6, -scalar / 12, -scalar / 12], axis=-1), axis=-1
    )
    assert np.max(np.abs(eigs - closed_eigs)) <= 1e-4


def test_c07_apriori_bound_margins(flat8):
    m, curv = flat8
    eps = 0.5
    K = assemble_K(theta_from_preset("const:0.0", m), curv, lam=0.0)
    vol = float(np.sum(m.vol) * m.grid.cell_volume)
    rng = np.random.default_rng(1)
    chi = random_smooth_scalar(m.grid, rng, amp=0.4)
    configs = [
        reducible_config(m),
        constant_config(m),
        gauge_trick_config(m, chi, phi0=(0.5, 0.0)),
        rotating_config(m, eps, amplitude=0.9),
    ]
    for cfg in configs:
        res = psw_residual(cfg, PerturbationSpec("full", eps=eps), K)
        sup = check_curvature_bound(cfg, K, eps, residual=res, gate=np.inf)
        l4 = check_phi_l4_bound(cfg, K, eps, residual=res, gate=np.inf)
        assert sup.lhs <= sup.rhs + 1e-6
        assert l4.lhs <= l4.rhs + 1e-6 * vol


def test_c08_lebrun_reports(flat8):
    m, curv = flat8
    # flat equality case: K = 0, c1 = 0, harmonic omega
    kzero = assemble_K(theta_from_preset("const:0.0", m), curv, lam=0.0)
    omega = harmonic_selfdual_basis(m)[0]
    rep = lebrun_linear(omega, m, kfield=kzero, c1=0.0)
    assert abs(rep.lhs) <= 1e-8 and abs(rep.rhs) <= 1e-8

    # catalog oracles against grid-free closed forms
    for name, gauss, area in (("flat-t4", 0.0, 4 * np.pi**2),
                              ("t2xsigma2", -1.0, 4 * np.pi),
                              ("t2xs2", 1.0, 4 * np.pi)):
        vol = area * 4 * np.pi**2
        r_scal = 2.0 * gauss
        w = min(r_scal / 6.0, -r_scal / 12.0)
        for delta in (0.0, 0.5, 1.0):
            lin = catalog_linear(name, delta)
            lhs = ((1 - delta / 3.0) * r_scal + 2 * delta * w) * vol
            assert abs(lin.lhs - lhs) <= 1e-8
            assert abs(lin.rhs - 2.0 * gauss * vol) <= 1e-8
        quad = catalog_quadratic(name, 0.0)
        assert abs(quad.lhs - 4.0 * gauss**2 * vol) <= 1e-8
        assert abs(quad.rhs - max(-r_scal, 0.0) ** 2 * vol) <= 1e-8

    # quadratic margin is nonnegative whenever (c1+)^2 = 0
    assert catalog_quadratic("flat-t4", 0.0).margin >= 0.0
    rng = np.random.default_rng(3)
    theta = theta_from_angle(0.8 * random_smooth_scalar(m.grid, rng, amp=1.0), m)
    kmixed = assemble_K(theta, curv, lam=0.3)
    assert lebrun_quadratic(kmixed, m, c1plus_sq=0.0).margin >= 0.0


def test_c09_reduction_identity(flat8):
    m, curv = flat8
    rng = np.random.default_rng(5)
    theta = theta_from_angle(0.8 * random_smooth_scalar(m.grid, rng, amp=1.0), m)
    K = assemble_K(theta, curv, lam=0.3)
    conn, phi = smooth_pair(m.grid, 6)
    cfg = MonopoleConfig(conn, phi, m)
    hat = SelfDualField(m.grid, np.moveaxis(np.tile([0.6, 0.8, 0.0], m.grid.dims + (1,)), -1, 0))
    full = PerturbationSpec("full", eps=0.5, omega_hat=hat)
    res_full = psw_residual(cfg, full, K)
    res_gen = general_psw_residual(cfg, reduction_spec(full, K), K)
    assert np.array_equal(res_full.r2.comps, res_gen.r2.comps)
    assert np.array_equal(res_full.r1.comps, res_gen.r1.comps)


def test_c10_determinism(tmp_path):
    for args, stem in (
        (["dirac-check", "--dims", "8", "--seed", "7"], "dirac"),
        (["psw-residual", "--dims", "8", "--pair", "rotating"], "psw"),
    ):
        a, b = tmp_path / f"{stem}_a.json", tmp_path / f"{stem}_b.json"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)
        json.loads(a.read_text())  # well-formed report
