"""Twisted Rayleigh quotient, its minimizer and the curvature weight K."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from monolab import cli, rayleigh
from monolab.cli import main
from monolab.curvature import build_metric, curvature_stack
from monolab.grid import GridSpec, _fourier_multiply, _gradient, _gradient_T
from monolab.presets import metric_from_preset, random_smooth_scalar, theta_from_preset
from monolab.rayleigh import (
    LambdaOptions,
    ThetaField,
    _apply_quadratic,
    _comp_norm2,
    _modulus_term,
    _random_start,
    _sphere_symbol,
    assemble_K,
    beta,
    minimize_lambda,
    rayleigh_quotient,
    theta_from_angle,
)
from monolab.selfdual import (
    SelfDualField,
    _dirichlet_forward,
    _hodge_forward,
    _hodge_transpose,
    _nabla_T,
)

from conftest import layout, pack, pulled_back_flat_chart, rel_err

TRIMMED = LambdaOptions(n_random=2, max_iter=60)


def keff2(h):
    return ((45 * np.sin(h) - 9 * np.sin(2 * h) + np.sin(3 * h)) / (30 * h)) ** 2


def test_beta_values():
    assert beta(0.5) == 1.0
    assert beta(1.0) == 1.0
    assert beta(2.0) == 0.5
    t = np.linspace(0.0, 5.0, 101)
    bt = beta(t)
    assert bt.shape == t.shape
    assert np.all(t * bt <= 1.0 + 1e-15)
    assert np.all(bt[t <= 1.0] == 1.0)
    with pytest.raises(ValueError):
        beta(-0.1)


def chain_rule_error(n):
    grid = GridSpec((n,) * 4)
    m = metric_from_preset("flat", grid)
    rng = np.random.default_rng(0)
    samples = 0.4 + random_smooth_scalar(grid, rng, amp=0.5)
    th = theta_from_angle(samples, m)
    from monolab.grid import d1

    ds = np.stack([d1(th.s, i, grid.spacing[i]) for i in range(4)])
    return np.max(np.abs(th.c * th.dtheta - ds))


def test_theta_from_angle_invariants(m8):
    rng = np.random.default_rng(0)
    samples = 0.4 + random_smooth_scalar(m8.grid, rng, amp=0.5)
    th = theta_from_angle(samples, m8)
    assert np.max(np.abs(th.s**2 + th.c**2 - 1.0)) < 1e-14
    direct = ThetaField(m8, np.sin(samples), np.cos(samples))
    assert np.max(np.abs(direct.dtheta - th.dtheta)) < 1e-13
    # c * dtheta - d(s) is pure product-rule stencil error: small, fast decay
    err8, err16 = chain_rule_error(8), chain_rule_error(16)
    assert err8 < 0.1
    assert err16 < err8 / 10


def test_coordinate_theta_norm_is_stencil_symbol(m8):
    th = theta_from_preset("coord:0", m8)
    want = keff2(m8.grid.spacing[0])
    assert np.max(np.abs(th.dtheta_norm2 - want)) < 1e-12


@pytest.fixture(scope="module")
def m16_conf():
    return metric_from_preset("conformal:0.1*sin(x0)", GridSpec((16,) * 4))


def test_theta_peak_at_16(m16_conf):
    # building theta forms s and c alone, d theta and |d theta|^2 waiting
    # for their first read: measured 5.25 planes, one plane being one
    # float64 grid array.  Forming d theta and |d theta|^2 up front, the
    # latter by forward substitution on each slab's factor, peaked at 15.4
    m = m16_conf
    tracemalloc.start()
    try:
        theta_from_preset("coord:1", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * m.grid.node_count * 8


def test_theta_holds_only_sin_and_cos_at_16(m16_conf):
    # s and c, 2 planes: measured 2.0.  With d theta (4) and |d theta|^2 (1)
    # formed up front it held 7.0
    m = m16_conf
    tracemalloc.start()
    try:
        theta = theta_from_preset("coord:1", m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "dtheta" not in vars(theta) and "dtheta_norm2" not in vars(theta)
    assert held <= 2.1 * m.grid.node_count * 8


def test_first_read_of_dtheta_norm2_peaks_with_the_flux_weight_built(m16_conf):
    # d theta (4 planes) and its flux (4) on top of the product's
    # temporaries: measured 15.3 planes above what was held
    m = m16_conf
    m.flux_weight
    theta = theta_from_preset("coord:1", m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        theta.dtheta_norm2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 16 * m.grid.node_count * 8


def test_flat_dtheta_norm2_is_the_plain_square_sum(m8):
    # on the flat metric the flux of d theta is d theta and vol is 1
    rng = np.random.default_rng(5)
    theta = theta_from_angle(0.4 + random_smooth_scalar(m8.grid, rng, amp=0.5), m8)
    dth = theta.dtheta
    assert np.array_equal(theta.dtheta_norm2, np.einsum("a...,a...->...", dth, dth))


def test_lambda_command_holds_no_curvature_bundle_when_the_minimiser_starts(monkeypatch):
    # what `lambda` holds at 16^4 when the minimiser starts, with the tensors
    # every application of A reads cached: g and the flux weight, packed,
    # 10 planes each (one plane being one float64 grid array), vol 1,
    # sd_pairs 18, sd_connection 12 and theta 2 (s, c), 53 planes: measured
    # 53.5.  With d theta and |d theta|^2 formed too it held 58.5, with the
    # whole-grid factor as well 68.5, and with g, the factor and the flux
    # weight stored as full (4, 4, dims) arrays and the curvature bundle
    # (R 1, W+ 9, w 1) kept through the minimisation it held 97.2
    class Started(Exception):
        pass

    held = []

    def started(theta, m, *args):
        m.flux_weight, m.sd_pairs, m.sd_connection
        held.append(tracemalloc.get_traced_memory()[0])
        raise Started

    monkeypatch.setattr(rayleigh, "minimize_lambda", started)
    tracemalloc.start()
    try:
        with pytest.raises(Started):
            main(["lambda", "--dims", "16", "--metric", "conformal:0.1*sin(x0)",
                  "--theta", "coord:1"])
    finally:
        tracemalloc.stop()
    assert held[0] <= 55 * 16**4 * 8


def test_starts_are_made_one_at_a_time(m8):
    # eight random starts peak less than one start (3 planes, one plane being
    # one float64 grid array) above one random start: each start is made when
    # the minimiser reaches it, and a finished one is not kept.  Made up
    # front, the eight held 7 starts (21 planes) more
    theta = theta_from_preset("coord:0", m8)
    minimize_lambda(theta, m8, opts=LambdaOptions(n_random=1, max_iter=0))  # warm caches
    peaks = []
    for n_random in (1, 8):
        tracemalloc.start()
        try:
            minimize_lambda(theta, m8, opts=LambdaOptions(n_random=n_random, max_iter=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 3 * m8.grid.node_count * 8


def test_theta_field_validation(m8):
    s = np.full(m8.grid.dims, 0.8)
    c = np.full(m8.grid.dims, 0.8)  # s^2 + c^2 != 1
    with pytest.raises(ValueError):
        ThetaField(m8, s, c)
    s, c = np.zeros(m8.grid.dims), np.ones(m8.grid.dims)
    s[1, 2, 3, 4] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        ThetaField(m8, s, c)
    s[1, 2, 3, 4] = 0.0
    c[1, 2, 3, 4] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        ThetaField(m8, s, c)


def smooth_sigma(grid, seed):
    rng = np.random.default_rng(seed)
    comps = np.stack([0.8 + random_smooth_scalar(grid, rng, amp=0.3) for _ in range(3)])
    return SelfDualField(grid, comps)


def test_quotient_guards(m8):
    theta = theta_from_preset("const:0.0", m8)
    zero = SelfDualField(m8.grid, np.zeros((3,) + m8.grid.dims))
    with pytest.raises(ValueError):
        rayleigh_quotient(zero, theta, m8)
    sig = smooth_sigma(m8.grid, 1)
    with pytest.raises(ValueError):
        rayleigh_quotient(sig, theta, m8, eps_smooth=-1e-3)


def test_quotient_scale_invariance(m8):
    theta = theta_from_preset("coord:0", m8)
    sig = smooth_sigma(m8.grid, 2)
    q1 = rayleigh_quotient(sig, theta, m8)
    q3 = rayleigh_quotient(SelfDualField(m8.grid, 3.0 * sig.comps), theta, m8)
    assert abs(q1 - q3) < 1e-12 * max(1.0, abs(q1))


def test_quotient_constant_sigma(m8):
    const = SelfDualField(m8.grid, layout(np.tile([1.0, 0.0, 0.0], m8.grid.dims + (1,)), "comp"))
    q0 = rayleigh_quotient(const, theta_from_preset("const:0.7", m8), m8)
    assert abs(q0) < 1e-12
    # coordinate theta turns the quotient into the exact stencil symbol
    q1 = rayleigh_quotient(const, theta_from_preset("coord:0", m8), m8)
    assert abs(q1 - keff2(m8.grid.spacing[0])) < 1e-10


def test_minimize_flat_constant_theta(m8):
    res = minimize_lambda(theta_from_preset("const:0.3", m8), m8, opts=TRIMMED)
    assert res.lam <= 1e-8
    assert res.converged
    assert len(res.start_values) == 5
    check = rayleigh_quotient(res.minimizer, theta_from_preset("const:0.3", m8), m8,
                              eps_smooth=res.epsilon_final)
    assert abs(res.lam - check) < 1e-12 * max(1.0, res.lam)


def test_constant_starts_give_exact_zero_on_constant_theta(m8):
    # lambda --dims 8 --theta const:0.2 --multistarts 1 --max-iter 50: a
    # field constant on every axis already lies in the stencil-resolved
    # subspace, so the constant starts are not projected, and the stencils
    # and the modulus term vanish on them exactly
    res = minimize_lambda(theta_from_preset("const:0.2", m8), m8,
                          opts=LambdaOptions(n_random=1, max_iter=50, seed=0))
    assert res.lam == 0.0
    assert res.start_values[:3] == (0.0, 0.0, 0.0)
    assert res.start_gpg[:3] == (0.0, 0.0, 0.0)


def test_minimize_flat_coordinate_theta(m8):
    theta = theta_from_preset("coord:0", m8)
    res = minimize_lambda(theta, m8, opts=TRIMMED)
    assert res.lam >= 0.05
    assert res.lam <= keff2(m8.grid.spacing[0]) + 1e-9


@pytest.mark.parametrize("n, preset", [(8, "coord:0"), (12, "coord:1")])
def test_tied_starts_keep_the_earliest(n, preset):
    # the three constant starts end a few ulps apart (8^4: ...0127, ...0127
    # and ...0126), so the lowest one would pick the dumped minimizer by
    # roundoff; the eta_1 constant is kept
    m = metric_from_preset("flat", GridSpec((n,) * 4))
    res = minimize_lambda(theta_from_preset(preset, m), m, opts=LambdaOptions(n_random=0))
    comps = res.minimizer.comps
    assert res.lam == res.start_values[0]
    assert comps[0].min() == comps[0].max() != 0.0
    assert not comps[1:].any()


def flat_linear_lambda(n, angle):
    """lambda and the smallest constant-sigma quotient for theta = angle(x)."""
    grid = GridSpec((n,) * 4)
    m = metric_from_preset("flat", grid)
    theta = theta_from_angle(angle(grid), m)
    res = minimize_lambda(theta, m, opts=LambdaOptions(n_random=0))
    const = min(
        rayleigh_quotient(SelfDualField(grid, layout(np.tile(e, grid.dims + (1,)), "comp")),
                          theta, m)
        for e in np.eye(3)
    )
    return res.lam, const


@pytest.mark.parametrize("angle, a2", [
    (lambda g: g.mesh(0), 1.0),
    (lambda g: g.mesh(0) + g.mesh(1), 2.0),
], ids=["x0", "x0+x1"])
def test_flat_linear_theta_refines_to_closed_form(angle, a2):
    # on the flat torus with theta = a.x (integer a) the continuum infimum
    # is |a|^2, attained by constant sigma
    errs = []
    for n in (8, 12):
        lam, const = flat_linear_lambda(n, angle)
        assert lam <= const + 1e-12
        errs.append(abs(lam - a2))
    assert np.log(errs[0] / errs[1]) / np.log(12 / 8) >= 5.0


def pulled_back_input(n):
    """The pulled-back flat chart at n^4 with theta = x0 + 0.1 sin x1."""
    grid, x, _, g = pulled_back_flat_chart(n)
    m = build_metric(grid, pack(g))
    return theta_from_angle(x[..., 0] + 0.1 * np.sin(x[..., 1]), m), m


def test_pulled_back_flat_lambda_and_scalar_converge():
    # g = J^T J is isometric to the flat torus through phi, and
    # theta = x0 + 0.1 sin x1 is the pullback of x0, so lambda = 1 and R = 0
    # exactly, on a non-diagonal metric that varies from node to node
    lam_errs, r_errs = [], []
    for n in (8, 12):
        theta, m = pulled_back_input(n)
        curv = curvature_stack(m)
        res = minimize_lambda(theta, m, opts=LambdaOptions(n_random=2))
        lam_errs.append(abs(res.lam - 1.0))
        r_errs.append(np.max(np.abs(curv.scalar.values)))
    # measured: orders 5.84 for lambda and 5.24 for R
    for errs in (lam_errs, r_errs):
        assert np.log(errs[0] / errs[1]) / np.log(12 / 8) >= 5.0


@pytest.mark.parametrize("bad", [
    {"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")},
    {"n_random": -2}, {"max_iter": -1}, {"epsilons": ()}, {"epsilons": (1e-3, 0.0)},
    {"epsilons": (float("nan"),)},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_lambda_options_reject_bad_values(bad):
    # the stop rule's tol and the smoothing schedule are module constants:
    # LambdaOptions refuses them as settings, whatever their value
    (key,) = bad
    removed = key in ("tol", "epsilons")
    with pytest.raises(TypeError if removed else ValueError,
                       match=f"'{key}'" if removed else None):
        LambdaOptions(**bad)


def test_lambda_options_are_the_lambda_commands():
    # lebrun's minimize_lambda(theta, m) runs lambda's default search
    options = cli._COMMANDS["lambda"][2]
    assert [f.name for f in fields(LambdaOptions)] == ["n_random", "max_iter", "seed"]
    assert LambdaOptions() == LambdaOptions(n_random=options["multistarts"].default,
                                            max_iter=options["max_iter"].default,
                                            seed=options["seed"].default)


def test_constant_starts_stop_at_entry(m8):
    # constant sigma is the minimiser for theta = x0 on the flat torus, so
    # each stage of each constant start stops on its first evaluation
    res = minimize_lambda(theta_from_preset("coord:0", m8), m8,
                          opts=LambdaOptions(n_random=0))
    assert res.start_evals == (6, 6, 6)  # 5 stages + the final re-evaluation
    assert res.quotient_evals == 18
    # A x once at the start, carried through the stages, and once more in
    # the final re-evaluation
    assert res.operator_applies == 6
    assert res.start_converged == (True, True, True)


def test_lambda8_input_evaluation_count(m8):
    # lambda --dims 8 --theta coord:0 --multistarts 4 --seed 0
    res = minimize_lambda(theta_from_preset("coord:0", m8), m8,
                          opts=LambdaOptions(n_random=4, seed=0))
    assert res.quotient_evals <= 300
    assert sum(res.start_evals) == res.quotient_evals
    assert len(res.start_evals) == len(res.start_converged) == len(res.start_values) == 7
    assert all(res.start_converged) and res.converged
    assert abs(res.lam - 0.9970285200830123) <= 1e-12 * 0.9970285200830123
    # measured: 93; 130 with the (3.60) first trial and no refinement
    assert res.operator_applies <= 100
    assert len(res.start_gpg) == len(res.start_backtracks) == 7
    # the constant starts stop at entry, so no trial is ever rejected
    assert res.start_backtracks[:3] == (0, 0, 0)


def test_conformal_lambda_starts_converge(grid8):
    # the input of lambda --dims 8 --theta coord:1 --metric conformal:0.1*sin(x0)
    # --multistarts 2 --seed 11
    m = metric_from_preset("conformal:0.1*sin(x0)", grid8)
    res = minimize_lambda(theta_from_preset("coord:1", m), m,
                          opts=LambdaOptions(n_random=2, seed=11))
    assert abs(res.lam - 0.9805943309092787) <= 1e-8 * 0.9805943309092787
    assert res.start_converged == (True,) * 5
    assert res.quotient_evals <= 230  # measured: 209
    assert res.operator_applies <= 110  # measured: 97


def preset_input(metric, theta):
    """A preset metric and theta at 8^4."""
    m = metric_from_preset(metric, GridSpec((8,) * 4))
    return theta_from_preset(theta, m), m


@pytest.mark.parametrize("make, args, bound", [
    # measured: 144; 939, with both random starts at the iteration cap,
    # before the Newton first trial and the refinement
    (pulled_back_input, (8,), 180),
    # measured: 116; 399, with both random starts unconverged
    (preset_input, ("kaehler-product:0.3*sin(x2)*cos(x3)", "coord:0"), 145),
], ids=["pulled-back", "kaehler-product"])
def test_curved_random_starts_converge(make, args, bound):
    # random starts on these curved charts crawled down a nearly flat valley
    # to the iteration cap when each trial step was the first Armijo point
    theta, m = make(*args)
    res = minimize_lambda(theta, m, opts=LambdaOptions(n_random=2, seed=11))
    assert res.start_converged == (True,) * 5
    assert res.operator_applies <= bound


def test_line_search_exhaustion_is_not_converged(m8, monkeypatch):
    # every evaluation after the first comes out higher, so no trial step
    # passes the Armijo test and each of the random start's five stages gives
    # up; the constant starts stop at entry, as the shift leaves g alone
    real = rayleigh._numerator
    calls = []

    def rising(*args):
        num, g = real(*args)
        calls.append(num)
        return num + 10.0 * len(calls), g

    monkeypatch.setattr(rayleigh, "_numerator", rising)
    res = minimize_lambda(theta_from_preset("coord:0", m8), m8,
                          opts=LambdaOptions(n_random=1))
    assert res.start_converged == (True, True, True, False)
    # 5 stages of 1 + 50 failed trials, and the final re-evaluation
    assert res.start_evals == (6, 6, 6, 256)
    assert res.quotient_evals == len(calls)


@pytest.mark.parametrize("metric, theta, opts", [
    ("flat", "coord:0", LambdaOptions(n_random=4, seed=0)),
    ("conformal:0.1*sin(x0)", "coord:1", LambdaOptions(n_random=2)),
], ids=["lambda8", "conformal-coord1"])
def test_carried_image_matches_a_fresh_application(grid8, monkeypatch, metric, theta, opts):
    # each stage hands on A x updated as (A x + alpha A p) / |x + alpha p|;
    # it must stay the image of the x it is handed on with
    real = rayleigh._stage
    errors = []

    def checked(*args):
        out = real(*args)
        x, ax = out[0], out[1]
        fresh = _apply_quadratic(x, th, m)
        errors.append(np.max(np.abs(ax - fresh)) / np.max(np.abs(fresh)))
        return out

    monkeypatch.setattr(rayleigh, "_stage", checked)
    m = metric_from_preset(metric, grid8)
    th = theta_from_preset(theta, m)
    minimize_lambda(th, m, opts=opts)
    assert len(errors) == 5 * (3 + opts.n_random)
    assert max(errors) <= 1e-12


# 8^4, and a non-cubic grid with unequal periods and a 5-node axis, on
# which the stencil wraps onto itself
FLAT_GRIDS = [GridSpec((8,) * 4), GridSpec((5, 8, 9, 12), (6.0, 7.0, 5.5, 8.0))]


def flat_input(grid):
    """The flat metric, a non-constant theta and a random sigma."""
    m = metric_from_preset("flat", grid)
    rng = np.random.default_rng(21)
    theta = theta_from_angle(random_smooth_scalar(grid, rng, fmax=2, amp=3.0), m)
    return m, theta, rng.standard_normal((3,) + grid.dims)


@pytest.mark.parametrize("grid", FLAT_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
def test_flat_operator_matches_the_two_chains(grid):
    # on the flat metric A sigma is s L(s sigma) + c L(c sigma) times h^4,
    # one Gram pass per axis, and equals the Hodge and Dirichlet chains
    m, th, x = flat_input(grid)
    cell = grid.cell_volume
    hodge = _hodge_transpose(_hodge_forward(th.s * x, m)[1], m)
    dirichlet = _nabla_T(_dirichlet_forward(th.c * x, m)[1], m)
    want = cell * (th.s * hodge + th.c * dirichlet)
    assert rel_err(_apply_quadratic(x, th, m), want) < 1e-13


@pytest.mark.parametrize("grid", FLAT_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
def test_flat_modulus_term_matches_the_gradient_chain(grid):
    # 2 ||d rho||^2 h^4 and its gradient 4 h^4 d^T d rho sigma / r, with the
    # gradient and its transpose, against the one Gram pass
    m, _, x = flat_input(grid)
    cell = grid.cell_volume
    eps = 1e-3
    r = np.sqrt(_comp_norm2(x) + eps * eps)
    drho = _gradient(r - eps, grid)
    energy = 2.0 * float(np.sum(drho * drho)) * cell
    grad = 4.0 * cell * _gradient_T(drho, grid) * x / r
    got, got_grad = _modulus_term(x, _comp_norm2(x), m, eps)
    assert abs(got - energy) < 1e-13 * energy
    assert rel_err(got_grad(), grad) < 1e-13


def test_flat_lambda_runs_no_hodge_or_gradient_chain(m8, monkeypatch):
    # the flat minimiser applies A and the modulus term through the Gram
    # pass alone; theta is built before the chains are taken away
    th = theta_from_preset("coord:0", m8)

    def forbidden(*args, **kwargs):
        raise AssertionError("the flat lambda ran a chain the Gram pass replaces")

    for name in ("_hodge_forward", "_dirichlet_forward", "_gradient", "_gradient_T"):
        monkeypatch.setattr(rayleigh, name, forbidden)
    res = minimize_lambda(th, m8, opts=TRIMMED)
    assert 0.05 <= res.lam <= keff2(m8.grid.spacing[0]) + 1e-9


def mode_loop_start(grid, rng):
    """The random start drawn one mode at a time, in np.ndindex order, stored
    component-major like the minimiser's state."""
    comps = np.empty((3,) + grid.dims)
    for a in range(3):
        spec = np.zeros(grid.dims, dtype=complex)
        for idx in np.ndindex(*(5,) * 4):
            spec[tuple(i - 2 for i in idx)] = rng.standard_normal() + 1j * rng.standard_normal()
        comps[a] = np.fft.ifftn(spec).real
    return comps


@pytest.mark.parametrize("dims", [(8, 8, 8, 8), (4, 5, 8, 6)])
def test_random_start_matches_mode_loop(dims):
    # a 4-node axis aliases modes -2 and 2; the loop keeps the later one
    grid = GridSpec(dims)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2):
        assert np.array_equal(_random_start(grid, rng), mode_loop_start(grid, ref))
    assert rng.standard_normal() == ref.standard_normal()


def fft_sphere_multiply(values, grid, mu):
    """1/(mu + |s|^2) applied to each component of a component-major array
    by complex FFTs: the d1 symbol in closed form on np.fft's frequencies,
    zero at zero frequency, and the whole symbol zero on the half-frequency
    planes."""
    symbol = 0.0
    half = np.zeros(grid.dims, dtype=bool)
    for ax, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        shape = [1, 1, 1, 1]
        shape[ax] = n
        j = np.fft.fftfreq(n, 1.0 / n).reshape(shape)
        phi = 2.0 * np.pi * j / n
        s = (45 * np.sin(phi) - 9 * np.sin(2 * phi) + np.sin(3 * phi)) / (30 * h)
        symbol = symbol + np.where((2 * j) % n == 0, 0.0, s**2)
        half |= 2 * np.abs(j) == n
    symbol = np.where(half, 0.0, 1.0 / (mu + symbol))
    out = np.empty_like(values)
    for idx in np.ndindex(*values.shape[:-4]):
        out[idx] = np.fft.ifftn(np.fft.fftn(values[idx]) * symbol).real
    return out


@pytest.mark.parametrize("tail", [(3,), (4, 3)])
def test_fourier_multiply_matches_per_component_transforms(tail):
    # the FFT reference shares no code with the real-basis products; a
    # stacked field and each of its scalar components get equal bits
    grid = GridSpec((7, 8, 9, 6))
    symbol = _sphere_symbol(grid)
    values = np.random.default_rng(5).standard_normal(tail + grid.dims)
    got = _fourier_multiply(values, symbol)
    # mu is the grid's spectral scale, (2 pi / L)^2 = 1 on 2 pi periods
    want = fft_sphere_multiply(values, grid, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for idx in np.ndindex(*tail):
        one = _fourier_multiply(values[idx], symbol)
        assert np.array_equal(got[idx], one)


def test_preconditioner_kills_blind_mode(grid8):
    # the alternating-sign mode sits in the d1 stencil kernel; the
    # preconditioner's symbol is zero on it, so no search direction can
    # pick it up, and its support mask keeps smooth fields
    n = grid8.dims[0]
    alt = np.cos(np.pi * np.arange(n))
    blind = alt[:, None, None, None] * alt[None, :, None, None] * np.ones(grid8.dims)
    comps = np.stack([blind, np.zeros_like(blind), np.zeros_like(blind)])
    symbol = _sphere_symbol(grid8)
    assert np.max(np.abs(_fourier_multiply(comps, symbol))) < 1e-12
    assert np.max(np.abs(_fourier_multiply(comps, symbol > 0))) < 1e-12
    smooth = smooth_sigma(grid8, 8).comps
    assert np.max(np.abs(_fourier_multiply(smooth, symbol > 0) - smooth)) < 1e-10
    # odd axes have no half frequency; on even ones the zeros are exactly the
    # planes of the alternating mode, the last column of the real basis
    zero = _sphere_symbol(GridSpec((7, 8, 9, 8))) == 0.0
    want = np.zeros((7, 8, 9, 8), dtype=bool)
    want[:, 7] = True
    want[..., 7] = True
    assert np.array_equal(zero, want)


def test_minimize_kaehler_constant_theta():
    g = GridSpec((8,) * 4)
    m = metric_from_preset("kaehler-product:0.3*sin(x2)", g)
    opts = LambdaOptions(n_random=0, max_iter=30)
    res = minimize_lambda(theta_from_preset("const:0.0", m), m, opts=opts)
    assert res.lam <= 1e-5


def test_assemble_K(m8_conf, curv8_conf):
    theta = theta_from_preset("const:0.2", m8_conf)
    kf = assemble_K(theta, curv8_conf, lam=0.3)
    k = kf.k.values
    assert np.max(np.abs(k - (kf.kplus.values - kf.kminus.values))) == 0.0
    assert np.max(kf.kplus.values * kf.kminus.values) == 0.0
    assert np.all(kf.kplus.values >= 0.0) and np.all(kf.kminus.values >= 0.0)
    assert kf.max_norm() == np.max(np.abs(k))
    s2 = theta.s**2
    want = (1 - s2 / 3) * curv8_conf.scalar.values + 2 * s2 * curv8_conf.w.values + 0.3
    assert np.max(np.abs(k - want)) < 1e-12
    with pytest.raises(ValueError):
        assemble_K(theta, curv8_conf, lam=-0.5)


def test_flat_constant_K_is_lambda(m8, curv8):
    theta = theta_from_preset("const:0.5", m8)
    kf = assemble_K(theta, curv8, lam=0.0)
    assert np.max(np.abs(kf.k.values)) < 1e-11
