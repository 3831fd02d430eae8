"""Spectral quotient for circle-valued angle fields on self-dual forms.

The invariant computed here is the infimum over nonzero self-dual fields
sigma of

    [ ||(d+d*)(s sigma)||^2 + ||nabla(c sigma)||^2 + 2 ||nabla|sigma|||^2 ]
    / ||sigma||^2,

with s = sin(theta), c = cos(theta).  The angle never appears as a lifted
real function: it is carried as the pair (s, c) plus the 1-form
d theta = c d(s) - s d(c), which is well defined across branch cuts.

The non-smooth third term is handled by epsilon smoothing
|sigma|_eps = sqrt(|sigma|^2 + eps^2) - eps with a continuation schedule,
and the minimisation is a projected nonlinear conjugate gradient on the
unit L2 sphere with multistart.  The reported value is the quotient of the
returned minimiser re-evaluated at the final smoothing (zero when the
minimiser stays away from the zero section), so it is always a discrete
upper-bound estimate, never a certified continuum value.

The conjugate gradient is preconditioned by the flat symbol
1/(mu + |s|^2), with |s|^2 the d1 symbol of `grid` and mu the chart's
`GridSpec.spectral_scale`, plus the mean |R| of a given curvature bundle
(Absil, Mahony and Sepulchre 2008, ch. 8; Knyazev 2001).  The symbol is
zero on exact half-frequency planes, to which the centred first
difference is blind, so the preconditioner also keeps every search
direction in the stencil-resolved subspace; those modes would otherwise
fake flat directions of the quotient on even grids.
The starts are projected onto that subspace by the same mask.

The line search tries Nocedal and Wright's step (Numerical Optimization,
3.60) from the last drop of q, backtracks to the safeguarded minimiser of
the interpolating quadratic (3.57-3.58) and accepts on the Armijo test.  A
stage stops, converged, once the preconditioned gradient <g, P g> is below
tol * max(|q|, mu), so a start that has already converged pays one
evaluation for it.  Each start reports its evaluations and whether every
stage converged; a stage whose line search finds no descent has not.

The first two terms form a fixed quadratic form <sigma, A sigma> (plain
sum over nodes and components), so the minimiser carries the pair
(x, A x) instead of applying A at every evaluation, as LOBPCG carries AX
and AP (Knyazev 2001).  Each CG iteration applies A once, to its search
direction p; the trial (x + alpha p) / |x + alpha p| then has A-image
(A x + alpha A p) / |x + alpha p|, and a stage entry, where only epsilon
changes, reuses the carried A x.  Only the smoothed term is recomputed at
each evaluation.  A start applies A once more before its first stage and
once in the final re-evaluation, which, like rayleigh_quotient, applies A
afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, MetricField, _bilinear
from .grid import (
    GridSpec,
    ScalarField,
    _fourier_multiply,
    _freeze,
    _stencil_symbol2,
    gradient,
    gradient_T,
)
from .selfdual import SelfDualField, hodge_energy_and_grad, sd_dirichlet_energy_and_grad

__all__ = [
    "ThetaField",
    "theta_from_angle",
    "theta_from_sc",
    "beta",
    "rayleigh_quotient",
    "LambdaOptions",
    "LambdaResult",
    "minimize_lambda",
    "KField",
    "assemble_K",
]


@dataclass(frozen=True)
class ThetaField:
    """Circle-valued angle stored as (sin, cos) with its differential."""

    grid: GridSpec
    s: np.ndarray
    c: np.ndarray
    dtheta: np.ndarray  # (dims, 4) coordinate components
    dtheta_norm2: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if s.shape != self.grid.dims or c.shape != self.grid.dims:
            raise ValueError("angle fields must be scalar grid arrays")
        # "not <=" also fails on NaN
        if not np.max(np.abs(s**2 + c**2 - 1.0)) <= 1e-12:
            raise ValueError("sin^2 + cos^2 must equal 1 at every node")
        object.__setattr__(self, "s", _freeze(s))
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "dtheta", _freeze(np.asarray(self.dtheta, dtype=float)))
        object.__setattr__(
            self, "dtheta_norm2", _freeze(np.asarray(self.dtheta_norm2, dtype=float))
        )


def theta_from_angle(samples, m: MetricField) -> ThetaField:
    """Build the (s, c, dtheta) bundle from angle samples (taken mod 2 pi)."""
    grid = m.grid
    th = np.asarray(samples, float)
    if th.shape != grid.dims:
        raise ValueError("angle samples must be a scalar grid array")
    if not np.all(np.isfinite(th)):
        raise ValueError("angle samples must be finite")
    return theta_from_sc(np.sin(th), np.cos(th), m)


def theta_from_sc(s: np.ndarray, c: np.ndarray, m: MetricField) -> ThetaField:
    """Build the bundle from a stored (sin, cos) pair without any lift."""
    grid = m.grid
    s = np.asarray(s, dtype=float)
    c = np.asarray(c, dtype=float)
    if s.shape != grid.dims or c.shape != grid.dims or not np.isfinite([s, c]).all():
        raise ValueError("sin and cos samples must be finite scalar grid arrays")
    ds = gradient(s, grid)
    dc = gradient(c, grid)
    dth = c[..., None] * ds - s[..., None] * dc
    n2 = _bilinear(dth, m.ginv, dth)
    return ThetaField(grid, s, c, dth, n2)


def beta(t):
    """Curvature cutoff: 1 below 1, 1/t above; continuous at 1."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("beta is defined for t >= 0 only")
    with np.errstate(divide="ignore"):
        out = np.where(arr > 1.0, 1.0 / np.where(arr > 1.0, arr, 1.0), 1.0)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# quotient evaluation


def _scalar_dirichlet(rho: np.ndarray, m: MetricField) -> tuple[float, np.ndarray]:
    """E = integral |d rho|^2 dmu and its gradient in rho (plain-sum chain)."""
    grid = m.grid
    drho = gradient(rho, grid)
    flux = np.einsum("...kl,...l->...k", m.ginv, drho)
    flux *= m.vol[..., None]
    energy = float(np.sum(drho * flux)) * grid.cell_volume
    grad = gradient_T(flux, grid)
    grad *= 2.0 * grid.cell_volume
    return energy, grad


def _comp_norm2(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the three trailing components, summed in storage order."""
    return v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2


def _apply_quadratic(comps: np.ndarray, theta: ThetaField, m: MetricField) -> np.ndarray:
    """A sigma for the quotient's quadratic part <sigma, A sigma> =
    ||(d+d*)(s sigma)||^2 + ||nabla(c sigma)||^2 (plain sum, A symmetric)."""
    _, g1 = hodge_energy_and_grad(theta.s[..., None] * comps, m)
    _, g2 = sd_dirichlet_energy_and_grad(theta.c[..., None] * comps, m)
    return 0.5 * (theta.s[..., None] * g1 + theta.c[..., None] * g2)


def _numerator(
    comps: np.ndarray, a_comps: np.ndarray, m: MetricField, eps: float
) -> tuple[float, np.ndarray]:
    """The quotient's numerator <sigma, A sigma> + 2 ||nabla|sigma|_eps||^2
    and its gradient in the components, given a_comps = A sigma."""
    r = np.sqrt(_comp_norm2(comps) + eps * eps)
    e3, g3s = _scalar_dirichlet(r - eps, m)
    unit = np.divide(comps, r[..., None], out=np.zeros_like(comps), where=r[..., None] > 0)
    num = float(np.sum(comps * a_comps)) + 2.0 * e3
    return num, 2.0 * a_comps + 2.0 * g3s[..., None] * unit


def _quotient_and_grad(
    comps: np.ndarray, a_comps: np.ndarray, m: MetricField, eps: float
) -> tuple[float, np.ndarray]:
    bw = m.vol * m.grid.cell_volume
    num, grad_num = _numerator(comps, a_comps, m, eps)
    den = float(np.sum(_comp_norm2(comps) * bw))
    q = num / den
    grad = (grad_num - q * (2.0 * bw[..., None] * comps)) / den
    return q, grad


def rayleigh_quotient(
    sigma: SelfDualField, theta: ThetaField, m: MetricField, eps_smooth: float = 0.0
) -> float:
    """The quotient at one field; eps_smooth = 0 is exact when |sigma| > 0."""
    if eps_smooth < 0:
        raise ValueError("smoothing parameter must be nonnegative")
    if not np.any(sigma.comps):
        raise ValueError("the quotient is undefined at sigma = 0")
    comps = sigma.comps
    q, _ = _quotient_and_grad(comps, _apply_quadratic(comps, theta, m), m, eps_smooth)
    return q


# ---------------------------------------------------------------------------
# minimisation


@dataclass(frozen=True)
class LambdaOptions:
    n_random: int = 8
    epsilons: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    max_iter: int = 150
    tol: float = 1e-9
    seed: int = 11

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")
        if self.n_random < 0 or self.max_iter < 0:
            raise ValueError("n_random and max_iter must be non-negative")
        if not self.epsilons or not all(e > 0 for e in self.epsilons):
            raise ValueError(f"epsilons must be positive numbers, got {self.epsilons}")


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of the quotient minimisation.

    lam is a discrete upper-bound estimate of the infimum; it equals
    rayleigh_quotient(minimizer, ..., epsilon_final) by construction.
    start_values, start_evals and start_converged hold one entry per start:
    its final quotient, its quotient evaluations (the final re-evaluation
    included) and whether every stage converged.  quotient_evals is the
    sum of start_evals; converged is the winning start's flag.
    operator_applies counts the applications of the quadratic part A over
    every start, each start's final re-evaluation included.
    """

    lam: float
    minimizer: SelfDualField
    quotient_history: tuple
    epsilon_final: float
    converged: bool
    start_values: tuple
    quotient_evals: int
    start_evals: tuple
    start_converged: tuple
    operator_applies: int


# highest frequency per axis of the random starts' spectrum
_START_BANDWIDTH = 2


def _sphere_symbol(grid: GridSpec, mu: float) -> np.ndarray:
    """Flat preconditioner symbol 1/(mu + |s|^2), rfftn layout, zero on the
    half-frequency planes that the centred first difference cannot see."""
    symbol = 1.0 / (mu + _stencil_symbol2(grid))
    for ax, n in enumerate(grid.dims):
        if n % 2 == 0:
            # index n // 2 is the half frequency in both fftn and rfftn order
            symbol[(slice(None),) * ax + (n // 2,)] = 0.0
    return symbol


def _random_start(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """One random low-frequency start.

    Each component gets standard normal real and imaginary parts on the
    modes |k_i| <= _START_BANDWIDTH, one draw per component in C order of
    the modes (real part first).  On an axis too short for the band the
    later of two aliased modes is kept.
    """
    band = range(-_START_BANDWIDTH, _START_BANDWIDTH + 1)
    src, dst = [], []
    for n in grid.dims:
        slot = {k % n: i for i, k in enumerate(band)}  # later modes overwrite
        src.append(list(slot.values()))
        dst.append(list(slot))
    src, dst = np.ix_(*src), np.ix_(*dst)
    comps = np.empty(grid.dims + (3,))
    for a in range(3):
        draw = rng.standard_normal((len(band),) * 4 + (2,))
        spec = np.zeros(grid.dims, dtype=complex)
        spec[dst] = (draw[..., 0] + 1j * draw[..., 1])[src]
        comps[..., a] = np.fft.ifftn(spec).real
    return comps


def _stage(x, ax, theta, m, eps, bw, symbol, max_iter, tol, scale):
    """One smoothing stage of preconditioned sphere-constrained conjugate
    gradient from x, with ax = A x carried in; returns (x, ax, q, history,
    converged, quotient evaluations, applications of A).

    The first trial step of an iteration is Nocedal and Wright's (3.60),
    twice the last drop of q over the directional derivative, times 1.01;
    the first iteration tries 1.  A trial that fails the Armijo test is
    replaced by the minimiser of the quadratic through phi(0), phi'(0) and
    phi(alpha), kept within [alpha/10, alpha/2] (N&W 3.57-3.58).  The stage
    has converged once <g, P g> <= tol * max(|q|, scale), at entry or after
    a step: a unit preconditioned step would lower q by about half that.
    Two drops of q below the same threshold also stop it, as converged; a
    line search whose 50 trials all fail stops it unconverged.
    Each iteration applies A once, to p; the entry and the trials reuse the
    carried ax (see the module docstring).
    """

    def bnorm(v):
        return float(np.sqrt(np.sum(_comp_norm2(v) * bw)))

    def tangent(v, x):
        return v - float(np.sum(v * (bw[..., None] * x))) * x

    nrm = bnorm(x)
    x, ax = x / nrm, ax / nrm
    q, g = _quotient_and_grad(x, ax, m, eps)
    evals = 1
    applies = 0
    z = tangent(_fourier_multiply(g, symbol), x)
    gz = float(np.sum(g * z))
    p = -z
    history = [q]
    q_prev = None
    stall = 0
    converged = gz <= tol * max(abs(q), scale)
    for _ in range(0 if converged else max_iter):
        # Armijo on the true directional derivative <g, p>
        dphi = float(np.sum(g * p))
        if dphi >= 0.0:
            p = -z
            dphi = -gz
        ap = _apply_quadratic(p, theta, m)
        applies += 1
        if q_prev is None or q_prev <= q:
            alpha = 1.0
        else:
            alpha = min(2.02 * (q - q_prev) / dphi, 1e6)
        accepted = False
        for _bt in range(50):
            # p is tangent to the unit sphere at x, so |x + alpha p| >= 1
            xn = x + alpha * p
            nrm = bnorm(xn)
            xn = xn / nrm
            axn = (ax + alpha * ap) / nrm
            qn, gn = _quotient_and_grad(xn, axn, m, eps)
            evals += 1
            if qn <= q + 1e-4 * alpha * dphi:
                accepted = True
                break
            step = -dphi * alpha * alpha / (2.0 * (qn - q - dphi * alpha))
            alpha = min(max(step, 0.1 * alpha), 0.5 * alpha)
        if not accepted:
            break
        zn = tangent(_fourier_multiply(gn, symbol), xn)
        gzn = float(np.sum(gn * zn))
        # Polak-Ribiere+ on the preconditioned gradient; gz > 0, else the
        # stage would have stopped
        b_pr = max(0.0, float(np.sum(gn * (zn - z))) / gz)
        p = tangent(-zn + b_pr * p, xn)
        q_prev = q
        x, ax, q, g, z, gz = xn, axn, qn, gn, zn, gzn
        history.append(q)
        threshold = tol * max(abs(q), scale)
        stall = stall + 1 if q_prev - q <= threshold else 0
        if gz <= threshold or stall >= 2:
            converged = True
            break
    return x, ax, q, history, converged, evals, applies


def minimize_lambda(
    theta: ThetaField,
    m: MetricField,
    curv: CurvatureBundle | None = None,
    opts: LambdaOptions | None = None,
) -> LambdaResult:
    """Multistart minimisation of the quotient; returns the best find.

    Starts are the three constant basis forms plus seeded random
    low-frequency fields; each runs through the smoothing schedule.  The
    curvature bundle only sets the absolute convergence scale mu, which is
    also the preconditioner's shift (the quotient itself contains no
    curvature).
    """
    opts = opts or LambdaOptions()
    grid = m.grid
    bw = m.vol * grid.cell_volume
    scale = grid.spectral_scale
    if curv is not None:
        scale += float(np.mean(np.abs(curv.scalar.values)))
    symbol = _sphere_symbol(grid, scale)
    resolved = symbol > 0.0

    starts = []
    for a in range(3):
        e = np.zeros(grid.dims + (3,))
        e[..., a] = 1.0
        starts.append(e)
    rng = np.random.default_rng(opts.seed)
    starts.extend(_random_start(grid, rng) for _ in range(opts.n_random))

    best = None
    start_values = []
    start_evals = []
    start_converged = []
    operator_applies = 0
    for x0 in starts:
        x = _fourier_multiply(x0, resolved)
        if not np.any(x):
            continue
        ax = _apply_quadratic(x, theta, m)
        history = []
        run_converged = True
        run_evals = 1  # the final re-evaluation below
        operator_applies += 2  # ax above and the final re-evaluation
        for eps in opts.epsilons:
            x, ax, q, hist, conv, evals, applies = _stage(
                x, ax, theta, m, eps, bw, symbol, opts.max_iter, opts.tol, scale
            )
            history.extend(hist)
            run_converged = run_converged and conv
            run_evals += evals
            operator_applies += applies
        sigma = SelfDualField(grid, x)
        eps_last = opts.epsilons[-1]
        eps_final = 0.0 if float(np.min(sigma.norm())) > 10.0 * eps_last else eps_last
        lam = rayleigh_quotient(sigma, theta, m, eps_final)
        start_values.append(lam)
        start_evals.append(run_evals)
        start_converged.append(run_converged)
        if best is None or lam < best[0]:
            best = (lam, sigma, tuple(history), eps_final, run_converged)

    lam, sigma, history, eps_final, conv = best
    if lam < -1e-9:
        raise RuntimeError(f"quotient came out negative ({lam:.3e}); broken energy")
    return LambdaResult(
        lam=max(lam, 0.0),
        minimizer=sigma,
        quotient_history=history,
        epsilon_final=eps_final,
        converged=conv,
        start_values=tuple(start_values),
        quotient_evals=sum(start_evals),
        start_evals=tuple(start_evals),
        start_converged=tuple(start_converged),
        operator_applies=operator_applies,
    )


# ---------------------------------------------------------------------------
# the curvature weight K


@dataclass(frozen=True)
class KField:
    """K = (1 - s^2/3) R + 2 s^2 w - |dtheta|^2 + lambda and its +/- split."""

    grid: GridSpec
    k: ScalarField
    kplus: ScalarField
    kminus: ScalarField
    lam: float

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.k.values)))


def _curvature_weight(R, w, delta):
    """LeBrun's family (1 - delta/3) R + 2 delta w; K takes delta = sin^2 theta."""
    return (1.0 - delta / 3.0) * R + 2.0 * delta * w


def assemble_K(theta: ThetaField, curv: CurvatureBundle, lam: float) -> KField:
    """Pointwise curvature weight; the split satisfies K = K+ - K- exactly."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    grid = theta.grid
    weight = _curvature_weight(curv.scalar.values, curv.w.values, theta.s**2)
    k = weight - theta.dtheta_norm2 + lam
    kplus = np.maximum(k, 0.0)
    kminus = np.maximum(-k, 0.0)
    return KField(
        grid, ScalarField(grid, k), ScalarField(grid, kplus), ScalarField(grid, kminus), lam
    )
