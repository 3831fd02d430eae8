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

Search directions are restricted to the stencil-resolved subspace: the
centred first difference is blind to exact half-frequency modes, which
would otherwise fake flat directions of the quotient on even grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, MetricField
from .grid import GridSpec, ScalarField, _axis_derivatives, _freeze, d1
from .selfdual import (
    SelfDualField,
    _resolved_filter,
    hodge_energy_and_grad,
    sd_dirichlet_energy_and_grad,
)

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
        if np.max(np.abs(s**2 + c**2 - 1.0)) > 1e-12:
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
    return theta_from_sc(np.sin(th), np.cos(th), m)


def theta_from_sc(s: np.ndarray, c: np.ndarray, m: MetricField) -> ThetaField:
    """Build the bundle from a stored (sin, cos) pair without any lift."""
    grid = m.grid
    s = np.asarray(s, dtype=float)
    c = np.asarray(c, dtype=float)
    ds = np.stack(_axis_derivatives(s, grid), axis=-1)
    dc = np.stack(_axis_derivatives(c, grid), axis=-1)
    dth = c[..., None] * ds - s[..., None] * dc
    n2 = np.einsum("...kl,...k,...l->...", m.ginv, dth, dth, optimize=True)
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
    hs = grid.spacing
    drho = np.stack(_axis_derivatives(rho, grid), axis=-1)
    flux = np.einsum("...kl,...l->...k", m.ginv, drho, optimize=True)
    flux *= m.vol[..., None]
    energy = float(np.sum(drho * flux)) * grid.cell_volume
    grad = np.zeros(grid.dims)
    for k in range(4):
        grad -= d1(flux[..., k], k, hs[k])
    grad *= 2.0 * grid.cell_volume
    return energy, grad


def _quotient_and_grad(
    comps: np.ndarray, theta: ThetaField, m: MetricField, eps: float
) -> tuple[float, np.ndarray]:
    grid = m.grid
    bw = m.vol * grid.cell_volume

    y1 = theta.s[..., None] * comps
    e1, g1 = hodge_energy_and_grad(y1, m)
    g1 = theta.s[..., None] * g1

    y2 = theta.c[..., None] * comps
    e2, g2 = sd_dirichlet_energy_and_grad(y2, m)
    g2 = theta.c[..., None] * g2

    r = np.sqrt(np.sum(comps**2, axis=-1) + eps * eps)
    e3, g3s = _scalar_dirichlet(r - eps, m)
    e3 *= 2.0
    unit = np.divide(comps, r[..., None], out=np.zeros_like(comps), where=r[..., None] > 0)
    g3 = 2.0 * g3s[..., None] * unit

    num = e1 + e2 + e3
    grad_num = g1 + g2 + g3
    den = float(np.sum(np.sum(comps**2, axis=-1) * bw))
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
    q, _ = _quotient_and_grad(sigma.comps, theta, m, eps_smooth)
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
    start_bandwidth: int = 2


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of the quotient minimisation.

    lam is a discrete upper-bound estimate of the infimum; it equals
    rayleigh_quotient(minimizer, ..., epsilon_final) by construction.
    """

    lam: float
    minimizer: SelfDualField
    quotient_history: tuple
    epsilon_final: float
    converged: bool
    start_values: tuple


def _stage(x, theta, m, eps, bw, filt, max_iter, tol, scale):
    """One smoothing stage of sphere-constrained conjugate gradient."""

    def bnorm(v):
        return float(np.sqrt(np.sum(np.sum(v**2, axis=-1) * bw)))

    def tangent(g, x):
        return g - float(np.sum(g * (bw[..., None] * x))) * x

    x = x / bnorm(x)
    q, g = _quotient_and_grad(x, theta, m, eps)
    gt = tangent(filt(g), x)
    p = -gt
    history = [q]
    alpha = 1.0
    stall = 0
    converged = False
    for _ in range(max_iter):
        dphi = float(np.sum(gt * p))
        if dphi >= 0.0:
            p = -gt
            dphi = -float(np.sum(gt * gt))
            if dphi == 0.0:
                converged = True
                break
        alpha = min(alpha * 2.0, 1e6)
        accepted = False
        for _bt in range(50):
            xn = x + alpha * p
            nrm = bnorm(xn)
            if nrm > 0:
                xn = xn / nrm
                qn, gn = _quotient_and_grad(xn, theta, m, eps)
                if qn <= q + 1e-4 * alpha * dphi:
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            converged = True  # no descent left at line-search resolution
            break
        gtn = tangent(filt(gn), xn)
        denom = float(np.sum(gt * gt))
        b_pr = 0.0 if denom == 0 else max(0.0, float(np.sum(gtn * (gtn - gt))) / denom)
        p = -gtn + b_pr * p
        p = tangent(p, xn)
        drop = q - qn
        x, q, gt = xn, qn, gtn
        history.append(q)
        if drop <= tol * max(abs(q), scale):
            stall += 1
            if stall >= 2:
                converged = True
                break
        else:
            stall = 0
    return x, q, history, converged


def minimize_lambda(
    theta: ThetaField,
    m: MetricField,
    curv: CurvatureBundle | None = None,
    opts: LambdaOptions | None = None,
) -> LambdaResult:
    """Multistart minimisation of the quotient; returns the best find.

    Starts are the three constant basis forms plus seeded random
    low-frequency fields; each runs through the smoothing schedule.  The
    curvature bundle only sets the absolute convergence scale (the
    quotient itself contains no curvature).
    """
    opts = opts or LambdaOptions()
    grid = m.grid
    bw = m.vol * grid.cell_volume
    filt = _resolved_filter(grid)
    scale = min((2.0 * np.pi / L) ** 2 for L in grid.periods)
    if curv is not None:
        scale += float(np.mean(np.abs(curv.scalar.values)))

    starts = []
    for a in range(3):
        e = np.zeros(grid.dims + (3,))
        e[..., a] = 1.0
        starts.append(e)
    rng = np.random.default_rng(opts.seed)
    fmax = opts.start_bandwidth
    for _ in range(opts.n_random):
        comps = np.empty(grid.dims + (3,))
        for a in range(3):
            spec = np.zeros(grid.dims, dtype=complex)
            for idx in np.ndindex(*(2 * fmax + 1,) * 4):
                k = tuple(i - fmax for i in idx)
                spec[k] = rng.standard_normal() + 1j * rng.standard_normal()
            comps[..., a] = np.fft.ifftn(spec).real
        starts.append(comps)

    best = None
    start_values = []
    for x0 in starts:
        x = filt(x0)
        if not np.any(x):
            continue
        history = []
        run_converged = True
        for eps in opts.epsilons:
            x, q, hist, conv = _stage(
                x, theta, m, eps, bw, filt, opts.max_iter, opts.tol, scale
            )
            history.extend(hist)
            run_converged = run_converged and conv
        sigma = SelfDualField(grid, x)
        eps_last = opts.epsilons[-1]
        eps_final = 0.0 if float(np.min(sigma.norm())) > 10.0 * eps_last else eps_last
        lam = rayleigh_quotient(sigma, theta, m, eps_final)
        start_values.append(lam)
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


def assemble_K(theta: ThetaField, curv: CurvatureBundle, lam: float) -> KField:
    """Pointwise curvature weight; the split satisfies K = K+ - K- exactly."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    grid = theta.grid
    s2 = theta.s**2
    k = (
        (1.0 - s2 / 3.0) * curv.scalar.values
        + 2.0 * s2 * curv.w.values
        - theta.dtheta_norm2
        + lam
    )
    kplus = np.maximum(k, 0.0)
    kminus = np.maximum(-k, 0.0)
    return KField(
        grid, ScalarField(grid, k), ScalarField(grid, kplus), ScalarField(grid, kminus), lam
    )
