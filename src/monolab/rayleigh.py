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
`GridSpec.spectral_scale` (Absil, Mahony and Sepulchre 2008, ch. 8;
Knyazev 2001), applied in the real Fourier basis of `grid._real_fourier`
by `grid._fourier_multiply`.
The symbol is zero on the exact half-frequency planes, the alternating
column of each even axis (frequency j with 2 j = n), to which the centred
first difference is blind, so the preconditioner also keeps every search
direction in the stencil-resolved subspace; those modes would otherwise
fake flat directions of the quotient on even grids.
The random starts are projected onto that subspace by the same mask; the
constant ones already lie in it and are left exact.

The line search first tries the Newton step of the quotient's quadratic
part along the great circle through x in the direction p.  Its second
derivative there, 2 (<p, A p> - <x, A x> |p|^2), comes from the carried
pair below and the A p that the iteration computes anyway.  Where it is
not positive, the trial is Nocedal and Wright's step (Numerical
Optimization, 3.60) from the last drop of q.  A rejected trial is replaced
by the safeguarded minimiser of the interpolating quadratic (3.57-3.58),
and a trial is accepted on the Armijo test.  The accepted step is refined
once, to the same quadratic's minimiser, when that lies more than 10% away
and below four times the step; the lower of the two points is kept.
Trials evaluate q alone, and the gradient is formed once per iteration, at
the kept point, from that evaluation's arrays.  A stage stops, converged,
once the preconditioned gradient <g, P g> is below 1e-9 max(|q|, mu), so
a start that has already converged pays one evaluation for it.  Each start
reports its evaluations, its rejected trials, its final <g, P g> and
whether every stage converged; a stage whose line search finds no descent
has not.

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

On the flat metric A is one operator per component.  There the
Weitzenboeck formula on Lambda+ has no curvature term (Atiyah, Hitchin and
Singer 1978), so (d+d*)^2 = nabla*nabla, and the discrete chains agree
exactly, not only to order h^6.  The eta pairs are constant with
orthonormal columns P, the stencils D_k are antisymmetric and commute, so
on a self-dual 2-form d* gives the same D_k combinations as d and the
Hodge chain 2 P^T d^T d P equals P^T (d^T d + d d^T) P = L, with
L = sum_k D_k^T D_k on each component; the Dirichlet chain is the gradient
and its transpose, L again.  So A sigma = h^4 (s L(s sigma) + c L(c sigma)),
and the modulus term is h^4 <rho, L rho>.  Both apply L through
`grid._gradient_gram`, one Gram circulant per axis, which is exactly zero
on constant fields; they agree with the two chains to roundoff
(about 4e-16 relative).  The Weitzenboeck residual, which checks that the
chains agree, keeps both on every metric.

The minimiser's state (x, A x, the gradient, the search direction), its
kernels, `ThetaField` and `LambdaResult.minimizer` have the one in-memory
layout of `grid`, (3, n0, n1, n2, n3): each component is one contiguous
block, as in every tensor of `MetricField`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, MetricField, _frame_components
from .grid import (
    GridSpec,
    ScalarField,
    _fourier_multiply,
    _freeze,
    _gradient,
    _gradient_T,
    _gradient_gram,
    _real_fourier,
    _stencil_symbol2,
)
from .selfdual import (
    SelfDualField,
    _dirichlet_forward,
    _flux,
    _hodge_forward,
    _hodge_transpose,
    _nabla_T,
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
    dtheta: np.ndarray  # (4, dims) coordinate components
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
    dth = c * _gradient(s, grid) - s * _gradient(c, grid)
    # |d theta|^2 = |e^-T d theta|^2, since g^-1 = e^-1 e^-T
    frame = _frame_components(m.coframe, dth)
    n2 = np.einsum("a...,a...->...", frame, frame)
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


def _comp_norm2(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the three leading components, summed in storage order."""
    return v[0] ** 2 + v[1] ** 2 + v[2] ** 2


def _bnorm(v: np.ndarray, bw: np.ndarray) -> float:
    """The L2 norm sqrt(sum |v|^2 vol h^4), with bw = vol h^4."""
    return float(np.sqrt(np.sum(_comp_norm2(v) * bw)))


def _apply_quadratic(comps: np.ndarray, theta: ThetaField, m: MetricField) -> np.ndarray:
    """A sigma for the quotient's quadratic part <sigma, A sigma> =
    ||(d+d*)(s sigma)||^2 + ||nabla(c sigma)||^2 (plain sum, A symmetric):
    the two energies' transpose chains, without their sums.  Each energy's
    gradient is twice its chain times the cell volume, and A sigma is half
    the sum, so the chains are scaled by the cell volume alone.

    On the flat metric both chains are L = sum_k D_k^T D_k on each
    component (module docstring), so A sigma = cell (s L(s sigma) +
    c L(c sigma)), one `grid._gradient_gram` pass for each of s sigma and
    c sigma."""
    cell = m.grid.cell_volume
    if m.is_flat:
        # two (3, dims) passes: one stacked (2, 3, dims) pass was slower at
        # 8^4 and 16^4, as its larger temporaries make glibc trim and
        # re-fault the heap on every application
        out = _gradient_gram(theta.s * comps, m.grid)
        out *= theta.s
        lc = _gradient_gram(theta.c * comps, m.grid)
        lc *= theta.c
        out += lc
        out *= cell
        return out
    g1 = _hodge_transpose(_hodge_forward(theta.s * comps, m)[1], m)
    g1 *= cell
    g2 = _nabla_T(_dirichlet_forward(theta.c * comps, m)[1], m)
    g2 *= cell
    return theta.s * g1 + theta.c * g2


def _modulus_term(comps: np.ndarray, norm2: np.ndarray, m: MetricField, eps: float):
    """The quotient's smoothed term 2 ||nabla|sigma|_eps||^2, given
    norm2 = |sigma|^2, and a function that forms its gradient in the
    components from this evaluation's arrays.

    On the flat metric the flux of d rho is d rho itself, so the energy is
    <rho, L rho> h^4 and its gradient in rho is 2 h^4 L rho, with
    L = sum_k D_k^T D_k from `grid._gradient_gram`: one pass, and no
    (4, dims) gradient."""
    grid = m.grid
    r = np.sqrt(norm2 + eps * eps)
    # integral |d rho|^2 dmu for rho = |sigma|_eps, through the flux vol g^-1 d rho
    if m.is_flat:
        rho = r - eps
        lap = _gradient_gram(rho, grid)
        e3 = float(np.sum(rho * lap)) * grid.cell_volume
    else:
        drho = _gradient(r - eps, grid)
        flux = _flux(drho, m)
        e3 = float(np.sum(drho * flux)) * grid.cell_volume

    def grad() -> np.ndarray:
        g3s = lap.copy() if m.is_flat else _gradient_T(flux, grid)
        g3s *= 2.0 * grid.cell_volume
        unit = np.divide(comps, r, out=np.zeros_like(comps), where=r > 0)
        return 2.0 * g3s * unit

    return 2.0 * e3, grad


def _numerator(comps: np.ndarray, a_comps: np.ndarray, norm2: np.ndarray, m: MetricField,
               eps: float):
    """The quotient's numerator <sigma, A sigma> + 2 ||nabla|sigma|_eps||^2,
    given a_comps = A sigma and norm2 = |sigma|^2, and a function that forms
    its gradient in the components from this evaluation's arrays.  An
    evaluation whose gradient is never asked for skips the transpose chain."""
    smooth, grad_smooth = _modulus_term(comps, norm2, m, eps)
    num = float(np.sum(comps * a_comps)) + smooth

    def grad() -> np.ndarray:
        return 2.0 * a_comps + grad_smooth()

    return num, grad


def _quotient(comps: np.ndarray, a_comps: np.ndarray, m: MetricField, eps: float,
              bw: np.ndarray):
    """The quotient at comps and a function that forms its gradient there,
    with bw = vol h^4; |sigma|^2 is formed once, for the numerator's modulus
    term and the denominator."""
    norm2 = _comp_norm2(comps)
    num, grad_num = _numerator(comps, a_comps, norm2, m, eps)
    den = float(np.sum(norm2 * bw))
    q = num / den

    def grad() -> np.ndarray:
        return (grad_num() - q * (2.0 * bw * comps)) / den

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
    q, _ = _quotient(comps, _apply_quadratic(comps, theta, m), m, eps_smooth,
                     m.vol * m.grid.cell_volume)
    return q


# ---------------------------------------------------------------------------
# minimisation


# the stop rule's relative tolerance and the smoothing schedule, one for
# every search
_TOL = 1e-9
_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class LambdaOptions:
    """The search's settings; the defaults are the `lambda` command's."""

    n_random: int = 8
    max_iter: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.n_random < 0 or self.max_iter < 0:
            raise ValueError("n_random and max_iter must be non-negative")


@dataclass(frozen=True)
class LambdaResult:
    """Outcome of the quotient minimisation.

    lam is a discrete upper-bound estimate of the infimum; it equals
    rayleigh_quotient(minimizer, ..., epsilon_final) by construction.
    start_values, start_evals, start_converged, start_gpg and
    start_backtracks hold one entry per start: its final quotient, its
    quotient evaluations (the final re-evaluation included), whether every
    stage converged, the preconditioned gradient <g, P g> at the end of its
    last stage and its line-search trials that failed the Armijo test.
    quotient_evals is the sum of start_evals; converged is the winning
    start's flag.  A start has converged when the stop rule
    <g, P g> <= 1e-9 max(|q|, mu), or two drops of q below that threshold,
    ended every one of its stages.  That does not bound its gap to the
    best start: on conformal:0.1*sin(x0) with theta = x1 at 8^4 the first
    constant start converges 1.0e-7 relative above lambda.
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
    start_gpg: tuple
    start_backtracks: tuple
    operator_applies: int


# highest frequency per axis of the random starts' spectrum
_START_BANDWIDTH = 2


def _sphere_symbol(grid: GridSpec) -> np.ndarray:
    """Flat preconditioner symbol 1/(mu + |s|^2) in `_stencil_symbol2`'s
    layout, with mu = `GridSpec.spectral_scale`, zero on the half-frequency
    planes that the centred first difference cannot see."""
    symbol = 1.0 / (grid.spectral_scale + _stencil_symbol2(grid))
    for ax, n in enumerate(grid.dims):
        half = 2 * _real_fourier(n)[1] == n
        symbol[(slice(None),) * ax + (half,)] = 0.0
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
    comps = np.empty((3,) + grid.dims)
    for a in range(3):
        draw = rng.standard_normal((len(band),) * 4 + (2,))
        spec = np.zeros(grid.dims, dtype=complex)
        spec[dst] = (draw[..., 0] + 1j * draw[..., 1])[src]
        comps[a] = np.fft.ifftn(spec).real
    return comps


def _starts(grid: GridSpec, opts: LambdaOptions, resolved: np.ndarray):
    """The three constant basis forms, then opts.n_random seeded random
    starts projected onto the resolved subspace (the constant ones already
    lie in it), made one at a time as the minimiser asks for them."""
    for a in range(3):
        yield np.eye(3)[a].reshape(3, 1, 1, 1, 1) * np.ones(grid.dims)
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.n_random):
        yield _fourier_multiply(_random_start(grid, rng), resolved)


def _trial(x, ax, p, ap, alpha, m, eps, bw):
    """The point (x + alpha p) / |x + alpha p| of the unit sphere, its carried
    image (A x + alpha A p) / |x + alpha p|, its quotient and the function
    that forms the quotient's gradient there."""
    xn = x + alpha * p
    # p is tangent to the unit sphere at x, so |x + alpha p| >= 1
    nrm = _bnorm(xn, bw)
    xn /= nrm
    axn = (ax + alpha * ap) / nrm
    q, grad = _quotient(xn, axn, m, eps, bw)
    return q, xn, axn, grad


def _stage(x, ax, theta, m, eps, bw, symbol, max_iter):
    """One smoothing stage of preconditioned sphere-constrained conjugate
    gradient from x, with ax = A x carried in; returns (x, ax, history,
    converged, quotient evaluations, applications of A, rejected trials,
    the final <g, P g>).

    The first trial step of an iteration is the Newton step -<g, p> / kappa
    of the quadratic part along the great circle through x and p, whose
    second derivative there is kappa = 2 (<p, A p> - <x, A x> |p|^2); it
    needs only the A p that the iteration computes anyway.  Where kappa <= 0
    the trial is Nocedal and Wright's (3.60), twice the last drop of q over
    the directional derivative, times 1.01, or 1 on a stage's first
    iteration.  A trial that fails the Armijo test is replaced by the
    minimiser of the quadratic through phi(0), phi'(0) and phi(alpha), kept
    within [alpha/10, alpha/2] (N&W 3.57-3.58).  Once a trial passes, the
    same quadratic's minimiser is evaluated once more if it lies more than
    10% from alpha and below 4 alpha, and the lower of the two points is
    kept.  Trials evaluate q alone; the gradient is formed once, at the
    kept point.  The stage has converged once <g, P g> <= _TOL * max(|q|,
    mu), with mu = `GridSpec.spectral_scale`, at entry or after a step: a
    unit preconditioned step would lower q by about half that.  Two drops
    of q below the same threshold also stop it, as converged; a line search
    whose 50 trials all fail stops it unconverged.  Each iteration applies
    A once, to p; the entry and the trials reuse the carried ax (see the
    module docstring).
    """

    def tangent(v, x):
        return v - float(np.sum(v * (bw * x))) * x

    mu = m.grid.spectral_scale
    nrm = _bnorm(x, bw)
    x, ax = x / nrm, ax / nrm
    q, grad = _quotient(x, ax, m, eps, bw)
    g = grad()
    evals = 1
    applies = 0
    backtracks = 0
    z = tangent(_fourier_multiply(g, symbol), x)
    gz = float(np.sum(g * z))
    p = -z
    history = [q]
    q_prev = None
    stall = 0
    converged = gz <= _TOL * max(abs(q), mu)
    for _ in range(0 if converged else max_iter):
        # Armijo on the true directional derivative <g, p>
        dphi = float(np.sum(g * p))
        if dphi >= 0.0:
            p = -z
            dphi = -gz
        ap = _apply_quadratic(p, theta, m)
        applies += 1
        kappa = 2.0 * (float(np.sum(p * ap)) - float(np.sum(x * ax)) * _bnorm(p, bw) ** 2)
        if kappa > 0.0:
            alpha = -dphi / kappa
        elif q_prev is None or q_prev <= q:
            alpha = 1.0
        else:
            alpha = min(2.02 * (q - q_prev) / dphi, 1e6)
        for _bt in range(50):
            qn, xn, axn, grad = _trial(x, ax, p, ap, alpha, m, eps, bw)
            evals += 1
            if qn <= q + 1e-4 * alpha * dphi:
                break
            backtracks += 1
            step = -dphi * alpha * alpha / (2.0 * (qn - q - dphi * alpha))
            alpha = min(max(step, 0.1 * alpha), 0.5 * alpha)
        else:
            break
        curv = qn - q - dphi * alpha
        if curv > 0.0:
            refined = -dphi * alpha * alpha / (2.0 * curv)
            if abs(refined - alpha) > 0.1 * alpha and refined < 4.0 * alpha:
                other = _trial(x, ax, p, ap, refined, m, eps, bw)
                evals += 1
                if other[0] < qn:
                    qn, xn, axn, grad = other
                other = None  # free the losing point's arrays before the next A p
        gn = grad()
        grad = None  # likewise the kept point's forward arrays
        zn = tangent(_fourier_multiply(gn, symbol), xn)
        gzn = float(np.sum(gn * zn))
        # Polak-Ribiere+ on the preconditioned gradient; gz > 0, else the
        # stage would have stopped
        b_pr = max(0.0, float(np.sum(gn * (zn - z))) / gz)
        p = tangent(-zn + b_pr * p, xn)
        q_prev = q
        x, ax, q, g, z, gz = xn, axn, qn, gn, zn, gzn
        history.append(q)
        threshold = _TOL * max(abs(q), mu)
        stall = stall + 1 if q_prev - q <= threshold else 0
        if gz <= threshold or stall >= 2:
            converged = True
            break
    return x, ax, history, converged, evals, applies, backtracks, gz


def minimize_lambda(
    theta: ThetaField,
    m: MetricField,
    opts: LambdaOptions | None = None,
) -> LambdaResult:
    """Multistart minimisation of the quotient; returns the best find.

    Starts are the three constant basis forms plus seeded random
    low-frequency fields; each runs through the smoothing schedule.  The
    grid's spectral scale mu is both the preconditioner's shift and the
    stop rule's absolute floor; the quotient contains no curvature.
    """
    opts = opts or LambdaOptions()
    grid = m.grid
    bw = m.vol * grid.cell_volume
    symbol = _sphere_symbol(grid)

    best = None
    start_values = []
    start_evals = []
    start_converged = []
    start_gpg = []
    start_backtracks = []
    operator_applies = 0
    for x in _starts(grid, opts, symbol > 0.0):
        if not np.any(x):
            continue
        ax = _apply_quadratic(x, theta, m)
        history = []
        run_converged = True
        run_evals = 1  # the final re-evaluation below
        run_backtracks = 0
        operator_applies += 2  # ax above and the final re-evaluation
        for eps in _EPSILONS:
            x, ax, hist, conv, evals, applies, backtracks, gpg = _stage(
                x, ax, theta, m, eps, bw, symbol, opts.max_iter
            )
            history.extend(hist)
            run_converged = run_converged and conv
            run_evals += evals
            run_backtracks += backtracks
            operator_applies += applies
        sigma = SelfDualField(grid, x)
        eps_last = _EPSILONS[-1]
        eps_final = 0.0 if float(np.min(sigma.norm())) > 10.0 * eps_last else eps_last
        # the gradient's closure is not kept: it holds this evaluation's
        # arrays, which would stay alive through the next start
        lam = _quotient(x, _apply_quadratic(x, theta, m), m, eps_final, bw)[0]
        start_values.append(lam)
        start_evals.append(run_evals)
        start_converged.append(run_converged)
        start_gpg.append(gpg)
        start_backtracks.append(run_backtracks)
        # of starts that end within a few ulps of each other, the earliest wins
        if best is None or lam < best[0] - 4.0 * np.finfo(float).eps * abs(best[0]):
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
        start_gpg=tuple(start_gpg),
        start_backtracks=tuple(start_backtracks),
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
