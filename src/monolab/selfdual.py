"""Hodge calculus for self-dual 2-forms on a periodic metric chart.

A self-dual field sigma is stored by its three components in the pointwise
orthonormal basis eta_1..eta_3 built from the metric coframe, so |sigma|^2
is the plain component square sum.  General 2-forms are stored by their six
coordinate components in `bases.PAIRS` order, 3-forms by the four components
dual to the coordinate axes, and 1-forms by coordinate components.

Only the exterior derivative is discretised (periodic 6th-order centred
differences); every Hodge star and Gram matrix is exact pointwise algebra.
Consequences used throughout:

* d(d omega) = 0 holds exactly because the difference stencils commute;
* star3 star1 = -1 holds exactly, so for self-dual sigma the square
  (d + d*)^2 sigma has exactly vanishing 0- and 4-form parts and its 2-form
  part is (1 + star2) d(d* sigma);
* the plain-sum transpose of a difference stencil is its negative, which
  gives hand-written transposes for all quadratic-form gradients.

One discrete artefact needs care: a centred first difference is blind to
the per-axis alternating mode (frequency n/2 on an even axis), so the
energy ||d sigma||^2 + ||d* sigma||^2 has spurious null vectors built from
alternating/constant tensor modes.  The harmonic searcher therefore works
in the stencil-resolved subspace obtained by masking exact half-frequency
planes; on odd axes the mask is empty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .bases import PAIRS, WEDGE2, X3
from .curvature import CurvatureBundle, MetricField
from .grid import GridSpec, _axis_derivatives, _freeze, d1, integrate

__all__ = [
    "TwoFormField",
    "ThreeFormField",
    "OneFormField",
    "SelfDualField",
    "embed",
    "project",
    "project_asd",
    "d_one_form",
    "d_two_form",
    "star_two_form",
    "star_three_form",
    "d_plus_dstar",
    "two_form_norm2",
    "three_form_norm2",
    "one_form_norm2",
    "sd_l2_norm",
    "wedge_integral",
    "covariant_derivative",
    "nabla_transpose",
    "nabla_star_nabla",
    "hodge_energy_and_grad",
    "sd_dirichlet_energy_and_grad",
    "weitzenboeck_residual",
    "integral_identity_check_s",
    "integral_identity_check_c",
    "hodge_rayleigh",
    "nyquist_mask",
    "B_PLUS",
    "HarmonicSolveError",
    "default_harmonic_tol",
    "harmonic_selfdual_basis",
]


@dataclass(frozen=True)
class _Components:
    """Real components (dims, width) on a grid chart, read-only once built."""

    grid: GridSpec
    comps: np.ndarray
    width = 0  # components per node, set by each subclass

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=float)
        want = self.grid.dims + (self.width,)
        if c.shape != want:
            raise ValueError(f"{type(self).__name__} components {c.shape} != {want}")
        object.__setattr__(self, "comps", _freeze(c))


class TwoFormField(_Components):
    """2-form by coordinate components omega_{i_p j_p} in PAIRS order."""

    width = 6


class ThreeFormField(_Components):
    """3-form by the coefficient of dx^I, I the sorted complement of axis l."""

    width = 4


class OneFormField(_Components):
    """1-form by coordinate components."""

    width = 4


class SelfDualField(_Components):
    """Self-dual 2-form by components in the orthonormal eta basis."""

    width = 3

    def norm(self) -> np.ndarray:
        """Pointwise |sigma| (basis is orthonormal, no metric needed)."""
        return np.sqrt(np.sum(self.comps**2, axis=-1))


# ---------------------------------------------------------------------------
# basis changes and pointwise algebra


def embed(sigma: SelfDualField, m: MetricField) -> TwoFormField:
    comps = np.einsum("...pa,...a->...p", m.sd_pairs, sigma.comps, optimize=True)
    return TwoFormField(sigma.grid, comps)


def project(omega: TwoFormField, m: MetricField) -> SelfDualField:
    comps = np.einsum("...pa,...p->...a", m.sd_pairs_up, omega.comps, optimize=True)
    return SelfDualField(omega.grid, comps)


def project_asd(omega: TwoFormField, m: MetricField) -> SelfDualField:
    """Anti-self-dual part, in the eta-bar basis (same storage layout)."""
    comps = np.einsum("...pa,...p->...a", m.asd_pairs_up, omega.comps, optimize=True)
    return SelfDualField(omega.grid, comps)


def star_two_form(omega: TwoFormField, m: MetricField) -> TwoFormField:
    comps = np.einsum("...qr,...r->...q", m.star2, omega.comps, optimize=True)
    return TwoFormField(omega.grid, comps)


def star_three_form(rho: ThreeFormField, m: MetricField) -> OneFormField:
    comps = np.einsum("...ml,...l->...m", m.star3, rho.comps, optimize=True)
    return OneFormField(rho.grid, comps)


def two_form_norm2(omega: TwoFormField, m: MetricField) -> np.ndarray:
    return np.einsum(
        "...p,...pq,...q->...", omega.comps, m.gram2, omega.comps, optimize=True
    )


def three_form_norm2(rho: ThreeFormField, m: MetricField) -> np.ndarray:
    return np.einsum(
        "...l,...lk,...k->...", rho.comps, m.gram3, rho.comps, optimize=True
    )


def one_form_norm2(u: OneFormField, m: MetricField) -> np.ndarray:
    return np.einsum(
        "...i,...ij,...j->...", u.comps, m.ginv, u.comps, optimize=True
    )


def sd_l2_norm(sigma: SelfDualField, m: MetricField) -> float:
    return math.sqrt(integrate(np.sum(sigma.comps**2, axis=-1), m))


def wedge_integral(alpha: TwoFormField, beta: TwoFormField) -> float:
    """integral of alpha ^ beta; a top form, so no volume factor appears."""
    if not alpha.grid.compatible(beta.grid):
        raise ValueError("wedge integral needs both forms on the same grid")
    den = np.einsum("...p,pq,...q->...", alpha.comps, WEDGE2, beta.comps, optimize=True)
    return float(np.sum(den) * alpha.grid.cell_volume)


# ---------------------------------------------------------------------------
# exterior derivative

# nonzero couplings of (d omega)_l = X3[l,k,i_p,j_p] D_k omega_p
_D3_TERMS = tuple(
    (l, k, p, float(X3[l, k, i, j]))
    for l in range(4)
    for k in range(4)
    for p, (i, j) in enumerate(PAIRS)
    if X3[l, k, i, j] != 0.0
)


def d_one_form(a: OneFormField) -> TwoFormField:
    dk = _axis_derivatives(a.comps, a.grid)
    comps = np.empty(a.grid.dims + (6,))
    for p, (i, j) in enumerate(PAIRS):
        comps[..., p] = dk[i][..., j] - dk[j][..., i]
    return TwoFormField(a.grid, comps)


def _d_pairs(omega: np.ndarray, grid: GridSpec) -> np.ndarray:
    """d of pair components; extra trailing axes ride along."""
    dk = _axis_derivatives(omega, grid)
    out = np.zeros(grid.dims + (4,) + omega.shape[5:])
    for l, k, p, s in _D3_TERMS:
        out[:, :, :, :, l] += s * dk[k][:, :, :, :, p]
    return out


def _d_pairs_T(tau: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Plain-sum transpose of _d_pairs (stencil transpose is its negative)."""
    dk = _axis_derivatives(tau, grid)
    out = np.zeros(grid.dims + (6,) + tau.shape[5:])
    for l, k, p, s in _D3_TERMS:
        out[:, :, :, :, p] -= s * dk[k][:, :, :, :, l]
    return out


def d_two_form(omega: TwoFormField) -> ThreeFormField:
    return ThreeFormField(omega.grid, _d_pairs(omega.comps, omega.grid))


def d_plus_dstar(sigma: SelfDualField, m: MetricField) -> tuple[ThreeFormField, OneFormField]:
    """(d sigma, d* sigma) with d* sigma = -star3(d sigma) for self-dual sigma."""
    tau = d_two_form(embed(sigma, m))
    u = star_three_form(tau, m)
    return tau, OneFormField(sigma.grid, -u.comps)


# ---------------------------------------------------------------------------
# covariant derivative on the self-dual bundle


def covariant_derivative(sigma: SelfDualField, m: MetricField) -> np.ndarray:
    """(nabla sigma)[..., c, a] = eta_a component of nabla_{E_c} sigma.

    Frame components, so the pointwise square sum is |nabla sigma|^2.
    """
    grid = sigma.grid
    if m.is_flat:
        return np.stack(_axis_derivatives(sigma.comps, grid), axis=-2)
    om = np.einsum("...aij,...a->...ij", m.sd_basis_coord, sigma.comps, optimize=True)
    nab = np.stack(_axis_derivatives(om, grid), axis=-3)
    gam = m.christoffel
    nab = nab - np.einsum("...mki,...mj->...kij", gam, om, optimize=True)
    nab = nab - np.einsum("...mkj,...im->...kij", gam, om, optimize=True)
    return 0.5 * np.einsum(
        "...kc,...kij,...aij->...ca",
        m.inv_coframe, nab, m.sd_basis_coord_up, optimize=True,
    )


def nabla_transpose(tau: np.ndarray, m: MetricField) -> np.ndarray:
    """Plain-sum transpose of covariant_derivative, (dims,4,3) -> (dims,3)."""
    grid = m.grid
    hs = grid.spacing
    if m.is_flat:
        out = np.zeros(grid.dims + (3,))
        for k in range(4):
            out -= d1(tau[..., k, :], k, hs[k])
        return out
    y = 0.5 * np.einsum(
        "...kc,...aij,...ca->...kij",
        m.inv_coframe, m.sd_basis_coord_up, tau, optimize=True,
    )
    om_t = np.zeros(grid.dims + (4, 4))
    for k in range(4):
        om_t -= d1(y[..., k, :, :], k, hs[k])
    gam = m.christoffel
    om_t -= np.einsum("...aki,...kib->...ab", gam, y, optimize=True)
    om_t -= np.einsum("...bkj,...kaj->...ab", gam, y, optimize=True)
    return np.einsum("...aij,...ij->...a", m.sd_basis_coord, om_t, optimize=True)


def nabla_star_nabla(sigma: SelfDualField, m: MetricField) -> SelfDualField:
    """Rough Laplacian, the L2(vol) adjoint chain vol^-1 nabla^T (vol nabla)."""
    tau = covariant_derivative(sigma, m)
    out = nabla_transpose(m.vol[..., None, None] * tau, m)
    return SelfDualField(sigma.grid, out / m.vol[..., None])


# ---------------------------------------------------------------------------
# quadratic forms and their gradients (shared by the eigensolver and the
# spectral quotient minimiser)


def hodge_energy_and_grad(comps: np.ndarray, m: MetricField) -> tuple[float, np.ndarray]:
    """E = ||d sigma||^2 + ||d* sigma||^2 and its gradient in the components.

    The two terms are folded into one per-node weight on d sigma, see
    MetricField.hodge_weight; the gradient is the exact plain-sum transpose
    of the evaluation chain.
    """
    grid = m.grid
    om = np.einsum("...pa,...a->...p", m.sd_pairs, comps, optimize=True)
    tau = _d_pairs(om, grid)
    wtau = np.einsum("...lk,...k->...l", m.hodge_weight, tau, optimize=True)
    energy = float(np.sum(tau * wtau)) * grid.cell_volume
    om_t = _d_pairs_T(wtau, grid)
    grad = np.einsum("...pa,...p->...a", m.sd_pairs, om_t, optimize=True)
    grad *= 2.0 * grid.cell_volume
    return energy, grad


def sd_dirichlet_energy_and_grad(
    comps: np.ndarray, m: MetricField
) -> tuple[float, np.ndarray]:
    """E = ||nabla sigma||^2_{L2} and its gradient in the components."""
    grid = m.grid
    sigma = SelfDualField(grid, comps)
    tau = covariant_derivative(sigma, m)
    wtau = m.vol[..., None, None] * tau
    energy = float(np.sum(tau * wtau)) * grid.cell_volume
    grad = nabla_transpose(wtau, m) * (2.0 * grid.cell_volume)
    return energy, grad


# ---------------------------------------------------------------------------
# Weitzenboeck identity and the two integral identities


def weitzenboeck_residual(
    sigma: SelfDualField, m: MetricField, curv: CurvatureBundle
) -> float:
    """Relative L2 residual of (d+d*)^2 = nabla*nabla + R/3 - 2 W+ on sigma."""
    grid = sigma.grid
    _, u = d_plus_dstar(sigma, m)
    v = d_one_form(u)
    vplus = TwoFormField(grid, v.comps + star_two_form(v, m).comps)
    lhs = project(vplus, m).comps
    rhs = nabla_star_nabla(sigma, m).comps
    rhs = rhs + (curv.scalar.values[..., None] / 3.0) * sigma.comps
    rhs = rhs - 2.0 * np.einsum("...ab,...b->...a", curv.wplus, sigma.comps, optimize=True)
    num = np.sum(np.sum((lhs - rhs) ** 2, axis=-1) * m.vol)
    den = np.sum(np.sum(sigma.comps**2, axis=-1) * m.vol)
    return float(np.sqrt(num / den))


def _identity_pieces(sigma: SelfDualField, theta, m: MetricField):
    """Shared integrands: |sigma|^2, |nabla sigma|^2 and the cross term
    (dtheta tensor sigma, nabla sigma) in frame components."""
    nab = covariant_derivative(sigma, m)
    sig2 = np.sum(sigma.comps**2, axis=-1)
    nab2 = np.sum(nab**2, axis=(-2, -1))
    dth_frame = np.einsum("...kc,...k->...c", m.inv_coframe, theta.dtheta, optimize=True)
    cross = np.einsum("...c,...a,...ca->...", dth_frame, sigma.comps, nab, optimize=True)
    return sig2, nab2, cross


def integral_identity_check_s(
    sigma: SelfDualField, theta, m: MetricField, curv: CurvatureBundle
) -> tuple[float, float]:
    """||(d+d*)(sin(theta) sigma)||^2 against its Bochner-type expansion.

    `theta` provides arrays s, c, dtheta, dtheta_norm2 (see ThetaField).
    Returns (lhs, rhs); both are plain numbers, equal up to discretisation.
    """
    grid = sigma.grid
    s = theta.s
    scaled = SelfDualField(grid, s[..., None] * sigma.comps)
    tau, u = d_plus_dstar(scaled, m)
    lhs = integrate(three_form_norm2(tau, m) + one_form_norm2(u, m), m)

    sig2, nab2, cross = _identity_pieces(sigma, theta, m)
    wquad = np.einsum(
        "...a,...ab,...b->...", sigma.comps, curv.wplus, sigma.comps, optimize=True
    )
    c = theta.c
    integrand = (
        c**2 * theta.dtheta_norm2 * sig2
        + s**2 * nab2
        + 2.0 * c * s * cross
        + (s**2 / 3.0) * curv.scalar.values * sig2
        - 2.0 * s**2 * wquad
    )
    return lhs, integrate(integrand, m)


def integral_identity_check_c(
    sigma: SelfDualField, theta, m: MetricField
) -> tuple[float, float]:
    """||nabla(cos(theta) sigma)||^2 against its expansion."""
    grid = sigma.grid
    c = theta.c
    scaled = SelfDualField(grid, c[..., None] * sigma.comps)
    nab = covariant_derivative(scaled, m)
    lhs = integrate(np.sum(nab**2, axis=(-2, -1)), m)

    sig2, nab2, cross = _identity_pieces(sigma, theta, m)
    s = theta.s
    integrand = s**2 * theta.dtheta_norm2 * sig2 + c**2 * nab2 - 2.0 * c * s * cross
    return lhs, integrate(integrand, m)


# ---------------------------------------------------------------------------
# harmonic self-dual forms


def hodge_rayleigh(sigma: SelfDualField, m: MetricField) -> float:
    """(||d sigma||^2 + ||d* sigma||^2) / ||sigma||^2, the harmonicity defect."""
    energy, _ = hodge_energy_and_grad(sigma.comps, m)
    den = sd_l2_norm(sigma, m) ** 2
    if den == 0.0:
        raise ValueError("cannot form a Rayleigh quotient of the zero field")
    return energy / den


def nyquist_mask(grid: GridSpec) -> np.ndarray | None:
    """Boolean FFT mask of modes invisible to the centred first difference.

    True marks a mode with exact half frequency on at least one (even)
    axis.  None when every axis is odd and no such plane exists.
    """
    masks = []
    any_even = False
    for ax, n in enumerate(grid.dims):
        freqs = np.fft.fftfreq(n) * n
        hit = np.abs(np.abs(freqs) - n / 2.0) < 0.5e-9
        any_even = any_even or bool(hit.any())
        shape = [1, 1, 1, 1]
        shape[ax] = n
        masks.append(hit.reshape(shape))
    if not any_even:
        return None
    out = np.zeros(grid.dims, dtype=bool)
    for h in masks:
        out |= h
    return out


def _resolved_filter(grid: GridSpec):
    """Projector onto the stencil-resolved subspace (identity on odd grids)."""
    mask = nyquist_mask(grid)
    if mask is None:
        return lambda comps: comps
    keep = ~mask

    def apply(comps: np.ndarray) -> np.ndarray:
        spec = np.fft.fftn(comps, axes=(0, 1, 2, 3))
        spec *= keep[(...,) + (None,) * (comps.ndim - 4)]
        return np.fft.ifftn(spec, axes=(0, 1, 2, 3)).real

    return apply


def _stencil_symbols(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis effective wavenumbers of the centred first difference."""
    out = []
    for n, h in zip(grid.dims, grid.spacing):
        phi = 2.0 * np.pi * np.fft.fftfreq(n)
        out.append((45.0 * np.sin(phi) - 9.0 * np.sin(2 * phi) + np.sin(3 * phi)) / (30.0 * h))
    return out


# b+ of the 4-torus: the same for every metric
B_PLUS = 3


class HarmonicSolveError(RuntimeError):
    """Eigensolve did not separate harmonic candidates from the rest."""

    def __init__(self, message: str, quotients=None):
        super().__init__(message)
        self.quotients = quotients


def default_harmonic_tol(m: MetricField) -> float:
    """Zero-mode cutoff: 1e-6 of the natural spectral scale of the chart."""
    return 1e-6 * min((2.0 * np.pi / L) ** 2 for L in m.grid.periods)


def harmonic_selfdual_basis(
    m: MetricField,
    count_tol: float | None = None,
    n_candidates: int = 6,
    tol: float = 1e-9,
    maxiter: int = 400,
    seed: int = 7,
) -> list[SelfDualField]:
    """Basis of discrete harmonic self-dual forms (zero modes of d + d*).

    Solves the generalised eigenproblem of the Hodge energy against the
    L2(vol) mass in the stencil-resolved subspace with a block method,
    preconditioned by the flat inverse symbol.  Candidates below count_tol
    are returned (B-orthonormal, deterministic sign).  An ambiguous spectrum
    near the cutoff, or any count of B-orthonormal candidates other than
    B_PLUS, raises HarmonicSolveError with the achieved quotients.
    """
    grid = m.grid
    if count_tol is None:
        count_tol = default_harmonic_tol(m)
    nnodes = grid.node_count
    n_big = nnodes * 3
    if n_candidates < 4:
        raise ValueError("need at least 4 candidates to see past a rank-3 kernel")

    filt = _resolved_filter(grid)
    mask = nyquist_mask(grid)
    keep = None if mask is None else ~mask
    bw = m.vol * grid.cell_volume

    def a_block(x: np.ndarray) -> np.ndarray:
        comps = filt(np.ascontiguousarray(x).reshape(grid.dims + (3, -1)))
        om = np.einsum("...pa,...aK->...pK", m.sd_pairs, comps, optimize=True)
        tau = _d_pairs(om, grid)
        wtau = np.einsum("...lk,...kK->...lK", m.hodge_weight, tau, optimize=True)
        om_t = _d_pairs_T(wtau, grid)
        out = np.einsum("...pa,...pK->...aK", m.sd_pairs, om_t, optimize=True)
        out = filt(out) * grid.cell_volume
        return out.reshape(n_big, -1)

    def b_block(x: np.ndarray) -> np.ndarray:
        comps = np.ascontiguousarray(x).reshape(grid.dims + (3, -1))
        return (bw[..., None, None] * comps).reshape(n_big, -1)

    syms = _stencil_symbols(grid)
    denom = np.zeros(grid.dims)
    for ax, s in enumerate(syms):
        shape = [1, 1, 1, 1]
        shape[ax] = grid.dims[ax]
        denom = denom + (s.reshape(shape)) ** 2
    # the zero mode and the alternating (masked) modes have no real symbol;
    # give them the smallest resolved one so the preconditioner stays bounded
    resolved = denom > 1e-8 * np.max(denom)
    floor = np.min(denom[resolved])
    denom[~resolved] = floor
    denom *= grid.cell_volume

    def m_block(x: np.ndarray) -> np.ndarray:
        comps = np.ascontiguousarray(x).reshape(grid.dims + (3, -1))
        spec = np.fft.fftn(comps, axes=(0, 1, 2, 3))
        spec /= denom[..., None, None]
        if keep is not None:
            spec *= keep[..., None, None]
        out = np.fft.ifftn(spec, axes=(0, 1, 2, 3)).real
        return out.reshape(n_big, -1)

    ops = []
    for fn in (a_block, b_block, m_block):
        ops.append(
            LinearOperator(
                (n_big, n_big),
                matvec=lambda v, fn=fn: fn(v.reshape(-1, 1)).ravel(),
                matmat=fn,
                dtype=float,
            )
        )
    a_op, b_op, m_op = ops

    rng = np.random.default_rng(seed)
    x0 = np.zeros((n_big, n_candidates))
    for a in range(3):
        e = np.zeros(grid.dims + (3,))
        e[..., a] = 1.0
        x0[:, a] = e.ravel()
    for j in range(3, n_candidates):
        raw = rng.standard_normal(grid.dims + (3,))
        # keep random starts independent of the constant columns
        raw -= raw.mean(axis=(0, 1, 2, 3), keepdims=True)
        x0[:, j] = m_block(raw.reshape(n_big, 1)).ravel()

    # exact kernel vectors in the start block make the solver's internal
    # Gram factorisations break down harmlessly; convergence is re-checked
    # below from scratch, so its warnings carry no information here
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        vals, vecs = lobpcg(
            a_op, x0, B=b_op, M=m_op, largest=False, tol=tol, maxiter=maxiter
        )

    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    # exact quotients of the returned vectors, not the solver's estimates
    quotients = []
    for j in range(vecs.shape[1]):
        comps = filt(vecs[:, j].reshape(grid.dims + (3,)))
        energy, _ = hodge_energy_and_grad(comps, m)
        mass = float(np.sum(np.sum(comps**2, axis=-1) * bw))
        quotients.append(energy / mass)
    quotients = np.array(quotients)
    ranked = np.sort(quotients)
    listed = " ".join(f"{q:.3e}" for q in ranked)

    ambiguous = (quotients >= count_tol) & (quotients < 100.0 * count_tol)
    if ambiguous.any():
        raise HarmonicSolveError(
            f"eigenvalues too close to the zero-mode cutoff {count_tol:.3e}: quotients {listed}",
            quotients=ranked,
        )
    kept = [
        filt(vecs[:, j].reshape(grid.dims + (3,)))
        for j in range(vecs.shape[1])
        if quotients[j] < count_tol
    ]
    if len(kept) == n_candidates:
        raise HarmonicSolveError(
            "every candidate looks harmonic; rerun with more candidates",
            quotients=ranked,
        )

    # B-orthonormalise and fix signs so repeated runs agree exactly
    basis: list[np.ndarray] = []
    for comps in kept:
        for prev in basis:
            comps = comps - prev * np.sum(comps * prev * bw[..., None])
        nrm = np.sqrt(np.sum(comps**2 * bw[..., None]))
        if nrm < 1e-14:
            continue
        comps = comps / nrm
        flat = comps.ravel()
        lead = flat[np.argmax(np.abs(flat))]
        if lead < 0:
            comps = -comps
        basis.append(comps)
    if len(basis) != B_PLUS:
        # LOBPCG can return near-duplicate candidates below the cutoff, and
        # Gram-Schmidt turns their difference into a non-harmonic form
        raise HarmonicSolveError(
            f"{len(basis)} harmonic self-dual candidates, but b+ = {B_PLUS} on T^4: "
            f"quotients {listed}",
            quotients=ranked,
        )
    return [SelfDualField(grid, c) for c in basis]
