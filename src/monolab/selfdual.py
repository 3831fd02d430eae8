"""Hodge calculus for self-dual 2-forms on a periodic metric chart.

A self-dual field sigma is stored by its three components in the pointwise
orthonormal basis eta_1..eta_3 built from the metric coframe, so |sigma|^2
is the plain component square sum.  General 2-forms are stored by their six
coordinate components in `bases.PAIRS` order, 3-forms by the four components
dual to the coordinate axes, and 1-forms by coordinate components.  The
covariant derivative on the self-dual bundle differentiates the six pair
components of the embedded form and adds the cached connection block
`MetricField.sd_connection`; no 2-form is expanded to a 4x4 array.

Only the exterior derivative is discretised (periodic 6th-order centred
differences); every Gram matrix is exact pointwise algebra.  d is written
once: `grid.gradient` on 0-forms, and one coupling table per degree,
1-forms -> pairs and pairs -> 3-forms, read by `d` and by its plain-sum
transpose `d_T`.  Consequences used throughout:

* d(d omega) = 0 holds exactly because the difference stencils commute;
* the plain-sum transpose of a difference stencil is its negative, so
  `d_T` and `grid.gradient_T` are exact transposes, from which every
  quadratic-form gradient is built.

The lambda quotient's energies are the only discretisations of (d+d*)^2
and nabla*nabla on Lambda+; the Weitzenboeck residual takes both operators
from their gradients.

One discrete artefact needs care: a centred first difference is blind to
the per-axis alternating mode (frequency n/2 on an even axis), so the
energy ||d sigma||^2 + ||d* sigma||^2 has spurious null vectors built from
alternating/constant tensor modes.  Searches over self-dual fields
therefore work in the stencil-resolved subspace, without the exact
half-frequency planes (there are none on odd axes).  The lambda
minimiser's preconditioner symbol is zero on those planes, so its search
directions never leave the subspace.  The harmonic basis needs no mask: it
solves for d alpha, and the blind 1-forms are closed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bases import PAIRS, WEDGE2, X3
from .curvature import CurvatureBundle, MetricField, _bilinear, _lambda2
from .grid import (
    GridSpec,
    _axis_derivatives,
    _fourier_multiply,
    _freeze,
    _stencil_symbol2,
    gradient,
    gradient_T,
    integrate,
)

__all__ = [
    "TwoFormField",
    "SelfDualField",
    "embed",
    "project",
    "d",
    "d_T",
    "sd_l2_norm",
    "wedge_integral",
    "covariant_derivative",
    "nabla_transpose",
    "hodge_energy_and_grad",
    "sd_dirichlet_energy_and_grad",
    "weitzenboeck_residual",
    "integral_identity_check_s",
    "integral_identity_check_c",
    "hodge_rayleigh",
    "B_PLUS",
    "HarmonicSolveError",
    "HarmonicBasis",
    "harmonic_selfdual_basis",
]


def __getattr__(name: str):
    """Serve `lobpcg`, scipy's block eigensolver, on first use of the name.

    Nothing in the package calls it.  The benchmark's span tracer
    (bench/trace_cli.py) wraps `selfdual.lobpcg` by name; importing scipy
    here, and only when asked, keeps scipy off the package's import path.
    """
    if name == "lobpcg":
        from scipy.sparse.linalg import lobpcg

        return lobpcg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


class SelfDualField(_Components):
    """Self-dual 2-form by components in the orthonormal eta basis."""

    width = 3

    def norm(self) -> np.ndarray:
        """Pointwise |sigma| (basis is orthonormal, no metric needed)."""
        return np.sqrt(np.sum(self.comps**2, axis=-1))


# ---------------------------------------------------------------------------
# basis changes and pointwise algebra


def embed(sigma: SelfDualField, m: MetricField) -> TwoFormField:
    comps = np.einsum("...pa,...a->...p", m.sd_pairs, sigma.comps)
    return TwoFormField(sigma.grid, comps)


def project(omega: TwoFormField, m: MetricField) -> SelfDualField:
    comps = np.einsum("...pa,...p->...a", m.sd_pairs_up, omega.comps)
    return SelfDualField(omega.grid, comps)


def sd_l2_norm(sigma: SelfDualField, m: MetricField) -> float:
    return math.sqrt(integrate(np.sum(sigma.comps**2, axis=-1), m))


def wedge_integral(alpha: TwoFormField, beta: TwoFormField) -> float:
    """integral of alpha ^ beta; a top form, so no volume factor appears."""
    if not alpha.grid.compatible(beta.grid):
        raise ValueError("wedge integral needs both forms on the same grid")
    den = _bilinear(alpha.comps, WEDGE2, beta.comps)
    return float(np.sum(den) * alpha.grid.cell_volume)


# ---------------------------------------------------------------------------
# exterior derivative

# coupling table of d per degree, keyed by the width of the stored input
# (4: 1-forms, 6: pairs) and giving the output width (6: pairs, 4: 3-forms)
# and the terms (o, k, i, s) of (d f)_o = sum of s D_k f_i, s = +-1
_D_TABLES = {
    4: (6, tuple(t for p, (i, j) in enumerate(PAIRS) for t in ((p, i, j, 1), (p, j, i, -1)))),
    6: (4, tuple((l, k, p, int(X3[l, k, i, j])) for l in range(4) for k in range(4)
                 for p, (i, j) in enumerate(PAIRS) if X3[l, k, i, j] != 0.0)),
}


def d(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exterior derivative of 1-form (width 4) or pair (width 6) components
    into pair or 3-form components; extra trailing axes ride along."""
    width, terms = _D_TABLES[f.shape[4]]
    dk = _axis_derivatives(f, grid)
    out = np.zeros(grid.dims + (width,) + f.shape[5:])
    for o, k, i, s in terms:
        if s > 0:
            out[:, :, :, :, o] += dk[k][:, :, :, :, i]
        else:
            out[:, :, :, :, o] -= dk[k][:, :, :, :, i]
    return out


def d_T(tau: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Plain-sum transpose of `d`: pair components (width 6) to 1-form ones,
    3-form components (width 4) to pairs.  The stencil's transpose is its
    negative, so each term's sign flips."""
    width = 10 - tau.shape[4]  # pairs (6) -> 1-forms (4), 3-forms (4) -> pairs (6)
    _, terms = _D_TABLES[width]
    dk = _axis_derivatives(tau, grid)
    out = np.zeros(grid.dims + (width,) + tau.shape[5:])
    for o, k, i, s in terms:
        if s > 0:
            out[:, :, :, :, i] -= dk[k][:, :, :, :, o]
        else:
            out[:, :, :, :, i] += dk[k][:, :, :, :, o]
    return out


# ---------------------------------------------------------------------------
# covariant derivative on the self-dual bundle


def covariant_derivative(sigma: SelfDualField, m: MetricField) -> np.ndarray:
    """(nabla sigma)[..., c, a] = eta_a component of nabla_{E_c} sigma.

    Frame components, so the pointwise square sum is |nabla sigma|^2.  On a
    curved metric the coordinate derivative nabla_k sigma is
    sd_pairs_up^T d_k(sd_pairs sigma) + A_k sigma, with A the cached
    connection block `MetricField.sd_connection`.
    """
    grid = sigma.grid
    if m.is_flat:
        return gradient(sigma.comps, grid)
    dom = gradient(embed(sigma, m).comps, grid)
    nab = dom @ m.sd_pairs_up
    nab += np.einsum("...kab,...b->...ka", m.sd_connection, sigma.comps)
    return np.swapaxes(m.inv_coframe, -1, -2) @ nab


def nabla_transpose(tau: np.ndarray, m: MetricField) -> np.ndarray:
    """Plain-sum transpose of covariant_derivative, (dims,4,3) -> (dims,3)."""
    if m.is_flat:
        return gradient_T(tau, m.grid)
    nab = m.inv_coframe @ tau
    out = np.einsum("...kab,...ka->...b", m.sd_connection, nab)
    y = nab @ np.swapaxes(m.sd_pairs_up, -1, -2)
    om_t = gradient_T(y, m.grid)
    out += np.einsum("...pa,...p->...a", m.sd_pairs, om_t)
    return out


# ---------------------------------------------------------------------------
# quadratic forms and their gradients (shared by the harmonicity checks and
# the spectral quotient minimiser)


def hodge_energy_and_grad(comps: np.ndarray, m: MetricField) -> tuple[float, np.ndarray]:
    """E = ||d sigma||^2 + ||d* sigma||^2 and its gradient in the components.

    The two terms are folded into one per-node weight on d sigma, see
    MetricField.hodge_weight; the gradient is the exact plain-sum transpose
    of the evaluation chain.
    """
    grid = m.grid
    om = np.einsum("...pa,...a->...p", m.sd_pairs, comps)
    tau = d(om, grid)
    wtau = np.einsum("...lk,...k->...l", m.hodge_weight, tau)
    energy = float(np.sum(tau * wtau)) * grid.cell_volume
    om_t = d_T(wtau, grid)
    grad = np.einsum("...pa,...p->...a", m.sd_pairs, om_t)
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
    """Relative L2 residual of (d+d*)^2 = nabla*nabla + R/3 - 2 W+ on sigma.

    Both operators are the lambda quotient's energy gradients over 2 h^4 vol
    (grad <sigma, A sigma>_L2 = 2 h^4 vol A sigma in eta components), so the
    residual checks the curvature term that the quotient leaves out.
    """
    scale = 2.0 * m.grid.cell_volume * m.vol[..., None]
    lhs = hodge_energy_and_grad(sigma.comps, m)[1] / scale
    rhs = sd_dirichlet_energy_and_grad(sigma.comps, m)[1] / scale
    rhs += (curv.scalar.values[..., None] / 3.0) * sigma.comps
    rhs -= 2.0 * np.einsum("...ab,...b->...a", curv.wplus, sigma.comps)
    return sd_l2_norm(SelfDualField(sigma.grid, lhs - rhs), m) / sd_l2_norm(sigma, m)


def _identity_pieces(sigma: SelfDualField, theta, m: MetricField):
    """Shared integrands: |sigma|^2, |nabla sigma|^2 and the cross term
    (dtheta tensor sigma, nabla sigma) in frame components."""
    nab = covariant_derivative(sigma, m)
    sig2 = np.sum(sigma.comps**2, axis=-1)
    nab2 = np.sum(nab**2, axis=(-2, -1))
    dth_frame = np.einsum("...kc,...k->...c", m.inv_coframe, theta.dtheta)
    cross = _bilinear(dth_frame, nab, sigma.comps)
    return sig2, nab2, cross


def integral_identity_check_s(
    sigma: SelfDualField, theta, m: MetricField, curv: CurvatureBundle
) -> tuple[float, float]:
    """||(d+d*)(sin(theta) sigma)||^2 against its Bochner-type expansion.

    The lhs is `hodge_energy_and_grad`'s energy, the lambda quotient's first
    term.  `theta` provides arrays s, c, dtheta, dtheta_norm2 (see
    ThetaField).  Returns (lhs, rhs), equal up to discretisation.
    """
    s = theta.s
    lhs, _ = hodge_energy_and_grad(s[..., None] * sigma.comps, m)

    sig2, nab2, cross = _identity_pieces(sigma, theta, m)
    wquad = _bilinear(sigma.comps, curv.wplus, sigma.comps)
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
    """||nabla(cos(theta) sigma)||^2 against its expansion; the lhs is
    `sd_dirichlet_energy_and_grad`'s energy, the lambda quotient's second term."""
    c = theta.c
    lhs, _ = sd_dirichlet_energy_and_grad(c[..., None] * sigma.comps, m)

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


def _inverse_symbol(grid: GridSpec) -> np.ndarray:
    """Inverse symbol 1/|s|^2 of the flat 1-form Hodge Laplacian, rfftn layout.

    The modes where s vanishes on every axis are closed for every metric;
    they get 0.
    """
    k2 = _stencil_symbol2(grid)
    seen = k2 > 0.0
    return np.where(seen, 1.0 / np.where(seen, k2, 1.0), 0.0)


# b+ of the 4-torus: the same for every metric
B_PLUS = 3

# the flat self-dual constant classes dx01+dx23, dx02-dx13, dx03+dx12 in
# PAIRS order, one per column
_SD_CLASSES = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
])

# PCG stop: preconditioned residual at most _PCG_TOL of the class norm ||c||_G
_PCG_TOL = 1e-12
_PCG_MAXITER = 400


class HarmonicSolveError(RuntimeError):
    """The harmonic representatives did not converge within the iteration cap."""


@dataclass(frozen=True)
class HarmonicBasis(Sequence):
    """B_PLUS harmonic self-dual forms, B-orthonormal in class order, and
    the record of the solve that built them (deterministic numbers)."""

    forms: tuple[SelfDualField, ...]
    iterations: int
    residual: float  # largest over the classes, relative to ||c||_G

    def __getitem__(self, index):
        return self.forms[index]

    def __len__(self) -> int:
        return len(self.forms)

    @property
    def solve(self) -> dict:
        return {"iterations": self.iterations, "residual": self.residual,
                "converged": self.residual <= _PCG_TOL}


def _col_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plain-sum inner products of the trailing batch columns."""
    return np.einsum("nK,nK->K", x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1]))


def harmonic_selfdual_basis(m: MetricField) -> HarmonicBasis:
    """Harmonic self-dual forms by Hodge projection of the flat classes.

    Each flat self-dual constant class c_a has the minimum-norm
    representative h_a = c_a + d alpha_a, where d^T G (c_a + d alpha_a) = 0
    with G = vol Lambda^2(ginv), the volume-weighted Gram matrix of stored
    pairs (d^T the plain-sum transpose).  Since G is WEDGE2 times the Hodge
    star on stored pairs (alpha ^ star beta = <alpha, beta> vol), that
    equation says d(star h_a) = 0, so the discrete harmonic space is
    star-invariant and project(h_a) is harmonic.
    The three projections are independent because the intersection form
    is positive on the flat self-dual classes.

    One PCG loop solves for the three alpha_a together, preconditioned by
    the inverse of `grid`'s d1 symbol.  The operator is singular only on closed
    1-forms, which never change d alpha, so no gauge is fixed.  Raises
    HarmonicSolveError when the loop misses _PCG_TOL within _PCG_MAXITER.
    """
    grid = m.grid
    G = m.vol[..., None, None] * _lambda2(m.ginv)
    inv_symbol = _inverse_symbol(grid)

    def g_apply(omega):
        return np.einsum("...pq,...qK->...pK", G, omega)

    def precondition(r):
        return _fourier_multiply(r, inv_symbol)

    gc = g_apply(np.broadcast_to(_SD_CLASSES, grid.dims + _SD_CLASSES.shape))
    class_norm2 = np.sum(gc * _SD_CLASSES, axis=(0, 1, 2, 3, 4))
    alpha = np.zeros(grid.dims + (4, B_PLUS))
    r = -d_T(gc, grid)
    z = precondition(r)
    rz = _col_dot(r, z)
    p = z
    iterations = 0
    while True:
        live = np.flatnonzero(rz > _PCG_TOL**2 * class_norm2)
        if live.size == 0 or iterations == _PCG_MAXITER:
            break
        pl = p[..., live]
        q = d_T(g_apply(d(pl, grid)), grid)
        step = rz[live] / _col_dot(pl, q)
        alpha[..., live] += step * pl
        r[..., live] -= step * q
        z = precondition(r[..., live])
        rz_live = _col_dot(r[..., live], z)
        p[..., live] = z + (rz_live / rz[live]) * pl
        rz[live] = rz_live
        iterations += 1
    residual = float(np.sqrt(np.max(rz / class_norm2)))
    if residual > _PCG_TOL:
        raise HarmonicSolveError(
            f"harmonic representatives: PCG residual {residual:.3e} of the class norm "
            f"after {iterations} iterations, above {_PCG_TOL:.0e}"
        )

    h = _SD_CLASSES + d(alpha, grid)
    sd = np.einsum("...pa,...pK->...aK", m.sd_pairs_up, h)
    forms: list[np.ndarray] = []
    for k in range(B_PLUS):
        comps = sd[..., k]
        for prev in forms:
            comps = comps - prev * integrate(np.sum(comps * prev, axis=-1), m)
        forms.append(comps / math.sqrt(integrate(np.sum(comps**2, axis=-1), m)))
    return HarmonicBasis(tuple(SelfDualField(grid, c) for c in forms), iterations, residual)
