"""Hodge calculus for self-dual 2-forms on a periodic metric chart.

A self-dual field sigma is stored by its three components in the pointwise
orthonormal basis eta_1..eta_3 built from the metric coframe, so |sigma|^2
is the plain component square sum.  General 2-forms are stored by their six
coordinate components in `bases.PAIRS` order, 3-forms by the four components
dual to the coordinate axes, and 1-forms by coordinate components.  The
covariant derivative on the self-dual bundle differentiates the three eta
components and adds the cross product with the cached frame connection
`MetricField.sd_connection`, nabla_k sigma = d_k sigma + a_k x sigma; no
2-form is expanded to a 4x4 array.

Only the exterior derivative is discretised (periodic 6th-order centred
differences); every Gram matrix is exact pointwise algebra.  d is written
once: `grid._gradient` on 0-forms, and one signed coupling per grid axis
(1-forms -> pairs, pairs -> 3-forms) that `_d` reads forward and transposed.
Consequences used throughout:

* d(d omega) = 0 holds up to roundoff because the difference stencils commute;
* the plain-sum transpose of a difference stencil is its negative, so
  `_d(..., transpose=True)` and `grid._gradient_T` are exact transposes,
  from which every quadratic-form gradient is built.

The lambda quotient's energies are the only discretisations of (d+d*)^2
and nabla*nabla on Lambda+; the Weitzenboeck residual takes both operators
from their transpose kernels.

Fields, the kernels (`_d`, `_nabla`, `_nabla_T`, `_flux` and the forward
and transpose halves of each energy), the state of the harmonic solve and
every tensor `MetricField` caches share the one in-memory layout of `grid`,
(components, [batch,] dims); only files are node-major.

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

from .bases import PAIRS, TRIPLE_SIGNS, TRIPLES, WEDGE2, WEDGE2_SIGNS
from .curvature import CurvatureBundle, MetricField, _bilinear, _sym_apply
from .grid import (
    GridSpec,
    _fourier_multiply,
    _freeze,
    _gradient,
    _gradient_T,
    _stencil_symbol2,
    d1,
    integrate,
)

__all__ = [
    "TwoFormField",
    "SelfDualField",
    "embed",
    "project",
    "sd_l2_norm",
    "wedge_integral",
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
    """Real components (width, dims) on a grid chart, read-only once built."""

    grid: GridSpec
    comps: np.ndarray
    width = 0  # components per node, set by each subclass

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=float)
        want = (self.width,) + self.grid.dims
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
        return np.sqrt(np.sum(self.comps**2, axis=0))


# ---------------------------------------------------------------------------
# basis changes and pointwise algebra


def embed(sigma: SelfDualField, m: MetricField) -> TwoFormField:
    comps = np.einsum("pa...,a...->p...", m.sd_pairs, sigma.comps)
    return TwoFormField(sigma.grid, comps)


def project(omega: TwoFormField, m: MetricField) -> SelfDualField:
    return SelfDualField(omega.grid, _sd_part(np.array(omega.comps), m))


def _sd_part(omega: np.ndarray, m: MetricField) -> np.ndarray:
    """eta components (3, [batch,] dims) of the self-dual part of stored pairs
    omega (6, [batch,] dims), sd_pairs^T WEDGE2 omega / vol (see `curvature`).
    Flips WEDGE2's signs in omega in place, so omega[::-1] is WEDGE2 omega."""
    n = m.grid.node_count
    lowered = omega[::-1]
    lowered *= WEDGE2_SIGNS.reshape((6,) + (1,) * (omega.ndim - 1))
    c = np.einsum("pan,pKn->aKn", m.sd_pairs.reshape(6, 3, n), lowered.reshape(6, -1, n))
    c /= m.vol.reshape(n)
    return c.reshape((3,) + omega.shape[1:])


def sd_l2_norm(sigma: SelfDualField, m: MetricField) -> float:
    return math.sqrt(integrate(np.sum(sigma.comps**2, axis=0), m))


def wedge_integral(alpha: TwoFormField, beta: TwoFormField) -> float:
    """integral of alpha ^ beta; a top form, so no volume factor appears."""
    if not alpha.grid.compatible(beta.grid):
        raise ValueError("wedge integral needs both forms on the same grid")
    den = _bilinear(alpha.comps, WEDGE2, beta.comps)
    return float(np.sum(den) * alpha.grid.cell_volume)


# ---------------------------------------------------------------------------
# exterior derivative

def _couplings(inputs, outputs) -> dict:
    """d as a signed incidence map from forms stored by the increasing index
    tuples `inputs` to forms stored by `outputs`, and its plain-sum
    transpose, keyed by (width read, transpose): the output width and, per
    grid axis k, the (input, output, sign) entries of
    (d f)_I = sum_q (-1)^q D_{I_q} f_{I without I_q}, one per output I that
    holds k.  The transpose swaps inputs and outputs and flips the signs, as
    the d1 stencil's transpose is its negative."""
    index = {I: n for n, I in enumerate(inputs)}
    axes = tuple(tuple((index[I[:q] + I[q + 1:]], o, (-1) ** q)
                       for o, I in enumerate(outputs) for q, k in enumerate(I) if k == axis)
                 for axis in range(4))
    return {(len(inputs), False): (len(outputs), axes),
            (len(outputs), True): (len(inputs),
                                   tuple(tuple((o, i, -s) for i, o, s in e) for e in axes))}


# three entries per axis: 3 of the 4 1-forms feed 3 pairs, 3 of the 6 pairs
# feed 3 of the 4 3-forms
_D_COUPLINGS = {**_couplings(((0,), (1,), (2,), (3,)), PAIRS), **_couplings(PAIRS, TRIPLES)}


def _d(f: np.ndarray, grid: GridSpec, transpose: bool = False) -> np.ndarray:
    """`d` (or, with transpose, its plain-sum transpose) on component-major
    components (width, [batch,] dims).

    Per axis, one d1 call on the three components the axis couples, each
    read from f in place (no gathered copy), into one buffer that every axis
    reuses, then one whole-plane signed add into each of their outputs;
    every output receives its terms in axis order.
    """
    n_out, coupling = _D_COUPLINGS[f.shape[0], transpose]
    out = np.zeros((n_out,) + f.shape[1:])
    dk = np.empty((3,) + f.shape[1:])
    for k, (h, entries) in enumerate(zip(grid.spacing, coupling)):
        d1(f, k, h, out=dk, rows=[i for i, _, _ in entries])
        for dki, (_, o, s) in zip(dk, entries):
            (np.add if s > 0 else np.subtract)(out[o], dki, out=out[o])
    return out


# ---------------------------------------------------------------------------
# covariant derivative on the self-dual bundle
#
# The kernels take eta components (3, dims) and work with coordinate
# derivatives, nab[k, a] = eta_a component of nabla_k sigma, whose L2 flux is
# vol g^-1 nab (`_flux`): |nabla sigma|^2 = sum nab . flux / vol.


def _nabla(comps: np.ndarray, m: MetricField) -> np.ndarray:
    """Coordinate covariant derivative (4, 3, dims) of eta components (3, dims):
    nabla_k sigma = d_k sigma + a_k x sigma."""
    nab = _gradient(comps, m.grid)
    if not m.is_flat:
        a = m.sd_connection
        for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            nab[:, c] += a[:, i] * comps[j] - a[:, j] * comps[i]
    return nab


def _flux(x: np.ndarray, m: MetricField) -> np.ndarray:
    """vol g^-1 x for coordinate components x[k, ...]: the L2 flux of a
    gradient, x itself on the flat metric (vol = 1, g^-1 = 1 exactly), from
    the packed flux weight."""
    if m.is_flat:
        return x
    n = m.grid.node_count
    return _sym_apply(m.flux_weight.reshape(10, n), x.reshape(4, -1, n)).reshape(x.shape)


def _nabla_T(flux: np.ndarray, m: MetricField) -> np.ndarray:
    """Plain-sum transpose of `_nabla`, (4, 3, dims) -> (3, dims):
    `_gradient_T`(flux) + sum_k flux_k x a_k."""
    out = _gradient_T(flux, m.grid)
    if not m.is_flat:
        # the cross products summed over k from one 3x3 product per node,
        # [j, l] = sum_k flux_kj a_kl
        n = m.grid.node_count
        prod = np.einsum("kjn,kln->jln", flux.reshape(4, 3, n),
                         m.sd_connection.reshape(4, 3, n)).reshape((3, 3) + m.grid.dims)
        for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            out[c] += prod[i, j] - prod[j, i]
    return out


# ---------------------------------------------------------------------------
# quadratic forms and their gradients (shared by the harmonicity checks and
# the spectral quotient minimiser)
#
# Each energy E is given by a forward kernel on the components that returns
# a pair (x, w) with E = sum(x w) h^4, and a transpose kernel that turns w
# into the gradient over 2 h^4.  A caller that needs only the energy skips
# the transpose chain; one that needs only the gradient, as the lambda
# minimiser's applications of A do, skips the energy's sum.


def _hodge_forward(comps: np.ndarray, m: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """tau = d sigma on stored pairs and its weighted flux W tau, with
    W = (2 / vol) S g S (see `curvature`), 2 when flat, which folds
    ||d sigma||^2 and ||d* sigma||^2 into one term; g is read packed."""
    n = m.grid.node_count
    om = np.einsum("pan,an->pn", m.sd_pairs.reshape(6, 3, n), comps.reshape(3, n))
    tau = _d(om.reshape((6,) + m.grid.dims), m.grid)
    if m.is_flat:
        return tau, 2.0 * tau
    signs = TRIPLE_SIGNS[:, None]
    wtau = _sym_apply(m.g.reshape(10, n), signs * tau.reshape(4, n))
    wtau *= (2.0 * signs) / m.vol.reshape(n)
    return tau, wtau.reshape(tau.shape)


def _hodge_transpose(wtau: np.ndarray, m: MetricField) -> np.ndarray:
    """Gradient of the Hodge energy over 2 h^4: the exact plain-sum transpose
    of `_hodge_forward`'s chain applied to W tau."""
    n = m.grid.node_count
    om_t = _d(wtau, m.grid, transpose=True)
    grad = np.einsum("pan,pn->an", m.sd_pairs.reshape(6, 3, n), om_t.reshape(6, n))
    return grad.reshape((3,) + m.grid.dims)


def _dirichlet_forward(comps: np.ndarray, m: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """nabla sigma in coordinate components and its flux vol g^-1 nabla sigma."""
    nab = _nabla(comps, m)
    return nab, _flux(nab, m)


# ---------------------------------------------------------------------------
# Weitzenboeck identity and the two integral identities


def weitzenboeck_residual(
    sigma: SelfDualField, m: MetricField, curv: CurvatureBundle
) -> float:
    """Relative L2 residual of (d+d*)^2 = nabla*nabla + R/3 - 2 W+ on sigma.

    Both operators are the lambda quotient's energy gradients over 2 h^4 vol
    (grad <sigma, A sigma>_L2 = 2 h^4 vol A sigma in eta components), that is
    their transpose kernels over vol, so the residual checks the curvature
    term that the quotient leaves out.
    """
    comps = sigma.comps
    res = _hodge_transpose(_hodge_forward(comps, m)[1], m)
    res -= _nabla_T(_dirichlet_forward(comps, m)[1], m)
    res /= m.vol
    res -= (curv.scalar.values / 3.0) * comps
    res += 2.0 * np.einsum("ab...,b...->a...", curv.wplus, comps)
    return math.sqrt(integrate(np.sum(res**2, axis=0), m)) / sd_l2_norm(sigma, m)


def _identity_pieces(sigma: SelfDualField, theta, m: MetricField):
    """Shared integrands: |sigma|^2, |nabla sigma|^2 and the cross term
    (dtheta tensor sigma, nabla sigma), each covector pair contracted
    through the flux vol g^-1 of nabla sigma and divided by vol."""
    nab, flux = _dirichlet_forward(sigma.comps, m)
    sig2 = np.sum(sigma.comps**2, axis=0)
    nab2 = np.einsum("ka...,ka...->...", nab, flux)
    nab2 /= m.vol
    del nab
    cross = _bilinear(theta.dtheta, flux, sigma.comps)
    cross /= m.vol
    return sig2, nab2, cross


def integral_identity_check_s(
    sigma: SelfDualField, theta, m: MetricField, curv: CurvatureBundle
) -> tuple[float, float]:
    """||(d+d*)(sin(theta) sigma)||^2 against its Bochner-type expansion.

    The lhs is the Hodge energy, the lambda quotient's first term, from its
    forward kernel alone.  `theta` provides arrays s, c, dtheta,
    dtheta_norm2 (see ThetaField).  Returns (lhs, rhs), equal up to
    discretisation.
    """
    s = theta.s
    tau, wtau = _hodge_forward(s * sigma.comps, m)
    lhs = float(np.sum(tau * wtau)) * m.grid.cell_volume

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
    """||nabla(cos(theta) sigma)||^2 against its expansion; the lhs is the
    Dirichlet energy, the lambda quotient's second term, from its forward
    kernel alone."""
    c = theta.c
    nab, flux = _dirichlet_forward(c * sigma.comps, m)
    lhs = float(np.sum(nab * flux)) * m.grid.cell_volume

    sig2, nab2, cross = _identity_pieces(sigma, theta, m)
    s = theta.s
    integrand = s**2 * theta.dtheta_norm2 * sig2 + c**2 * nab2 - 2.0 * c * s * cross
    return lhs, integrate(integrand, m)


# ---------------------------------------------------------------------------
# harmonic self-dual forms


def hodge_rayleigh(sigma: SelfDualField, m: MetricField) -> float:
    """(||d sigma||^2 + ||d* sigma||^2) / ||sigma||^2, the harmonicity defect."""
    tau, wtau = _hodge_forward(sigma.comps, m)
    energy = float(np.sum(tau * wtau)) * m.grid.cell_volume
    den = sd_l2_norm(sigma, m) ** 2
    if den == 0.0:
        raise ValueError("cannot form a Rayleigh quotient of the zero field")
    return energy / den


def _inverse_symbol(grid: GridSpec) -> np.ndarray:
    """Inverse symbol 1/|s|^2 of the flat 1-form Hodge Laplacian, in
    `_stencil_symbol2`'s layout.

    The modes where s vanishes on every axis are closed for every metric;
    they get 0.
    """
    k2 = _stencil_symbol2(grid)
    seen = k2 > 0.0
    return np.where(seen, 1.0 / np.where(seen, k2, 1.0), 0.0)


# b+ of the 4-torus: the same for every metric
B_PLUS = 3

# the flat self-dual constant classes dx01+dx23, dx02-dx13, dx03+dx12 in
# PAIRS order, one per column, broadcast over the grid
_SD_CLASSES = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
]).reshape(6, B_PLUS, 1, 1, 1, 1)

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
    """Plain-sum inner products of the batch columns K of two (c, K, dims)
    arrays."""
    c, k = x.shape[:2]
    return np.einsum("cKn,cKn->K", x.reshape(c, k, -1), y.reshape(c, k, -1))


def harmonic_selfdual_basis(m: MetricField) -> HarmonicBasis:
    """Harmonic self-dual forms by Hodge projection of the flat classes.

    Each flat self-dual constant class c_a has the minimum-norm
    representative h_a = c_a + d alpha_a, where d^T G (c_a + d alpha_a) = 0
    with G = vol Lambda^2(g^-1) = WEDGE2 star, the Gram matrix of stored
    pairs, applied from sd_pairs and vol (see `curvature`), and d^T the
    plain-sum transpose.  So d(star h_a) = 0: the discrete harmonic space
    is star-invariant and project(h_a) is harmonic.
    The three projections are independent because the intersection form
    is positive on the flat self-dual classes.

    A class whose start is already harmonic (every class on a conformally
    flat metric) takes alpha_a = 0.  The others are chosen once and iterate
    as one block of PCG columns until every column has converged,
    preconditioned by the inverse of `grid`'s d1 symbol.  The operator is
    singular only on closed 1-forms, which never change d alpha, so no gauge
    is fixed.  Raises HarmonicSolveError when the largest residual over all
    three classes misses _PCG_TOL within _PCG_MAXITER.
    """
    grid = m.grid
    n = grid.node_count
    inv_symbol = _inverse_symbol(grid)

    def g_apply(omega):
        # G omega = WEDGE2 (2 sd_pairs _sd_part(omega) - omega), pair by pair in place
        c = _sd_part(omega, m).reshape(3, -1, n)
        lowered = omega[::-1].reshape(6, -1, n)
        for sign, eta, out in zip(WEDGE2_SIGNS, m.sd_pairs[::-1].reshape(6, 3, n), lowered):
            out[...] = (2.0 * sign) * np.einsum("an,aKn->Kn", eta, c) - out
        return omega[::-1]

    def precondition(r):
        return _fourier_multiply(r, inv_symbol)

    def columns(v):
        return v[:, None, None, None, None]

    gc = g_apply(np.tile(_SD_CLASSES, (1, 1) + grid.dims))
    class_norm2 = np.sum(gc * _SD_CLASSES, axis=(0, 2, 3, 4, 5))
    r = -_d(gc, grid, transpose=True)
    del gc
    z = precondition(r)
    rz = _col_dot(r, z)
    # the classes whose start is not yet harmonic, gathered once: all three
    # on a generic metric, none on a conformally flat one
    stop = _PCG_TOL**2 * class_norm2
    live = np.flatnonzero(rz > stop)
    r, p, rz_live, stop = r[:, live], z[:, live], rz[live], stop[live]
    del z
    alpha_live = np.zeros_like(r)
    iterations = 0
    while np.any(rz_live > stop) and iterations < _PCG_MAXITER:
        q = _d(g_apply(_d(p, grid)), grid, transpose=True)
        step = columns(rz_live / _col_dot(p, q))
        alpha_live += step * p
        r -= step * q
        del q
        z = precondition(r)
        rz_next = _col_dot(r, z)
        p *= columns(rz_next / rz_live)
        p += z
        del z
        rz_live = rz_next
        iterations += 1
    del r, p
    rz[live] = rz_live
    alpha = np.zeros((4, B_PLUS) + grid.dims)
    alpha[:, live] = alpha_live
    del alpha_live
    residual = float(np.sqrt(np.max(rz / class_norm2)))
    if residual > _PCG_TOL:
        raise HarmonicSolveError(
            f"harmonic representatives: PCG residual {residual:.3e} of the class norm "
            f"after {iterations} iterations, above {_PCG_TOL:.0e}"
        )

    h = _d(alpha, grid)
    h += _SD_CLASSES
    sd = _sd_part(h, m)
    del alpha, h
    forms: list[np.ndarray] = []
    for k in range(B_PLUS):
        comps = sd[:, k]
        for prev in forms:
            comps = comps - prev * integrate(np.sum(comps * prev, axis=0), m)
        forms.append(comps / math.sqrt(integrate(np.sum(comps**2, axis=0), m)))
    return HarmonicBasis(tuple(SelfDualField(grid, c) for c in forms), iterations, residual)
