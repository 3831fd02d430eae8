"""Riemannian curvature of a sampled 4-metric.

The stack is the textbook chain evaluated nodewise with periodic central
differences: Christoffel symbols from first derivatives of g, the fully
covariant Riemann tensor from second derivatives plus Gamma*Gamma terms,
Ricci and scalar curvature by contraction, the Weyl tensor by removing the
Ricci part, and finally the self-dual Weyl operator expressed in the
orthonormal coframe fixed by the (upper-triangular) Cholesky factor
e^T e = g.  In that coframe the self-dual 2-form bundle has the constant
basis eta_1..eta_3 of `bases`, and W+ becomes a symmetric trace-free 3x3
matrix per node whose lowest eigenvalue is the curvature weight w.

Sign conventions are pinned by two closed-form families used in the tests:

* conformally flat g = exp(2f) delta:  scalar curvature
  R = exp(-2f) (-6 Lap f - 6 |grad f|^2), and W+ = 0;
* product dx^2 + dy^2 + exp(2u)(ds^2 + dt^2) with u = u(s,t):  a Kaehler
  surface with R = 2K, K = -exp(-2u) Lap_2 u, and W+ eigenvalues
  (R/6, -R/12, -R/12), the R/6 direction being the Kaehler form eta_1.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bases import ETA_MINUS, ETA_PLUS, PAIRS, WEDGE2
from .grid import GridSpec, ScalarField, _axis_derivatives, _freeze, d1, d2

__all__ = [
    "MetricField",
    "CurvatureBundle",
    "build_metric",
    "curvature_stack",
    "lowest_eigenvalue",
    "christoffel",
]

# orientation signs of the stored 3-form components (see MetricField.gram3)
_S3 = np.array([1.0, -1.0, 1.0, -1.0])
_PAIR_I, _PAIR_J = np.array(PAIRS).T


class MetricField:
    """Sampled Riemannian metric with lazily cached derived geometry.

    The raw component array is read-only; the derived tensors (inverse,
    volume factor, coframe, Christoffels, form Grams) are computed once on
    first use and cached.
    """

    def __init__(self, grid: GridSpec, g: np.ndarray):
        g = np.asarray(g, dtype=float)
        if g.shape != grid.dims + (4, 4):
            raise ValueError(f"metric shape {g.shape} != {grid.dims + (4, 4)}")
        self.grid = grid
        self.g = _freeze(g)

    @cached_property
    def ginv(self) -> np.ndarray:
        return _freeze(np.linalg.inv(self.g))

    @cached_property
    def vol(self) -> np.ndarray:
        return _freeze(np.sqrt(np.linalg.det(self.g)))

    @cached_property
    def coframe(self) -> np.ndarray:
        """Upper-triangular e with e^T e = g (rows = coframe 1-forms)."""
        return _freeze(np.swapaxes(np.linalg.cholesky(self.g), -1, -2))

    @cached_property
    def inv_coframe(self) -> np.ndarray:
        """einv[..., i, a]: coordinate components of the frame vectors E_a."""
        return _freeze(np.linalg.inv(self.coframe))

    @cached_property
    def christoffel(self) -> np.ndarray:
        out = christoffel(self)
        out.flags.writeable = False
        return out

    @cached_property
    def is_flat(self) -> bool:
        return bool(np.allclose(self.g, np.eye(4), atol=1e-12))

    # ---- cached form algebra (used by the self-dual module) ----

    @cached_property
    def sd_basis_coord(self) -> np.ndarray:
        """Coordinate components of eta_a: EB[..., a, i, j] (full antisym)."""
        return _freeze(_frame_to_coord(ETA_PLUS, self.coframe))

    @cached_property
    def sd_basis_coord_up(self) -> np.ndarray:
        """Index-raised eta_a for projections."""
        return _freeze(_raise_pair(self.sd_basis_coord, self.ginv))

    @cached_property
    def gram2(self) -> np.ndarray:
        """Gram matrix of stored 2-form components: <dx^i^dx^j, dx^k^dx^l>."""
        gi = self.ginv
        out = np.empty(self.grid.dims + (6, 6))
        for p, (i, j) in enumerate(PAIRS):
            for q, (k, l) in enumerate(PAIRS):
                out[..., p, q] = gi[..., i, k] * gi[..., j, l] - gi[..., i, l] * gi[..., j, k]
        return _freeze(out)

    @cached_property
    def gram3(self) -> np.ndarray:
        """Gram matrix of stored 3-form components: <dx^I_l, dx^I_m>.

        Closed form S g S / vol^2 with S = diag(+1, -1, +1, -1), the sign in
        dx^I_l = S_l i_{d_l}(dx^0^dx^1^dx^2^dx^3): star3 is an isometry, so
        gram3 = star3^T ginv star3.
        """
        return _freeze(_S3[:, None] * self.g * _S3 / (self.vol**2)[..., None, None])

    @cached_property
    def star3(self) -> np.ndarray:
        """Hodge star on 3-forms as a per-node matrix: alpha_m = star3[m,l] rho_l.

        Closed form -g S / vol (S as in gram3): star1 takes u to the stored
        components vol S ginv u, and star3 star1 = -1 on 1-forms in 4D.
        """
        return _freeze(-(self.g * _S3) / self.vol[..., None, None])

    @cached_property
    def star2(self) -> np.ndarray:
        """Hodge star on 2-forms as a per-node 6x6 matrix on stored components."""
        out = np.einsum("pq,...pr->...qr", WEDGE2, self.gram2) * self.vol[..., None, None]
        return _freeze(out)

    @cached_property
    def sd_pairs(self) -> np.ndarray:
        """Stored components of eta_a: sd_pairs[..., p, a] = (eta_a)_{i_p j_p}."""
        return _pair_components(self.sd_basis_coord)

    @cached_property
    def sd_pairs_up(self) -> np.ndarray:
        """Index-raised pair components of eta_a (projection weights)."""
        return _pair_components(self.sd_basis_coord_up)

    @cached_property
    def asd_pairs_up(self) -> np.ndarray:
        """Index-raised pair components of the anti-self-dual basis."""
        return _pair_components(_raise_pair(_frame_to_coord(ETA_MINUS, self.coframe),
                                            self.ginv))

    @cached_property
    def hodge_weight(self) -> np.ndarray:
        """Per-node 4x4 weight so that for any 3-form components tau,
        tau^T W tau = vol (|tau|^2 + |star3 tau|^2); the node sum times the
        cell volume is the L2 energy of (d sigma, d* sigma) combined.

        Both terms equal vol tau^T gram3 tau, so W = 2 S g S / vol with
        S = diag(+1, -1, +1, -1) as in gram3.
        """
        return _freeze(2.0 * _S3[:, None] * self.g * _S3 / self.vol[..., None, None])


# The two helpers below contract one pair of operands at a time.  An
# optimised einsum over three operands names the "..." axes with letters drawn
# from a set, so its intermediate's axis order, and with it the last digits
# of the result, can change with the process's string-hash seed.


def _frame_to_coord(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Coordinate components eta[a, A, B] e[..., A, i] e[..., B, j]."""
    t = np.einsum("aAB,...Bj->...aAj", eta, e, optimize=True)
    return np.einsum("...Ai,...aAj->...aij", e, t, optimize=True)


def _raise_pair(eb: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """Both indices of eb[..., a, i, j] raised with the inverse metric gi."""
    t = np.einsum("...aij,...jl->...ail", eb, gi, optimize=True)
    return np.einsum("...ik,...ail->...akl", gi, t, optimize=True)


def _pair_components(eb: np.ndarray) -> np.ndarray:
    """Stored pair components [..., p, a] of full antisymmetric eb[..., a, i, j]."""
    return _freeze(np.swapaxes(eb[..., _PAIR_I, _PAIR_J], -1, -2))


class CurvatureBundle:
    """Scalar curvature, self-dual Weyl matrix field and its lowest eigenvalue."""

    def __init__(self, metric: MetricField, scalar: ScalarField, wplus: np.ndarray,
                 w: ScalarField):
        tol = 1e-8 * max(1.0, float(np.max(np.abs(wplus))))
        if np.max(np.abs(wplus - np.swapaxes(wplus, -1, -2))) > tol:
            raise ValueError("wplus storage is not symmetric")
        if np.max(np.abs(np.trace(wplus, axis1=-2, axis2=-1))) > tol:
            raise ValueError("wplus storage is not trace-free")
        if np.max(w.values) > tol:
            raise ValueError("lowest Weyl eigenvalue came out positive")
        self.metric = metric
        self.scalar = scalar
        self.wplus = _freeze(wplus)
        self.w = w


def build_metric(grid: GridSpec, g: np.ndarray, sym_tol: float = 1e-12) -> MetricField:
    """Validate and wrap sampled metric components.

    Rejects non-symmetric storage and non-SPD nodes; the error names the
    first offending node so bad input files are debuggable.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.dims + (4, 4):
        raise ValueError(f"metric shape {g.shape} != {grid.dims + (4, 4)}")
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if asym > sym_tol * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError(f"metric storage asymmetry {asym:.3e} exceeds tolerance")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(g)
        bad = np.argwhere(eig[..., 0] <= 0)
        node = tuple(int(i) for i in bad[0])
        raise ValueError(
            f"metric is not positive definite at node {node} "
            f"(lowest eigenvalue {eig[..., 0][node]:.3e})"
        ) from None
    return MetricField(grid, g)


def christoffel(m: MetricField) -> np.ndarray:
    """Gamma^k_ij from 6th-order differences of the metric."""
    dg = np.stack(_axis_derivatives(m.g, m.grid), axis=-3)
    gi = m.ginv
    gam = 0.5 * (
        np.einsum("...kl,...ijl->...kij", gi, dg, optimize=True)
        + np.einsum("...kl,...jil->...kij", gi, dg, optimize=True)
        - np.einsum("...kl,...lij->...kij", gi, dg, optimize=True)
    )
    return gam


def lowest_eigenvalue(field3x3: np.ndarray, grid: GridSpec) -> ScalarField:
    """Lowest eigenvalue of a symmetric 3x3 matrix field, nodewise."""
    a = np.asarray(field3x3)
    if a.shape != grid.dims + (3, 3):
        raise ValueError("expected a (dims + (3,3)) matrix field")
    ev = np.linalg.eigvalsh(a)
    return ScalarField(grid, ev[..., 0])


def curvature_stack(m: MetricField, coframe: np.ndarray | None = None) -> CurvatureBundle:
    """Full curvature bundle of a metric field.

    `coframe` overrides the Cholesky gauge (any e with e^T e = g), which
    only rotates the eta basis; scalar quantities are unaffected.
    """
    grid = m.grid
    hs = grid.spacing
    g = m.g
    gi = m.ginv

    gam = m.christoffel

    # ddg[..., i, j, k, l] = d_i d_j g_kl; same-axis uses the dedicated
    # second-derivative stencil, mixed axes compose two first derivatives
    ddg = np.empty(grid.dims + (4, 4, 4, 4))
    dg_cache = _axis_derivatives(g, grid)
    for i in range(4):
        for j in range(4):
            if i == j:
                ddg[..., i, i, :, :] = d2(g, i, hs[i])
            elif i < j:
                ddg[..., i, j, :, :] = d1(dg_cache[j], i, hs[i])
            else:
                ddg[..., i, j, :, :] = ddg[..., j, i, :, :]
    del dg_cache

    # fully covariant Riemann, antisymmetric in (i,j) and (k,l):
    # R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_j d_l g_ik - d_i d_k g_jl)
    #          + g_np (Gam^n_jk Gam^p_il - Gam^n_jl Gam^p_ik)
    riem = 0.5 * (
        np.einsum("...jkil->...ijkl", ddg)
        + np.einsum("...iljk->...ijkl", ddg)
        - np.einsum("...jlik->...ijkl", ddg)
        - np.einsum("...ikjl->...ijkl", ddg)
    )
    del ddg
    riem += np.einsum("...np,...njk,...pil->...ijkl", g, gam, gam, optimize=True)
    riem -= np.einsum("...np,...njl,...pik->...ijkl", g, gam, gam, optimize=True)

    ricci = np.einsum("...ik,...ijkl->...jl", gi, riem, optimize=True)
    scal = np.einsum("...jl,...jl->...", gi, ricci, optimize=True)

    # Weyl = Riemann - Ricci part (4D)
    weyl = riem
    del riem
    weyl -= 0.5 * (
        np.einsum("...ik,...jl->...ijkl", g, ricci, optimize=True)
        - np.einsum("...il,...jk->...ijkl", g, ricci, optimize=True)
        + np.einsum("...jl,...ik->...ijkl", g, ricci, optimize=True)
        - np.einsum("...jk,...il->...ijkl", g, ricci, optimize=True)
    )
    weyl += (scal / 6.0)[..., None, None, None, None] * (
        np.einsum("...ik,...jl->...ijkl", g, g, optimize=True)
        - np.einsum("...il,...jk->...ijkl", g, g, optimize=True)
    )

    e = m.coframe if coframe is None else np.asarray(coframe)
    einv = m.inv_coframe if coframe is None else np.linalg.inv(e)
    weyl_frame = np.einsum(
        "...ia,...jb,...ijkl,...kc,...ld->...abcd", einv, einv, weyl, einv, einv,
        optimize=True,
    )
    del weyl
    wplus = 0.25 * np.einsum(
        "ast,...stuv,buv->...ab", ETA_PLUS, weyl_frame, ETA_PLUS, optimize=True
    )
    del weyl_frame
    # symmetrize away roundoff before the eigenvalue pass
    wplus = 0.5 * (wplus + np.swapaxes(wplus, -1, -2))

    scalar = ScalarField(grid, scal)
    w = lowest_eigenvalue(wplus, grid)
    return CurvatureBundle(m, scalar, wplus, w)
