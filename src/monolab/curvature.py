"""Riemannian curvature of a sampled 4-metric as an operator on 2-forms.

Per node, the curvature is the symmetric 6x6 operator on stored 2-form pairs
(`bases.PAIRS`), the block form of Singer and Thorpe (1969; Besse, Einstein
Manifolds, 1987).  Its coordinate pair form R_{ij,kl} comes from periodic
6th-order differences of the 10 stored components of g (one stencil call per
axis or axis pair) plus Gamma_{p,jk} Gamma^p_il terms of the cached
Christoffel symbols.  The frame operator is L^T R L with L = Lambda^2(e^-1)
for the orthonormal coframe of the (upper-triangular) Cholesky factor
e^T e = g, where the self-dual 2-forms have the constant basis eta_1..eta_3
of `bases`.  The scalar curvature is twice its trace; W+ = H+ R H+^T - R/12,
with H+ the eta-plus rows in pair order, is a symmetric trace-free 3x3 matrix
whose lowest eigenvalue is the curvature weight w.  The eta-minus block gives
W- the same way and the mixed block the traceless Ricci tensor.

Stored pairs and per-node Lambda^2 matrices are the only 2-form
representation.  `MetricField` caches, for the self-dual module, the pair
components of eta_a, sd_pairs = (H+ Lambda^2 e)^T, their projection weights
sd_pairs_up = Lambda^2(e^-1) H+^T, and the connection block on Lambda+,
A_k = -sd_pairs_up^T lambda2(Gamma_k) sd_pairs, where lambda2 is the action
of a 4x4 matrix on pairs as a derivation (Atiyah, Hitchin and Singer 1978;
Besse 1987, ch. 13).

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

from .bases import H_PLUS, PAIRS
from .grid import GridSpec, ScalarField, _freeze, _worst_node, d1, d2, gradient

__all__ = [
    "MetricField",
    "CurvatureBundle",
    "build_metric",
    "curvature_stack",
]

# orientation signs S of the stored 3-form components: component l is the
# coefficient of dx^I_l = S_l i_{d_l}(dx^0^dx^1^dx^2^dx^3), I_l = TRIPLES[l]
_S3 = np.array([1.0, -1.0, 1.0, -1.0])
_PAIR_I, _PAIR_J = np.array(PAIRS).T
# symmetric index pairs x = (i <= j), the 10 stored components of g
_SYM_I, _SYM_J = np.triu_indices(4)
_SYM_INDEX = np.empty((4, 4), dtype=int)
_SYM_INDEX[_SYM_I, _SYM_J] = _SYM_INDEX[_SYM_J, _SYM_I] = range(10)
# flat taps into M[x, y]: R_PQ = M[jk, il] - M[jl, ik] for P = (i, j), Q = (k, l)
_TAP_PLUS = 10 * _SYM_INDEX[_PAIR_J[:, None], _PAIR_I] + _SYM_INDEX[_PAIR_I[:, None], _PAIR_J]
_TAP_MINUS = 10 * _SYM_INDEX[_PAIR_J[:, None], _PAIR_J] + _SYM_INDEX[_PAIR_I[:, None], _PAIR_I]
# flat taps into [axis, x] of d g_x: the first-kind Christoffel symbol
# Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2 on [l, (i <= j)]
_LOWER = np.arange(4)[:, None]
_TAP_DI = 10 * _SYM_I + _SYM_INDEX[_SYM_J, _LOWER]
_TAP_DJ = 10 * _SYM_J + _SYM_INDEX[_SYM_I, _LOWER]
_TAP_DL = 10 * _LOWER + _SYM_INDEX[_SYM_I, _SYM_J]


class MetricField:
    """Sampled Riemannian metric with lazily cached derived geometry.

    The raw component array is read-only; the derived tensors (inverse,
    volume factor, coframe, Christoffels, self-dual pair algebra) are
    computed once on first use and cached.
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
        """Gamma^k_ij from 6th-order differences of the metric, [..., k, x] on
        the symmetric pairs x = _SYM_INDEX[i, j].

        One stencil call per axis on the 10 stored components of g gives the
        first-kind symbols on those pairs; one ginv matmul raises their first
        index.
        """
        # ginv lives as long as the metric; made after the temporaries below,
        # it would sit above them in the heap and keep their pages resident
        # (curvature --dims 16: peak RSS 190 MiB against 177 MiB)
        gi = self.ginv
        dg = gradient(self.g[..., _SYM_I, _SYM_J], self.grid)
        dg = dg.reshape(self.grid.dims + (40,))
        first = dg[..., _TAP_DI]
        first += dg[..., _TAP_DJ]
        first -= dg[..., _TAP_DL]
        del dg
        first *= 0.5
        return _freeze(gi @ first)

    @cached_property
    def is_flat(self) -> bool:
        return bool(np.allclose(self.g, np.eye(4), atol=1e-12))

    # ---- cached form algebra (used by the self-dual module) ----

    @cached_property
    def sd_pairs(self) -> np.ndarray:
        """Stored components of eta_a: sd_pairs[..., p, a], i.e. (H+ Lambda^2 e)^T."""
        return _freeze(np.swapaxes(H_PLUS @ _lambda2(self.coframe), -1, -2))

    @cached_property
    def sd_pairs_up(self) -> np.ndarray:
        """Index-raised pair components of eta_a, Lambda^2(e^-1) H+^T: the
        projection weights, sd_pairs_up^T sd_pairs = 1."""
        return _freeze(_lambda2(self.inv_coframe) @ H_PLUS.T)

    @cached_property
    def sd_connection(self) -> np.ndarray:
        """Connection block on the self-dual bundle: A[..., k, a, b].

        A_k = -sd_pairs_up^T lambda2(Gamma_k) sd_pairs, where Gamma_k is the
        4x4 matrix [m, i] = Gamma^m_ki, read off the symmetric pairs (k, i)
        of the cached Christoffel symbols, and lambda2 its action on stored
        pairs as a derivation.  With it, the eta components of the
        coordinate covariant derivative of sigma are
        sd_pairs_up^T d_k(sd_pairs sigma) + A_k sigma.
        """
        gam = self.christoffel
        up_t = np.swapaxes(self.sd_pairs_up, -1, -2)
        out = np.empty(self.grid.dims + (4, 3, 3))
        for k in range(4):
            # the (dims,6,6) derivation dies before the second product
            lam_sd = _lambda2_derivation(gam[..., :, _SYM_INDEX[k]]) @ self.sd_pairs
            np.matmul(up_t, lam_sd, out=out[..., k, :, :])
        np.negative(out, out=out)
        return _freeze(out)

    @cached_property
    def hodge_weight(self) -> np.ndarray:
        """Per-node 4x4 weight so that for any 3-form components tau,
        tau^T W tau = vol (|tau|^2 + |star tau|^2); the node sum times the
        cell volume is the L2 energy of (d sigma, d* sigma = -star d sigma).

        star is an isometry, so both terms are vol |tau|^2.  The Gram matrix
        of the stored components, the 3x3 minors of ginv, is S g S / vol^2 by
        Jacobi's complementary minors, so W = 2 S g S / vol with S = _S3.
        """
        return _freeze(2.0 * _S3[:, None] * self.g * _S3 / self.vol[..., None, None])


def _bilinear(x: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nodewise x[..., i] a[..., i, j] y[..., j]; `a` may be one constant matrix.

    One pair of operands per einsum, unoptimised: an optimised einsum over
    three operands names the "..." axes with letters drawn from a set, so its
    intermediate's axis order, and with it the last digits of the result, can
    change with the process's string-hash seed.  A two-operand contraction
    has no order to choose, and `optimize` would only plan it again on every
    call.
    """
    return np.einsum("...i,...i->...", x, np.einsum("...ij,...j->...i", a, y))


class CurvatureBundle:
    """Scalar curvature, self-dual Weyl matrix field and its lowest eigenvalue."""

    def __init__(self, scalar: ScalarField, wplus: np.ndarray, w: ScalarField):
        tol = 1e-8 * max(1.0, float(np.max(np.abs(wplus))))
        if np.max(np.abs(wplus - np.swapaxes(wplus, -1, -2))) > tol:
            raise ValueError("wplus storage is not symmetric")
        if np.max(np.abs(np.trace(wplus, axis1=-2, axis2=-1))) > tol:
            raise ValueError("wplus storage is not trace-free")
        if np.max(w.values) > tol:
            raise ValueError("lowest Weyl eigenvalue came out positive")
        self.scalar = scalar
        self.wplus = _freeze(wplus)
        self.w = w


def build_metric(grid: GridSpec, g: np.ndarray) -> MetricField:
    """Validate and wrap sampled metric components.

    Rejects non-finite components, non-symmetric storage, non-SPD nodes and
    a volume factor outside the float range; the error names the first
    offending node so bad input files are debuggable.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.dims + (4, 4):
        raise ValueError(f"metric shape {g.shape} != {grid.dims + (4, 4)}")
    finite = np.isfinite(g)
    if not finite.all():
        raise ValueError(f"metric component is not finite at node {_worst_node(~finite)}")
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError(f"metric storage asymmetry {asym:.3e} exceeds tolerance")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(g)[..., 0]
        node = _worst_node(lowest <= 0)
        raise ValueError(
            f"metric is not positive definite at node {node} "
            f"(lowest eigenvalue {lowest[node]:.3e})"
        ) from None
    m = MetricField(grid, g)
    with np.errstate(over="ignore"):  # det g may overflow; cached from here on
        vol = m.vol
    usable = (vol > 0) & (vol < np.inf)
    if not usable.all():
        raise ValueError(f"metric volume factor is 0 or overflows at node {_worst_node(~usable)}")
    return m


def curvature_operator(m: MetricField) -> np.ndarray:
    """Curvature operator on 2-forms in the frame: [..., A, B] on stored pairs.

    R_frame = L^T R_pair L with L = Lambda^2(e^-1) for the Cholesky coframe
    e = `MetricField.coframe`; its trace is R/2 and its eta-plus and
    eta-minus blocks are W+ and W- plus (R/12) 1.  Not in `__all__`:
    bench/trace_cli.py spans the functions listed there, and this one is the
    bulk of the `curvature_stack` span.
    """
    r = _pair_riemann(m)
    lam = _lambda2(m.inv_coframe)
    return np.swapaxes(lam, -1, -2) @ r @ lam


def _pair_riemann(m: MetricField) -> np.ndarray:
    """Coordinate Riemann tensor on stored pairs: [..., P, Q] = R_{i_P j_P k_Q l_Q}.

    R_ijkl = M[jk, il] - M[jl, ik] on symmetric index pairs, where
    M[x, y] = (d_x g_y + d_y g_x) / 2 + Gamma_{p,x} Gamma^p_y and d_x is the
    second derivative along the axis pair x.
    """
    grid, hs = m.grid, m.grid.spacing
    gam = m.christoffel
    mm = np.swapaxes(m.g @ gam, -1, -2) @ gam
    g10 = m.g[..., _SYM_I, _SYM_J]
    for b in range(4):
        dgb = d1(g10, b, hs[b]) if b > 0 else None
        for a in range(b + 1):
            ddg = d2(g10, a, hs[a]) if a == b else d1(dgb, a, hs[a])
            ddg *= 0.5
            x = _SYM_INDEX[a, b]
            mm[..., x, :] += ddg
            mm[..., :, x] += ddg
        del ddg, dgb
    mm = mm.reshape(grid.dims + (100,))
    r = mm[..., _TAP_PLUS]
    r -= mm[..., _TAP_MINUS]
    return r


def _lambda2(e: np.ndarray) -> np.ndarray:
    """2x2 minors of a 4x4 field on stored pairs: [..., P, Q] = e[i,k] e[j,l] - e[i,l] e[j,k]
    for P = (i, j), Q = (k, l); the matrix of Lambda^2 e."""
    out = np.empty(e.shape[:-2] + (6, 6))
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            out[..., p, q] = e[..., i, k] * e[..., j, l] - e[..., i, l] * e[..., j, k]
    return out


def _lambda2_derivation(x: np.ndarray) -> np.ndarray:
    """A 4x4 field acting on stored pairs as a derivation: [..., P, Q] with
    (lambda2(x) omega)_ij = x[m, i] omega_mj + x[m, j] omega_im for P = (i, j);
    the derivative of _lambda2 at the identity, transposed."""
    out = np.zeros(x.shape[:-2] + (6, 6))
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            if j == l:
                out[..., p, q] += x[..., k, i]
            if i == k:
                out[..., p, q] += x[..., l, j]
            if j == k:
                out[..., p, q] -= x[..., l, i]
            if i == l:
                out[..., p, q] -= x[..., k, j]
    return out


def curvature_stack(m: MetricField) -> CurvatureBundle:
    """Scalar curvature, W+ and its lowest eigenvalue from the curvature operator.

    W+ is stored in the eta basis of the Cholesky coframe `MetricField.coframe`,
    the basis of every self-dual field.
    """
    op = curvature_operator(m)
    scal = 2.0 * np.trace(op, axis1=-2, axis2=-1)
    wplus = H_PLUS @ op @ H_PLUS.T - (scal / 12.0)[..., None, None] * np.eye(3)
    # symmetrize away roundoff before the eigenvalue pass
    wplus = 0.5 * (wplus + np.swapaxes(wplus, -1, -2))
    w = ScalarField(m.grid, np.linalg.eigvalsh(wplus)[..., 0])
    return CurvatureBundle(ScalarField(m.grid, scal), wplus, w)
