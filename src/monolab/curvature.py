"""Riemannian curvature of a sampled 4-metric as an operator on 2-forms.

Per node, the curvature is the symmetric 6x6 operator on stored 2-form pairs
(`bases.PAIRS`), the block form of Singer and Thorpe (1969; Besse, Einstein
Manifolds, 1987).  Its coordinate pair form r = R_{ij,kl} comes from periodic
6th-order differences of the 10 stored components of g (see below for which
run on the whole grid) plus Gamma_{p,jk} Gamma^p_il terms of the
Christoffel symbols.  In the orthonormal coframe of the (upper-triangular)
Cholesky factor e, e^T e = g, where the self-dual 2-forms have the constant
basis eta_1..eta_3 of `bases`, the operator is L^T r L with
L = Lambda^2(e^-1).  Its trace is R/2; with H+ the eta-plus rows in pair
order, its eta-plus block H+ L^T r L H+^T is W+ + (R/12) 1, and the eta-minus
block gives W- the same way and the mixed block the traceless Ricci tensor.
The stack forms only the eta-plus block, B = sd_pairs_up^T r sd_pairs_up
with sd_pairs_up = L H+^T.  r satisfies the first Bianchi identity exactly
(its taps are symmetric index pairs), so the eta-plus and eta-minus blocks
have equal trace and R = 4 tr B; W+ = B - (R/12) 1 is a symmetric trace-free
3x3 matrix whose lowest eigenvalue is the curvature weight w.

The stack, the cached tensor it reads (`sd_pairs_up`) and the Christoffel
symbols work one axis-0 slab at a time: the n1 n2 n3 nodes that share one
index of grid axis 0.  `_metric_slabs` yields per slab the first
derivatives of g and the Christoffel symbols, which both the pair form and
`MetricField.sd_connection` read; no whole-grid array of either is kept.
Only the stencils along axis 0, d1 and d2 of the 10 stored components of
g, run on the whole grid, and each slab's results are written into the
final whole-grid arrays (projection weights, R, W+ and w).  The stencils
along axes 1-3, the Christoffel taps and raise, the 10x10 matrix M behind
r, the pair form r, the Lambda^2 minors, the eta-plus block B and the
eigenvalue pass all run on the slab, whose arrays are 1/n0 the size of
whole-grid ones.  A slab (c, n1, n2, n3) is differenced with the grid's own
axis numbers and gets the bits of the same rows of the whole-grid call; a
mixed derivative with axis 0 is d_b (d_0 g), since a slab has no axis 0 to
difference along.

`build_metric` factors g once, and the factor is `MetricField.coframe`.  The
volume factor vol = e_00 e_11 e_22 e_33, the inverse coframe e^-1 (back
substitution) and g^-1 = e^-1 e^-T are read off its 10 entries, with no
LAPACK inverse or determinant.  g and the factor are converted once to the
component-major layout of `grid`, and every tensor `MetricField` caches is
stored that way: components first, grid axes last, for example g[i, j, ...],
sd_connection[k, a, ...] and sd_pairs_up[p, a, ...]; a slab drops the
axis-0 index, as in Gamma[k, x, n1, n2, n3].  A stencil is then one
matrix product and each per-node product a two-operand einsum over the
trailing node axes (see `_bilinear` for why two).  The one node-major
result is `CurvatureBundle.wplus`, converted slab by slab for the
eigenvalue pass, which needs that layout.

Stored pairs and per-node Lambda^2 matrices are the only 2-form
representation.  `MetricField` caches, for the self-dual module, the pair
components of eta_a, sd_pairs = (H+ Lambda^2 e)^T, their projection weights
sd_pairs_up = Lambda^2(e^-1) H+^T, and the frame connection on Lambda+ = so(3),
one 3-vector a_k per axis, with nabla_k sigma = d_k sigma + a_k x sigma since
[eta_a, eta_b] = -sqrt(2) eps_abc eta_c (Atiyah, Hitchin and Singer 1978;
Besse 1987, ch. 13).

Sign conventions are pinned by two closed-form families used in the tests:

* conformally flat g = exp(2f) delta:  scalar curvature
  R = exp(-2f) (-6 Lap f - 6 |grad f|^2), and W+ = 0;
* product dx^2 + dy^2 + exp(2u)(ds^2 + dt^2) with u = u(s,t):  a Kaehler
  surface with R = 2K, K = -exp(-2u) Lap_2 u, and W+ eigenvalues
  (R/6, -R/12, -R/12), the R/6 direction being the Kaehler form eta_1.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

import numpy as np

from .bases import H_PLUS, PAIRS
from .grid import GridSpec, ScalarField, _component_major, _freeze, _worst_node, d1, d2

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
# a = -sqrt(2) H+ (w - w^T)_pairs / 2 as a product from the right
_A_WEIGHTS = H_PLUS.T / -np.sqrt(2.0)
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

    Made only by `build_metric`, which hands over g and the Cholesky factor
    it checked g with as `coframe`, both component-major.  The derived
    tensors (volume factor, inverse coframe and metric, self-dual pair
    algebra) are computed from them once on first use and cached.  Every
    array has its components first and the grid axes last, and all are
    read-only.
    """

    def __init__(self, grid: GridSpec, g: np.ndarray, coframe: np.ndarray):
        self.grid = grid
        self.g = _freeze(g)
        self.coframe = _freeze(coframe)

    @cached_property
    def vol(self) -> np.ndarray:
        """sqrt(det g) = e_00 e_11 e_22 e_33."""
        e = self.coframe
        return _freeze(e[0, 0] * e[1, 1] * e[2, 2] * e[3, 3])

    @cached_property
    def inv_coframe(self) -> np.ndarray:
        """einv[i, a, ...]: coordinate components of the frame vectors E_a.

        e^-1 by back substitution, column by column:
        einv[i, j] = -sum_{i <= k < j} einv[i, k] e[k, j] / e[j, j].
        """
        e = self.coframe
        einv = np.zeros(e.shape)
        for j in range(4):
            einv[j, j] = 1.0 / e[j, j]
            for i in range(j):
                # a sum subtracted from +0.0 is +0.0 where it vanishes, so
                # the flat einv holds no -0.0 to reach a report
                acc = 0.0
                for k in range(i, j):
                    acc = acc - einv[i, k] * e[k, j]
                einv[i, j] = acc / e[j, j]
        return _freeze(einv)

    @cached_property
    def ginv(self) -> np.ndarray:
        """g^-1 = e^-1 e^-T."""
        einv = self.inv_coframe
        return _freeze(np.einsum("ia...,ja...->ij...", einv, einv))

    @cached_property
    def is_flat(self) -> bool:
        """Every entry of g within 1e-12 of the identity's, absolutely."""
        eye = np.eye(4).reshape(4, 4, 1, 1, 1, 1)
        return bool(np.allclose(self.g, eye, rtol=0.0, atol=1e-12))

    # ---- cached form algebra (used by the self-dual module) ----

    @cached_property
    def sd_pairs(self) -> np.ndarray:
        """Stored components of eta_a, sd_pairs[p, a, ...], i.e.
        (H+ Lambda^2 e)^T."""
        return _freeze(np.einsum("aq,qp...->pa...", H_PLUS, _lambda2(self.coframe)))

    @cached_property
    def sd_pairs_up(self) -> np.ndarray:
        """Index-raised pair components of eta_a, [p, a, ...] =
        (Lambda^2(e^-1) H+^T)[p, a]: the projection weights,
        sd_pairs_up^T sd_pairs = 1.  The minors are formed one axis-0 slab
        at a time."""
        einv = self.inv_coframe
        out = np.empty((6, 3) + self.grid.dims)
        for i in range(self.grid.dims[0]):
            np.einsum("pq...,aq->pa...", _lambda2(einv[:, :, i]), H_PLUS, out=out[:, :, i])
        return _freeze(out)

    @cached_property
    def sd_connection(self) -> np.ndarray:
        """Frame connection on the self-dual bundle, a[k, a, ...], so that the
        eta components of the coordinate covariant derivative are
        nabla_k sigma = d_k sigma + a_k x sigma.

        a_k = -sqrt(2) H+ (w_k - w_k^T)_pairs / 2, the self-dual half of the
        Levi-Civita connection w_k = (e Gamma_k - d_k e) e^-1 in the Cholesky
        frame.  Gamma_k is the 4x4 matrix [m, i] = Gamma^m_ki, read off the
        symmetric pairs (k, i) of the Christoffel symbols, and d_k e the
        difference of the factor along axis k.  Both run one axis-0 slab at
        a time (`_metric_slabs`); only d_0 e runs on the whole grid.
        """
        e, einv = self.coframe, self.inv_coframe
        de0 = d1(e, 0, self.grid.spacing[0])
        out = np.empty((4, 3) + self.grid.dims)
        for i, (_, _, gam) in enumerate(_metric_slabs(self)):
            # axis by axis on a slab copied once, never a (4,4,4,slab) d e
            ei = np.ascontiguousarray(e[:, :, i])
            for k, h in enumerate(self.grid.spacing):
                w = np.einsum("am...,mi...->ai...", ei, gam[:, _SYM_INDEX[k]])
                w -= de0[:, :, i] if k == 0 else d1(ei, k, h)
                w = np.einsum("ai...,ib...->ab...", w, einv[:, :, i])
                np.einsum("p...,pa->a...", w[_PAIR_I, _PAIR_J] - w[_PAIR_J, _PAIR_I],
                          _A_WEIGHTS, out=out[k, :, i])
        return _freeze(out)

    @cached_property
    def hodge_weight(self) -> np.ndarray:
        """Per-node 4x4 weight W[l, k, ...] such that for any 3-form
        components tau, tau^T W tau = vol (|tau|^2 + |star tau|^2); the node
        sum times the cell volume is the L2 energy of
        (d sigma, d* sigma = -star d sigma).

        star is an isometry, so both terms are vol |tau|^2.  The Gram matrix
        of the stored components, the 3x3 minors of ginv, is S g S / vol^2 by
        Jacobi's complementary minors, so W = 2 S g S / vol with S = _S3.
        """
        signs = (2.0 * _S3[:, None] * _S3).reshape(4, 4, 1, 1, 1, 1)
        return _freeze(signs * self.g / self.vol)

    @cached_property
    def flux_weight(self) -> np.ndarray:
        """vol g^-1, [k, l, ...]: it turns the coordinate gradient of a field
        into its L2 flux, so that
        integral |d f|^2 dmu = sum d f . (vol g^-1 d f) h^4."""
        return _freeze(self.vol * self.ginv)


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
        wmax = float(np.max(np.abs(wplus)))
        if np.max(np.abs(wplus - np.swapaxes(wplus, -1, -2))) > 1e-8 * max(1.0, wmax):
            raise ValueError("wplus storage is not symmetric")
        # W+ = B - R/12: its trace and lowest eigenvalue carry the roundoff of R
        tol = 1e-8 * max(1.0, float(np.max(np.abs(scalar.values))), wmax)
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
    offending node so bad input files are debuggable.  g is copied: the
    field caches tensors derived from it.
    """
    g = np.array(g, dtype=float)
    if g.shape != grid.dims + (4, 4):
        raise ValueError(f"metric shape {g.shape} != {grid.dims + (4, 4)}")
    finite = np.isfinite(g)
    if not finite.all():
        raise ValueError(f"metric component is not finite at node {_worst_node(~finite)}")
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError(f"metric storage asymmetry {asym:.3e} exceeds tolerance")
    try:
        coframe = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(g)[..., 0]
        node = _worst_node(lowest <= 0)
        raise ValueError(
            f"metric is not positive definite at node {node} "
            f"(lowest eigenvalue {lowest[node]:.3e})"
        ) from None
    m = MetricField(grid, _component_major(g), _component_major(coframe))
    with np.errstate(over="ignore"):  # vol and det g may overflow; vol is cached from here on
        det = m.vol * m.vol
    usable = (det > 0) & (det < np.inf)
    if not usable.all():
        raise ValueError(f"metric volume factor is 0 or overflows at node {_worst_node(~usable)}")
    return m


def _metric_slabs(m: MetricField) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per axis-0 slab, in axis-0 order: the slab's 10 stored components of
    g, g10[x, ...] on the symmetric pairs x = _SYM_INDEX[i, j], their first
    derivatives dg[k, x, ...] along all four axes, and Gamma^k_ij on those
    pairs, [k, x, ...].

    dg gives the first-kind symbols by flat taps, and e^-1 (e^-T Gamma_lower)
    raises their first index.  Only the axis-0 stencil runs on the whole
    grid; the axis 1-3 stencils, the taps and the raise run on the slab.
    """
    hs = m.grid.spacing
    g10 = m.g[_SYM_I, _SYM_J]
    d0 = d1(g10, 0, hs[0])
    einv = m.inv_coframe
    for i in range(m.grid.dims[0]):
        # the slab is copied once, where a strided view would be copied by
        # each stencil along axes 2 and 3
        g10i = np.ascontiguousarray(g10[:, i])
        dg = np.empty((4,) + g10i.shape)
        dg[0] = d0[:, i]
        for k in (1, 2, 3):
            d1(g10i, k, hs[k], out=dg[k])
        flat = dg.reshape((40,) + dg.shape[2:])
        first = flat[_TAP_DI]
        first += flat[_TAP_DJ]
        first -= flat[_TAP_DL]
        first *= 0.5
        raised = np.einsum("la...,lx...->ax...", einv[:, :, i], first)
        yield g10i, dg, np.einsum("ka...,ax...->kx...", einv[:, :, i], raised)


def _pair_riemann(m: MetricField) -> Iterator[np.ndarray]:
    """Coordinate Riemann tensor on stored pairs, [P, Q, ...] = R_{i_P j_P k_Q l_Q},
    one axis-0 slab at a time, in axis-0 order.

    R_ijkl = M[jk, il] - M[jl, ik] on symmetric index pairs, where
    M[x, y] = (d_x g_y + d_y g_x) / 2 + Gamma_{p,x} Gamma^p_y and d_x is the
    second derivative along the axis pair x.  The first derivatives and
    Gamma come from `_metric_slabs`; d2 along axis 0 runs on the whole grid,
    everything else per slab, the mixed derivatives with axis 0 as
    d_b (d_0 g).  M is held as (10, 10, slab), so each half d_x g / 2 is
    added to row x and column x as whole planes.
    """
    hs = m.grid.spacing
    dd0 = d2(m.g[_SYM_I, _SYM_J], 0, hs[0])
    for i, (g10i, dg, gami) in enumerate(_metric_slabs(m)):
        lower = np.einsum("pq...,qx...->px...", m.g[:, :, i], gami)  # Gamma_{p,x}
        mm = np.einsum("px...,py...->xy...", lower, gami)
        for b in range(4):
            for a in range(b + 1):
                if a == b:
                    ddg = d2(g10i, a, hs[a]) if a > 0 else dd0[:, i]
                else:
                    # a slab has no axis 0 to difference along: d_b (d_0 g)
                    ddg = d1(dg[b], a, hs[a]) if a > 0 else d1(dg[0], b, hs[b])
                ddg = 0.5 * ddg
                x = _SYM_INDEX[a, b]
                mm[x] += ddg
                mm[:, x] += ddg
        mm = mm.reshape((100,) + mm.shape[2:])
        r = mm[_TAP_PLUS]
        r -= mm[_TAP_MINUS]
        yield r


def _lambda2(e: np.ndarray) -> np.ndarray:
    """2x2 minors of a 4x4 field e[i, k, ...] on stored pairs,
    [P, Q, ...] = e[i,k] e[j,l] - e[i,l] e[j,k] for P = (i, j), Q = (k, l);
    the matrix of Lambda^2 e."""
    out = np.empty((6, 6) + e.shape[2:])
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            out[p, q] = e[i, k] * e[j, l] - e[i, l] * e[j, k]
    return out


def curvature_stack(m: MetricField) -> CurvatureBundle:
    """Scalar curvature, W+ and its lowest eigenvalue, read off the pair form.

    B = sd_pairs_up^T R_pair sd_pairs_up is the eta-plus block W+ + (R/12) 1
    of the frame curvature operator, so R = 4 tr B and W+ = B - (R/12) 1.
    W+ is stored in the eta basis of the Cholesky coframe
    `MetricField.coframe`, the basis of every self-dual field.  B, R, W+ and
    its lowest eigenvalue are formed per axis-0 slab of the pair form and
    written into the whole-grid results.
    """
    dims = m.grid.dims
    scal = np.empty(dims)
    wplus = np.empty(dims + (3, 3))
    w = np.empty(dims)
    up = m.sd_pairs_up
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    for i, r in enumerate(_pair_riemann(m)):
        upi = up[:, :, i]
        block = np.einsum("pa...,pb...->ab...", upi, np.einsum("pq...,qb...->pb...", r, upi))
        scal[i] = 4.0 * np.trace(block)
        wp = block - (scal[i] / 12.0) * eye
        # symmetrize away roundoff, node-major for the eigenvalue pass
        wplus[i] = np.moveaxis(0.5 * (wp + wp.swapaxes(0, 1)), (0, 1), (-2, -1))
        w[i] = np.linalg.eigvalsh(wplus[i])[..., 0]
    return CurvatureBundle(ScalarField(m.grid, scal), wplus, ScalarField(m.grid, w))
