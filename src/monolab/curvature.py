"""Riemannian curvature of a sampled 4-metric as an operator on 2-forms.

Per node, the curvature is the symmetric 6x6 operator on stored 2-form pairs
(`bases.PAIRS`), the block form of Singer and Thorpe (1969; Besse, Einstein
Manifolds, 1987).  Its coordinate pair form r = R_{ij,kl} comes from periodic
6th-order differences of the 10 stored components of g, taken one axis-0
slab at a time (see below), plus Gamma_{p,jk} Gamma^p_il terms of the
Christoffel symbols.  In the orthonormal coframe of the (upper-triangular)
Cholesky factor e, e^T e = g, where the self-dual 2-forms have the constant
basis eta_1..eta_3 of `bases`, the operator is L^T r L with
L = Lambda^2(e^-1).  Its trace is R/2; with H+ the eta-plus rows in pair
order, its eta-plus block H+ L^T r L H+^T is W+ + (R/12) 1, and the eta-minus
block gives W- the same way and the mixed block the traceless Ricci tensor.
The stack forms only the eta-plus block, B = U^T r U with U = L H+^T read
off sd_pairs (below).  r satisfies the first Bianchi identity exactly
(its taps are symmetric index pairs), so the eta-plus and eta-minus blocks
have equal trace and R = 4 tr B; W+ = B - (R/12) 1 is a symmetric trace-free
3x3 matrix whose lowest eigenvalue is the curvature weight w.

The stack and the Christoffel symbols work one axis-0 slab at a time: the
n1 n2 n3 nodes that share one index of grid axis 0.  `_metric_slab(m, i)`
returns slab i's first derivatives of g, its factor e, e^-1 and
F = e^-T Gamma_lower, the one form of the Christoffel symbols that the pair
form and `MetricField.sd_connection` need: Gamma_{p,x} Gamma^p_y is the Gram
matrix F^T F, and the frame connection is read off the lower triangle of
F[:, (k, .)] e^-1 = e Gamma_k e^-1, so only g is differenced.  No stencil
runs on the whole grid: d1 and d2 along axis 0 of the slab's 10 stored
components of g come from `grid._slab_stencils`, which reads only the
neighbouring slices of g.  The stencils along axes 1-3, e^-1, the taps and
F, the 55 entries x <= y of the symmetric 10x10 matrix M behind r, r,
sd_pairs, the eta-plus block B and the eigenvalue pass all run on the slab,
and each slab's R, W+ and w are written into the whole-grid results;
besides g, vol, the cached tensors and those results, no whole-grid array
is formed.  A slab (c, n1, n2, n3) is differenced along axes 1-3
with the grid's own axis numbers and gets the bits of the same rows of the
whole-grid call; its axis-0 rows agree with the whole-grid ones to
roundoff, and a mixed derivative with axis 0 is d_b (d_0 g).  A slab loop
indexes with `range` and calls a function that returns the slab's arrays:
no generator, and no `enumerate` or `zip` over one, carries a slab, as a
suspended generator or enumerate's last tuple keeps the previous slab alive
while the next is made, and no view (a row of M, say) outlives its slab.

g is packed from the preset onwards: `build_metric` keeps the packed g
every metric preset writes.  Its factor e, by the closed-form 4x4 Cholesky
on whole planes (`_upper_factor`, no LAPACK), is formed where it is read,
one axis-0 slab at a time, and never kept for the whole grid: by
`build_metric`, for the pivots and vol, by `_metric_slab`, for the stack
and the frame connection, and by `sd_pairs` and `flux_weight`.
g, the flux weight vol g^-1 and the factor share one layout: g[x, ...]
with x = _SYM_INDEX[i, j] over the pairs i <= j in np.triu_indices(4)
order, so row j of the factor's upper triangle is one contiguous run and
an axis-0 slab of g is the view g[:, i].  No (4, 4, dims) array is kept;
`_sym_apply` contracts a packed symmetric field with a vector block by
block of nodes.  The volume factor vol = e_00 e_11 e_22 e_33, the inverse
coframe e^-1 (back substitution, upper triangular with its zeros stored)
and g^-1 = e^-1 e^-T, packed, are read off the factor's 10 entries, with
no LAPACK inverse or determinant; every covector pairing reads g^-1
through the cached flux weight.  Every tensor
here has the one in-memory layout of `grid`: components first, grid axes
last, as in g[x, ...], sd_connection[k, a, ...] and `CurvatureBundle.wplus`
[a, b, ...]; a slab drops the axis-0 index, as in F[a, x, n1, n2, n3].  A
stencil is then one matrix product and each per-node product a two-operand
einsum over the trailing node axes (see `_bilinear` for why two).  Only the
eigenvalue pass reads W+ node-major, one slab's view at a time.

`MetricField` holds g and vol, and caches only what every application of
the lambda operator reads: the flux weight vol g^-1, the pair components of
eta_a, sd_pairs = (H+ Lambda^2 e)^T, and the frame connection on
Lambda+ = so(3), one 3-vector a_k per axis, with
nabla_k sigma = d_k sigma + a_k x sigma since
[eta_a, eta_b] = -sqrt(2) eps_abc eta_c (Atiyah, Hitchin and Singer 1978;
Besse 1987, ch. 13).  e, e^-1 and g^-1 are formed per slab.
The Hodge star is read off sd_pairs, g and vol, with WEDGE2 the signed
reversal of pair order (`bases.WEDGE2_SIGNS`):

* the raised eta pairs Lambda^2(e^-1) H+^T are WEDGE2 sd_pairs / vol;
* star = 2 P+ - 1 on 2-forms, P+ omega = sd_pairs sd_pairs^T WEDGE2 omega
  / vol, so the Gram matrix vol Lambda^2(g^-1) of stored pairs is WEDGE2 star;
* the 3-form weight W, tau^T W tau = vol (|tau|^2 + |star tau|^2), is
  (2 / vol) S g S, S = `bases.TRIPLE_SIGNS`, as the 3x3 minors of g^-1 are
  S g S / vol^2 (Jacobi); W = 2 on the flat metric.

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

from .bases import H_PLUS, PAIRS, WEDGE2_SIGNS
from .grid import GridSpec, ScalarField, _freeze, _slab_stencils, _worst_node, d1, d2

__all__ = [
    "MetricField",
    "CurvatureBundle",
    "build_metric",
    "curvature_stack",
]

_PAIR_I, _PAIR_J = np.array(PAIRS).T
# a = sqrt(2) H+ w_(j, i) over the pairs (i, j), as a product from the right,
# spelt 2 H+^T / sqrt(2): its weights, 1 - 2^-53, are -2 times those of
# (w - w^T)_(i, j) / 2, so an antisymmetric w gives a the same bits either way
_A_WEIGHTS = 2.0 * H_PLUS.T / np.sqrt(2.0)
# symmetric index pairs x = (i <= j) in np.triu_indices(4) order: the packed
# layout (10, ...) of g, of the flux weight and of the factor's upper
# triangle, entry (i, j) of either triangle at x = _SYM_INDEX[i, j].  Row j
# of the upper triangle, (j, j..3), is the contiguous run _ROW[j]
_SYM_I, _SYM_J = np.triu_indices(4)
_SYM_INDEX = np.empty((4, 4), dtype=int)
_SYM_INDEX[_SYM_I, _SYM_J] = _SYM_INDEX[_SYM_J, _SYM_I] = range(10)
_ROW = [slice(_SYM_INDEX[j, j], _SYM_INDEX[j, 3] + 1) for j in range(4)]
# nodes per block of `_sym_apply`: on a 2-vCPU Xeon (OpenBLAS core SkylakeX,
# one thread) one application of the lambda operator on conformal
# `coord:1` took 19.4-21.8 ms in blocks against 20.9-23.1 ms with one
# whole-grid contraction per row at 16^4, 165-174 against 182-193 ms at
# 24^4 (min of 15 and of 7, same bits); 32768 did not gain
_SYM_BLOCK = 8192
# the symmetric M[x, y] is stored as its 55 entries x <= y, row by row; entry
# (x, y) of either triangle is _TRI[x, y], so row x is _TRI[x, x] onwards
_TRI_X, _TRI_Y = np.triu_indices(10)
_TRI = np.empty((10, 10), dtype=int)
_TRI[_TRI_X, _TRI_Y] = _TRI[_TRI_Y, _TRI_X] = range(55)
# taps into M: R_PQ = M[jk, il] - M[jl, ik] for P = (i, j), Q = (k, l)
_TAP_PLUS = _TRI[_SYM_INDEX[_PAIR_J[:, None], _PAIR_I], _SYM_INDEX[_PAIR_I[:, None], _PAIR_J]]
_TAP_MINUS = _TRI[_SYM_INDEX[_PAIR_J[:, None], _PAIR_J], _SYM_INDEX[_PAIR_I[:, None], _PAIR_I]]
# flat taps into [axis, x] of d g_x: the first-kind Christoffel symbol
# Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2 on [l, (i <= j)]
_LOWER = np.arange(4)[:, None]
_TAP_DI = 10 * _SYM_I + _SYM_INDEX[_SYM_J, _LOWER]
_TAP_DJ = 10 * _SYM_J + _SYM_INDEX[_SYM_I, _LOWER]
_TAP_DL = 10 * _LOWER + _SYM_INDEX[_SYM_I, _SYM_J]


class MetricField:
    """Sampled Riemannian metric with lazily cached derived geometry.

    Made only by `build_metric`, which hands over the packed g it was given,
    on the 10 pairs x = _SYM_INDEX[i, j], i <= j, in np.triu_indices(4)
    order, and the volume factor vol = sqrt(det g) = e_00 e_11 e_22 e_33 it
    read off the Cholesky factor e while checking g.  No whole-grid factor
    is kept: each reader forms e from g for the axis-0 slab it works on.
    The derived tensors every application of the lambda operator reads are
    computed once on first use and cached, the symmetric flux weight packed
    as g is; e^-1 and g^-1 are not kept, and the Hodge star is read off
    sd_pairs, g and vol (module docstring).
    Every array has its components first and the grid axes last, read-only.
    """

    def __init__(self, grid: GridSpec, g: np.ndarray, vol: np.ndarray):
        self.grid = grid
        self.g = _freeze(g)
        self.vol = _freeze(vol)

    @cached_property
    def is_flat(self) -> bool:
        """Every entry of g within 1e-12 of the identity's, absolutely."""
        eye = (_SYM_I == _SYM_J).astype(float).reshape(10, 1, 1, 1, 1)
        return bool(np.allclose(self.g, eye, rtol=0.0, atol=1e-12))

    # ---- cached form algebra (used by the self-dual module) ----

    @cached_property
    def sd_pairs(self) -> np.ndarray:
        """Stored components of eta_a, sd_pairs[p, a, ...], formed by `_sd_pairs`
        one axis-0 slab at a time from the slab's factor, so that the factor
        and `_lambda2`'s 36 minors are one slab's."""
        out = np.empty((6, 3) + self.grid.dims)
        for i in range(self.grid.dims[0]):
            _sd_pairs(_upper_factor(self.g[:, i]), out=out[:, :, i])
        return _freeze(out)

    @cached_property
    def sd_connection(self) -> np.ndarray:
        """Frame connection on the self-dual bundle, a[k, a, ...], so that the
        eta components of the coordinate covariant derivative are
        nabla_k sigma = d_k sigma + a_k x sigma.

        The Levi-Civita connection in the Cholesky frame is
        w_k = (e Gamma_k - d_k e) e^-1, Gamma_k the matrix [m, i] = Gamma^m_ki,
        and e Gamma_k is F[:, (k, .)] (`_metric_slab`).  As (d_k e) e^-1 is
        upper triangular, the strict lower triangle of w_k is that of
        F[:, (k, .)] e^-1.  The taps give Gamma_{i,kj} + Gamma_{j,ki} = d_k g_ij
        from one d g, so w_k is antisymmetric for the Cholesky derivative
        d e = Phi(e^-T d g e^-1) e, Phi the upper triangle with its diagonal
        halved (Murray, arXiv:1602.07527): a_k = sqrt(2) H+ (w_k)_(j, i) over
        the pairs (i, j), one axis-0 slab at a time, no factor differenced;
        of a slab's arrays only F and the pair columns of e^-1 are kept.
        """
        out = np.empty((4, 3) + self.grid.dims)
        for i in range(self.grid.dims[0]):
            frame, einv = _metric_slab(self, i)[4:]
            cols = einv[:, _PAIR_I]
            del einv
            for k, xs in enumerate(_SYM_INDEX):
                # (F[:, (k, .)] e^-1)[j, i] for each pair (i, j)
                low = np.einsum("pm...,mp...->p...", frame[_PAIR_J[:, None], xs], cols)
                np.einsum("p...,pa->a...", low, _A_WEIGHTS, out=out[k, :, i])
            del frame, cols, low
        return _freeze(out)

    @cached_property
    def flux_weight(self) -> np.ndarray:
        """vol g^-1, packed as g is, [(k <= l), ...]: it turns the coordinate
        gradient of a field into its L2 flux, so that
        integral |d f|^2 dmu = sum d f . (vol g^-1 d f) h^4.  Formed one
        axis-0 slab at a time from the slab's factor, so no whole-grid e or
        e^-1 is made."""
        out = np.empty((10,) + self.grid.dims)
        for i in range(self.grid.dims[0]):
            e = _upper_factor(self.g[:, i])
            np.multiply(self.vol[i], _inverse_metric(e), out=out[:, i])
        return _freeze(out)


def _bilinear(x: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nodewise x[i, ...] a[i, j, ...] y[j, ...]; `a` may be one constant matrix.

    One pair of operands per einsum, unoptimised: an optimised einsum over
    three operands names the "..." axes with letters drawn from a set, so its
    intermediate's axis order, and with it the last digits of the result, can
    change with the process's string-hash seed.  A two-operand contraction
    has no order to choose, and `optimize` would only plan it again on every
    call.
    """
    return np.einsum("i...,i...->...", x, np.einsum("ij...,j...->i...", a, y))


class CurvatureBundle:
    """Scalar curvature, self-dual Weyl matrix field wplus[a, b, ...] and its
    lowest eigenvalue."""

    def __init__(self, scalar: ScalarField, wplus: np.ndarray, w: ScalarField):
        # every check reads wplus one (i, j) plane at a time, so no whole
        # (3, 3, dims) temporary is made
        wmax = float(max(np.max(wplus), -np.min(wplus)))
        asym = np.max([np.max(np.abs(wplus[i, j] - wplus[j, i]))
                       for i, j in ((0, 1), (0, 2), (1, 2))])
        if asym > 1e-8 * max(1.0, wmax):
            raise ValueError("wplus storage is not symmetric")
        # W+ = B - R/12: its trace and lowest eigenvalue carry the roundoff of R
        tol = 1e-8 * max(1.0, float(np.max(np.abs(scalar.values))), wmax)
        trace = wplus[0, 0] + wplus[1, 1] + wplus[2, 2]
        if np.max(np.abs(trace)) > tol:
            raise ValueError("wplus storage is not trace-free")
        if np.max(w.values) > tol:
            raise ValueError("lowest Weyl eigenvalue came out positive")
        self.scalar = scalar
        self.wplus = _freeze(wplus)
        self.w = w


def build_metric(grid: GridSpec, g: np.ndarray) -> MetricField:
    """Validate and wrap a packed sampled metric, g[x, ...] with x = _SYM_INDEX[i, j], i <= j.

    Rejects non-finite components, non-SPD nodes and a volume factor
    outside the float range; the error names the first offending node so
    bad input files are debuggable.  g is factored by `_upper_factor` one
    axis-0 slab at a time, for its pivots and the volume factor
    e_00 e_11 e_22 e_33 only: no whole-grid factor is kept, and every
    reader forms the factor of its own slab.  A node where a
    pivot is not positive is reported with the lowest eigenvalue of its g.
    A C-contiguous float64 g is kept uncopied and made read-only once
    accepted, as the field caches tensors derived from it; any other g is
    copied.
    """
    g = np.ascontiguousarray(g, dtype=float)
    if g.shape != (10,) + grid.dims:
        raise ValueError(f"metric shape {g.shape} != {(10,) + grid.dims}")
    finite = np.isfinite(g).all(axis=0)
    if not finite.all():
        raise ValueError(f"metric component is not finite at node {_worst_node(~finite)}")
    failed = np.empty(grid.dims, dtype=bool)
    vol = np.empty(grid.dims)
    # vol and det g may overflow, and are not finite where a pivot failed
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.dims[0]):
            e = _upper_factor(g[:, i])
            failed[i] = ~(e[_SYM_INDEX.diagonal()] > 0).all(axis=0)
            vol[i] = e[0] * e[4] * e[7] * e[9]
        det = vol * vol
    if failed.any():
        node = _worst_node(failed)
        lowest = np.linalg.eigvalsh(g[(_SYM_INDEX,) + node])[0]
        raise ValueError(
            f"metric is not positive definite at node {node} (lowest eigenvalue {lowest:.3e})"
        )
    usable = (det > 0) & (det < np.inf)
    if not usable.all():
        raise ValueError(f"metric volume factor is 0 or overflows at node {_worst_node(~usable)}")
    g.flags.writeable = False
    return MetricField(grid, g, vol)


def _upper_factor(g: np.ndarray) -> np.ndarray:
    """The upper-triangular factor e of a packed component-major g,
    e^T e = g, packed as g is.  A pivot is not > 0 (NaN included) exactly
    where its e_jj, the square root, is not > 0; e is not finite there.

    The closed-form Cholesky on whole planes, row j at a time from g's upper
    triangle, each row one contiguous run `_ROW[j]` written in place: the
    pivot is g_jj - sum_{k<j} e_kj^2, e_jj its square root and
    e_ji = (g_ji - sum_{k<j} e_kj e_ki) / e_jj.
    """
    e = np.empty(g.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(4):
            row = e[_ROW[j]]
            row[...] = g[_ROW[j]]
            for k in range(j):
                # e[k, j:], the tail of row k from column j
                row -= e[_SYM_INDEX[k, j]] * e[_SYM_INDEX[k, j]:_ROW[k].stop]
            np.sqrt(row[0], out=row[0])
            row[1:] /= row[0]
    return e


def _metric_slab(m: MetricField, i: int) -> tuple[np.ndarray, ...]:
    """Axis-0 slab i: its 10 stored components of g, g10[x, ...] on the
    symmetric pairs x = _SYM_INDEX[i, j], their first derivatives
    dg[k, x, ...] along all four axes and their second derivative along
    axis 0, the slab's factor e, packed as g is, the frame Christoffel
    symbols on those pairs, F[a, x, ...] = (e^-T Gamma_lower)[a, x], and
    the slab's e^-1, einv[i, a, ...], all from one factorisation of the
    slab's g.

    dg gives the first-kind symbols Gamma_lower[l, x] = Gamma_{l,ij} by flat
    taps.  F is what both readers need: the frame connection is the lower
    triangle of e Gamma_k e^-1 = F[:, (k, .)] e^-1, and
    Gamma_{p,x} Gamma^p_y = sum_a F[a, x] F[a, y] in the pair form, since
    g^-1 = e^-1 e^-T; Gamma^k_x itself is e^-1 F.  The slab's 10
    components are the view g[:, i] of the packed g, and both axis-0
    stencils come from `grid._slab_stencils`, which reads only the
    neighbouring slices of g; the axis 1-3 stencils, e^-1, the taps and F
    run on the slab, so no whole-grid array is formed.
    """
    hs = m.grid.spacing
    g10i = m.g[:, i]
    e = _upper_factor(g10i)
    dg = np.empty((4,) + g10i.shape)
    dg[0], dd0 = _slab_stencils(m.g, i, hs[0], range(10))
    for k in (1, 2, 3):
        d1(g10i, k, hs[k], out=dg[k])
    flat = dg.reshape((40,) + dg.shape[2:])
    first = flat[_TAP_DI]
    first += flat[_TAP_DJ]
    first -= flat[_TAP_DL]
    first *= 0.5
    einv = _inverse_coframe(e)
    return g10i, dg, dd0, e, np.einsum("la...,lx...->ax...", einv, first), einv


def _pair_riemann(m: MetricField, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate Riemann tensor on stored pairs of axis-0 slab i,
    [P, Q, ...] = R_{i_P j_P k_Q l_Q}, and the slab's factor e.

    R_ijkl = M[jk, il] - M[jl, ik] on symmetric index pairs, where
    M[x, y] = (d_x g_y + d_y g_x) / 2 + Gamma_{p,x} Gamma^p_y and d_x is the
    second derivative along the axis pair x.  The first derivatives, d2
    along axis 0, the factor and the frame symbols F, whose Gram matrix
    F^T F is the Gamma Gamma term, come from `_metric_slab`, whose e^-1 is
    dropped at once, and the factor is returned with r for the slab's eta
    pairs; everything else runs on the slab, the mixed derivatives with
    axis 0 as d_b (d_0 g).  M is symmetric, so only its 55 entries x <= y
    are formed (`_TRI`): the Gram matrix one row at a time, then
    d_x g_y / 2 added to entry (x, y) for every y, and both halves,
    d_x g_x, to the diagonal entry (x, x).
    """
    hs = m.grid.spacing
    g10i, dg, dd0, e, frame = _metric_slab(m, i)[:5]
    mm = np.empty((55,) + frame.shape[2:])
    for x in range(10):
        np.einsum("a...,ay...->y...", frame[:, x], frame[:, x:],
                  out=mm[_TRI[x, x]:_TRI[x, 9] + 1])
    del frame
    for b in range(4):
        for a in range(b + 1):
            if a == b:
                ddg = d2(g10i, a, hs[a]) if a > 0 else dd0
            else:
                # a slab has no axis 0 to difference along: d_b (d_0 g)
                ddg = d1(dg[b], a, hs[a]) if a > 0 else d1(dg[0], b, hs[b])
            x = _SYM_INDEX[a, b]
            half = 0.5 * ddg
            half[x] = ddg[x]
            mm[_TRI[x]] += half
            del ddg, half
    del dg, dd0
    r = mm[_TAP_PLUS]
    r -= mm[_TAP_MINUS]
    return r, e


def _lambda2(e: np.ndarray) -> np.ndarray:
    """2x2 minors of the packed upper-triangular factor e[x, ...] on stored
    pairs, [P, Q, ...] = e[i,k] e[j,l] - e[i,l] e[j,k] for P = (i, j),
    Q = (k, l); the matrix of Lambda^2 e.  An entry below the diagonal is
    the scalar 0.0, which gives the bits of a plane of zeros."""
    full = [[e[_SYM_INDEX[i, k]] if i <= k else 0.0 for k in range(4)] for i in range(4)]
    out = np.empty((6, 6) + e.shape[1:])
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            o = out[p, q]
            np.multiply(full[i][k], full[j][l], out=o)
            o -= full[i][l] * full[j][k]
    return out


def _sd_pairs(e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(H+ Lambda^2 e)^T, [p, a, ...], for a packed factor e of any trailing shape."""
    return np.einsum("aq,qp...->pa...", H_PLUS, _lambda2(e), out=out)


def _inverse_coframe(e: np.ndarray) -> np.ndarray:
    """einv[i, a, ...], the coordinate components of the frame vectors E_a,
    upper triangular with its zeros stored, for the packed factor e of any
    trailing shape, by back substitution:
    einv[i, j] = -sum_{i <= k < j} einv[i, k] e[k, j] / e[j, j]."""
    einv = np.zeros((4, 4) + e.shape[1:])
    for j in range(4):
        ejj = e[_SYM_INDEX[j, j]]
        einv[j, j] = 1.0 / ejj
        for i in range(j):
            # a sum subtracted from +0.0 is +0.0 where it vanishes, so
            # the flat einv holds no -0.0 to reach a report
            acc = 0.0
            for k in range(i, j):
                acc = acc - einv[i, k] * e[_SYM_INDEX[k, j]]
            einv[i, j] = acc / ejj
    return einv


def _inverse_metric(e: np.ndarray) -> np.ndarray:
    """g^-1 = e^-1 e^-T, packed as g is, [(i <= j), ...], for the packed
    factor e of g."""
    einv = _inverse_coframe(e)
    out = np.empty(e.shape)
    for x, (i, j) in enumerate(zip(_SYM_I, _SYM_J)):
        np.einsum("a...,a...->...", einv[i], einv[j], out=out[x])
    return out


def _sym_apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v, [k, ..., n], for a symmetric 4x4 field a[x, n] packed as g is, on
    flattened nodes n, and v[l, ..., n].  Per block of _SYM_BLOCK nodes, row
    k of a is gathered, a (4, block) copy that stays in cache, and
    contracted with v by one einsum; no (4, 4, ...) array is formed."""
    out = np.empty(v.shape)
    for start in range(0, v.shape[-1], _SYM_BLOCK):
        nodes = slice(start, start + _SYM_BLOCK)
        for k, xs in enumerate(_SYM_INDEX):
            np.einsum("ln,l...n->...n", a[xs, nodes], v[..., nodes], out=out[k, ..., nodes])
    return out


def curvature_stack(m: MetricField) -> CurvatureBundle:
    """Scalar curvature, W+ and its lowest eigenvalue, read off the pair form.

    B = U^T R_pair U, U = WEDGE2 sd_pairs / vol, is the eta-plus block
    W+ + (R/12) 1 of the frame curvature operator, so R = 4 tr B and
    W+ = B - (R/12) 1, in the eta basis of the Cholesky factor, the basis
    of every self-dual field.  Per axis-0 slab, WEDGE2 sd_pairs is a view of
    the slab's sd_pairs, read off the factor `_pair_riemann` returns with r,
    in reversed pair order with its signs flipped in place; R, W+ and w are
    written into the whole-grid results, and every array of the slab is
    dropped before `_pair_riemann` makes the next r.
    """
    dims = m.grid.dims
    scal = np.empty(dims)
    wplus = np.empty((3, 3) + dims)
    w = np.empty(dims)
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    for i in range(dims[0]):
        r, e = _pair_riemann(m, i)
        eta = _sd_pairs(e)[::-1]
        del e
        eta *= WEDGE2_SIGNS.reshape(6, 1, 1, 1, 1)
        block = np.einsum("pa...,pb...->ab...", eta, np.einsum("pq...,qb...->pb...", r, eta))
        del r, eta
        block /= m.vol[i] ** 2
        scal[i] = 4.0 * np.trace(block)
        wp = block - (scal[i] / 12.0) * eye
        del block
        # symmetrize away roundoff; the eigenvalue pass reads the slab node-major
        wi = wplus[:, :, i]
        np.multiply(0.5, wp + wp.swapaxes(0, 1), out=wi)
        del wp
        w[i] = np.linalg.eigvalsh(np.moveaxis(wi, (0, 1), (-2, -1)))[..., 0]
    return CurvatureBundle(ScalarField(m.grid, scal), wplus, ScalarField(m.grid, w))
