"""Shared fixtures; expensive geometry is built once per session."""

import itertools

import numpy as np
import pytest

from monolab.bases import PAIRS
from monolab.curvature import curvature_stack
from monolab.grid import GridSpec
from monolab.presets import metric_from_preset, random_smooth_scalar

TWO_PI = 2.0 * np.pi

CONFORMAL_PRESET = "conformal:0.3*sin(x0)*cos(x1)+0.2*sin(x2+x3)"


def make_grid(n, periods=None):
    if periods is None:
        periods = (TWO_PI,) * 4
    return GridSpec((n,) * 4, periods)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8)


@pytest.fixture(scope="session")
def m8(grid8):
    return metric_from_preset("flat", grid8)


@pytest.fixture(scope="session")
def curv8(m8):
    return curvature_stack(m8)


@pytest.fixture(scope="session")
def m8_conf(grid8):
    return metric_from_preset(CONFORMAL_PRESET, grid8)


@pytest.fixture(scope="session")
def curv8_conf(m8_conf):
    return curvature_stack(m8_conf)


# ---------------------------------------------------------------------------
# generic metrics and textbook pieces shared by the test-only oracles; they
# share no code with the package


def generic_metric(n, seed=7, amp=0.1, periods=None):
    """Seeded non-diagonal SPD metric g = delta + sym(random fields) on n
    nodes per axis, or on dims n = (n0, n1, n2, n3); the same continuum
    metric at every n, so refinements see one geometry."""
    grid = GridSpec((n,) * 4 if np.isscalar(n) else n, periods or (TWO_PI,) * 4)
    rng = np.random.default_rng(seed)
    g = np.tile(np.eye(4), grid.dims + (1, 1))
    for i in range(4):
        for j in range(i, 4):
            s = random_smooth_scalar(grid, rng, 1, amp)
            g[..., i, j] += s
            if i != j:
                g[..., j, i] += s
    return grid, g


def pulled_back_flat_chart(n, eps=0.1):
    """Node coordinates x (dims, 4), J = D phi and g = J^T J for the
    diffeomorphism phi(x) = x + eps (sin x1, sin x2, sin x3, sin x0) of the
    torus.  phi is an orientation-preserving isometry from (T^4, g) onto the
    flat torus, so every curvature of g vanishes."""
    grid = GridSpec((n,) * 4)
    t = TWO_PI * np.arange(n) / n
    x = np.stack(np.meshgrid(t, t, t, t, indexing="ij"), axis=-1)
    jac = np.tile(np.eye(4), grid.dims + (1, 1))
    for i in range(4):
        jac[..., i, (i + 1) % 4] += eps * np.cos(x[..., (i + 1) % 4])
    return grid, x, jac, np.swapaxes(jac, -1, -2) @ jac


def layout(a, to):
    """A C-contiguous copy of `a` with its four grid axes moved to the front
    (to="node", the layout of files and of the oracles' textbook arrays) or
    to the back (to="comp", the in-memory layout of every field)."""
    grid_axes, front = (-4, -3, -2, -1), (0, 1, 2, 3)
    if to == "node":
        return np.ascontiguousarray(np.moveaxis(a, grid_axes, front))
    assert to == "comp", to
    return np.ascontiguousarray(np.moveaxis(a, front, grid_axes))


def pack(g):
    """The packed component-major (10, dims) copy of a node-major
    (dims, 4, 4) g, the layout `build_metric` takes: entry x is g[..., i, j]
    for the x-th pair i <= j of np.triu_indices(4)."""
    i, j = np.triu_indices(4)
    return np.ascontiguousarray(np.moveaxis(g[..., i, j], -1, 0))


def unpack(packed, symmetric=True):
    """The (4, 4, ...) matrix field of a packed component-major one, whose
    entry x sits at (i, j) for the x-th pair i <= j of np.triu_indices(4):
    symmetric like g and the flux weight, or, with symmetric=False, upper
    triangular like the factor."""
    i, j = np.triu_indices(4)
    full = np.zeros((4, 4) + packed.shape[1:])
    full[i, j] = packed
    if symmetric:
        full[j, i] = packed
    return full


def textbook_lambda2(a):
    """2x2 minors of node-major 4x4 matrices a[..., i, k] on stored pairs,
    [..., P, Q] = a_ik a_jl - a_il a_jk for P = (i, j), Q = (k, l): the
    matrix of Lambda^2 a."""
    pi, pj = np.array(PAIRS).T
    return (a[..., pi[:, None], pi] * a[..., pj[:, None], pj]
            - a[..., pi[:, None], pj] * a[..., pj[:, None], pi])


def mean_abs_scalar(curv):
    """Mean |R| over the nodes of a curvature bundle: the lambda
    minimiser's curvature scale, as `monolab.cli` computes it."""
    return float(np.mean(np.abs(curv.scalar.values)))


def rel_err(x, ref):
    """Largest deviation relative to the largest reference entry."""
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def roll_d1(v, axis, h):
    r = np.roll
    return (r(v, -3, axis) - 9 * r(v, -2, axis) + 45 * r(v, -1, axis)
            - 45 * r(v, 1, axis) + 9 * r(v, 2, axis) - r(v, 3, axis)) / (60.0 * h)


def roll_d2(v, axis, h):
    r = np.roll
    return (2 * r(v, -3, axis) - 27 * r(v, -2, axis) + 270 * r(v, -1, axis) - 490 * v
            + 270 * r(v, 1, axis) - 27 * r(v, 2, axis) + 2 * r(v, 3, axis)) / (180.0 * h * h)


def spectral_d1(v, axis, h):
    """Fourier derivative along `axis` of periodic samples at spacing h, by
    np.fft; the Nyquist mode of an even count is dropped."""
    n = v.shape[axis]
    xi = 2.0 * np.pi * np.fft.fftfreq(n, h)
    if n % 2 == 0:
        xi[n // 2] = 0.0
    shape = [1] * v.ndim
    shape[axis] = n
    return np.fft.ifft(1j * xi.reshape(shape) * np.fft.fft(v, axis=axis), axis=axis).real


def textbook_christoffel(g, spacing, d1=roll_d1):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 from all 16
    components of g and the derivative d1 (np.roll stencils by default):
    [..., k, i, j]."""
    gi = np.linalg.inv(g)
    dgs = np.stack([d1(g, k, h) for k, h in enumerate(spacing)], axis=-3)
    return 0.5 * (np.einsum("...kl,...ijl->...kij", gi, dgs)
                  + np.einsum("...kl,...jil->...kij", gi, dgs)
                  - np.einsum("...kl,...lij->...kij", gi, dgs))


def textbook_cholesky_derivative(g, spacing, d1=roll_d1):
    """LAPACK's upper Cholesky factor e of g (e^T e = g), its inverse, and
    d_k e, [..., k, i, j], from the derivative d1 of g (np.roll stencils by
    default) by the Cholesky derivative d e = Phi(e^-T d g e^-1) e, Phi the
    upper triangle with its diagonal halved (Murray, arXiv:1602.07527):
    e^-T d g e^-1 is X + X^T with X = (d e) e^-1 upper triangular."""
    e = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    einv = np.linalg.inv(e)
    dgs = np.stack([d1(g, k, h) for k, h in enumerate(spacing)], axis=-3)
    s = np.swapaxes(einv, -1, -2)[..., None, :, :] @ dgs @ einv[..., None, :, :]
    return e, einv, (np.triu(s) - 0.5 * np.eye(4) * s) @ e[..., None, :, :]


def textbook_eta():
    """eta_1..eta_3 as full antisymmetric 4x4 frame components."""
    eta = np.zeros((3, 4, 4))
    for a, ((i, j), (k, l)) in enumerate((((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)))):
        eta[a, i, j], eta[a, j, i], eta[a, k, l], eta[a, l, k] = 1, -1, 1, -1
    return eta / np.sqrt(2.0)


def levi_civita():
    """Permutation symbol eps[i, j, k, l] with eps[0, 1, 2, 3] = +1."""
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = round(np.linalg.det(np.eye(4)[list(perm)]))
    return eps


def three_form_expansion():
    """X3[l, i, j, k]: the full antisymmetric components of the stored
    3-form component l, the coefficient of dx^a ^ dx^b ^ dx^c with (a, b, c)
    the increasing complement of axis l."""
    eps = levi_civita()
    return np.stack([eps[..., l] * eps[tuple(a for a in range(4) if a != l) + (l,)]
                     for l in range(4)])


# the terms (o, k, i, s) of (d f)_o = sum s D_k f_i, keyed by the stored
# input width (4: 1-forms, 6: pairs) with the output width: a flat list read
# off PAIRS and the 3-form expansion X3, independent of `selfdual`'s
# per-axis coupling
X3 = three_form_expansion()
D_TERMS = {
    4: (6, tuple(t for p, (i, j) in enumerate(PAIRS) for t in ((p, i, j, 1), (p, j, i, -1)))),
    6: (4, tuple((l, k, p, int(X3[l, k, i, j])) for l in range(4) for k in range(4)
                 for p, (i, j) in enumerate(PAIRS) if X3[l, k, i, j] != 0.0)),
}


def textbook_three_form_star(g):
    """Hodge star from full 3-form components to 1-forms: [..., m, i, j, k]
    with (star tau)_m = sqrt(det g) tau^{ijk} eps_{ijkm} / 3!."""
    gi = np.linalg.inv(g)
    vol = np.sqrt(np.linalg.det(g))
    return np.einsum("...,...ia,...jb,...kc,abcm->...mijk",
                     vol, gi, gi, gi, levi_civita(), optimize=True) / 6.0
