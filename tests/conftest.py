"""Shared fixtures; expensive geometry is built once per session."""

import itertools

import numpy as np
import pytest

from monolab import GridSpec, curvature_stack, metric_from_preset, random_smooth_scalar
from monolab.bases import PAIRS, X3

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


# the terms (o, k, i, s) of (d f)_o = sum s D_k f_i, keyed by the stored
# input width (4: 1-forms, 6: pairs) with the output width: a flat list read
# off PAIRS and the 3-form expansion X3, independent of `selfdual`'s
# per-axis coupling
D_TERMS = {
    4: (6, tuple(t for p, (i, j) in enumerate(PAIRS) for t in ((p, i, j, 1), (p, j, i, -1)))),
    6: (4, tuple((l, k, p, int(X3[l, k, i, j])) for l in range(4) for k in range(4)
                 for p, (i, j) in enumerate(PAIRS) if X3[l, k, i, j] != 0.0)),
}


def textbook_christoffel(g, spacing):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 from all 16
    components of g: [..., k, i, j]."""
    gi = np.linalg.inv(g)
    dgs = np.stack([roll_d1(g, k, h) for k, h in enumerate(spacing)], axis=-3)
    return 0.5 * (np.einsum("...kl,...ijl->...kij", gi, dgs)
                  + np.einsum("...kl,...jil->...kij", gi, dgs)
                  - np.einsum("...kl,...lij->...kij", gi, dgs))


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


def textbook_three_form_star(g):
    """Hodge star from full 3-form components to 1-forms: [..., m, i, j, k]
    with (star tau)_m = sqrt(det g) tau^{ijk} eps_{ijkm} / 3!."""
    gi = np.linalg.inv(g)
    vol = np.sqrt(np.linalg.det(g))
    return np.einsum("...,...ia,...jb,...kc,abcm->...mijk",
                     vol, gi, gi, gi, levi_civita(), optimize=True) / 6.0
