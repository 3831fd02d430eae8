"""Pointwise spin^c algebra and a flat-chart coupled Dirac operator.

The spinor bundle over the flat chart is trivialised as two complex
components per node (positive chirality W+).  Clifford multiplication is
fixed by the chiral matrices

    gamma^0 = [[0, -1], [1, 0]]   (2x2 blocks),
    gamma^j = [[0, i sigma_j], [i sigma_j, 0]],

so the block mapping W+ -> W- is rho = (1, i sigma_1, i sigma_2, i sigma_3)
and the induced action of the self-dual basis on W+ is
rho(eta_a) = -sqrt(2) i sigma_a: trace-free, anti-Hermitian, quaternionic.

The quadratic map sends a spinor to the self-dual form

    sigma(Phi)_a = (Phi^dag sigma_a Phi) / (2 sqrt(2)),

the unique scale with |sigma(Phi)|^2 = |Phi|^4 / 8 exactly.  A U(1)
connection is the real 1-form a twisting the product connection, coupled
as partial_i + i a_i; its curvature acts on the determinant line with
twice the spinor twist, so the self-dual representative carried around as
"iF+" is -2 (da)+.  Gauge changes act by a -> a + d chi together with
Phi -> exp(-i chi) Phi, the direction that leaves the coupling covariant.

Spinors (2, dims), connection forms (4, dims) and the covariant derivative
(4, 2, dims) have the one in-memory layout of `grid`: components first,
grid axes last.

Everything here lives on the flat chart by construction: no function
takes a metric, and `functionals.MonopoleConfig` refuses a curved one.
Identities that need curvature are exercised through the 2-form side of
the package, where R and W+ enter.  sigma_map, dirac and curv_plus are
closed forms of CliffordModel's tables.  Centred differences double the
Dirac spectrum, which is harmless for the residual-of-identity checks
used throughout (they never count eigenvalues); the caveat is documented
here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bases import H_PLUS, PAIRS
from .grid import GridSpec, _freeze, _gradient
from .selfdual import SelfDualField, TwoFormField, _d

__all__ = [
    "PAULI",
    "KAPPA_SIGMA",
    "SpinorField",
    "U1Connection",
    "CliffordModel",
    "sigma_map",
    "nabla_a",
    "dirac",
    "dirac_cubic_pairing",
    "dirac_weitzenboeck_check",
    "log_kato_check",
    "gauge_transform",
]

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# sigma-map scale solving |sigma(Phi)|^2 = |Phi|^4 / 8
KAPPA_SIGMA = 1.0 / (2.0 * np.sqrt(2.0))


@dataclass(frozen=True)
class SpinorField:
    """Positive-chirality spinor: two complex components per node."""

    grid: GridSpec
    comps: np.ndarray  # complex (2, dims)

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=complex)
        if c.shape != (2,) + self.grid.dims:
            raise ValueError(f"spinor components {c.shape} != {(2,) + self.grid.dims}")
        if not np.all(np.isfinite(c)):
            raise ValueError("spinor components must be finite")
        object.__setattr__(self, "comps", _freeze(c))

    def norm2(self) -> np.ndarray:
        return np.sum(np.abs(self.comps) ** 2, axis=0)

    def norm(self) -> np.ndarray:
        return np.sqrt(self.norm2())


class U1Connection:
    """Twist 1-form a of a U(1) connection on the flat chart, a[k, ...].

    curv is the 2-form da; curv_plus the self-dual field representing
    iF+ of the determinant line, which carries twice the spinor twist:
    iF+ = -2 (da)+.
    """

    def __init__(self, grid: GridSpec, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.shape != (4,) + grid.dims:
            raise ValueError(f"connection 1-form {a.shape} != {(4,) + grid.dims}")
        self.grid = grid
        self.a = _freeze(a)

    @cached_property
    def curv(self) -> TwoFormField:
        return TwoFormField(self.grid, _d(self.a, self.grid))

    @cached_property
    def curv_plus(self) -> SelfDualField:
        # the eta rows of H_PLUS: pairs 01 + 23, 02 - 13 and 03 + 12, over sqrt(2)
        c = self.curv.comps
        h = H_PLUS[0, 0]
        proj = np.stack([h * c[0] + h * c[5], h * c[1] - h * c[4], h * c[2] + h * c[3]])
        return SelfDualField(self.grid, -2.0 * proj)


class CliffordModel:
    """Constant Clifford data: gamma matrices and the Lambda+ action.

    rho_eta is derived from the antisymmetrised block products and checked
    against the closed form -sqrt(2) i sigma_a; identity_residuals exposes
    every convention as a number so tests can pin the whole model.
    """

    def __init__(self):
        gamma = np.zeros((4, 4, 4), dtype=complex)
        eye = np.eye(2)
        gamma[0, :2, 2:] = -eye
        gamma[0, 2:, :2] = eye
        for j in range(3):
            gamma[1 + j, :2, 2:] = 1j * PAULI[j]
            gamma[1 + j, 2:, :2] = 1j * PAULI[j]
        self.gamma = _freeze(gamma)
        # W+ -> W- blocks
        self.rho_coord = _freeze(np.ascontiguousarray(gamma[:, 2:, :2]))
        # 2-form action on W+: c(e^i ^ e^j) = -(rho_i^dag rho_j)_antisym
        rho = self.rho_coord
        c_pairs = np.empty((6, 2, 2), dtype=complex)
        for p, (i, j) in enumerate(PAIRS):
            c_pairs[p] = -0.5 * (
                rho[i].conj().T @ rho[j] - rho[j].conj().T @ rho[i]
            )
        self.rho_eta = _freeze(
            np.einsum("ap,pst->ast", H_PLUS, c_pairs)
        )

    def identity_residuals(self) -> dict[str, float]:
        """Max deviation of each defining identity, for assertion in tests."""
        out = {}
        anti = np.einsum("ist,jtu->ijsu", self.gamma, self.gamma)
        anti = anti + np.einsum("jst,itu->ijsu", self.gamma, self.gamma)
        target = -2.0 * np.einsum("ij,su->ijsu", np.eye(4), np.eye(4))
        out["clifford_anticommutator"] = float(np.max(np.abs(anti - target)))
        re = self.rho_eta
        out["rho_eta_closed_form"] = float(
            np.max(np.abs(re - (-np.sqrt(2.0) * 1j * PAULI)))
        )
        out["rho_eta_tracefree"] = float(np.max(np.abs(np.trace(re, axis1=-2, axis2=-1))))
        out["rho_eta_antihermitian"] = float(
            np.max(np.abs(re + np.conj(np.swapaxes(re, -1, -2))))
        )
        quat = np.einsum("ast,btu->absu", re, re)
        quat = quat + np.einsum("bst,atu->absu", re, re)
        quat = quat + 4.0 * np.eye(3)[:, :, None, None] * np.eye(2)[None, None, :, :]
        out["rho_eta_quaternion"] = float(np.max(np.abs(quat)))

        rng = np.random.default_rng(3)
        phi = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        sig = KAPPA_SIGMA * np.einsum(
            "...s,ast,...t->...a", phi.conj(), PAULI, phi
        ).real
        out["sigma_norm_identity"] = float(
            np.max(np.abs(np.sum(sig**2, axis=-1) - np.sum(np.abs(phi) ** 2, axis=-1) ** 2 / 8.0))
        )
        act = np.einsum("...a,ast->...st", sig, re)
        outer = np.einsum("...s,...t->...st", phi, phi.conj())
        n2 = np.sum(np.abs(phi) ** 2, axis=-1)
        target = -1j * (outer - 0.5 * n2[..., None, None] * np.eye(2))
        out["sigma_clifford_action"] = float(np.max(np.abs(act - target)))
        return out


def sigma_map(phi: SpinorField) -> SelfDualField:
    """Quadratic spinor-to-form map with |sigma(Phi)|^2 = |Phi|^4 / 8: kappa
    (2 Re conj(phi_0) phi_1, 2 Im conj(phi_0) phi_1, |phi_0|^2 - |phi_1|^2)."""
    x0, x1 = phi.comps.real
    y0, y1 = phi.comps.imag
    re = x0 * x1 + y0 * y1
    im = x0 * y1 - y0 * x1
    comps = np.stack([re + re, im + im, (x0 * x0 + y0 * y0) - (x1 * x1 + y1 * y1)])
    return SelfDualField(phi.grid, KAPPA_SIGMA * comps)


def nabla_a(phi: SpinorField, conn: U1Connection) -> np.ndarray:
    """Coupled covariant derivative (partial_i + i a_i) Phi, (4, 2, dims)."""
    if not phi.grid.compatible(conn.grid):
        raise ValueError("spinor and connection live on different grids")
    out = _gradient(phi.comps, phi.grid)
    out += 1j * conn.a[:, None] * phi.comps
    return out


def dirac(phi: SpinorField, conn: U1Connection) -> SpinorField:
    """Coupled Dirac operator on the flat chart, W+ -> W-: the two rows of
    sum_i rho_i nabla_i Phi with rho = (1, i sigma_1, i sigma_2, i sigma_3)."""
    n = nabla_a(phi, conn)
    out = np.stack([n[0, 0] + 1j * n[1, 1] + n[2, 1] + 1j * n[3, 0],
                    n[0, 1] + 1j * n[1, 0] - n[2, 0] - 1j * n[3, 1]])
    return SpinorField(phi.grid, out)


def dirac_cubic_pairing(phi: SpinorField, conn: U1Connection) -> float:
    """integral Re (D_A Phi, D_A(|Phi|^2 Phi)) on the flat chart."""
    cubic = SpinorField(phi.grid, phi.norm2() * phi.comps)
    pair = np.real(np.conj(dirac(phi, conn).comps) * dirac(cubic, conn).comps)
    return float(np.sum(pair) * phi.grid.cell_volume)


def dirac_weitzenboeck_check(phi: SpinorField, conn: U1Connection) -> tuple[float, float, float]:
    """Integral Weitzenboeck identity for the cubic pairing.

    lhs = integral (D_A Phi, D_A(|Phi|^2 Phi)); rhs expands it into the
    gradient, |d|Phi|^2|^2 and curvature-coupling pieces (scalar curvature
    is zero on the flat chart).  Returns (lhs, rhs, normalised residual).
    """
    grid = phi.grid
    cell = grid.cell_volume

    lhs = dirac_cubic_pairing(phi, conn)
    phi2 = phi.norm2()
    nab = nabla_a(phi, conn)
    t_grad = float(np.sum(phi2 * np.sum(np.abs(nab) ** 2, axis=(0, 1))) * cell)
    grad2 = sum(dk**2 for dk in _gradient(phi2, grid))
    t_mod = 0.5 * float(np.sum(grad2) * cell)
    sig = sigma_map(phi)
    pair = np.sum(conn.curv_plus.comps * sig.comps, axis=0)
    t_curv = -2.0 * float(np.sum(phi2 * pair) * cell)
    rhs = t_grad + t_mod + t_curv

    scale = abs(lhs) + abs(t_grad) + abs(t_mod) + abs(t_curv)
    residual = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return lhs, rhs, residual


# |Phi| below which log_kato_check skips a node
_KATO_FLOOR = 0.2


def log_kato_check(phi: SpinorField, conn: U1Connection) -> float:
    """Worst-case margin of 2|nabla_A Phi|/|Phi| - |nabla sigma|/|sigma|.

    Nodes with |Phi| <= _KATO_FLOOR are skipped; all nodes below the floor
    is an error.  Smooth data keeps the margin above -O(h^2).
    """
    grid = phi.grid
    absphi = phi.norm()
    keep = absphi > _KATO_FLOOR
    if not keep.any():
        raise ValueError(f"no nodes with |Phi| above the floor {_KATO_FLOOR}")

    nab = nabla_a(phi, conn)
    lhs = 2.0 * np.sqrt(np.sum(np.abs(nab) ** 2, axis=(0, 1)))
    sig = sigma_map(phi)
    dsig = _gradient(sig.comps, grid)
    rhs = np.sqrt(np.sum(dsig**2, axis=(0, 1)))
    margin = lhs[keep] / absphi[keep] - rhs[keep] / sig.norm()[keep]
    return float(np.min(margin))


def gauge_transform(
    conn: U1Connection, phi: SpinorField, chi: np.ndarray
) -> tuple[U1Connection, SpinorField]:
    """Gauge change a -> a + d chi, Phi -> exp(-i chi) Phi.

    This is the direction under which the coupling partial + i a is
    covariant: the transformed Dirac image is exp(-i chi) times the old.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != conn.grid.dims:
        raise ValueError("chi must be a scalar grid array")
    dchi = _gradient(chi, conn.grid)
    new_conn = U1Connection(conn.grid, conn.a + dchi)
    new_phi = SpinorField(phi.grid, np.exp(-1j * chi) * phi.comps)
    return new_conn, new_phi
