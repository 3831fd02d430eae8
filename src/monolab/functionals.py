"""Perturbed monopole residuals, a-priori bounds, and curvature inequalities.

The perturbed equations couple a U(1) connection A and a spinor Phi through

    D_A Phi = 0,
    sqrt(8) iF_A^+ = -beta(|sigma(Phi)|) (K_- + eps) sigma(Phi) + K_+ omega_hat,

with K the pointwise curvature weight assembled from (theta, curvature,
lambda) by `rayleigh.assemble_K`.  In the paper lambda is the infimum of
the spectral quotient for the same (g, theta), the value of
`rayleigh.minimize_lambda`, which the `lebrun` command folds into K; a
manufactured pair takes lambda as a parameter, and the key inequality
reads K at lambda = 0, since its left side is the quotient's numerator
itself.  This module evaluates residuals of candidate pairs, checks the
two a-priori bounds every near-solution must satisfy, and evaluates both
sides of the linear and quadratic curvature inequalities against supplied
first-Chern data.

Chern data is always user input, either a plain number or a closed 2-form
representative: a single periodic chart cannot carry a nontrivial
determinant line bundle, so topology enters as flux bookkeeping, which is
exactly what the inequalities consume.

A small catalog of constant-curvature product surfaces evaluates the same
inequalities in closed form with no grid, as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curvature import CurvatureBundle, MetricField
from .grid import _worst_node, integrate
from .rayleigh import (
    KField,
    ThetaField,
    _apply_quadratic,
    _comp_norm2,
    _curvature_weight,
    _numerator,
    assemble_K,
    beta,
)
from .selfdual import (
    SelfDualField,
    TwoFormField,
    _d,
    embed,
    harmonic_selfdual_basis,
    hodge_rayleigh,
    project,
    sd_l2_norm,
    wedge_integral,
)
from .spinc import (
    SpinorField,
    U1Connection,
    dirac,
    dirac_cubic_pairing,
    gauge_transform,
    sigma_map,
)

__all__ = [
    "PerturbationSpec",
    "MonopoleConfig",
    "PswResidual",
    "BoundReport",
    "InequalityReport",
    "psw_residual",
    "general_psw_residual",
    "reduction_spec",
    "check_curvature_bound",
    "check_phi_l4_bound",
    "lebrun_linear",
    "lebrun_quadratic",
    "key_inequality_check",
    "CatalogSurface",
    "CATALOG",
    "catalog_linear",
    "catalog_quadratic",
    "catalog_delta_sweep",
    "reducible_config",
    "constant_config",
    "gauge_trick_config",
    "rotating_config",
]

SQRT8 = math.sqrt(8.0)


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class PerturbationSpec:
    """Right-hand-side recipe for the curvature equation.

    variant "simple" uses the raw curvature coefficient (2R/3 + 2w)_- in
    place of K_-; "full" uses K with a bounded self-dual shift omega_hat;
    "general" replaces beta(t)(K_- + eps) by a caller-supplied profile
    F(x, t), vectorized as F(kminus_values, t) -> array, together with an
    inhomogeneity eta and the admissibility parameters (kappa, t_switch,
    delta).  Admissibility of the general profile is sampled at 33 points
    of t in [0, max(10, 2 t_switch)] at residual time, since it depends on K.
    """

    variant: str
    eps: float | None = None
    omega_hat: SelfDualField | None = None
    F: Callable | None = None
    eta: SelfDualField | None = None
    kappa: float | None = None
    t_switch: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.variant not in ("simple", "full", "general"):
            raise ValueError(f"unknown perturbation variant {self.variant!r}")
        if self.variant in ("simple", "full"):
            if self.eps is None or not self.eps > 0:
                raise ValueError("psw variants need eps > 0")
            if self.F is not None or self.eta is not None:
                raise ValueError("profile F / eta belong to the general variant")
            if self.variant == "simple" and self.omega_hat is not None:
                raise ValueError("the simple variant has no omega_hat term")
            if self.variant == "full" and self.omega_hat is not None:
                sup = float(np.max(self.omega_hat.norm()))
                if sup > 1.0 + 1e-12:
                    raise ValueError(f"omega_hat must satisfy sup |omega_hat| <= 1, got {sup}")
        else:
            if self.F is None or self.eta is None:
                raise ValueError("general variant needs the profile F and eta")
            if self.t_switch is None or self.delta is None:
                raise ValueError("general variant needs t_switch and delta")
            if self.omega_hat is not None:
                raise ValueError("omega_hat belongs to the psw variants")


@dataclass(frozen=True)
class MonopoleConfig:
    """A candidate pair (A, Phi) with its geometric background, which must
    be flat: the spin^c operators of `spinc` work on the flat chart."""

    conn: U1Connection
    phi: SpinorField
    metric: MetricField
    curv: CurvatureBundle | None = None

    def __post_init__(self):
        grid = self.metric.grid
        if not (self.conn.grid.compatible(grid) and self.phi.grid.compatible(grid)):
            raise ValueError("connection, spinor, and metric live on different grids")
        if not self.metric.is_flat:
            raise NotImplementedError("spin^c operators are implemented on flat charts only")


@dataclass(frozen=True)
class PswResidual:
    r1: SpinorField
    r2: SelfDualField
    norms: dict


@dataclass(frozen=True)
class BoundReport:
    """A bound lhs <= rhs on solutions, margin = rhs - lhs."""

    kind: str
    lhs: float
    rhs: float
    margin: float = field(init=False)
    applicable: bool
    gate: float
    residual_l2: float
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "margin", self.rhs - self.lhs)


@dataclass(frozen=True)
class InequalityReport:
    """Two sides of one inequality, oriented lhs <= rhs, margin = rhs - lhs."""

    kind: str
    lhs: float
    rhs: float
    margin: float = field(init=False)
    lhs_formula: str
    rhs_formula: str
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.lhs) and np.isfinite(self.rhs)):
            raise ValueError("inequality sides must be finite")
        object.__setattr__(self, "margin", self.rhs - self.lhs)


# ---------------------------------------------------------------------------
# residuals


def _psw_result(
    cfg: MonopoleConfig, coefficient: Callable, shift: np.ndarray | None
) -> PswResidual:
    """r1 = D_A Phi and r2 = sqrt(8) iF_A^+ + coefficient(|sigma|) sigma - shift,
    sigma = sigma(Phi), with their L2 and sup norms."""
    m = cfg.metric
    r1 = dirac(cfg.phi, cfg.conn)
    sigma = sigma_map(cfg.phi)
    coef = np.asarray(coefficient(sigma.norm()), dtype=float)
    r2 = SQRT8 * cfg.conn.curv_plus.comps + coef * sigma.comps
    if shift is not None:
        r2 = r2 - shift
    n1 = np.sum(np.abs(r1.comps) ** 2, axis=0)
    n2 = np.sum(r2**2, axis=0)
    return PswResidual(r1, SelfDualField(m.grid, r2), {
        "r1_l2": math.sqrt(integrate(n1, m)),
        "r1_linf": float(np.sqrt(np.max(n1))),
        "r2_l2": math.sqrt(integrate(n2, m)),
        "r2_linf": float(np.sqrt(np.max(n2))),
    })


def psw_residual(cfg: MonopoleConfig, pert: PerturbationSpec, K: KField) -> PswResidual:
    """Residual of the perturbed equations for the simple/full variants.

    r1 = D_A Phi and r2 = sqrt(8) iF_A^+ + beta(|sigma|)(K_- + eps) sigma
    - K_+ omega_hat; the simple variant swaps K_- for the raw coefficient
    ((2/3) R + 2 w)_- and drops omega_hat.
    """
    if pert.variant == "general":
        raise ValueError("use general_psw_residual for the general variant")
    if not K.grid.compatible(cfg.metric.grid):
        raise ValueError("K lives on a different grid")
    if pert.variant == "simple":
        if cfg.curv is None:
            raise ValueError("the simple variant needs the curvature bundle")
        raw = (2.0 / 3.0) * cfg.curv.scalar.values + 2.0 * cfg.curv.w.values
        kminus = np.maximum(-raw, 0.0)
    else:
        kminus = K.kminus.values
    shift = None
    if pert.omega_hat is not None:
        shift = K.kplus.values * pert.omega_hat.comps
    return _psw_result(cfg, lambda t: beta(t) * (kminus + pert.eps), shift)


def general_psw_residual(
    cfg: MonopoleConfig, pert: PerturbationSpec, K: KField
) -> PswResidual:
    """Residual for a general admissible curvature profile F.

    Admissibility is sampled on a t-grid: kappa >= t F(x,t) >= 0 for all
    t, and t F(x,t) >= K_-(x) + delta for t >= t_switch.  The shift must
    obey |eta(x)| <= K_+(x) pointwise.  Violations raise with the first
    offending sample points listed, each at its worst node.
    """
    if pert.variant != "general":
        raise ValueError("general_psw_residual needs a general-variant spec")
    if not K.grid.compatible(cfg.metric.grid):
        raise ValueError("K lives on a different grid")
    kminus = K.kminus.values
    kappa = np.inf if pert.kappa is None else pert.kappa
    bad = []
    for t in np.linspace(0.0, max(10.0, 2.0 * pert.t_switch), 33):
        tf = t * np.asarray(pert.F(kminus, t), dtype=float)
        outside = np.maximum(-tf, tf - kappa)
        if np.any(outside > 1e-12):
            idx = _worst_node(outside)
            bad.append(f"t={t:.4g} node={idx}: t*F={tf[idx]:.4g} outside [0, kappa]")
        if t >= pert.t_switch:
            gap = tf - (kminus + pert.delta)
            if np.any(gap < -1e-12):
                idx = _worst_node(-gap)
                bad.append(
                    f"t={t:.4g} node={idx}: t*F={tf[idx]:.4g} < K_- + delta = "
                    f"{kminus[idx] + pert.delta:.4g}"
                )
        if len(bad) >= 5:
            break
    eta_excess = pert.eta.norm() - K.kplus.values
    if np.any(eta_excess > 1e-12):
        idx = _worst_node(eta_excess)
        bad.append(f"node={idx}: |eta|={pert.eta.norm()[idx]:.4g} > K_+={K.kplus.values[idx]:.4g}")
    if bad:
        raise ValueError("inadmissible perturbation profile:\n  " + "\n  ".join(bad[:5]))
    return _psw_result(cfg, lambda t: pert.F(kminus, t), pert.eta.comps)


def reduction_spec(full: PerturbationSpec, K: KField) -> PerturbationSpec:
    """The general-variant spec that reproduces a full psw spec exactly."""
    if full.variant != "full":
        raise ValueError("reduction starts from a full psw spec")
    eps = full.eps
    if full.omega_hat is None:
        eta = SelfDualField(K.grid, np.zeros((3,) + K.grid.dims))
    else:
        eta = SelfDualField(K.grid, K.kplus.values * full.omega_hat.comps)
    kmax = float(np.max(K.kminus.values))
    return PerturbationSpec(
        variant="general",
        F=lambda kminus, t: beta(t) * (kminus + eps),
        eta=eta,
        kappa=kmax + eps,
        t_switch=1.0,
        delta=eps / 2.0,
    )


# ---------------------------------------------------------------------------
# a-priori bounds


def _bound_report(
    kind: str,
    lhs: float,
    rhs: float,
    notes: dict,
    cfg: MonopoleConfig,
    K: KField,
    eps: float,
    residual: PswResidual | None,
    gate: float | None,
) -> BoundReport:
    """A bound on solutions, applicable when the residual is within the gate.

    The residual defaults to the full psw residual and the gate to 1e-6
    times a config scale; the margin is reported either way.
    """
    if residual is None:
        residual = psw_residual(cfg, PerturbationSpec("full", eps=eps), K)
    if gate is None:
        f_l2 = SQRT8 * sd_l2_norm(cfg.conn.curv_plus, cfg.metric)
        s_l2 = sd_l2_norm(sigma_map(cfg.phi), cfg.metric) if np.any(cfg.phi.comps) else 0.0
        gate = 1e-6 * max(1.0, f_l2, (K.max_norm() + eps) * s_l2)
    res_l2 = max(residual.norms["r1_l2"], residual.norms["r2_l2"])
    return BoundReport(
        kind=kind,
        lhs=lhs,
        rhs=rhs,
        applicable=bool(res_l2 <= gate),
        gate=float(gate),
        residual_l2=res_l2,
        notes=notes,
    )


def check_curvature_bound(
    cfg: MonopoleConfig,
    K: KField,
    eps: float,
    residual: PswResidual | None = None,
    gate: float | None = None,
) -> BoundReport:
    """sup-norm bound on the self-dual curvature of a near-solution.

    margin = (||K||_inf + eps)/sqrt(8) - ||F_A^+||_inf.  The bound is a
    statement about solutions, so the report is marked non-applicable
    when the residual exceeds the gate (default 1e-6 times a config
    scale); the margin is still computed for inspection.
    """
    lhs = float(np.max(cfg.conn.curv_plus.norm()))
    rhs = (K.max_norm() + eps) / SQRT8
    notes = {"K_inf": K.max_norm(), "eps": eps}
    return _bound_report("curvature-sup", lhs, rhs, notes, cfg, K, eps, residual, gate)


def check_phi_l4_bound(
    cfg: MonopoleConfig,
    K: KField,
    eps: float,
    residual: PswResidual | None = None,
    gate: float | None = None,
) -> BoundReport:
    """L4 spinor bound: integral |Phi|^4 <= 8 (1 + max K_- / eps) Vol."""
    m = cfg.metric
    phi2 = np.sum(np.abs(cfg.phi.comps) ** 2, axis=0)
    lhs = integrate(phi2**2, m)
    km = float(np.max(K.kminus.values))
    volume = integrate(1.0, m)
    rhs = 8.0 * (1.0 + km / eps) * volume
    notes = {"max_kminus": km, "eps": eps, "volume": volume}
    return _bound_report("phi-l4", lhs, rhs, notes, cfg, K, eps, residual, gate)


# ---------------------------------------------------------------------------
# curvature inequalities


def _require_closed(f_rep: TwoFormField) -> None:
    dn = float(np.max(np.abs(_d(f_rep.comps, f_rep.grid))))
    if dn > 1e-8 * (1.0 + float(np.max(np.abs(f_rep.comps)))):
        raise ValueError(f"representative is not closed: ||dF|| = {dn:.3e}")


def _harmonic_quotient(omega: SelfDualField, m: MetricField) -> float:
    """The Hodge quotient of omega; raises above 1e-6 of the chart's spectral scale."""
    tol = 1e-6 * m.grid.spectral_scale
    q = hodge_rayleigh(omega, m)
    if q > tol:
        raise ValueError(f"omega is not harmonic: quotient {q:.3e} > {tol:.3e}")
    return q


def _flux_pairing(f_rep: TwoFormField, omega: SelfDualField, m: MetricField) -> float:
    _require_closed(f_rep)
    return wedge_integral(f_rep, embed(omega, m)) / (2.0 * np.pi)


def lebrun_linear(
    omega: SelfDualField,
    m: MetricField,
    *,
    kfield: KField,
    c1: float | TwoFormField = 0.0,
) -> InequalityReport:
    """Linear curvature inequality against the Chern pairing.

    lhs = integral K |omega|/sqrt(2) and rhs = 4 pi c1.[omega], with c1
    given as a number or a closed flux representative F.  The pairing
    integral (F / 2 pi) wedge omega is metric-free, so it pairs the flux
    class with [omega] up to quadrature; exactness of the discrete d makes
    it insensitive to adding d(alpha) at stencil accuracy.
    """
    q = _harmonic_quotient(omega, m)
    lhs = integrate(kfield.k.values * omega.norm(), m) / math.sqrt(2.0)
    pairing = _flux_pairing(c1, omega, m) if isinstance(c1, TwoFormField) else float(c1)
    return InequalityReport(
        kind="lebrun-linear",
        lhs=lhs,
        rhs=4.0 * np.pi * pairing,
        lhs_formula="integral K |omega|/sqrt(2) dmu",
        rhs_formula="4 pi c1.[omega]",
        notes={"lambda": kfield.lam, "harmonic_quotient": q, "c1_dot_omega": pairing},
    )


def _c1plus_sq_from_rep(f_rep: TwoFormField, m: MetricField) -> tuple[float, dict]:
    """(c1^+)^2 via projection of the flux class onto harmonic self-duals."""
    _require_closed(f_rep)
    basis = harmonic_selfdual_basis(m)
    sd = project(TwoFormField(f_rep.grid, f_rep.comps / (2.0 * np.pi)), m)
    coeffs = [integrate(np.sum(sd.comps * h.comps, axis=0), m) for h in basis]
    c1sq = float(sum(c * c for c in coeffs))
    return c1sq, {"harmonic_coefficients": coeffs, "b_plus": len(basis)}


def lebrun_quadratic(
    kfield: KField,
    m: MetricField,
    *,
    c1plus_sq: float | None = None,
    f_rep: TwoFormField | None = None,
) -> InequalityReport:
    """Quadratic inequality 32 pi^2 (c1^+)^2 <= integral K_-^2 dmu."""
    if (c1plus_sq is None) == (f_rep is None):
        raise ValueError("pass exactly one of c1plus_sq or f_rep")
    notes = {}
    if f_rep is not None:
        c1plus_sq, notes = _c1plus_sq_from_rep(f_rep, m)
    lhs = 32.0 * np.pi**2 * float(c1plus_sq)
    rhs = integrate(kfield.kminus.values ** 2, m)
    notes["c1plus_sq"] = float(c1plus_sq)
    return InequalityReport(
        kind="lebrun-quadratic",
        lhs=lhs,
        rhs=rhs,
        lhs_formula="32 pi^2 (c1^+)^2",
        rhs_formula="integral K_-^2 dmu",
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the key inequality


def key_inequality_check(cfg: MonopoleConfig, theta: ThetaField) -> InequalityReport:
    """Gradient-side versus curvature-side of the pivotal inequality.

    lhs is the quotient numerator at sigma = sigma(Phi) (smooth modulus,
    no smoothing needed); rhs collects the curvature weight, the coupling
    to iF_A^+, and half the cubic Dirac pairing.
    """
    if cfg.curv is None:
        raise ValueError("the key inequality needs the curvature bundle")
    m = cfg.metric
    sigma = sigma_map(cfg.phi)
    comps = sigma.comps
    # the quotient's numerator, as the minimiser evaluates it
    a_comps = _apply_quadratic(comps, theta, m)
    lhs = _numerator(comps, a_comps, _comp_norm2(comps), m, 0.0)[0]

    weight = assemble_K(theta, cfg.curv, 0.0).k.values
    curv_term = -integrate(weight * np.sum(comps**2, axis=0), m)
    # integral (sqrt(8) iF_A^+, |sigma| sigma) dmu
    pair = np.sum(cfg.conn.curv_plus.comps * comps, axis=0) * sigma.norm()
    f_term = SQRT8 * integrate(pair, m)
    cubic = 0.5 * dirac_cubic_pairing(cfg.phi, cfg.conn)
    rhs = curv_term + f_term + cubic
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(
        kind="key-inequality",
        lhs=lhs,
        rhs=rhs,
        lhs_formula="||(d+d*)(s sigma)||^2 + ||nabla(c sigma)||^2 + 2||nabla|sigma|||^2",
        rhs_formula="-integral W |sigma|^2 + (sqrt8 iF+, |sigma| sigma) + cubic/2",
        notes={"scale": scale, "curvature_term": curv_term, "f_term": f_term, "cubic": cubic},
    )


# ---------------------------------------------------------------------------
# closed-form catalog


@dataclass(frozen=True)
class CatalogSurface:
    """Product of a flat 2-torus with a constant-curvature surface.

    All inequality ingredients have closed forms: R = 2 K_gauss,
    the low eigenvalue of the positive Weyl operator is R/6 for R <= 0
    and -R/12 for R >= 0 (Kaehler), the Chern pairing against the
    normalized Kaehler form is K_gauss Vol / 2 pi, and
    (c1^+)^2 = K_gauss^2 Vol / 8 pi^2.
    """

    name: str
    gauss: float
    area_sigma: float
    area_torus: float = 4.0 * np.pi**2

    @property
    def volume(self) -> float:
        return self.area_sigma * self.area_torus

    @property
    def scalar(self) -> float:
        return 2.0 * self.gauss

    @property
    def w(self) -> float:
        r = self.scalar
        return min(r / 6.0, -r / 12.0)

    @property
    def c1_dot_omega(self) -> float:
        return self.gauss * self.volume / (2.0 * np.pi)

    @property
    def c1plus_sq(self) -> float:
        return self.gauss**2 * self.volume / (8.0 * np.pi**2)


CATALOG = {
    "flat-t4": CatalogSurface("flat-t4", gauss=0.0, area_sigma=4.0 * np.pi**2),
    "t2xsigma2": CatalogSurface("t2xsigma2", gauss=-1.0, area_sigma=4.0 * np.pi),
    "t2xs2": CatalogSurface("t2xs2", gauss=1.0, area_sigma=4.0 * np.pi),
}


def _entry(entry: str) -> CatalogSurface:
    try:
        return CATALOG[entry]
    except KeyError:
        raise KeyError(f"unknown catalog surface {entry!r}; have {sorted(CATALOG)}")


def catalog_linear(entry, delta: float) -> InequalityReport:
    """Closed-form linear report; both sides are exact, no grid involved."""
    e = _entry(entry)
    lhs = _curvature_weight(e.scalar, e.w, delta) * e.volume
    rhs = 4.0 * np.pi * e.c1_dot_omega
    return InequalityReport(
        kind="catalog-linear",
        lhs=lhs,
        rhs=rhs,
        lhs_formula="((1-delta/3) R + 2 delta w) Vol",
        rhs_formula="4 pi c1.[omega] = 2 K Vol",
        notes={"surface": e.name, "delta": delta, "volume": e.volume},
    )


def catalog_quadratic(entry, delta: float = 0.0) -> InequalityReport:
    """Closed-form quadratic report at constant theta with weight delta."""
    e = _entry(entry)
    k = _curvature_weight(e.scalar, e.w, delta)
    lhs = 32.0 * np.pi**2 * e.c1plus_sq
    rhs = max(-k, 0.0) ** 2 * e.volume
    return InequalityReport(
        kind="catalog-quadratic",
        lhs=lhs,
        rhs=rhs,
        lhs_formula="32 pi^2 (c1^+)^2 = 4 K^2 Vol",
        rhs_formula="(K_delta)_-^2 Vol",
        notes={"surface": e.name, "delta": delta, "volume": e.volume},
    )


def catalog_delta_sweep(entry, deltas, kind: str = "quadratic") -> list:
    """Rows (delta, lhs, rhs, margin) over a weight sweep, including the
    over-unity weights where the quadratic bound is expected to fail on
    positive-curvature entries."""
    rows = []
    for delta in deltas:
        rep = (catalog_quadratic(entry, delta) if kind == "quadratic"
               else catalog_linear(entry, delta))
        rows.append(
            {"delta": float(delta), "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin}
        )
    return rows


# ---------------------------------------------------------------------------
# manufactured configurations


def reducible_config(m: MetricField) -> MonopoleConfig:
    """Phi = 0, A flat: the exact reducible solution when K >= 0."""
    grid = m.grid
    conn = U1Connection(grid, np.zeros((4,) + grid.dims))
    phi = SpinorField(grid, np.zeros((2,) + grid.dims, dtype=complex))
    return MonopoleConfig(conn, phi, m)


def constant_config(m: MetricField, phi0=(1.0, 0.0)) -> MonopoleConfig:
    """A = 0 with a constant spinor; Dirac residual vanishes identically."""
    grid = m.grid
    conn = U1Connection(grid, np.zeros((4,) + grid.dims))
    vals = np.broadcast_to(np.reshape(np.asarray(phi0, dtype=complex), (2, 1, 1, 1, 1)),
                           (2,) + grid.dims)
    return MonopoleConfig(conn, SpinorField(grid, vals), m)


def gauge_trick_config(m: MetricField, chi: np.ndarray, phi0=(1.0, 0.0)) -> MonopoleConfig:
    """Gauge transform of a constant pair: a = d chi, Phi = e^{-i chi} Phi0.

    The curvature vanishes exactly (dd = 0 holds discretely) and the
    Dirac residual is pure stencil error on smooth chi.
    """
    base = constant_config(m, phi0)
    conn, phi = gauge_transform(base.conn, base.phi, chi)
    return MonopoleConfig(conn, phi, m)


def rotating_config(m: MetricField, eps: float, amplitude: float = 0.9) -> MonopoleConfig:
    """A pair solving the curvature equation exactly at K = 0.

    a = alpha (sin x2 dx0 + cos x2 dx3) has |da^+| constant, and the
    spinor is built so that sigma(Phi) points along -da^+/|da^+| with
    modulus 2 sqrt(8) |da^+|/eps at every node, cancelling the residual
    to rounding.  amplitude = sup |sigma| must stay below 1 so the
    cutoff beta is inactive; alpha is derived from it.  The pair is
    periodic only if axis 2's period is a whole number of 2 pi turns
    (within the 1e-9 of `presets.evaluate_expression`).
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError("amplitude must sit in (0, 1) to keep beta inactive")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    grid = m.grid
    turns = grid.periods[2] / (2.0 * np.pi)
    if round(turns) < 1 or abs(turns - round(turns)) > 1e-9:
        raise ValueError(f"axis 2's period {grid.periods[2]:g} is not a whole number "
                         "of 2*pi turns")
    x2 = grid.mesh(2)
    alpha = amplitude * eps / 4.0  # continuum estimate; modulus is rebuilt from da below
    a = np.zeros((4,) + grid.dims)
    a[0] = alpha * np.sin(x2)
    a[3] = alpha * np.cos(x2)
    conn = U1Connection(grid, a)
    mod = SQRT8 * conn.curv_plus.norm() / eps  # |sigma| target, constant up to rounding
    phi_norm = np.sqrt(2.0 * np.sqrt(2.0) * mod)
    u = np.empty((2,) + grid.dims, dtype=complex)
    u[0] = 1.0 / np.sqrt(2.0)
    u[1] = -1j * np.exp(-1j * x2) / np.sqrt(2.0)
    phi = SpinorField(grid, phi_norm * u)
    return MonopoleConfig(conn, phi, m)
