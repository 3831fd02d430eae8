"""Correctness oracles for the benchmark's CLI reports.

Each check returns a list of problems; an empty list means the report
passed.  None of them calls the monolab code under test: the curvature
oracle is a closed form evaluated with FFT derivatives, the hodge oracle
recomputes the basis Gram matrix from the metric's own volume factor, and
the lambda oracle compares with fixed numbers.
"""

from __future__ import annotations

import numpy as np

# max-node error of R against the closed form, relative to max |R|, since
# the stencil's error grows with the input's curvature: at 16^4 and amplitude
# 0.1 it measured 0.9e-4 to 1.6e-4 of max |R| (5.3e-4 to 1.0e-3 absolute)
# over 15 seeds.
CURVATURE_REL_ERROR = 2.5e-4
WPLUS_MAX = 1e-10  # conformally flat: W+ = 0, so its lowest eigenvalue too
ORTHONORMALITY_MAX = 1e-10
B_PLUS_T4 = 3  # b+ of the 4-torus
LAMBDA_FLOOR = 0.05  # acceptance criterion c05
# lambda --dims 8 --theta coord:0 on the flat metric when this benchmark was written
LAMBDA_COORD0 = 0.9970285200830123
LAMBDA_RTOL = 1e-8
START_SPREAD = 0.10  # start values within 10% of each other


def _wavenumbers(shape):
    """Integer wavenumbers on 2*pi-periodic axes, broadcast per axis."""
    out = []
    for axis, n in enumerate(shape):
        k = np.fft.fftfreq(n, d=1.0 / n)
        view = [1] * len(shape)
        view[axis] = n
        out.append(k.reshape(view))
    return out


def conformal_scalar_curvature(f: np.ndarray) -> np.ndarray:
    """R of g = exp(2f) delta on the 2*pi-periodic 4-torus, f band-limited.

    R = exp(-2f) (-6 Lap f - 6 |grad f|^2); the derivatives are exact for a
    band-limited f sampled above its Nyquist rate.
    """
    fh = np.fft.fftn(f)
    ks = _wavenumbers(f.shape)
    grad2 = sum(np.fft.ifftn(1j * k * fh).real ** 2 for k in ks)
    lap = np.fft.ifftn(-sum(k * k for k in ks) * fh).real
    return np.exp(-2.0 * f) * (-6.0 * lap - 6.0 * grad2)


def check_curvature(report: dict, fields: dict, f: np.ndarray) -> list[str]:
    problems = []
    if report.get("command") != "curvature":
        return [f"report is for {report.get('command')!r}, not curvature"]
    exact = conformal_scalar_curvature(f)
    scale = float(np.max(np.abs(exact)))
    err = float(np.max(np.abs(fields["scalar"] - exact)))
    if not err <= CURVATURE_REL_ERROR * scale:
        problems.append(f"scalar curvature off the closed form by {err:.3e} "
                        f"(max |R| = {scale:.3g})")
    wmax = float(np.max(np.abs(fields["w"])))
    if not wmax <= WPLUS_MAX:
        problems.append(f"max |w| = {wmax:.3e} on a conformally flat metric")
    return problems


def check_hodge(report: dict, fields: dict, vol: np.ndarray, cell_volume: float) -> list[str]:
    problems = []
    out = report.get("outputs", {})
    if out.get("b_plus") != B_PLUS_T4:
        problems.append(f"b_plus = {out.get('b_plus')}, the 4-torus has {B_PLUS_T4}")
    if not out.get("orthonormality_error", np.inf) <= ORTHONORMALITY_MAX:
        problems.append(f"reported orthonormality error {out.get('orthonormality_error')}")
    basis = [fields[k] for k in sorted(fields)]
    if len(basis) != out.get("b_plus"):
        problems.append(f"dump holds {len(basis)} forms, report says {out.get('b_plus')}")
    elif basis:
        w = vol * cell_volume
        gram = np.array([[np.sum(np.sum(a * b, axis=-1) * w) for b in basis] for a in basis])
        err = float(np.max(np.abs(gram - np.eye(len(basis)))))
        if not err <= ORTHONORMALITY_MAX:
            problems.append(f"dumped basis is off orthonormal by {err:.3e}")
    return problems


def check_lambda(report: dict) -> list[str]:
    problems = []
    out = report.get("outputs", {})
    lam = out.get("lambda")
    if not isinstance(lam, float):
        return [f"no lambda in the report ({lam!r})"]
    if not lam >= LAMBDA_FLOOR:
        problems.append(f"lambda = {lam!r} below the {LAMBDA_FLOOR} threshold")
    if not abs(lam - LAMBDA_COORD0) <= LAMBDA_RTOL * LAMBDA_COORD0:
        problems.append(f"lambda = {lam!r}, expected {LAMBDA_COORD0!r}")
    if out.get("converged") is not True:
        problems.append("minimiser did not converge")
    starts = out.get("start_values") or []
    if not starts or max(starts) - min(starts) > START_SPREAD * max(starts):
        problems.append(f"start values not within {START_SPREAD:.0%}: {starts}")
    return problems
