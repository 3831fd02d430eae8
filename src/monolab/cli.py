"""Command-line front door.

Every subcommand builds its geometry from presets, runs one family of
checks, and emits a schema-versioned JSON report (stdout or --out).  A
JSON config file passed with --config overrides command-line flags, so a
saved config always reproduces the run it came from regardless of what
was typed next to it.  Exit codes: 0 success, 1 invariant-gate or
numerical failure, 2 config/parse errors.

Timing goes to stderr only; reports are byte-identical for identical
config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .curvature import curvature_stack
from .functionals import (
    CATALOG,
    MonopoleConfig,
    PerturbationSpec,
    catalog_delta_sweep,
    catalog_linear,
    catalog_quadratic,
    check_curvature_bound,
    check_phi_l4_bound,
    constant_config,
    gauge_trick_config,
    lebrun_linear,
    lebrun_quadratic,
    psw_residual,
    reducible_config,
    rotating_config,
)
from .grid import GridSpec
from .io import save_fields
from .presets import (
    PresetError,
    metric_from_preset,
    random_smooth_scalar,
    scalar_from_expression,
    theta_from_preset,
)
from .rayleigh import LambdaOptions, assemble_K, minimize_lambda
from .report import Timer, make_report, render_report
from .selfdual import (
    SelfDualField,
    harmonic_selfdual_basis,
    integral_identity_check_c,
    integral_identity_check_s,
    weitzenboeck_residual,
)
from .spinc import (
    CliffordModel,
    SpinorField,
    U1Connection,
    dirac_weitzenboeck_check,
    log_kato_check,
    sigma_map,
)

__all__ = ["main"]


def _apply_thread_env() -> None:
    n = os.environ.get("MONOLAB_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


def _parse_dims(value, flag: str = "--dims") -> tuple:
    # flags arrive as "N" or "N0,N1,N2,N3"; replayed configs as int or list
    if isinstance(value, str):
        try:
            vals = [int(p) for p in value.split(",") if p]
        except ValueError:
            raise PresetError(f"{flag} needs integers, got {value!r}")
    elif isinstance(value, (list, tuple)):
        vals = list(value)
    else:
        vals = [value]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
        raise PresetError(f"{flag} needs integers, got {value!r}")
    if len(vals) == 1:
        vals = vals * 4
    if len(vals) != 4:
        raise PresetError(f"{flag} needs 1 or 4 integers, got {value!r}")
    if any(v < 7 for v in vals):
        # the 7-point stencil wraps onto itself on shorter axes
        raise PresetError(f"{flag} needs at least 7 nodes per axis, got {value!r}")
    return tuple(vals)


def _parse_periods(value) -> tuple:
    try:
        if isinstance(value, str):
            vals = [float(p) for p in value.split(",") if p]
        elif isinstance(value, (list, tuple)):
            vals = [float(v) for v in value]
        else:
            vals = [float(value)]
    except (TypeError, ValueError):
        raise PresetError(f"--periods needs numbers, got {value!r}")
    if len(vals) == 1:
        vals = vals * 4
    if len(vals) != 4 or any(v <= 0 for v in vals):
        raise PresetError("--periods needs 1 or 4 positive lengths")
    return tuple(vals)


def _add_common(sub):
    sub.add_argument("--dims", default="8", help="grid nodes per axis (N or N0,N1,N2,N3)")
    sub.add_argument("--periods", default=None, help="box lengths (default 2*pi each)")
    sub.add_argument("--metric", default="flat", help="flat | conformal:EXPR | kaehler-product:EXPR | file:PATH")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="report path (default stdout)")
    sub.add_argument("--dump", default=None, help="optional field-container output")
    sub.add_argument("--config", default=None, help="JSON config file; its keys override flags")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="monolab", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("curvature", help="curvature fields of a preset metric")
    _add_common(s)

    s = subs.add_parser("hodge", help="harmonic self-dual basis of a preset metric")
    _add_common(s)

    s = subs.add_parser("dirac-check", help="spinor identities on a random smooth pair")
    _add_common(s)
    s.add_argument("--amplitude", type=float, default=0.3)

    s = subs.add_parser("lambda", help="minimize the spectral quotient")
    _add_common(s)
    s.add_argument("--theta", default="const:0", help="const:VALUE | coord:AXIS | file:PATH")
    s.add_argument("--multistarts", type=int, default=8, help="random starts beyond the 3 constants")
    s.add_argument("--max-iter", type=int, default=150)
    s.add_argument("--tol", type=float, default=1e-9)

    s = subs.add_parser("psw-residual", help="residual of a manufactured monopole pair")
    _add_common(s)
    s.add_argument("--theta", default="const:0")
    s.add_argument("--eps", type=float, default=0.5)
    s.add_argument("--variant", choices=("simple", "full"), default="full")
    s.add_argument("--pair", choices=("reducible", "constant", "gauge", "rotating"), default="rotating")
    s.add_argument("--chi", default="0.3*sin(x0)", help="gauge function for --pair gauge")
    s.add_argument("--amplitude", type=float, default=0.9, help="sup |sigma| for --pair rotating")
    s.add_argument("--lambda-value", type=float, default=0.0, help="lambda folded into K")

    s = subs.add_parser("bounds", help="a-priori bound margins for a manufactured pair")
    _add_common(s)
    s.add_argument("--theta", default="const:0")
    s.add_argument("--eps", type=float, default=0.5)
    s.add_argument("--pair", choices=("reducible", "constant", "gauge", "rotating"), default="rotating")
    s.add_argument("--chi", default="0.3*sin(x0)")
    s.add_argument("--amplitude", type=float, default=0.9)
    s.add_argument("--lambda-value", type=float, default=0.0)
    s.add_argument("--gate", default=None, help="residual gate (number, or 'off')")

    s = subs.add_parser("lebrun", help="curvature inequalities, grid or catalog mode")
    _add_common(s)
    s.add_argument("--catalog", default=None, help=f"closed-form mode: one of {sorted(CATALOG)}")
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--sweep-delta", default=None, help="comma list of weights for a margin sweep")
    s.add_argument("--sweep-kind", choices=("linear", "quadratic"), default="quadratic")
    s.add_argument("--theta", default="const:0")
    s.add_argument("--lambda-value", type=float, default=0.0)
    s.add_argument("--c1", type=float, default=0.0, help="Chern pairing c1.[omega]")
    s.add_argument("--c1plus-sq", type=float, default=0.0, help="(c1^+)^2 for the quadratic report")
    s.add_argument("--omega-index", type=int, default=0, help="harmonic basis vector used as omega")
    s.add_argument("--csv", default=None, help="write sweep rows as CSV")

    s = subs.add_parser("sweep", help="refinement sweep of one residual check")
    _add_common(s)
    s.add_argument("--check", choices=("weitzenboeck", "dirac", "identity-s", "identity-c"),
                   default="weitzenboeck")
    s.add_argument("--dims-list", default="8,16", help="comma list of grid sizes")
    s.add_argument("--theta", default="const:0.3")
    s.add_argument("--amplitude", type=float, default=0.3)
    s.add_argument("--csv", default=None, help="write sweep rows as CSV")
    return p


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Config file keys override flags (saved configs beat typed flags).

    A value passes its option's argparse `type` and `choices` as the same
    text typed after the flag would, so a bad value is a config error.
    """
    if not args.config:
        return
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PresetError(f"{args.config}: config must be a JSON object")
    # argparse keeps a subcommand's option actions in private attributes only
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[args.command]._actions}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise PresetError(f"{args.config}: unknown config key {key!r}")
        try:
            if action.type is not None:
                value = action.type(str(value))
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except ValueError:
            raise PresetError(f"{args.config}: bad value {value!r} for {key!r}") from None
        setattr(args, action.dest, value)


def _geometry(args):
    dims = _parse_dims(args.dims)
    periods = _parse_periods(args.periods) if args.periods else (2.0 * np.pi,) * 4
    grid = GridSpec(dims, periods)
    m = metric_from_preset(args.metric, grid)
    return grid, m


def _base_config(args, **extra) -> dict:
    cfg = {
        "dims": list(_parse_dims(args.dims)),
        "periods": list(_parse_periods(args.periods)) if args.periods else [2.0 * np.pi] * 4,
        "metric": args.metric,
        "seed": args.seed,
    }
    cfg.update(extra)
    return cfg


def _random_pair(grid, seed, amplitude):
    rng = np.random.default_rng(seed)
    a = np.stack([random_smooth_scalar(grid, rng, 1, amplitude) for _ in range(4)], axis=-1)
    phi = np.empty(grid.dims + (2,), dtype=complex)
    phi[..., 0] = 1.0 + random_smooth_scalar(grid, rng, 1, amplitude) \
        + 1j * random_smooth_scalar(grid, rng, 1, amplitude)
    phi[..., 1] = 0.4 + random_smooth_scalar(grid, rng, 1, amplitude) \
        + 1j * random_smooth_scalar(grid, rng, 1, amplitude)
    return U1Connection(grid, a), SpinorField(grid, phi)


def _manufactured(args, m, curv):
    if args.pair == "reducible":
        base = reducible_config(m)
    elif args.pair == "constant":
        base = constant_config(m)
    elif args.pair == "gauge":
        chi = scalar_from_expression(args.chi, m.grid)
        base = gauge_trick_config(m, chi, (0.5, 0.0))
    else:
        base = rotating_config(m, args.eps, args.amplitude)
    return MonopoleConfig(base.conn, base.phi, m, curv=curv)


def _summary(values: np.ndarray) -> dict:
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_curvature(args):
    grid, m = _geometry(args)
    with Timer("curvature"):
        curv = curvature_stack(m)
    vol = float(np.sum(m.vol) * grid.cell_volume)
    outputs = {
        "scalar": _summary(curv.scalar.values),
        "w": _summary(curv.w.values),
        "volume": vol,
        "integral_scalar": float(np.sum(curv.scalar.values * m.vol) * grid.cell_volume),
    }
    if args.dump:
        save_fields(args.dump, grid, {"scalar": curv.scalar.values, "w": curv.w.values})
    return _base_config(args), outputs


def _run_hodge(args):
    grid, m = _geometry(args)
    with Timer("hodge"):
        curv = curvature_stack(m)
        basis = harmonic_selfdual_basis(m)
    gram = np.array([
        [float(np.sum(np.sum(a.comps * b.comps, -1) * m.vol) * grid.cell_volume) for b in basis]
        for a in basis
    ])
    rng = np.random.default_rng(args.seed)
    comps = np.stack([random_smooth_scalar(grid, rng, 1, 0.3) for _ in range(3)], axis=-1)
    sigma = SelfDualField(grid, comps + np.array([1.0, 0.0, 0.0]))
    outputs = {
        "b_plus": len(basis),
        "orthonormality_error": float(np.max(np.abs(gram - np.eye(len(basis))))),
        "weitzenboeck_residual": weitzenboeck_residual(sigma, m, curv),
    }
    if args.dump and basis:
        save_fields(args.dump, grid,
                    {f"h{i}": b.comps for i, b in enumerate(basis)})
    return _base_config(args), outputs


def _run_dirac_check(args):
    grid, m = _geometry(args)
    conn, phi = _random_pair(grid, args.seed, args.amplitude)
    with Timer("dirac-check"):
        lhs, rhs, residual = dirac_weitzenboeck_check(phi, conn, m)
        kato = log_kato_check(phi, conn, floor=0.2, m=m)
        model = CliffordModel()
        ident = {k: float(v) for k, v in model.identity_residuals().items()}
        sig = sigma_map(phi)
        sig_err = float(np.max(np.abs(np.sum(sig.comps**2, -1) - phi.norm2() ** 2 / 8.0)))
    outputs = {
        "weitzenboeck": {"lhs": lhs, "rhs": rhs, "residual": residual},
        "log_kato_min_margin": kato,
        "clifford_identity_residuals": ident,
        "sigma_norm_identity_error": sig_err,
    }
    return _base_config(args, amplitude=args.amplitude), outputs


def _run_lambda(args):
    grid, m = _geometry(args)
    theta = theta_from_preset(args.theta, m)
    curv = curvature_stack(m)
    opts = LambdaOptions(
        n_random=args.multistarts, max_iter=args.max_iter, tol=args.tol, seed=args.seed
    )
    with Timer("lambda"):
        res = minimize_lambda(theta, m, curv, opts)
    outputs = {
        "lambda": res.lam,
        "epsilon_final": res.epsilon_final,
        "converged": res.converged,
        "start_values": list(res.start_values),
        "iterations": len(res.quotient_history),
        "final_quotients": list(res.quotient_history[-5:]),
    }
    if args.dump:
        save_fields(args.dump, grid, {"minimizer": res.minimizer.comps})
    return _base_config(args, theta=args.theta, multistarts=args.multistarts,
                        max_iter=args.max_iter, tol=args.tol), outputs


def _run_psw(args):
    grid, m = _geometry(args)
    curv = curvature_stack(m)
    theta = theta_from_preset(args.theta, m)
    K = assemble_K(theta, curv, args.lambda_value)
    cfg = _manufactured(args, m, curv)
    pert = PerturbationSpec(args.variant, eps=args.eps)
    with Timer("psw-residual"):
        res = psw_residual(cfg, pert, K)
    outputs = {
        "norms": res.norms,
        "K": {"max": K.max_norm(), "max_kminus": float(np.max(K.kminus.values))},
        "sigma_sup": float(np.max(sigma_map(cfg.phi).norm())),
    }
    if args.dump:
        save_fields(args.dump, grid, {"r2": res.r2.comps})
    return _base_config(args, theta=args.theta, eps=args.eps, variant=args.variant,
                        pair=args.pair, chi=args.chi, amplitude=args.amplitude,
                        lambda_value=args.lambda_value), outputs


def _run_bounds(args):
    grid, m = _geometry(args)
    curv = curvature_stack(m)
    theta = theta_from_preset(args.theta, m)
    K = assemble_K(theta, curv, args.lambda_value)
    cfg = _manufactured(args, m, curv)
    gate = None
    if args.gate is not None:
        gate = np.inf if str(args.gate) == "off" else float(args.gate)
    with Timer("bounds"):
        res = psw_residual(cfg, PerturbationSpec("full", eps=args.eps), K)
        b1 = check_curvature_bound(cfg, K, args.eps, residual=res, gate=gate)
        b2 = check_phi_l4_bound(cfg, K, args.eps, residual=res, gate=gate)
    outputs = {"curvature_bound": asdict(b1), "phi_l4_bound": asdict(b2)}
    return _base_config(args, theta=args.theta, eps=args.eps, pair=args.pair,
                        chi=args.chi, amplitude=args.amplitude,
                        lambda_value=args.lambda_value,
                        gate=(None if gate is None else float(gate))), outputs


def _write_csv(path, rows, fieldnames):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.12e}" if isinstance(v, float) else v
                             for k, v in row.items()})


def _run_lebrun(args):
    if args.catalog is not None:
        entry = args.catalog
        lin = catalog_linear(entry, args.delta)
        quad = catalog_quadratic(entry, args.delta)
        outputs = {"linear": asdict(lin), "quadratic": asdict(quad)}
        if args.sweep_delta:
            deltas = [float(x) for x in args.sweep_delta.split(",") if x]
            rows = catalog_delta_sweep(entry, deltas, kind=args.sweep_kind)
            outputs["sweep"] = rows
            if args.csv:
                _write_csv(args.csv, rows, ["delta", "lhs", "rhs", "margin"])
        return {"catalog": entry, "delta": args.delta, "sweep_kind": args.sweep_kind}, outputs

    grid, m = _geometry(args)
    curv = curvature_stack(m)
    theta = theta_from_preset(args.theta, m)
    K = assemble_K(theta, curv, args.lambda_value)
    with Timer("lebrun"):
        basis = harmonic_selfdual_basis(m)
        if not 0 <= args.omega_index < len(basis):
            raise ValueError(f"omega index {args.omega_index} out of range (b+ = {len(basis)})")
        omega = basis[args.omega_index]
        lin = lebrun_linear(omega, m, kfield=K, c1=args.c1)
        quad = lebrun_quadratic(K, m, c1plus_sq=args.c1plus_sq)
    outputs = {"linear": asdict(lin), "quadratic": asdict(quad), "b_plus": len(basis)}
    return _base_config(args, theta=args.theta, lambda_value=args.lambda_value,
                        c1=args.c1, c1plus_sq=args.c1plus_sq,
                        omega_index=args.omega_index), outputs


def _sweep_residual(args, n: int) -> float:
    grid = GridSpec((n,) * 4)
    m = metric_from_preset(args.metric, grid)
    if args.check == "weitzenboeck":
        curv = curvature_stack(m)
        rng = np.random.default_rng(args.seed)
        comps = np.stack([random_smooth_scalar(grid, rng, 1, args.amplitude)
                          for _ in range(3)], axis=-1)
        sigma = SelfDualField(grid, comps + np.array([1.0, 0.2, 0.0]))
        return weitzenboeck_residual(sigma, m, curv)
    if args.check == "dirac":
        conn, phi = _random_pair(grid, args.seed, args.amplitude)
        return dirac_weitzenboeck_check(phi, conn, m)[2]
    theta = theta_from_preset(args.theta, m)
    rng = np.random.default_rng(args.seed)
    comps = np.stack([random_smooth_scalar(grid, rng, 1, args.amplitude)
                      for _ in range(3)], axis=-1)
    sigma = SelfDualField(grid, comps + np.array([1.0, 0.2, 0.0]))
    if args.check == "identity-s":
        lhs, rhs = integral_identity_check_s(sigma, theta, m, curvature_stack(m))
    else:
        lhs, rhs = integral_identity_check_c(sigma, theta, m)
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _run_sweep(args):
    raw = args.dims_list  # comma text from the flag, a list from a config
    text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
    sizes = [_parse_dims(n, "--dims-list")[0] for n in text.split(",") if n]
    if len(sizes) < 2:
        raise PresetError("--dims-list needs at least two sizes")
    rows = []
    with Timer("sweep"):
        for n in sizes:
            rows.append({"n": n, "residual": _sweep_residual(args, n)})
    orders = []
    for a, b in zip(rows, rows[1:]):
        num = np.log(a["residual"] / b["residual"]) if b["residual"] > 0 else np.inf
        orders.append(float(num / np.log(b["n"] / a["n"])))
    outputs = {"rows": rows, "observed_orders": orders}
    if args.csv:
        _write_csv(args.csv, rows, ["n", "residual"])
    return {"check": args.check, "dims_list": sizes, "metric": args.metric,
            "theta": args.theta, "seed": args.seed, "amplitude": args.amplitude}, outputs


_RUNNERS = {
    "curvature": _run_curvature,
    "hodge": _run_hodge,
    "dirac-check": _run_dirac_check,
    "lambda": _run_lambda,
    "psw-residual": _run_psw,
    "bounds": _run_bounds,
    "lebrun": _run_lebrun,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    _apply_thread_env()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        config, outputs = _RUNNERS[args.command](args)
    except (PresetError, OSError, json.JSONDecodeError) as exc:
        print(f"monolab: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"monolab: check failed: {exc}", file=sys.stderr)
        return 1
    report = make_report(args.command, config, outputs)
    text = render_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
