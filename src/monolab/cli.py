"""Command-line front door.

Every subcommand but `catalog`, whose surfaces have closed forms, builds
its geometry from presets; each runs one family of checks and emits a
schema-versioned JSON report (stdout or --out).  A JSON config file
passed with --config overrides command-line flags, so a saved config
always reproduces the run it came from regardless of what was typed
next to it.  An option is a value the code cannot work out itself:
`lebrun` takes no lambda, but folds into its curvature weight the lambda
that the minimiser finds for its own metric and theta, and reports that
search as `lambda` reports it.  One option table, `_COMMANDS`, drives
argparse, the parsing of flag and config values and the config block
each report records.  Every real-valued option is read by one rule,
`_number`, in a finite range of its own.  Exit codes: 0 success,
1 invariant-gate or numerical failure, 2 config/parse errors.

Importing this module loads only what the parser and the geometry need
(grid, curvature, io, presets and report).  Each subcommand imports the
other layers it runs (selfdual, rayleigh, spinc, functionals) when it
runs, so a process loads no layer its command does not call.

Timing goes to stderr only, and includes loading the command's layers;
reports are byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .curvature import curvature_stack
from .grid import GridSpec, integrate
from .io import _node_major, save_fields
from .presets import (
    PresetError,
    metric_from_preset,
    random_smooth_scalar,
    scalar_from_expression,
    theta_from_preset,
)
from .report import make_report, render_report

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option parsers: each takes the text typed after a flag or the JSON value a
# saved config holds, and raises ValueError saying what the option needs


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("needs text")
    return value


def _int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(_text(value))
    except ValueError:
        raise ValueError("needs an integer") from None


def _nonnegative_int(value) -> int:
    n = _int(value)
    if n < 0:
        raise ValueError("needs a non-negative integer")
    return n


def _number(interval: str):
    """A parser for the real numbers in interval, written as in mathematics:
    "(0, 1e20]" takes 0 < x <= 1e20.  Every interval is finite, so NaN and
    the infinities are refused with the rest."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def parse(value) -> float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            x = float(value if number else _text(value))
        except (ValueError, OverflowError):
            raise ValueError("needs a number") from None
        above_low = low < x if interval[0] == "(" else low <= x
        below_high = x < high if interval[-1] == ")" else x <= high
        if not (above_low and below_high):
            raise ValueError(f"needs a number in {interval}")
        return x
    return parse


# the checks take powers of these numbers: the integrands grow like up to
# amplitude^6 (they overflowed between 1e50 and 1e60 at 8^4), catalog's
# quadratic side squares a weight linear in delta (it overflowed at 1e200),
# --c1, --c1plus-sq and --eps left sides that are not finite at 1e300 or
# above, and --lambda-value a K whose report is not finite at 1e308; each
# ran clean at 1e20
_REAL = _number("[-1e20, 1e20]")
_NONNEGATIVE = _number("[0, 1e20]")
# the lambda quotient's integrands at unit norm scale like L^-6: in this
# range they and their squares stay far inside the float range
_LENGTH = _number("[1e-20, 1e20]")


def _choice(*choices):
    def parse(value):
        if value not in choices:
            raise ValueError(f"needs one of {', '.join(choices)}")
        return value
    parse.metavar = "{" + ",".join(choices) + "}"
    return parse


def _items(value) -> list:
    """Comma-separated flag text, or a saved config's list or single value."""
    if isinstance(value, str):
        return [p for p in value.split(",") if p]
    return value if isinstance(value, list) else [value]


def _size(value) -> int:
    n = _int(value)
    if n < 7:
        # the 7-point stencil wraps onto itself on shorter axes
        raise ValueError("needs at least 7 nodes per axis")
    return n


def _dims(value) -> tuple:
    vals = [_size(v) for v in _items(value)]
    if len(vals) == 1:
        vals = vals * 4
    if len(vals) != 4:
        raise ValueError("needs 1 or 4 integers")
    return tuple(vals)


def _periods(value) -> tuple:
    vals = [_LENGTH(v) for v in _items(value)]
    if len(vals) == 1:
        vals = vals * 4
    if len(vals) != 4:
        raise ValueError("needs 1 or 4 lengths")
    return tuple(vals)


def _dims_list(value) -> list:
    sizes = [_size(v) for v in _items(value)]
    if len(sizes) < 2:
        raise ValueError("needs at least two sizes")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        # an observed order divides by log(n1 / n0)
        raise ValueError("needs strictly increasing sizes")
    return sizes


def _deltas(value) -> list:
    return [_REAL(v) for v in _items(value)]


def _gate(value) -> float | str | None:
    # null keeps the default gate; "off" is recorded as itself (JSON has no inf)
    return value if value in (None, "off") else _NONNEGATIVE(value)


def _omega_index(value) -> int:
    from .selfdual import B_PLUS

    # harmonic_selfdual_basis returns exactly B_PLUS forms
    index = _int(value)
    if not 0 <= index < B_PLUS:
        raise ValueError(f"needs an index below b+ = {B_PLUS}")
    return index


@dataclass(frozen=True)
class _Option:
    parse: Callable  # flag text or saved-config value -> value
    default: object = None
    help: str | None = None
    record: bool = True  # the report's config block records it


_GRID = {
    "dims": _Option(_dims, (8,) * 4, "grid nodes per axis (N or N0,N1,N2,N3)"),
    "periods": _Option(_periods, (2.0 * np.pi,) * 4, "box lengths (default 2*pi each)"),
}
_IO = {
    "out": _Option(_text, None, "report path (default stdout)", False),
    "config": _Option(_text, None, "JSON config file; its keys override flags", False),
}
_COMMON = {
    "metric": _Option(_text, "flat", "flat | conformal:EXPR | kaehler-product:EXPR | file:PATH"),
    **_IO,
}
# only the commands that draw random fields take --seed
_SEED = {"seed": _Option(_nonnegative_int, 0)}
# only the commands that write a field container take --dump
_DUMP = {"dump": _Option(_text, None, "optional field-container output", False)}
_THETA = _Option(_text, "const:0", "const:VALUE | coord:AXIS | file:PATH")
_CSV = _Option(_text, None, "write sweep rows as CSV", False)
_AMPLITUDE = _Option(_REAL, 0.3)
# the manufactured pair shared by psw-residual and bounds
_PAIR = {
    "theta": _THETA,
    "eps": _Option(_number("(0, 1e20]"), 0.5),
    "pair": _Option(_choice("reducible", "constant", "gauge", "rotating"), "rotating"),
    "chi": _Option(_text, "0.3*sin(x0)", "gauge function for --pair gauge"),
    "amplitude": _Option(_number("(0, 1)"), 0.9, "sup |sigma| for --pair rotating"),
    "lambda_value": _Option(_NONNEGATIVE, 0.0, "lambda folded into K"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse(options: dict, name: str, value, where: str = ""):
    try:
        return options[name].parse(value)
    except ValueError as exc:
        raise PresetError(f"{where}{_flag(name)} {exc}, got {value!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors (exit 2 through SystemExit) that
    takes a negative number in exponent form (-1e-3) as a flag's value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(2, f"monolab: config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # values stay text here; _resolve parses flags and config values alike.
    # No abbreviations: sweep's --dims-list must not answer to --dims.
    p = _Parser(prog="monolab", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in _COMMANDS.items():
        s = subs.add_parser(command, help=help_text, allow_abbrev=False)
        for name, opt in options.items():
            s.add_argument(_flag(name), dest=name, default=argparse.SUPPRESS, help=opt.help,
                           metavar=getattr(opt.parse, "metavar", None))
    return p


def _resolve(flags: argparse.Namespace) -> argparse.Namespace:
    """Option values: defaults, overridden by flags, overridden by --config keys.

    Config files beat typed flags, so a saved config replays its run.
    """
    options = _COMMANDS[flags.command][2]
    args = argparse.Namespace(command=flags.command,
                              **{name: opt.default for name, opt in options.items()})
    for name, text in vars(flags).items():
        if name != "command":
            setattr(args, name, _parse(options, name, text))
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise PresetError(f"{args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise PresetError(f"{args.config}: config must be a JSON object")
    where = f"{args.config}: "
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in options:
            raise PresetError(f"{where}unknown config key {key!r}")
        setattr(args, name, _parse(options, name, value, where))
    return args


def _recorded(args: argparse.Namespace) -> dict:
    """The report's config block: the options the command records."""
    return {name: getattr(args, name)
            for name, opt in _COMMANDS[args.command][2].items() if opt.record}


def _geometry(args):
    grid = GridSpec(args.dims, args.periods)
    return grid, metric_from_preset(args.metric, grid)


def _require_flat_metric(args, m) -> None:
    """Refuse a curved metric as input, before a spin^c command's work starts."""
    if not m.is_flat:
        raise PresetError(f"--metric {args.metric!r}: spin^c operators are implemented "
                          "on flat charts only")


def _random_pair(grid, seed, amplitude):
    from .spinc import SpinorField, U1Connection

    rng = np.random.default_rng(seed)
    a = np.stack([random_smooth_scalar(grid, rng, 1, amplitude) for _ in range(4)])
    phi = np.empty((2,) + grid.dims, dtype=complex)
    phi[0] = 1.0 + random_smooth_scalar(grid, rng, 1, amplitude) \
        + 1j * random_smooth_scalar(grid, rng, 1, amplitude)
    phi[1] = 0.4 + random_smooth_scalar(grid, rng, 1, amplitude) \
        + 1j * random_smooth_scalar(grid, rng, 1, amplitude)
    return U1Connection(grid, a), SpinorField(grid, phi)


def _random_selfdual(grid, seed, amplitude, offset):
    from .selfdual import SelfDualField

    rng = np.random.default_rng(seed)
    comps = np.stack([random_smooth_scalar(grid, rng, 1, amplitude) + o for o in offset])
    return SelfDualField(grid, comps)


def _weight(m, theta, lam):
    """Curvature and the curvature weight K of theta and lam."""
    from .rayleigh import assemble_K

    curv = curvature_stack(m)
    return curv, assemble_K(theta, curv, lam)


def _manufactured(args, m, curv):
    from .functionals import (
        MonopoleConfig,
        constant_config,
        gauge_trick_config,
        reducible_config,
        rotating_config,
    )

    if args.pair == "reducible":
        base = reducible_config(m)
    elif args.pair == "constant":
        base = constant_config(m)
    elif args.pair == "gauge":
        chi = scalar_from_expression(args.chi, m.grid)
        base = gauge_trick_config(m, chi, (0.5, 0.0))
    else:
        try:
            base = rotating_config(m, args.eps, args.amplitude)
        except ValueError as exc:  # --eps and --amplitude are parsed in range
            raise PresetError(f"--periods: {exc}") from None
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
    curv = curvature_stack(m)
    outputs = {
        "scalar": _summary(curv.scalar.values),
        "w": _summary(curv.w.values),
        "volume": integrate(1.0, m),
        "integral_scalar": integrate(curv.scalar.values, m),
    }
    if args.dump:
        save_fields(args.dump, grid, {"scalar": curv.scalar.values, "w": curv.w.values})
    return outputs


def _run_hodge(args):
    from .selfdual import harmonic_selfdual_basis, weitzenboeck_residual

    grid, m = _geometry(args)
    curv = curvature_stack(m)
    basis = harmonic_selfdual_basis(m)
    gram = np.array([[integrate(np.sum(a.comps * b.comps, 0), m) for b in basis]
                     for a in basis])
    sigma = _random_selfdual(grid, args.seed, 0.3, [1.0, 0.0, 0.0])
    outputs = {
        "b_plus": len(basis),
        "orthonormality_error": float(np.max(np.abs(gram - np.eye(len(basis))))),
        "weitzenboeck_residual": weitzenboeck_residual(sigma, m, curv),
        "harmonic_solve": basis.solve,
    }
    if args.dump:
        save_fields(args.dump, grid,
                    {f"h{i}": _node_major(b.comps) for i, b in enumerate(basis)})
    return outputs


def _run_dirac_check(args):
    from .spinc import CliffordModel, dirac_weitzenboeck_check, log_kato_check, sigma_map

    grid, m = _geometry(args)
    _require_flat_metric(args, m)
    conn, phi = _random_pair(grid, args.seed, args.amplitude)
    lhs, rhs, residual = dirac_weitzenboeck_check(phi, conn)
    kato = log_kato_check(phi, conn)
    model = CliffordModel()
    ident = {k: float(v) for k, v in model.identity_residuals().items()}
    sig = sigma_map(phi)
    sig_err = float(np.max(np.abs(np.sum(sig.comps**2, 0) - phi.norm2() ** 2 / 8.0)))
    return {
        "weitzenboeck": {"lhs": lhs, "rhs": rhs, "residual": residual},
        "log_kato_min_margin": kato,
        "clifford_identity_residuals": ident,
        "sigma_norm_identity_error": sig_err,
    }


def _run_lambda(args):
    from .rayleigh import LambdaOptions, minimize_lambda

    grid, m = _geometry(args)
    theta = theta_from_preset(args.theta, m)
    opts = LambdaOptions(n_random=args.multistarts, max_iter=args.max_iter, seed=args.seed)
    res = minimize_lambda(theta, m, opts)
    outputs = _lambda_record(res)
    if args.dump:
        save_fields(args.dump, grid, {"minimizer": _node_major(res.minimizer.comps)})
    return outputs


def _lambda_record(res) -> dict:
    """The minimiser's lambda and its convergence record."""
    return {
        "lambda": res.lam,
        "epsilon_final": res.epsilon_final,
        "converged": res.converged,
        "start_values": list(res.start_values),
        "iterations": len(res.quotient_history),
        "final_quotients": list(res.quotient_history[-5:]),
        "quotient_evals": res.quotient_evals,
        "start_evals": list(res.start_evals),
        "start_converged": list(res.start_converged),
        "start_gpg": list(res.start_gpg),
        "start_backtracks": list(res.start_backtracks),
        "operator_applies": res.operator_applies,
    }


def _run_psw(args):
    from .functionals import PerturbationSpec, psw_residual
    from .spinc import sigma_map

    grid, m = _geometry(args)
    _require_flat_metric(args, m)
    curv, K = _weight(m, theta_from_preset(args.theta, m), args.lambda_value)
    cfg = _manufactured(args, m, curv)
    pert = PerturbationSpec(args.variant, eps=args.eps)
    res = psw_residual(cfg, pert, K)
    outputs = {
        "norms": res.norms,
        "K": {"max": K.max_norm(), "max_kminus": float(np.max(K.kminus.values))},
        "sigma_sup": float(np.max(sigma_map(cfg.phi).norm())),
    }
    if args.dump:
        save_fields(args.dump, grid, {"r2": _node_major(res.r2.comps)})
    return outputs


def _run_bounds(args):
    from .functionals import (
        PerturbationSpec,
        check_curvature_bound,
        check_phi_l4_bound,
        psw_residual,
    )

    _, m = _geometry(args)
    _require_flat_metric(args, m)
    curv, K = _weight(m, theta_from_preset(args.theta, m), args.lambda_value)
    cfg = _manufactured(args, m, curv)
    off = args.gate == "off"
    gate = np.inf if off else args.gate
    res = psw_residual(cfg, PerturbationSpec("full", eps=args.eps), K)
    b1 = check_curvature_bound(cfg, K, args.eps, residual=res, gate=gate)
    b2 = check_phi_l4_bound(cfg, K, args.eps, residual=res, gate=gate)
    # the open gate is reported as "off", as the config records it
    return {name: dict(asdict(b), gate="off") if off else asdict(b)
            for name, b in (("curvature_bound", b1), ("phi_l4_bound", b2))}


def _write_csv(path, rows, fieldnames):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.12e}" if isinstance(v, float) else v
                             for k, v in row.items()})


def _run_catalog(args):
    from .functionals import catalog_delta_sweep, catalog_linear, catalog_quadratic

    if args.csv and not args.sweep_delta:
        raise PresetError("--csv needs --sweep-delta")
    entry = args.surface
    lin = catalog_linear(entry, args.delta)
    quad = catalog_quadratic(entry, args.delta)
    outputs = {"linear": asdict(lin), "quadratic": asdict(quad)}
    if args.sweep_delta:
        rows = catalog_delta_sweep(entry, args.sweep_delta, kind=args.sweep_kind)
        outputs["sweep"] = rows
        if args.csv:
            _write_csv(args.csv, rows, ["delta", "lhs", "rhs", "margin"])
    return outputs


def _run_lebrun(args):
    from .functionals import lebrun_linear, lebrun_quadratic
    from .rayleigh import minimize_lambda
    from .selfdual import harmonic_selfdual_basis

    # K is the paper's only with lambda the quotient's infimum for this (g, theta)
    _, m = _geometry(args)
    theta = theta_from_preset(args.theta, m)
    res = minimize_lambda(theta, m)
    _, K = _weight(m, theta, res.lam)
    basis = harmonic_selfdual_basis(m)
    omega = basis[args.omega_index]
    lin = lebrun_linear(omega, m, kfield=K, c1=args.c1)
    quad = lebrun_quadratic(K, m, c1plus_sq=args.c1plus_sq)
    return {"linear": asdict(lin), "quadratic": asdict(quad), "b_plus": len(basis),
            "lambda_search": _lambda_record(res)}


def _sweep_residual(args, n: int) -> float:
    grid = GridSpec((n,) * 4)
    m = metric_from_preset(args.metric, grid)
    if args.check == "dirac":
        from .spinc import dirac_weitzenboeck_check

        _require_flat_metric(args, m)
        conn, phi = _random_pair(grid, args.seed, args.amplitude)
        return dirac_weitzenboeck_check(phi, conn)[2]
    from .selfdual import (
        integral_identity_check_c,
        integral_identity_check_s,
        weitzenboeck_residual,
    )

    sigma = _random_selfdual(grid, args.seed, args.amplitude, [1.0, 0.2, 0.0])
    if args.check == "weitzenboeck":
        return weitzenboeck_residual(sigma, m, curvature_stack(m))
    theta = theta_from_preset(args.theta, m)
    if args.check == "identity-s":
        lhs, rhs = integral_identity_check_s(sigma, theta, m, curvature_stack(m))
    else:
        lhs, rhs = integral_identity_check_c(sigma, theta, m)
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _run_sweep(args):
    rows = []
    for n in args.dims_list:
        rows.append({"n": n, "residual": _sweep_residual(args, n)})
    orders = []
    for a, b in zip(rows, rows[1:]):
        # undefined (null) once a residual is exactly 0
        defined = a["residual"] > 0 and b["residual"] > 0
        orders.append(float(np.log(a["residual"] / b["residual"]) / np.log(b["n"] / a["n"]))
                      if defined else None)
    if args.csv:
        _write_csv(args.csv, rows, ["n", "residual"])
    return {"rows": rows, "observed_orders": orders}


# command -> (help, runner, options); option names are the flags' dests and
# the config keys
_COMMANDS = {
    "curvature": ("curvature fields of a preset metric", _run_curvature,
                  {**_GRID, **_COMMON, **_DUMP}),
    "hodge": ("harmonic self-dual basis of a preset metric", _run_hodge,
              {**_GRID, **_COMMON, **_SEED, **_DUMP}),
    "dirac-check": ("spinor identities on a random smooth pair", _run_dirac_check,
                    {**_GRID, **_COMMON, **_SEED, "amplitude": _AMPLITUDE}),
    "lambda": ("minimize the spectral quotient", _run_lambda, {
        **_GRID, **_COMMON, **_SEED, **_DUMP,
        "theta": _THETA,
        "multistarts": _Option(_nonnegative_int, 8, "random starts beyond the 3 constants"),
        "max_iter": _Option(_nonnegative_int, 150),
    }),
    "psw-residual": ("residual of a manufactured monopole pair", _run_psw, {
        **_GRID, **_COMMON, **_DUMP, **_PAIR,
        "variant": _Option(_choice("simple", "full"), "full"),
    }),
    "bounds": ("a-priori bound margins for a manufactured pair", _run_bounds, {
        **_GRID, **_COMMON, **_PAIR,
        "gate": _Option(_gate, None, "residual gate (number, or 'off')"),
    }),
    "lebrun": ("curvature inequalities on grid fields", _run_lebrun, {
        **_GRID, **_COMMON,
        "theta": _THETA,
        "c1": _Option(_REAL, 0.0, "Chern pairing c1.[omega]"),
        "c1plus_sq": _Option(_NONNEGATIVE, 0.0, "(c1^+)^2 for the quadratic report"),
        "omega_index": _Option(_omega_index, 0, "harmonic basis vector used as omega"),
    }),
    "catalog": ("curvature inequalities on closed-form product surfaces", _run_catalog, {
        # the sorted names of functionals.CATALOG, spelled out so that building
        # the parser does not load that layer; tests/test_cli.py keeps them equal
        "surface": _Option(_choice("flat-t4", "t2xs2", "t2xsigma2"), "flat-t4"),
        "delta": _Option(_REAL, 0.0),
        "sweep_delta": _Option(_deltas, (), "comma list of weights for a margin sweep"),
        "sweep_kind": _Option(_choice("linear", "quadratic"), "quadratic"),
        "csv": _CSV,
        **_IO,
    }),
    "sweep": ("refinement sweep of one residual check", _run_sweep, {
        **_COMMON, **_SEED,
        "check": _Option(_choice("weitzenboeck", "dirac", "identity-s", "identity-c"),
                         "weitzenboeck"),
        "dims_list": _Option(_dims_list, (8, 16), "comma list of grid sizes"),
        "theta": _Option(_text, "const:0.3"),
        "amplitude": _AMPLITUDE,
        "csv": _CSV,
    }),
}


def main(argv=None) -> int:
    flags = _build_parser().parse_args(argv)
    try:
        args = _resolve(flags)
        config = _recorded(args)
        t0 = time.perf_counter()
        outputs = _COMMANDS[args.command][1](args)
        seconds = time.perf_counter() - t0
        text = render_report(make_report(args.command, config, outputs))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (PresetError, OSError) as exc:
        print(f"monolab: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"monolab: check failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    # only a command that succeeded prints its time: a failure's one stderr
    # line is its error message
    print(f"[monolab] {args.command}: {seconds:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
