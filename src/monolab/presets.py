"""Presets: a tiny expression language plus stock metrics and angles.

The expression grammar is deliberately small, sums of trigonometric
monomials:

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := FACTOR ('*' FACTOR)*
    FACTOR := SIGN* (NUMBER | ('sin'|'cos') '(' LINEAR ')')
    LINEAR := ITEM (('+'|'-') ITEM)*
    ITEM   := SIGN* (NUMBER ['*' VARIABLE] | VARIABLE)
    SIGN   := '+' | '-'

with variables x0..x3.  Everything this grammar can produce is a smooth
periodic function once the frequencies match the box, which is exactly
what every convergence-order contract in the package assumes.  Frequency
compatibility is enforced at evaluation time: a factor sin(k*xi) whose k
does not complete whole turns over the period of axis i is rejected, not
silently wrapped, and so is a nonzero k that completes none.  A term whose
turns along an axis, summed over its factors, reach n/2 on its n nodes
aliases onto the alternating mode, where d1 is 0, or below, and is refused.

The text is read by `ast.parse` as a Python expression: NUMBER is any finite
int or float literal Python reads (`0x4`, `1_0`), signs repeat (`--8`, `2*-3`)
and redundant parentheses are allowed.  Rejected are anything else, `08`, a
number, coefficient, frequency or phase that is not finite, a newline between
terms, whitespace other than space and tab between tokens, `#`, and sums of
about 3,000 or more terms, which exhaust Python's parser recursion.  Parse
errors carry the source column so config typos are one glance to find.
"""

from __future__ import annotations

import ast
import math
import sys
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .curvature import _SYM_I, _SYM_INDEX, _SYM_J, MetricField, build_metric
from .grid import GridSpec, _worst_node
from .io import load_fields

if TYPE_CHECKING:
    from .rayleigh import ThetaField

__all__ = [
    "PresetError",
    "parse_expression",
    "evaluate_expression",
    "scalar_from_expression",
    "metric_from_preset",
    "theta_from_preset",
    "random_smooth_scalar",
]


class PresetError(ValueError):
    pass


@dataclass(frozen=True)
class TrigFactor:
    fn: str  # "sin" or "cos"
    coeffs: tuple  # frequency per axis
    phase: float
    source: str


@dataclass(frozen=True)
class Term:
    coefficient: float
    factors: tuple  # of TrigFactor


class _Rejected(Exception):
    """(node, reason): a node of the Python tree outside the grammar."""


def _chain(node, ops):
    """Operands of a left-nested chain of `ops`, left to right, each with the
    sign of the operator in front of it (+1.0 for the first)."""
    items = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        items.append((node.right, -1.0 if isinstance(node.op, ast.Sub) else 1.0))
        node = node.left
    return [(node, 1.0)] + items[::-1]


def _unsigned(node, sign: float):
    """Strip the unary signs off `node`, each a flip of `sign`."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign = -sign if isinstance(node.op, ast.USub) else sign
        node = node.operand
    return node, sign


def _number(node, expected: str = "a finite number") -> float:
    # exact for ints too, whose float() would raise above the largest float
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and abs(node.value) <= sys.float_info.max):
        raise _Rejected(node, f"expected {expected}")
    return float(node.value)


def _axis(node) -> int:
    if not (isinstance(node, ast.Name) and node.id in ("x0", "x1", "x2", "x3")):
        raise _Rejected(node, "expected a coordinate x0..x3")
    return int(node.id[1])


def _trig(node, src: str) -> TrigFactor:
    """sin/cos of a linear form: sign * k added to its slot left to right."""
    if not (isinstance(node.func, ast.Name) and node.func.id in ("sin", "cos")
            and len(node.args) == 1 and not node.keywords):
        raise _Rejected(node, "expected a number or sin/cos of one argument")
    coeffs, phase = [0.0] * 4, 0.0
    for item, sign in _chain(node.args[0], (ast.Add, ast.Sub)):
        item, sign = _unsigned(item, sign)
        if isinstance(item, ast.BinOp) and isinstance(item.op, ast.Mult):
            k, sign = _unsigned(item.left, sign)
            coeffs[_axis(item.right)] += sign * _number(k)
        elif isinstance(item, ast.Name):
            coeffs[_axis(item)] += sign
        else:
            phase += sign * _number(item)
    return TrigFactor(node.func.id, tuple(coeffs), phase, ast.get_source_segment(src, node))


def _term(node, sign: float, src: str) -> Term:
    """A product; its coefficient starts as `sign` and takes the numbers in order."""
    coefficient, factors = sign, []
    for factor, _ in _chain(node, ast.Mult):
        factor, coefficient = _unsigned(factor, coefficient)
        if isinstance(factor, ast.Call):
            factors.append(_trig(factor, src))
        else:
            coefficient *= _number(factor, "a finite number or sin/cos")
    values = [coefficient] + [x for f in factors for x in (*f.coeffs, f.phase)]
    if not all(map(math.isfinite, values)):
        raise _Rejected(node, "a coefficient, frequency or phase is not finite")
    return Term(coefficient, tuple(factors))


def parse_expression(text: str):
    """Parse to a tuple of terms; raises PresetError with a column."""
    src = text.strip()  # ast reads leading whitespace as an indent
    lead = len(text) - len(text.lstrip())
    if not src:
        raise PresetError("column 1: empty expression")
    if "#" in src:  # a comment would hide the rest of the text
        raise PresetError(f"column {src.index('#') + 1 + lead}: unexpected character '#'")
    try:
        body = ast.parse(src, mode="eval").body
        return tuple(_term(node, sign, src) for node, sign in _chain(body, (ast.Add, ast.Sub)))
    except SyntaxError as exc:
        line, column, reason = exc.lineno or 1, exc.offset or 1, exc.msg
    except RecursionError:
        line, column, reason = 1, 1, "expression nests too deeply for the parser"
    except _Rejected as exc:
        node, reason = exc.args
        line, column = node.lineno, node.col_offset + 1
    # ast counts columns from the start of the line
    column += lead + len("".join(src.splitlines(keepends=True)[:line - 1]))
    raise PresetError(f"column {column}: {reason}")


def evaluate_expression(terms, grid: GridSpec) -> np.ndarray:
    """Evaluate on grid nodes, refusing an aperiodic frequency and an unresolved term."""
    out = np.zeros(grid.dims)
    meshes = [grid.mesh(k) for k in range(4)]
    for term in terms:
        vals = np.full(grid.dims, term.coefficient)
        reach = [0] * 4
        for f in term.factors:
            for axis, (k, L) in enumerate(zip(f.coeffs, grid.periods)):
                turns = k * L / (2.0 * np.pi)
                if (not math.isfinite(turns) or abs(turns - round(turns)) > 1e-9
                        or (k != 0.0 and round(turns) == 0)):
                    raise PresetError(
                        f"factor {f.source!r}: frequency {k:g} on axis {axis} is not "
                        f"periodic over length {L:g}"
                    )
                reach[axis] += abs(round(turns))
                if 2 * reach[axis] >= grid.dims[axis]:
                    raise PresetError(f"term {'*'.join(x.source for x in term.factors)!r}: "
                                      f"{reach[axis]} turns on axis {axis} reach half its "
                                      f"{grid.dims[axis]} nodes, which the grid cannot resolve")
            arg = np.full(grid.dims, f.phase)
            for axis in range(4):
                if f.coeffs[axis] != 0.0:
                    arg += f.coeffs[axis] * meshes[axis]
            vals *= np.sin(arg) if f.fn == "sin" else np.cos(arg)
        out += vals
    return out


def scalar_from_expression(text: str, grid: GridSpec) -> np.ndarray:
    with np.errstate(over="ignore"):  # a sum of finite terms may overflow
        values = evaluate_expression(parse_expression(text), grid)
    if not np.isfinite(values).all():
        raise PresetError(f"{text!r} overflows on the grid")
    return values


# ---------------------------------------------------------------------------
# stock geometries and angles


def _load_container(path: str, grid: GridSpec) -> dict:
    """The arrays of a field container stored on `grid`, all of them real."""
    try:
        fgrid, arrays, _ = load_fields(path)
    except (zipfile.BadZipFile, KeyError, ValueError) as exc:
        # a missing member or manifest key comes as a KeyError of its name
        raise PresetError(f"{path}: not a readable field container ({exc})") from None
    if not fgrid.compatible(grid):
        raise PresetError(f"{path}: stored grid {fgrid.dims} != {grid.dims}")
    for name, values in arrays.items():
        # a cast to float would keep the real part and only warn
        if np.iscomplexobj(values):
            raise PresetError(f"{path}: array {name!r} is complex; fields must be real")
    return arrays


def _checked(preset: str, build, *args):
    """build(*args); the ValueError of a bad field becomes a PresetError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise PresetError(f"{preset}: {exc}") from None


def _packed_file_metric(g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The packed g of a file's (dims, 4, 4) g, once both triangles are finite and equal."""
    if g.shape != grid.dims + (4, 4):
        raise ValueError(f"metric shape {g.shape} != {grid.dims + (4, 4)}")
    g = np.asarray(g, dtype=float)
    finite = np.isfinite(g).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"metric component is not finite at node {_worst_node(~finite)}")
    asym = max(float(np.max(np.abs(g[..., i, j] - g[..., j, i])))
               for i, j in zip(*np.triu_indices(4, 1)))
    if asym > 1e-12 * max(1.0, float(np.max(g)), -float(np.min(g))):
        raise ValueError(f"metric storage asymmetry {asym:.3e} exceeds tolerance")
    return np.stack([g[..., i, j] for i, j in zip(_SYM_I, _SYM_J)])


def metric_from_preset(text: str, grid: GridSpec) -> MetricField:
    """flat | conformal:EXPR | kaehler-product:EXPR | file:PATH.

    conformal rescales the flat metric by exp(2 f); kaehler-product is
    diag(1, 1, e^{2u}, e^{2u}) with u a function of x2, x3 only, the
    conformal torus-times-surface geometry.  Every preset writes g packed,
    as `build_metric` keeps it; a file holds the full g node-major,
    (dims, 4, 4), whose two triangles are checked equal before packing.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    g = None if kind == "file" else np.zeros((10,) + grid.dims)
    diagonal = _SYM_INDEX.diagonal()
    # an overflow shows up as a non-finite component, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "flat":
            if arg:
                raise PresetError("flat takes no argument")
            g[diagonal] = 1.0
        elif kind == "conformal":
            g[diagonal] = np.exp(2.0 * scalar_from_expression(arg, grid))
        elif kind == "kaehler-product":
            terms = parse_expression(arg)
            bad = [f for term in terms for f in term.factors if any(f.coeffs[:2])]
            if bad:
                raise PresetError(f"factor {bad[0].source!r}: kaehler-product profiles may only "
                                  "involve x2 and x3")
            g[diagonal[:2]] = 1.0
            g[diagonal[2:]] = np.exp(2.0 * evaluate_expression(terms, grid))
        elif kind == "file":
            arrays = _load_container(arg, grid)
            if "g" not in arrays:
                raise PresetError(f"{arg}: container has no array named 'g'")
            # popped, so that the node-major g is freed once it is packed
            g = _checked(text, _packed_file_metric, arrays.pop("g"), grid)
        else:
            raise PresetError(f"unknown metric preset {kind!r}")
    return _checked(text, build_metric, grid, g)


def theta_from_preset(text: str, m: MetricField) -> ThetaField:
    """const:VALUE | coord:AXIS | file:PATH (samples or an (s, c) pair)."""
    from .rayleigh import ThetaField, theta_from_angle

    grid = m.grid
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "const":
        try:
            value = float(arg)
        except ValueError:
            raise PresetError(f"const needs a number, got {arg!r}")
        return _checked(text, theta_from_angle, np.full(grid.dims, value), m)
    if kind == "coord":
        if arg not in ("0", "1", "2", "3"):
            raise PresetError(f"coord needs an axis 0..3, got {arg!r}")
        axis = int(arg)
        if abs(grid.periods[axis] - 2.0 * np.pi) > 1e-12:
            raise PresetError(
                f"coord:{axis} needs period 2*pi on that axis for a well defined angle"
            )
        return theta_from_angle(grid.mesh(axis), m)
    if kind == "file":
        arrays = _load_container(arg, grid)
        if "theta" in arrays:
            return _checked(text, theta_from_angle, arrays["theta"], m)
        if "s" in arrays and "c" in arrays:
            return _checked(text, ThetaField, m, arrays["s"], arrays["c"])
        raise PresetError(f"{arg}: container needs 'theta' or the pair 's', 'c'")
    raise PresetError(f"unknown theta preset {kind!r}")


def random_smooth_scalar(
    grid: GridSpec, rng: np.random.Generator, fmax: int = 1, amp: float = 1.0
) -> np.ndarray:
    """Seeded band-limited random field with amplitude scale amp.

    The spectrum is filled up to frequency fmax per axis and normalized
    by its own l2 weight, not by anything grid-dependent, so the same
    seed produces samples of one fixed continuum function at every grid
    size; refinement studies rely on that.
    """
    spec = np.zeros(grid.dims, dtype=complex)
    total = 0.0
    for idx in np.ndindex(*(2 * fmax + 1,) * 4):
        k = tuple(i - fmax for i in idx)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        spec[k] = z
        total += abs(z) ** 2
    f = np.fft.ifftn(spec).real * grid.node_count
    return amp * f / np.sqrt(total)
