"""Presets: a tiny expression language plus stock metrics and angles.

The expression grammar is deliberately small, sums of trigonometric
monomials:

    EXPR   := ['+'|'-'] TERM (('+'|'-') TERM)*
    TERM   := FACTOR ('*' FACTOR)*
    FACTOR := NUMBER | ('sin'|'cos') '(' LINEAR ')'
    LINEAR := ITEM (('+'|'-') ITEM)*
    ITEM   := NUMBER ['*' VARIABLE] | VARIABLE

with variables x0..x3.  Everything this grammar can produce is a smooth
periodic function once the frequencies match the box, which is exactly
what every convergence-order contract in the package assumes.  Frequency
compatibility is enforced at evaluation time: a factor sin(k*xi) whose k
does not complete whole turns over the period of axis i is rejected, not
silently wrapped.

Parse errors carry the source column so config typos are one glance to
find.
"""

from __future__ import annotations

import re
import zipfile
from dataclasses import dataclass

import numpy as np

from .curvature import MetricField, build_metric
from .grid import GridSpec
from .io import load_fields
from .rayleigh import ThetaField, theta_from_angle, theta_from_sc

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


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if mo is None:
            if text[pos:].strip() == "":
                break
            raise PresetError(f"column {pos + 1}: unexpected character {text[pos]!r}")
        if mo.group("num") is not None:
            tokens.append(("num", float(mo.group("num")), mo.start("num")))
        elif mo.group("name") is not None:
            tokens.append(("name", mo.group("name"), mo.start("name")))
        else:
            tokens.append(("op", mo.group("op"), mo.start("op")))
        pos = mo.end()
    tokens.append(("end", "", len(text)))
    return tokens


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, tok, expected):
        raise PresetError(f"column {tok[2] + 1}: expected {expected}, found "
                          f"{tok[1]!r}" if tok[0] != "end"
                          else f"column {tok[2] + 1}: expected {expected}, found end of input")

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            self.fail(tok, f"'{op}'")

    def parse(self):
        terms = [self.parse_term(lead=True)]
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                t = self.parse_term()
                if tok[1] == "-":
                    t = Term(-t.coefficient, t.factors)
                terms.append(t)
            elif tok[0] == "end":
                return tuple(terms)
            else:
                self.fail(tok, "'+', '-', or end of expression")

    def parse_term(self, lead: bool = False):
        sign = 1.0
        if lead:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1.0 if tok[1] == "-" else 1.0
        coefficient = sign
        factors = []
        while True:
            coefficient, factors = self.parse_factor(coefficient, factors)
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                continue
            return Term(coefficient, tuple(factors))

    def parse_factor(self, coefficient, factors):
        tok = self.take()
        if tok[0] == "num":
            return coefficient * tok[1], factors
        if tok[0] == "name" and tok[1] in ("sin", "cos"):
            start = tok[2]
            self.expect_op("(")
            coeffs, phase = self.parse_linear()
            self.expect_op(")")
            end = self.peek()[2]
            src = self.text[start:end].strip()
            factors = factors + [TrigFactor(tok[1], coeffs, phase, src)]
            return coefficient, factors
        self.fail(tok, "a number or sin/cos")

    def parse_linear(self):
        coeffs = [0.0, 0.0, 0.0, 0.0]
        phase = 0.0
        first = True
        while True:
            sign = 1.0
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1.0 if tok[1] == "-" else 1.0
            elif not first:
                return tuple(coeffs), phase
            first = False
            tok = self.take()
            if tok[0] == "num":
                nxt = self.peek()
                if nxt[0] == "op" and nxt[1] == "*":
                    self.take()
                    var = self.take()
                    axis = self._axis(var)
                    coeffs[axis] += sign * tok[1]
                else:
                    phase += sign * tok[1]
            elif tok[0] == "name":
                coeffs[self._axis(tok)] += sign
            else:
                self.fail(tok, "a number or coordinate inside sin/cos")

    def _axis(self, tok):
        mo = re.fullmatch(r"x([0-3])", tok[1]) if tok[0] == "name" else None
        if mo is None:
            self.fail(tok, "a coordinate x0..x3")
        return int(mo.group(1))


def parse_expression(text: str):
    """Parse to a tuple of terms; raises PresetError with a column."""
    if not text.strip():
        raise PresetError("column 1: empty expression")
    return _Parser(text).parse()


def evaluate_expression(terms, grid: GridSpec) -> np.ndarray:
    """Evaluate on grid nodes, enforcing periodicity of every frequency."""
    out = np.zeros(grid.dims)
    meshes = [grid.mesh(k) for k in range(4)]
    for term in terms:
        vals = np.full(grid.dims, term.coefficient)
        for f in term.factors:
            for axis, (k, L) in enumerate(zip(f.coeffs, grid.periods)):
                turns = k * L / (2.0 * np.pi)
                if abs(turns - round(turns)) > 1e-9:
                    raise PresetError(
                        f"factor {f.source!r}: frequency {k:g} on axis {axis} is not "
                        f"periodic over length {L:g}"
                    )
            arg = np.full(grid.dims, f.phase)
            for axis in range(4):
                if f.coeffs[axis] != 0.0:
                    arg += f.coeffs[axis] * meshes[axis]
            vals *= np.sin(arg) if f.fn == "sin" else np.cos(arg)
        out += vals
    return out


def scalar_from_expression(text: str, grid: GridSpec) -> np.ndarray:
    return evaluate_expression(parse_expression(text), grid)


# ---------------------------------------------------------------------------
# stock geometries and angles


def _load_container(path: str, grid: GridSpec) -> dict:
    """The arrays of a field container stored on `grid`."""
    try:
        fgrid, arrays, _ = load_fields(path)
    except (zipfile.BadZipFile, KeyError, ValueError) as exc:
        # a missing member or manifest key comes as a KeyError of its name
        raise PresetError(f"{path}: not a readable field container ({exc})") from None
    if not fgrid.compatible(grid):
        raise PresetError(f"{path}: stored grid {fgrid.dims} != {grid.dims}")
    return arrays


def metric_from_preset(text: str, grid: GridSpec) -> MetricField:
    """flat | conformal:EXPR | kaehler-product:EXPR | file:PATH.

    conformal rescales the flat metric by exp(2 f); kaehler-product is
    diag(1, 1, e^{2u}, e^{2u}) with u a function of x2, x3 only, the
    conformal torus-times-surface geometry.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "flat":
        if arg:
            raise PresetError("flat takes no argument")
        g = np.broadcast_to(np.eye(4), grid.dims + (4, 4)).copy()
        return build_metric(grid, g)
    if kind == "conformal":
        f = scalar_from_expression(arg, grid)
        g = np.exp(2.0 * f)[..., None, None] * np.eye(4)
        return build_metric(grid, g)
    if kind == "kaehler-product":
        terms = parse_expression(arg)
        for term in terms:
            for fac in term.factors:
                if fac.coeffs[0] != 0.0 or fac.coeffs[1] != 0.0:
                    raise PresetError(
                        f"factor {fac.source!r}: kaehler-product profiles may only "
                        "involve x2 and x3"
                    )
        u = evaluate_expression(terms, grid)
        g = np.zeros(grid.dims + (4, 4))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = np.exp(2.0 * u)
        g[..., 3, 3] = np.exp(2.0 * u)
        return build_metric(grid, g)
    if kind == "file":
        arrays = _load_container(arg, grid)
        if "g" not in arrays:
            raise PresetError(f"{arg}: container has no array named 'g'")
        return build_metric(grid, arrays["g"])
    raise PresetError(f"unknown metric preset {kind!r}")


def theta_from_preset(text: str, m: MetricField) -> ThetaField:
    """const:VALUE | coord:AXIS | file:PATH (samples or an (s, c) pair)."""
    grid = m.grid
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "const":
        try:
            value = float(arg)
        except ValueError:
            raise PresetError(f"const needs a number, got {arg!r}")
        return theta_from_angle(np.full(grid.dims, value), m)
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
            return theta_from_angle(arrays["theta"], m)
        if "s" in arrays and "c" in arrays:
            return theta_from_sc(arrays["s"], arrays["c"], m)
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
