"""Preset expression grammar, metric/theta builders, random smooth fields."""

import tracemalloc

import numpy as np
import pytest

from monolab.curvature import build_metric
from monolab.grid import GridSpec
from monolab.io import load_fields, save_fields
from monolab.presets import (
    PresetError,
    Term,
    TrigFactor,
    metric_from_preset,
    parse_expression,
    random_smooth_scalar,
    scalar_from_expression,
    theta_from_preset,
)

from conftest import generic_metric, layout, pack, unpack

TWO_PI = 2.0 * np.pi


def test_expression_matches_numpy(grid8):
    f = scalar_from_expression("1.5*sin(x0)*cos(2*x1+0.5)+3-0.2*sin(x2+x3)", grid8)
    x0, x1, x2, x3 = [grid8.mesh(i) for i in range(4)]
    want = 1.5 * np.sin(x0) * np.cos(2 * x1 + 0.5) + 3 - 0.2 * np.sin(x2 + x3)
    assert np.max(np.abs(f - want)) < 1e-14


def test_expression_whitespace_and_sign(grid8):
    f = scalar_from_expression(" - 0.5 * cos( x3 ) + 1 ", grid8)
    want = 1 - 0.5 * np.cos(grid8.mesh(3))
    assert np.max(np.abs(f - want)) < 1e-14


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "sin()",
        "sin(x4)",
        "sin(x0",
        "2**x0",
        "cos(x0)*",
        "tan(x0)",
        "sin(x0*x1)",
        "1e400",
        "sin(1e400*x0)",
        pytest.param("+".join(["sin(x0)"] * 5000), id="5000-term-sum"),
        pytest.param("1" + "0" * 400, id="401-digit-int"),
        "sin(1e308*x0)",
        "1e200*1e200",
        "08",
        "0.5 # comment",
    ],
)
def test_expression_rejects(bad, grid8):
    with pytest.raises(PresetError):
        scalar_from_expression(bad, grid8)


def _trig(fn, source, coeffs, phase=0.0):
    return TrigFactor(fn, coeffs, phase, source)


X0, X1, X2, X3 = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                  (0.0, 0.0, 0.0, 1.0))


# the expressions of the tests, CI and README, and the literal forms accepted
# since Python's parser reads the text
@pytest.mark.parametrize("text, terms", [
    ("0.1*sin(x0)", (Term(0.1, (_trig("sin", "sin(x0)", X0),)),)),
    ("0.2*sin(x2)", (Term(0.2, (_trig("sin", "sin(x2)", X2),)),)),
    ("0.1*cos(x1)", (Term(0.1, (_trig("cos", "cos(x1)", X1),)),)),
    ("0.1*sin(x0)*cos(x2)",
     (Term(0.1, (_trig("sin", "sin(x0)", X0), _trig("cos", "cos(x2)", X2))),)),
    ("0.3*sin(x2)*cos(x3)",
     (Term(0.3, (_trig("sin", "sin(x2)", X2), _trig("cos", "cos(x3)", X3))),)),
    ("0.3*sin(x0)*cos(x1)+0.2*sin(x2+x3)",
     (Term(0.3, (_trig("sin", "sin(x0)", X0), _trig("cos", "cos(x1)", X1))),
      Term(0.2, (_trig("sin", "sin(x2+x3)", (0.0, 0.0, 1.0, 1.0)),)))),
    ("1.5*sin(x0)*cos(2*x1+0.5)+3-0.2*sin(x2+x3)",
     (Term(1.5, (_trig("sin", "sin(x0)", X0),
                 _trig("cos", "cos(2*x1+0.5)", (0.0, 2.0, 0.0, 0.0), 0.5))),
      Term(3.0, ()),
      Term(-0.2, (_trig("sin", "sin(x2+x3)", (0.0, 0.0, 1.0, 1.0)),)))),
    (" - 0.5 * cos( x3 ) + 1 ", (Term(-0.5, (_trig("cos", "cos( x3 )", X3),)), Term(1.0, ()))),
    ("sin(0.5*x1)", (Term(1.0, (_trig("sin", "sin(0.5*x1)", (0.0, 0.5, 0.0, 0.0)),)),)),
    ("-2*cos(-x0 + 3*x1 - 0.25)",
     (Term(-2.0, (_trig("cos", "cos(-x0 + 3*x1 - 0.25)", (-1.0, 3.0, 0.0, 0.0), -0.25),)),)),
    ("(5)", (Term(5.0, ()),)),
    ("--8", (Term(8.0, ()),)),
    ("1 +-5", (Term(1.0, ()), Term(-5.0, ()))),
    ("2*-3", (Term(-6.0, ()),)),
    ("0x4*sin(1_0*x3)", (Term(4.0, (_trig("sin", "sin(1_0*x3)", (0.0, 0.0, 0.0, 10.0)),)),)),
])
def test_expression_terms(text, terms):
    # repr also tells -0.0 from 0.0
    assert repr(parse_expression(text)) == repr(terms)


def test_expression_error_names_column(grid8):
    with pytest.raises(PresetError, match="column"):
        scalar_from_expression("sin(x0)+%", grid8)
    # leading blanks and earlier lines count, and a node outside the grammar
    # names its own column
    with pytest.raises(PresetError, match="column 7: expected a coordinate"):
        scalar_from_expression("  sin(x4)", grid8)
    with pytest.raises(PresetError, match="column 11: expected a coordinate"):
        scalar_from_expression("sin(x0 +\n x4)", grid8)


def test_periodicity_guard():
    g = GridSpec((8,) * 4)
    with pytest.raises(PresetError, match="period"):
        scalar_from_expression("sin(0.5*x0)", g)
    # non-2pi box: integer wavenumbers against that length are fine
    g2 = GridSpec((8,) * 4, (TWO_PI, 2 * TWO_PI, TWO_PI, TWO_PI))
    scalar_from_expression("sin(0.5*x1)", g2)
    with pytest.raises(PresetError):
        scalar_from_expression("sin(0.25*x1)", g2)


def test_metric_presets(grid8):
    assert metric_from_preset("flat", grid8).is_flat
    m = metric_from_preset("conformal:0.2*sin(x0)", grid8)
    want = np.exp(0.4 * np.sin(grid8.mesh(0)))
    assert np.max(np.abs(m.g[0] - want)) < 1e-12
    mk = metric_from_preset("kaehler-product:0.2*sin(x2)", grid8)
    assert np.max(np.abs(mk.g[0] - 1.0)) < 1e-15
    with pytest.raises(PresetError):
        metric_from_preset("kaehler-product:0.2*sin(x0)", grid8)
    with pytest.raises(PresetError):
        metric_from_preset("weird:1", grid8)
    with pytest.raises(PresetError):
        metric_from_preset("conformal:", grid8)


def test_metric_file_preset(tmp_path, grid8):
    m = metric_from_preset("conformal:0.1*cos(x1)", grid8)
    path = tmp_path / "metric.zip"
    # metric files hold g node-major, (dims, 4, 4)
    save_fields(path, grid8, {"g": layout(unpack(m.g), "node")})
    m2 = metric_from_preset(f"file:{path}", grid8)
    assert np.max(np.abs(m2.g - m.g)) == 0.0
    save_fields(tmp_path / "empty.zip", grid8, {"h": layout(unpack(m.g), "node")})
    with pytest.raises(PresetError):
        metric_from_preset(f"file:{tmp_path / 'empty.zip'}", grid8)


@pytest.mark.parametrize("kind", ["conformal", "generic"])
def test_file_metric_is_the_metric_of_the_same_g_in_memory(tmp_path, kind):
    # the file is written as the benchmark writes its inputs: a node-major
    # (dims, 4, 4) g through save_fields; non-cubic, so that no grid axis
    # has the width of g
    grid = GridSpec((7, 8, 9, 10))
    if kind == "conformal":
        f = random_smooth_scalar(grid, np.random.default_rng(0), 1, 0.1)
        g = np.exp(2.0 * f)[..., None, None] * np.eye(4)
    else:
        g = generic_metric(grid.dims)[1]
    save_fields(tmp_path / "g.zip", grid, {"g": g})
    loaded = metric_from_preset(f"file:{tmp_path / 'g.zip'}", grid)
    direct = build_metric(grid, pack(g))
    for name, lead in (("g", (10,)), ("vol", ())):
        got, want = getattr(loaded, name), getattr(direct, name)
        assert got.shape == want.shape == lead + grid.dims
        assert got.tobytes() == want.tobytes(), name


# traced peak of the metric phase at 16^4, in planes (one plane being one
# float64 grid array).  The phase holds g, packed, and vol (11 planes); the
# factor is formed one block of nodes at a time.  Every preset writes g
# packed, so the diagonal presets peak at 18.0 planes while the expression
# is evaluated beside the allocated g; 23.3 with a whole-grid factor kept,
# 40.3 when they built a full (4, 4, dims) g for build_metric to pack.  A
# file's node-major g (16 planes) is freed once packed: 26.2 planes, set by
# the packing, 39.3 with it held through the factorisation; 52.3 and 51.3
# with g and its factor stored full
_METRIC_PHASE_PEAK = {"conformal:0.1*sin(x0)": 19.0, "kaehler-product:0.3*sin(x2)*cos(x3)": 19.0,
                      "file": 28.0}


@pytest.mark.parametrize("preset", _METRIC_PHASE_PEAK)
def test_metric_phase_peak_at_16(tmp_path, preset):
    bound = _METRIC_PHASE_PEAK[preset]
    grid = GridSpec((16,) * 4)
    if preset == "file":
        f = random_smooth_scalar(grid, np.random.default_rng(0), 1, 0.1)
        save_fields(tmp_path / "g.zip", grid, {"g": np.exp(2.0 * f)[..., None, None] * np.eye(4)})
        del f
        preset = f"file:{tmp_path / 'g.zip'}"
    tracemalloc.start()
    try:
        metric_from_preset(preset, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid.node_count * 8


def test_theta_presets(m8):
    grid = m8.grid
    th = theta_from_preset("const:0.3", m8)
    assert np.max(np.abs(th.s - np.sin(0.3))) < 1e-15
    assert np.max(np.abs(th.dtheta)) < 1e-13
    th0 = theta_from_preset("coord:0", m8)
    assert np.max(np.abs(th0.s - np.sin(grid.mesh(0)))) < 1e-15
    with pytest.raises(PresetError):
        theta_from_preset("coord:5", m8)
    with pytest.raises(PresetError):
        theta_from_preset("nope:1", m8)


def test_theta_coord_needs_2pi_axis():
    g = GridSpec((8,) * 4, (TWO_PI, 2 * TWO_PI, TWO_PI, TWO_PI))
    m = metric_from_preset("flat", g)
    theta_from_preset("coord:0", m)
    with pytest.raises(PresetError):
        theta_from_preset("coord:1", m)


def test_theta_file_preset(tmp_path, m8):
    grid = m8.grid
    x0 = grid.mesh(0)
    save_fields(tmp_path / "angle.zip", grid, {"theta": x0})
    th = theta_from_preset(f"file:{tmp_path / 'angle.zip'}", m8)
    assert np.max(np.abs(th.s - np.sin(x0))) < 1e-15
    save_fields(tmp_path / "sc.zip", grid, {"s": np.sin(x0), "c": np.cos(x0)})
    th2 = theta_from_preset(f"file:{tmp_path / 'sc.zip'}", m8)
    assert np.max(np.abs(th2.dtheta - th.dtheta)) < 1e-14
    save_fields(tmp_path / "junk.zip", grid, {"q": x0})
    with pytest.raises(PresetError):
        theta_from_preset(f"file:{tmp_path / 'junk.zip'}", m8)


def test_random_smooth_scalar_is_deterministic(grid8):
    f1 = random_smooth_scalar(grid8, np.random.default_rng(9))
    f2 = random_smooth_scalar(grid8, np.random.default_rng(9))
    assert np.array_equal(f1, f2)
    f3 = random_smooth_scalar(grid8, np.random.default_rng(10))
    assert not np.allclose(f1, f3)


def test_random_smooth_scalar_nests_across_sizes(grid8):
    # same seed samples the same continuum function on any grid
    f8 = random_smooth_scalar(grid8, np.random.default_rng(4))
    g16 = GridSpec((16,) * 4)
    f16 = random_smooth_scalar(g16, np.random.default_rng(4))
    assert np.max(np.abs(f16[::2, ::2, ::2, ::2] - f8)) < 1e-13


def test_random_smooth_scalar_amplitude(grid8):
    f = random_smooth_scalar(grid8, np.random.default_rng(2), amp=0.25)
    g = random_smooth_scalar(grid8, np.random.default_rng(2), amp=0.5)
    assert np.max(np.abs(2.0 * f - g)) < 1e-14
