"""Field container round-trips and byte determinism."""

import filecmp
import tracemalloc

import numpy as np
import pytest

from monolab.grid import GridSpec
from monolab.io import load_fields, save_fields

TWO_PI = 2.0 * np.pi


def test_roundtrip(tmp_path):
    g = GridSpec((8, 8, 8, 8), (TWO_PI, TWO_PI, 2 * TWO_PI, TWO_PI))
    rng = np.random.default_rng(0)
    arrays = {
        "theta": rng.standard_normal(g.dims),
        "phi": rng.standard_normal(g.dims + (2,)) + 1j * rng.standard_normal(g.dims + (2,)),
    }
    meta = {"seed": 0, "label": "probe"}
    path = tmp_path / "fields.zip"
    save_fields(path, g, arrays, meta)
    g2, arrays2, meta2 = load_fields(path)
    assert g2 == g
    assert set(arrays2) == {"theta", "phi"}
    for name in arrays:
        assert arrays2[name].dtype == arrays[name].dtype
        assert np.array_equal(arrays2[name], arrays[name])
    assert meta2["seed"] == 0 and meta2["label"] == "probe"


def test_save_is_byte_deterministic(tmp_path):
    g = GridSpec((8,) * 4)
    rng = np.random.default_rng(5)
    arrays = {"b": rng.standard_normal(g.dims), "a": rng.standard_normal(g.dims)}
    p1, p2 = tmp_path / "one.zip", tmp_path / "two.zip"
    save_fields(p1, g, arrays)
    save_fields(p2, g, dict(reversed(list(arrays.items()))))
    assert filecmp.cmp(p1, p2, shallow=False)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_fields(tmp_path / "nope.zip")


def test_roundtrip_of_two_arrays_holds_no_bytes_copy(tmp_path):
    # a metric larger than numpy's read buffer, so its member is read in
    # chunks, next to a small integer array; loading holds the arrays and
    # little more, no bytes copy of a whole member
    g = GridSpec((12, 12, 12, 12))
    rng = np.random.default_rng(3)
    arrays = {
        "g": rng.standard_normal(g.dims + (4, 4)),
        "labels": rng.integers(-5, 5, size=g.dims, dtype=np.int32),
    }
    path = tmp_path / "two.zip"
    save_fields(path, g, arrays)
    tracemalloc.start()
    try:
        g2, arrays2, _ = load_fields(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g2 == g and set(arrays2) == {"g", "labels"}
    for name, a in arrays.items():
        assert arrays2[name].dtype == a.dtype and arrays2[name].shape == a.shape
        assert np.array_equal(arrays2[name], a)
    assert peak < 1.25 * sum(a.nbytes for a in arrays.values())
