"""Self-describing field containers.

A container is a zip holding one JSON manifest (grid shape, periods, array
names, free-form metadata) plus one .npy member per array.  Members are
written in sorted order with fixed timestamps, so identical inputs produce
byte-identical files.

Files are the one place where fields are node-major, (n0, n1, n2, n3, c...);
in memory they are component-major (see `grid`).  `save_fields` and
`load_fields` take and return arrays as they are; the views `_node_major`
and `_component_major` cross the boundary where a field is dumped or a
stored metric is read.
"""

from __future__ import annotations

import io as _io
import json
import zipfile

import numpy as np

from .grid import GridSpec

__all__ = ["save_fields", "load_fields"]

_MANIFEST = "manifest.json"
_EPOCH = (1980, 1, 1, 0, 0, 0)  # zip format's earliest representable time


def _node_major(values: np.ndarray) -> np.ndarray:
    """A component-major (c..., dims) array as a node-major (dims, c...) view."""
    return np.moveaxis(values, (-4, -3, -2, -1), (0, 1, 2, 3))


def _component_major(values: np.ndarray) -> np.ndarray:
    """A node-major (dims, c...) array as a component-major (c..., dims) view.

    No copy: the one reader, `build_metric`, copies what it keeps."""
    return np.moveaxis(values, (0, 1, 2, 3), (-4, -3, -2, -1))


def save_fields(path, grid: GridSpec, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    names = sorted(arrays)
    manifest = {
        "format": "monolab-fields",
        "version": 1,
        "dims": list(grid.dims),
        "periods": [float(L) for L in grid.periods],
        "arrays": names,
        "meta": meta or {},
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zi = zipfile.ZipInfo(_MANIFEST, date_time=_EPOCH)
        zf.writestr(zi, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        for name in names:
            buf = _io.BytesIO()
            np.lib.format.write_array(
                buf, np.ascontiguousarray(arrays[name]), version=(1, 0)
            )
            zi = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            zf.writestr(zi, buf.getvalue())


def load_fields(path) -> tuple[GridSpec, dict[str, np.ndarray], dict]:
    with zipfile.ZipFile(path, "r") as zf:
        manifest = json.loads(zf.read(_MANIFEST).decode())
        if not isinstance(manifest, dict) or manifest.get("format") != "monolab-fields":
            raise ValueError(f"{path}: not a field container")
        grid = GridSpec(tuple(manifest["dims"]), tuple(manifest["periods"]))
        arrays = {}
        for name in manifest["arrays"]:
            # read from the member's stream, with no whole-member bytes copy
            with zf.open(name + ".npy") as member:
                arrays[name] = np.lib.format.read_array(member)
    return grid, arrays, manifest.get("meta", {})
