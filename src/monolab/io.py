"""Self-describing field containers.

A container is a zip holding one JSON manifest (grid shape, periods, array
names, free-form metadata) plus one .npy member per array.  Members are
written in sorted order with fixed timestamps, so identical inputs produce
byte-identical files.

Files are the one place where fields are node-major, (n0, n1, n2, n3, c...);
in memory they are component-major (see `grid`).  `save_fields` and
`load_fields` take and return arrays as they are; the view `_node_major`
crosses the boundary where a field is dumped, and a stored metric is read
node-major and packed by `presets.metric_from_preset`.
"""

from __future__ import annotations

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
            array = np.ascontiguousarray(arrays[name])
            zi = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            # writestr sets the member's length; here the .npy header is left
            # out, which can change only the ZIP64 choice, and only near 1.9 GiB
            zi.file_size = array.nbytes
            with zf.open(zi, "w") as member:  # streamed: no whole copy of the member
                np.lib.format.write_array(member, array, version=(1, 0))


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
