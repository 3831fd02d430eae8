"""Run the monolab CLI once with timing spans around every layer boundary.

    python3 bench/trace_cli.py SPANS.json -- <monolab arguments>

Before `monolab.cli.main` runs, the public functions of the layers named in
`LAYERS` are replaced, in this process only, by wrappers that record a span
(name, start, end, parent).  Names a module imported from another one (`d1`
in `curvature`, `selfdual`, `rayleigh` and `spinc`, for instance) are patched
too, as are scipy's `lobpcg` as `selfdual` calls it and the cached
properties of `MetricField`.  Spans stay in memory and are written to
SPANS.json when the run ends, whatever its exit code.  The exit code is the
CLI's.  Nothing under `src/` is modified; the program itself carries no
tracing code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from functools import cached_property

LAYERS = ("grid", "curvature", "selfdual", "rayleigh", "presets", "io", "cli")


class Recorder:
    """Flat list of spans; each is [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None, track_memory=False):
        """Wrap fn in a span; note(args, result) may attach one number."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            if track_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(args, result)
                return result
            finally:
                if track_memory:
                    rec[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec[2] = clock()
                open_.pop()

        return traced


def _array_size(args, _result):
    return int(args[0].size)


def _file_size(args, _result):
    return os.path.getsize(args[0])


def install(rec: Recorder):
    """Patch the monolab layers; returns the (wrapped) `monolab.cli.main`."""
    cli = importlib.import_module("monolab.cli")  # imports every layer
    layers = {name: importlib.import_module(f"monolab.{name}") for name in LAYERS}
    notes = {"grid.d1": _array_size, "io.load_fields": _file_size,
             "io.save_fields": _file_size}

    wrapped = {}  # id(original) -> wrapper
    for layer, mod in layers.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = rec.wrap(
                    name, fn, note=notes.get(name),
                    track_memory=(name == "curvature.curvature_stack"))
    selfdual = layers["selfdual"]
    wrapped[id(selfdual.lobpcg)] = rec.wrap("selfdual.lobpcg", selfdual.lobpcg)

    # rebind every name a monolab module holds for a wrapped function
    for modname, mod in list(sys.modules.items()):
        if modname == "monolab" or modname.startswith("monolab."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    metric_cls = layers["curvature"].MetricField
    for attr, prop in list(vars(metric_cls).items()):
        if isinstance(prop, cached_property):
            new = cached_property(rec.wrap(f"curvature.MetricField.{attr}", prop.func))
            new.__set_name__(metric_cls, attr)
            setattr(metric_cls, attr, new)
    return cli.main


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self time, inclusive time, summed and largest note.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap their siblings.
    """
    child_time = [0.0] * len(spans)
    for _name, t0, t1, parent, _note in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict] = {}
    for i, (name, t0, t1, _parent, note) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "note_sum": 0, "note_max": 0})
        s["calls"] += 1
        s["self_s"] += (t1 - t0) - child_time[i]
        s["total_s"] += t1 - t0
        if note is not None:
            s["note_sum"] += note
            s["note_max"] = max(s["note_max"], note)
    return stats


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of spans called `name` that run inside a span called `ancestor`."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py SPANS.json -- <monolab arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    rec = Recorder()
    cli_main = install(rec)
    try:
        return cli_main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
