"""Deterministic machine-readable reports.

A report is a JSON document with sorted keys, no timestamps, and no
wall-clock timings; actual timings go to stderr where they cannot break
byte-for-byte reproducibility.  The config digest ties a report to the
exact inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["SCHEMA", "sanitize", "config_digest", "make_report", "render_report"]

SCHEMA = "monolab-report-v2"


def sanitize(obj):
    """Recursively convert numpy and container types to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def config_digest(config: dict) -> str:
    text = json.dumps(sanitize(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def make_report(command: str, config: dict, outputs: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": sanitize(config),
        "inputs_digest": config_digest(config),
        "outputs": sanitize(outputs),
    }


def render_report(report: dict) -> str:
    """Sorted, indented JSON (RFC 8259), so a non-finite number is refused."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a report cannot hold a non-finite number") from None
