"""The benchmark's workloads: seeded inputs, CLI invocations and their checks.

Inputs are made from the run's seed before any timing starts; the CLI
receives only the generated files and flags.  Each workload records why it
is in the benchmark, next to its definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_curvature, check_hodge, check_lambda


@dataclass(frozen=True)
class Invocation:
    """One `monolab` process.  Reruns of one key must give identical report bytes."""

    key: str
    args: tuple[str, ...]  # without --out and --dump, which the harness adds
    dump: bool
    check: Callable[[dict, dict], list[str]]  # (report, dumped arrays) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path], list[Invocation]]


def _conformal_input(workdir: Path, name: str, n: int, seed: int, amp: float) -> np.ndarray:
    """Write g = exp(2f) delta to workdir/name; returns f."""
    # imported on use, so the checker's tests run without monolab on the path
    from monolab.grid import GridSpec
    from monolab.io import save_fields
    from monolab.presets import random_smooth_scalar

    grid = GridSpec((n,) * 4)
    f = random_smooth_scalar(grid, np.random.default_rng(seed), 1, amp)
    save_fields(workdir / name, grid, {"g": np.exp(2.0 * f)[..., None, None] * np.eye(4)})
    return f


def _curvature16(seed: int, workdir: Path) -> list[Invocation]:
    f = _conformal_input(workdir, "g16.zip", 16, seed, 0.1)
    return [Invocation(
        key="curvature16",
        args=("curvature", "--dims", "16", "--metric", "file:g16.zip"),
        dump=True,
        check=lambda report, fields: check_curvature(report, fields, f),
    )]


def _hodge8(seed: int, workdir: Path) -> list[Invocation]:
    cell_volume = (2.0 * np.pi / 8) ** 4
    out = []
    # amplitude 0.3 exits with HarmonicSolveError when this benchmark was
    # written; it stays in so that the failure counts until the solver is fixed
    for amp in (0.1, 0.3):
        name = f"g8_amp{amp}.zip"
        f = _conformal_input(workdir, name, 8, seed, amp)
        vol = np.exp(4.0 * f)  # sqrt(det g) for g = exp(2f) delta
        out.append(Invocation(
            key=f"hodge8-amp{amp}",
            args=("hodge", "--dims", "8", "--seed", str(seed), "--metric", f"file:{name}"),
            dump=True,
            check=lambda report, fields, vol=vol: check_hodge(report, fields, vol, cell_volume),
        ))
    return out


def _lambda8(seed: int, workdir: Path) -> list[Invocation]:
    return [Invocation(
        key="lambda8",
        args=("lambda", "--dims", "8", "--theta", "coord:0", "--multistarts", "4",
              "--seed", str(seed)),
        dump=False,
        check=lambda report, fields: check_lambda(report),
    )]


WORKLOADS = {w.name: w for w in (
    Workload(
        "curvature16",
        "large-array end: curvature_stack's four (16^4,4,4,4,4) arrays set time and peak "
        "memory; bypasses star3, the harmonic solver and the minimiser",
        _curvature16,
    ),
    Workload(
        "hodge8",
        "harmonic basis: lobpcg, star3 inside hodge_weight and d1; the amplitude-0.3 "
        "input fails today and counts as a failed invocation",
        _hodge8,
    ),
    Workload(
        "lambda8",
        "small-array end: about 41k d1 calls on 8^4 arrays, star3 and the lambda "
        "minimiser; no harmonic solve",
        _lambda8,
    ),
)}
