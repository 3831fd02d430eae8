"""CI's run-level checks of the command line, from one table.

    python tools/ci_runs.py

It takes no arguments: --help prints this text, and any other argument
exits 2 with one line, before any row runs.  Every check runs
`python -m monolab.cli` on this tree's src/ in a child process, in a
scratch directory that holds the inputs, each built once:
conftest's `generic_metric` at 8, 12 and 24 (generic8.zip, generic12.zip,
generic24.zip), written by a child process, and hodge8's conformal file
(conformal8.zip), written by the check_hodge row with bench/workloads.py's
own `_conformal_input`.  The rows:

* CEILINGS: a 24^4 command's own peak RSS (os.wait4) stays under its ceiling;
* BYTE_ROWS: one command under two environments (1 and 2 BLAS threads, or
  hash seeds 0 and 1) writes reports and dumps that exist, are not empty,
  parse as JSON (reports) and agree byte for byte;
* the generic 8^4 hodge run's PCG bound, the Weitzenboeck residual's order
  between 12^4 and 16^4, and bench/checks.py's `check_hodge` on a
  conformal-file dump.

It prints one line per row and exits 1 if any row failed.  Byte equality
holds within one BLAS kernel; OpenBLAS picks its kernel per CPU at run time.
tools/bench_record.py runs the same ceiling commands through `ci_run`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

CONFORMAL = "conformal:0.1*sin(x0)"
# name: (command, peak-RSS ceiling in MiB); each ceiling is the peak
# measured when it was set plus about 12%
# The four were measured with no whole-grid Cholesky factor held, each
# reader forming the factor of its own slab or block of nodes
CEILINGS = {
    # measured 100.2 MiB
    "curvature": (["curvature", "--dims", "24", "--metric", CONFORMAL], 112),
    # measured 329.2-329.3 MiB, with g packed and the eta pairs formed in
    # blocks of 4096 nodes; a conformal metric's PCG takes 0 iterations
    "hodge": (["hodge", "--dims", "24", "--metric", CONFORMAL], 369),
    # the only 24^4 ceiling step whose PCG iterates; measured 355.1-355.2
    # MiB, with g and the flux weight packed
    "hodge_generic": (["hodge", "--dims", "24", "--metric", "file:generic24.zip"], 398),
    # measured 382.3-382.4 MiB, set by the minimiser's peak, with theta
    # holding s and c alone
    "lambda_short": (["lambda", "--dims", "24", "--metric", CONFORMAL, "--theta", "coord:1",
                      "--multistarts", "0", "--max-iter", "5"], 428),
}

THREADS = [{"OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t} for t in ("1", "2")]
HASH_SEEDS = [{"PYTHONHASHSEED": s} for s in ("0", "1")]
# name: (the two environments, command); the files named by --out and
# --dump are compared, each run writing its own copy
BYTE_ROWS = {
    # at 12^4 BLAS splits the preconditioner's and the stencils' products
    # between threads; the 8^4 lambda test may never split one
    "hodge12_threads": (THREADS, ["hodge", "--dims", "12", "--metric", "file:generic12.zip",
                                  "--out", "hodge.json", "--dump", "basis.zip"]),
    # the minimiser's component-major stencils are batched matrix
    # products, a BLAS path the 8^4 lambda runs may never split between
    # threads; about 5 s per run
    "lambda12_threads": (THREADS, ["lambda", "--dims", "12", "--metric", "file:generic12.zip",
                                   "--theta", "coord:1", "--multistarts", "1",
                                   "--out", "lambda.json", "--dump", "minimizer.zip"]),
    # the flat metric's lambda applies its operator as one Gram circulant
    # per axis, a path no generic-metric row runs; about 0.2 s per run
    "lambda12_flat_threads": (THREADS, ["lambda", "--dims", "12", "--theta", "coord:0",
                                        "--multistarts", "1",
                                        "--out", "lambda.json", "--dump", "minimizer.zip"]),
    # the curvature stack's stencils are batched matrix products on
    # component-major axis-0 slabs, a BLAS path of their own
    "curvature16_threads": (THREADS, ["curvature", "--dims", "16", "--metric", CONFORMAL,
                                      "--out", "curvature.json", "--dump", "fields.zip"]),
    # an einsum's "..." axes can take their order from the hash seed
    # (see curvature._bilinear)
    "hodge12_hashseed": (HASH_SEEDS, ["hodge", "--dims", "12", "--metric", "file:generic12.zip",
                                      "--out", "hodge.json", "--dump", "basis.zip"]),
    "lambda8_hashseed": (HASH_SEEDS, ["lambda", "--dims", "8", "--metric", "file:generic8.zip",
                                      "--theta", "coord:1", "--multistarts", "1",
                                      "--out", "lambda.json", "--dump", "minimizer.zip"]),
    "sweep_hashseed": (HASH_SEEDS, ["sweep", "--check", "identity-s", "--dims-list", "8,12",
                                    "--metric", CONFORMAL, "--out", "sweep.json"]),
    # the K integrals on the minimiser's lambda, which no other row runs
    # together; about 1 s per run
    "lebrun8_hashseed": (HASH_SEEDS, ["lebrun", "--dims", "8", "--metric", CONFORMAL,
                                      "--theta", "coord:1", "--out", "lebrun.json"]),
}
GENERIC8 = {
    "curvature": ["curvature", "--dims", "8", "--metric", "file:generic8.zip",
                  "--out", "generic8_curvature.json"],
    "hodge": ["hodge", "--dims", "8", "--metric", "file:generic8.zip",
              "--out", "generic8_hodge.json"],
}
MAX_ITERATIONS = 16  # guards the spectral preconditioner; measured: 14
WEITZENBOECK = ["sweep", "--check", "weitzenboeck", "--dims-list", "8,12,16",
                "--metric", CONFORMAL, "--out", "sweep_w.json"]
MIN_ORDER = 5.0  # between 12^4 and 16^4
# the benchmark reads the node-major dump layout
BENCH_HODGE = ["hodge", "--dims", "8", "--seed", "0", "--metric", "file:conformal8.zip",
               "--out", "conformal8_hodge.json", "--dump", "conformal8_basis.zip"]


class Failed(Exception):
    """A row's command exited non-zero, or its check did not hold."""


def ci_run(tree: Path, argv: list[str], cwd, env: dict | None = None) -> dict:
    """One CLI process in cwd: its wall time and its own peak RSS (wait4).

    exec starts a child's peak RSS at its parent's high-water mark, so the
    calling process must stay small: the inputs are built in a child."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "monolab.cli", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            last = (err.read().decode(errors="replace").strip().splitlines() or [""])[-1]
            raise Failed(f"monolab {' '.join(argv)} exited {proc.returncode}: {last}")
    return {"wall_s": round(wall, 3), "peak_rss_mib": round(usage.ru_maxrss / 1024.0, 1)}


def _write_inputs() -> None:
    sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
    from conftest import generic_metric
    from monolab.io import save_fields

    for n in (8, 12, 24):
        grid, g = generic_metric(n)
        save_fields(f"generic{n}.zip", grid, {"g": g})


def write_inputs(work) -> None:
    """The generic metric files, written into work by a child process."""
    code = (f"import sys; sys.path.insert(0, {str(HERE / 'tools')!r}); "
            "import ci_runs; ci_runs._write_inputs()")
    subprocess.run([sys.executable, "-c", code], cwd=work, check=True)


def _file(work, name: str) -> Path:
    path = Path(work, name)
    if not path.is_file() or path.stat().st_size == 0:
        raise Failed(f"{name} is missing or empty")
    return path


def _report(work, name: str) -> dict:
    return json.loads(_file(work, name).read_text())


def _ceiling(work, argv: list[str], ceiling: int) -> str:
    run = ci_run(HERE, [*argv, "--out", os.devnull], work)
    peak = run["peak_rss_mib"]
    message = f"peak RSS {peak:.1f} MiB (ceiling {ceiling} MiB), {run['wall_s']:.1f} s"
    if peak > ceiling:
        raise Failed(message)
    return message


def _label(env: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in env.items())


def _same_bytes(work, name: str, envs: list[dict], argv: list[str]) -> str:
    files = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--dump")]
    copies = []
    for k, env in enumerate(envs):
        renamed = {f: f"{name}_{k}_{f}" for f in files}
        ci_run(HERE, [renamed.get(a, a) for a in argv], work, env)
        copies.append(renamed.values())
    for f, pair in zip(files, zip(*copies)):
        a, b = (_file(work, copy).read_bytes() for copy in pair)
        if f.endswith(".json"):
            for report in (a, b):
                json.loads(report)
        if a != b:
            raise Failed(f"{f} differs between {_label(envs[0])} and {_label(envs[1])}")
    return f"{', '.join(files)} equal under {_label(envs[0])} and {_label(envs[1])}"


def _generic8(work) -> str:
    for argv in GENERIC8.values():
        ci_run(HERE, argv, work)
    _report(work, GENERIC8["curvature"][-1])
    solve = _report(work, GENERIC8["hodge"][-1])["outputs"]["harmonic_solve"]
    if not solve["converged"]:
        raise Failed(f"the harmonic solve did not converge: {solve}")
    if solve["iterations"] > MAX_ITERATIONS:
        raise Failed(f"{solve['iterations']} PCG iterations, more than {MAX_ITERATIONS}")
    return f"converged in {solve['iterations']} PCG iterations (at most {MAX_ITERATIONS})"


def _weitzenboeck_order(work) -> str:
    ci_run(HERE, WEITZENBOECK, work)
    order = _report(work, WEITZENBOECK[-1])["outputs"]["observed_orders"][-1]
    message = f"Weitzenboeck residual order {order} between 12^4 and 16^4 (at least {MIN_ORDER})"
    if order is None or order < MIN_ORDER:
        raise Failed(message)
    return message


def _bench_hodge(work) -> str:
    import numpy as np

    from checks import check_hodge
    from monolab.io import load_fields
    from workloads import _conformal_input

    f = _conformal_input(Path(work), "conformal8.zip", 8, 0, 0.1)
    ci_run(HERE, BENCH_HODGE, work)
    grid, fields, _ = load_fields(Path(work, BENCH_HODGE[-1]))
    problems = check_hodge(_report(work, BENCH_HODGE[-3]), fields, np.exp(4.0 * f),
                           grid.cell_volume)  # vol = exp(4f)
    if problems:
        raise Failed("; ".join(problems))
    return "the dump passes bench/checks.py's check_hodge"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv in (["--help"], ["-h"]):
        print(__doc__)
        return 0
    if argv:
        print(f"ci_runs.py: takes no arguments (see --help), got {' '.join(argv)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE / "src"), str(HERE / "bench")]
    rows = [(f"ceiling {name}", _ceiling, (argv, ceiling))
            for name, (argv, ceiling) in CEILINGS.items()]
    rows += [(f"bytes {name}", _same_bytes, (name, envs, argv))
             for name, (envs, argv) in BYTE_ROWS.items()]
    rows += [("generic8 PCG bound", _generic8, ()),
             ("weitzenboeck order", _weitzenboeck_order, ()),
             ("bench check_hodge", _bench_hodge, ())]
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        for name, check, args in rows:
            try:
                print(f"ok   {name}: {check(work, *args)}", flush=True)
            except (Failed, ValueError, KeyError) as exc:
                failed += 1
                print(f"FAIL {name}: {exc}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
