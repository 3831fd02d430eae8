"""Write a performance record, BENCH_<name>.json, for one change.

    python3 tools/bench_record.py PARENT_DIR BENCH_prN.json

PARENT_DIR is an unpacked copy of the parent commit (`git archive` or
`git clone`).  The record holds:

* `bench`: the last JSON line of `python3 bench/run.py --workload all`, run
  first with the parent's bench/ and src/, then with this tree's;
* `ci_24`: the wall time and peak RSS of CI's four 24^4 ceiling commands,
  the table `CEILINGS` of tools/ci_runs.py (no benchmark workload runs
  24^4), each run REPS times per tree, alternating trees, in the caller's
  environment (CI sets no thread count), through `ci_runs.ci_run` in a
  scratch directory that holds `ci_runs.write_inputs`'s files, written by
  this tree;
* `machine`: the CPU model, vCPU count, Python and numpy versions, the
  OpenBLAS core that numpy's bundled library picked, read through ctypes
  from `scipy_openblas_get_corename64_`, its default thread count, the
  benchmark's BLAS threads (bench/run.py's BLAS_THREADS) and PYTHONHASHSEED.

Every process runs alone, one at a time; run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

from ci_runs import CEILINGS, HERE, ci_run, write_inputs

REPS = 3


def machine() -> dict:
    lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                             "numpy.libs", "libscipy_openblas*"))[0])
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    with open("/proc/cpuinfo") as fh:
        cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    return {
        "cpu_model": cpu,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_core": lib.scipy_openblas_get_corename64_().decode(),
        "openblas_default_threads": lib.scipy_openblas_get_num_threads64_(),
        "bench_blas_threads": bench_blas_threads(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def bench_blas_threads() -> int:
    """The BLAS thread count bench/run.py pins itself and its children to."""
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return int(run.BLAS_THREADS)


def bench(tree: Path) -> dict:
    out = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload", "all"],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": HERE}
    record = {"machine": machine(), "bench": {}, "ci_24": {}}
    for name, tree in trees.items():
        record["bench"][name] = bench(tree)
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        for name, (cmd, _) in CEILINGS.items():
            runs = record["ci_24"][name] = {"command": "monolab " + " ".join(cmd)}
            for _ in range(REPS):
                for tree_name, tree in trees.items():
                    runs.setdefault(tree_name, []).append(
                        ci_run(tree, [*cmd, "--out", os.devnull], work))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
