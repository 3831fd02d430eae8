"""Benchmark of the monolab command line, run the way its users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N     # every metric, both modes

NAME is one of the workloads in bench/workloads.py.  Inputs come from
--seed and are written before any timing starts.  Every invocation is a
fresh `python3 -m monolab.cli` process with BLAS and OpenMP pools pinned
to `BLAS_THREADS`, one process at a time, timed from spawn to exit.  Its
report (and field dump) must pass the workload's oracle in bench/checks.py
and be byte-identical to the first report of the same input in this
benchmark invocation.

--trace 0 repeats rounds (all of the workload's invocations) until --seconds
have passed and reports the end-to-end metrics: wall_s and peak_rss_mib
(medians over rounds) and setup_s (median of `SETUP_PROBES` imports).
--trace 1 repeats pairs of an untraced and a traced round, the traced one
through bench/trace_cli.py, and reports per-layer numbers from its spans,
plus trace.overhead_s, the traced minus the untraced round time.

The times wall_s, setup_s and trace.overhead_s are scaled to a reference
host speed.  The shared host this was written on changed the speed of a CPU
by a quarter to a half for seconds to minutes at a time, longer than a run
can average out.  So the harness and its children share one CPU, on which
`SpeedProbe` times a fixed block of work every `PROBE_PERIOD_S`.  Each
process's wall time is divided by its slowdown: the probe's median time
while the process ran, over `REF_PROBE_S`.  The unscaled times and the
slowdown are printed next to them.  Other load on that CPU is not scaled
away: the benchmark expects the machine to itself.

Lines before the last one name every metric with its unit, the machine and
the verdict.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when a report the program
produced is wrong: it fails its oracle or differs from an earlier run of the
same input.  An invocation that exits non-zero counts in `failed`, as does a
wrong report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_CLI = BENCH / "trace_cli.py"
WORK = ROOT / ".bench_work"

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # children still running this long after start are killed
IMPORT_PROBE = "import time, monolab.cli; print(time.perf_counter())"
PROBE_PERIOD_S = 0.1
REF_PROBE_S = 0.002  # the reference; the probe took 1.3 to 2.3 ms on a 2-vCPU Xeon sandbox
PRINTED_ONLY = ("unscaled wall_s", "unscaled setup_s", "host slowdown")

sys.path.insert(0, str(BENCH))
from trace_cli import count_under, summarize  # noqa: E402


def _probe_block() -> int:
    """The probe's fixed work: an interpreter loop.  It followed the CLI's
    speed better than small-array numpy calls or passes over cache- or
    memory-sized arrays did."""
    s = 0
    for i in range(20000):
        s += i * i
    return s


class SpeedProbe:
    """Samples the speed of this process's CPU while the benchmark runs.

    Every PROBE_PERIOD_S a thread runs `_probe_block` and records its thread
    CPU time, which excludes the time the thread waits for the CPU and so
    measures the speed of the CPU, not its load.  The thread shares the CPU
    with the measured child and takes about 2% of it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, cpu seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        while len(self.samples) < 5 and self._thread.is_alive():
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            c0 = time.thread_time()
            _probe_block()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time over [t0, t1] as a multiple of REF_PROBE_S; at
        least the 5 samples nearest the interval's middle."""
        samples = list(self.samples)
        within = [d for t, d in samples if t0 <= t <= t1]
        if len(within) < 5:
            mid = 0.5 * (t0 + t1)
            within = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:5]]
        return statistics.median(within) / REF_PROBE_S


class Harness:
    """Spawns and checks the CLI processes of one benchmark invocation."""

    def __init__(self, workdir: Path, deadline: float, probe: SpeedProbe):
        self.workdir = workdir
        self.deadline = deadline
        self.probe = probe
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.first_reports: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self._serial = 0

    def _spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, float, int, float]:
        """Run argv to completion: (wall seconds, host slowdown while it ran,
        exit code, peak RSS in MiB)."""
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (t1 - t0, self.probe.slowdown(t0, t1), proc.returncode,
                usage.ru_maxrss / 1024.0)  # Linux: KiB

    def setup_time(self) -> tuple[float, float]:
        """Seconds from spawn until monolab.cli (with numpy, scipy) has imported,
        and the host slowdown meanwhile."""
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=self.workdir,
                             env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                             timeout=max(self.deadline - time.monotonic(), 1.0), check=True)
        t1 = float(out.stdout)  # perf_counter is system-wide on Linux
        return t1 - t0, self.probe.slowdown(t0, t1)

    def run_round(self, invocations, traced: bool) -> dict:
        """One pass over the invocations: summed wall time, unscaled ("raw") and
        scaled to the reference speed, peak RSS, spans, reports."""
        raw, wall, peak, spans, reports = 0.0, 0.0, 0.0, [], []
        for inv in invocations:
            self._serial += 1
            stem = f"{self._serial:04d}"
            args = list(inv.args) + ["--out", f"{stem}.json"]
            if inv.dump:
                args += ["--dump", f"{stem}.zip"]
            if traced:
                argv = [sys.executable, str(TRACE_CLI), f"{stem}.spans", "--"] + args
            else:
                argv = [sys.executable, "-m", "monolab.cli"] + args
            dt, slowdown, code, rss = self._spawn(argv, self.workdir / f"{stem}.err")
            raw += dt
            wall += dt / slowdown
            peak = max(peak, rss)
            report = self._assess(inv, stem, code)
            if report is not None:
                reports.append(report)
            if traced and (self.workdir / f"{stem}.spans").exists():  # absent if killed
                offset = len(spans)
                with open(self.workdir / f"{stem}.spans") as fh:
                    for s in json.load(fh):
                        s[3] = s[3] + offset if s[3] >= 0 else -1
                        spans.append(s)
            for path in self.workdir.glob(f"{stem}.*"):
                path.unlink()
        return {"raw": raw, "wall": wall, "peak": peak, "spans": spans, "reports": reports}

    def _assess(self, inv, stem: str, code: int) -> dict | None:
        """Count the invocation; returns its parsed report when it produced one."""
        self.attempted += 1
        if code != 0:
            lines = (self.workdir / f"{stem}.err").read_text(errors="replace").splitlines()
            said = [line for line in lines if line.startswith("monolab:")] or lines or [""]
            self._fail(f"{inv.key}: exit {code}: {said[-1][:200]}")
            return None
        data = (self.workdir / f"{stem}.json").read_bytes()
        report, problems = check_report(inv, data, self.first_reports.setdefault(inv.key, data),
                                        self.workdir / f"{stem}.zip")
        if problems:
            self.wrong += 1
            self._fail(f"{inv.key}: " + "; ".join(problems))
        return report

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if problem not in self.problems:
            self.problems.append(problem)


def check_report(inv, data: bytes, first: bytes, dump: Path) -> tuple[dict | None, list[str]]:
    """The parsed report and its problems: byte drift against the first run,
    then the workload's oracle."""
    problems = [] if data == first else ["report bytes differ from the first run"]
    try:
        report = json.loads(data)
    except json.JSONDecodeError as exc:
        return None, problems + [f"report is not JSON: {exc}"]
    fields = {}
    if inv.dump:
        from monolab.io import load_fields
        _, fields, _ = load_fields(dump)
    return report, problems + inv.check(report, fields)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans: list[list], reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced round; a layer that did not run reads 0."""
    st = summarize(spans)

    def get(name, key="self_s"):
        return st.get(name, {}).get(key, 0)

    evals = count_under(spans, "selfdual.hodge_energy_and_grad", "rayleigh.minimize_lambda")
    lam = next((r["outputs"] for r in reports if r.get("command") == "lambda"), {})
    elements = get("grid.d1", "note_sum")
    return {
        "grid.d1.calls": (get("grid.d1", "calls"), "count"),
        "grid.d1.self_s": (get("grid.d1"), "s"),
        "grid.d1.elements": (elements, "count"),
        # computed, not measured: one float64 read and one write per element
        "grid.d1.computed_bytes": (16 * elements, "B"),
        "grid.d2.calls": (get("grid.d2", "calls"), "count"),
        "grid.d2.self_s": (get("grid.d2"), "s"),
        "curvature.curvature_stack.self_s": (get("curvature.curvature_stack"), "s"),
        "curvature.curvature_stack.peak_mib": (
            get("curvature.curvature_stack", "note_max") / 2**20, "MiB"),
        "curvature.metric_algebra.self_s": (
            sum(s["self_s"] for n, s in st.items() if n.startswith("curvature.MetricField.")),
            "s"),
        "curvature.star3.self_s": (get("curvature.MetricField.star3"), "s"),
        "curvature.christoffel.self_s": (
            get("curvature.christoffel") + get("curvature.MetricField.christoffel"), "s"),
        "selfdual.harmonic_selfdual_basis.self_s": (
            get("selfdual.harmonic_selfdual_basis"), "s"),
        "selfdual.lobpcg.self_s": (get("selfdual.lobpcg"), "s"),
        "selfdual.harmonic_selfdual_basis.d1_calls": (
            count_under(spans, "grid.d1", "selfdual.harmonic_selfdual_basis"), "count"),
        "selfdual.hodge_energy_and_grad.calls": (
            get("selfdual.hodge_energy_and_grad", "calls"), "count"),
        "selfdual.hodge_energy_and_grad.self_s": (get("selfdual.hodge_energy_and_grad"), "s"),
        "selfdual.sd_dirichlet_energy_and_grad.self_s": (
            get("selfdual.sd_dirichlet_energy_and_grad"), "s"),
        "selfdual.covariant_derivative.self_s": (get("selfdual.covariant_derivative"), "s"),
        "selfdual.nabla_transpose.self_s": (get("selfdual.nabla_transpose"), "s"),
        "selfdual.weitzenboeck_residual.self_s": (get("selfdual.weitzenboeck_residual"), "s"),
        "rayleigh.minimize_lambda.self_s": (get("rayleigh.minimize_lambda"), "s"),
        "rayleigh.quotient_evals": (evals, "count"),
        "rayleigh.s_per_eval": (
            get("rayleigh.minimize_lambda", "total_s") / evals if evals else 0.0, "s"),
        "rayleigh.iterations": (lam.get("iterations", 0), "count"),
        "rayleigh.converged": (1 if lam.get("converged") else 0, "bool"),
        "presets.metric_from_preset.self_s": (get("presets.metric_from_preset"), "s"),
        "presets.theta_from_preset.self_s": (get("presets.theta_from_preset"), "s"),
        "io.load_fields.self_s": (get("io.load_fields"), "s"),
        "io.save_fields.self_s": (get("io.save_fields"), "s"),
        "io.bytes": (get("io.load_fields", "note_sum") + get("io.save_fields", "note_sum"), "B"),
        "cli.main.self_s": (get("cli.main"), "s"),
    }


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict[str, tuple]:
    """Median of each metric over samples, with its unit and the samples."""
    out = {}
    for name, (_, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        out[name] = (statistics.median(values), unit, values)
    return out


def measure(harness: Harness, invocations, seconds: float, traced: bool):
    """Rounds (or untraced/traced pairs) until `seconds` have passed."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        plain = harness.run_round(invocations, traced=False)
        if not traced:
            samples.append({"wall_s": (plain["wall"], "s"),
                            "peak_rss_mib": (plain["peak"], "MiB"),
                            "unscaled wall_s": (plain["raw"], "s")})
            continue
        tr = harness.run_round(invocations, traced=True)
        sample = layer_metrics(tr["spans"], tr["reports"])
        sample["trace.overhead_s"] = (tr["wall"] - plain["wall"], "s")
        samples.append(sample)
    return median_metrics(samples)


def machine(cpu: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {})

    mem = ""
    try:
        with open("/proc/meminfo") as fh:
            mem = next(line.split(":")[1].strip() for line in fh if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total": mem,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "benchmark_cpu": cpu,
        "ref_probe_s": REF_PROBE_S,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, deadline: float,
                 probe: SpeedProbe):
    """Set up, measure and check one workload; returns (harness, metrics)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        harness = Harness(workdir, deadline, probe)
        invocations = workload.prepare(seed, workdir)
        setups = [harness.setup_time() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        metrics = measure(harness, invocations, seconds, trace)
        slowdown = probe.slowdown(start, time.perf_counter())
        metrics["host slowdown"] = (slowdown, "x", [slowdown])
        if not trace:
            scaled, unscaled = [t / x for t, x in setups], [t for t, _ in setups]
            metrics["setup_s"] = (statistics.median(scaled), "s", scaled)
            metrics["unscaled setup_s"] = (statistics.median(unscaled), "s", unscaled)
        return harness, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another benchmark process still has its directory there
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monolab" / "cli.py").is_file():
        print(f"bench: no monolab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")

    cpu = max(os.sched_getaffinity(0))
    print("machine:", json.dumps(machine(cpu), sort_keys=True))
    # the probe, this process and every child share one CPU (see the top)
    os.sched_setaffinity(0, {cpu})
    correct, attempted, failed, result = True, 0, 0, {}
    for workload, trace in runs:
        print(f"{workload.name} (seed {args.seed}, trace {int(trace)}): {workload.why}")
        with SpeedProbe() as probe:
            harness, metrics = run_workload(workload, args.seed, args.seconds, trace,
                                            time.monotonic() + DEADLINE_S, probe)
        for name, (value, unit, values) in metrics.items():
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"  {name} = {value:.6g} {unit}  (median of {len(values)}: {shown})")
            if name in PRINTED_ONLY:
                continue
            key = name if len(runs) == 1 else f"{workload.name}.{name}"
            result[key] = {"value": value, "unit": unit}
        verdict = "correct" if harness.wrong == 0 else "WRONG REPORTS"
        print(f"  verdict: {verdict}; {harness.failed} of {harness.attempted} invocations "
              f"failed (error_rate {harness.failed / harness.attempted:.3f})")
        for problem in harness.problems:
            print(f"    {problem}")
        correct = correct and harness.wrong == 0
        attempted += harness.attempted
        failed += harness.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
