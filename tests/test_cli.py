"""Command-line entry points: reports, determinism, exit codes."""

import filecmp
import importlib.util
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from monolab import cli, selfdual
from monolab.cli import main
from monolab.functionals import CATALOG
from monolab.grid import GridSpec
from monolab.io import load_fields, save_fields
from monolab.presets import metric_from_preset, random_smooth_scalar, theta_from_preset
from monolab.rayleigh import minimize_lambda, rayleigh_quotient
from monolab.report import render_report
from monolab.selfdual import SelfDualField, harmonic_selfdual_basis

from conftest import generic_metric, layout


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_curvature_report(capsys):
    code, report = run(capsys, ["curvature", "--dims", "8", "--metric", "conformal:0.2*sin(x0)"])
    assert code == 0
    assert report["schema"] == "monolab-report-v2"
    assert report["command"] == "curvature"
    assert "timings" not in report
    assert report["outputs"]["scalar"]["max"] > 0
    assert "inputs_digest" in report


def test_curvature_dump(tmp_path, capsys):
    dump = tmp_path / "fields.zip"
    code, _ = run(capsys, ["curvature", "--dims", "8", "--dump", str(dump)])
    assert code == 0
    grid, arrays, _ = load_fields(dump)
    assert grid.dims == (8, 8, 8, 8)
    assert "scalar" in arrays


# non-cubic, so that a dump whose grid axes are not its leading ones shows
DUMP_DIMS = (7, 8, 9, 10)


def test_hodge_dump_is_node_major(tmp_path, capsys):
    # the metric file is written as the benchmark writes its inputs: a
    # node-major (dims, 4, 4) g through save_fields
    grid = GridSpec(DUMP_DIMS)
    f = random_smooth_scalar(grid, np.random.default_rng(0), 1, 0.1)
    save_fields(tmp_path / "g.zip", grid, {"g": np.exp(2.0 * f)[..., None, None] * np.eye(4)})
    metric = f"file:{tmp_path / 'g.zip'}"
    dump = tmp_path / "basis.zip"
    code, _ = run(capsys, ["hodge", "--dims", "7,8,9,10", "--metric", metric,
                           "--dump", str(dump)])
    assert code == 0
    _, arrays, _ = load_fields(dump)
    basis = harmonic_selfdual_basis(metric_from_preset(metric, grid))
    for i, h in enumerate(basis):
        assert arrays[f"h{i}"].shape == DUMP_DIMS + (3,)
        assert arrays[f"h{i}"].tobytes() == layout(h.comps, "node").tobytes()


def test_lambda_dump_is_node_major(tmp_path, capsys):
    # read back component-major, the dumped minimiser gives the reported lambda
    dump = tmp_path / "minimizer.zip"
    code, report = run(capsys, ["lambda", "--dims", "7,8,9,10", "--theta", "coord:0",
                                "--multistarts", "0", "--max-iter", "20",
                                "--dump", str(dump)])
    assert code == 0
    _, arrays, _ = load_fields(dump)
    assert arrays["minimizer"].shape == DUMP_DIMS + (3,)
    m = metric_from_preset("flat", GridSpec(DUMP_DIMS))
    sigma = SelfDualField(m.grid, layout(arrays["minimizer"], "comp"))
    out = report["outputs"]
    lam = rayleigh_quotient(sigma, theta_from_preset("coord:0", m), m, out["epsilon_final"])
    assert abs(lam - out["lambda"]) <= 1e-12 * out["lambda"]


def test_psw_residual_dump_is_node_major(tmp_path, capsys):
    # its largest node norm, summed over the trailing axis, is the reported one
    dump = tmp_path / "r2.zip"
    code, report = run(capsys, ["psw-residual", "--dims", "7,8,9,10", "--pair", "gauge",
                                "--dump", str(dump)])
    assert code == 0
    _, arrays, _ = load_fields(dump)
    r2 = arrays["r2"]
    assert r2.shape == DUMP_DIMS + (3,)
    assert float(np.sqrt(np.max(np.sum(r2**2, axis=-1)))) == report["outputs"]["norms"]["r2_linf"]


def test_report_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["dirac-check", "--dims", "8", "--seed", "7", "--out", str(path)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_curvature_report_ignores_the_hash_seed(tmp_path):
    # a non-diagonal metric file, so that every curvature term is exercised
    grid = GridSpec((8,) * 4)
    rng = np.random.default_rng(5)
    g = np.tile(np.eye(4), grid.dims + (1, 1))
    for i in range(4):
        for j in range(i, 4):
            s = random_smooth_scalar(grid, rng, 1, 0.1)
            g[..., i, j] += s
            if i != j:
                g[..., j, i] += s
    save_fields(tmp_path / "g.zip", grid, {"g": g})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    reports = []
    for seed in ("1", "18"):
        out = tmp_path / f"seed{seed}.json"
        subprocess.run([sys.executable, "-m", "monolab.cli", "curvature", "--dims", "8",
                        "--metric", "file:g.zip", "--out", str(out)],
                       check=True, capture_output=True, cwd=tmp_path,
                       env=dict(env, PYTHONHASHSEED=seed))
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_lambda_report_ignores_the_thread_count(tmp_path):
    # the derivative kernels are BLAS products; a different pool size must
    # not change a single report byte.  The pools are sized when numpy is
    # imported, so the count is set in the environment of a fresh process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        subprocess.run([sys.executable, "-m", "monolab.cli", "lambda", "--dims", "8",
                        "--theta", "coord:0", "--multistarts", "1", "--out", str(out)],
                       check=True, capture_output=True, cwd=tmp_path,
                       env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads))
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def loaded_modules(tmp_path, code):
    """The monolab modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    script = code + "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('monolab')))"
    done = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    return set(done.stdout.split())


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded_modules(tmp_path, "import monolab") == {"monolab"}
    # the parser and the geometry need these, and nothing else
    assert loaded_modules(tmp_path, "import monolab.cli") == {
        "monolab", *(f"monolab.{m}" for m in
                     ("bases", "grid", "curvature", "io", "presets", "report", "cli"))}


@pytest.mark.parametrize("argv, unused", [
    (["curvature"], ("functionals", "rayleigh", "selfdual", "spinc")),
    (["hodge"], ("functionals", "rayleigh", "spinc")),
    (["lambda", "--theta", "coord:0", "--multistarts", "0", "--max-iter", "2"],
     ("functionals", "spinc")),
], ids=["curvature", "hodge", "lambda"])
def test_a_command_loads_only_its_layers(tmp_path, argv, unused):
    argv = argv + ["--dims", "8", "--out", "r.json"]
    code = f"from monolab.cli import main\nassert main({argv!r}) == 0"
    loaded = loaded_modules(tmp_path, code)
    assert "monolab.grid" in loaded
    assert loaded.isdisjoint(f"monolab.{m}" for m in unused)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: monolab {command}")


def test_catalog_surfaces_are_the_catalog(capsys):
    # the parser spells the surface names out; help and errors name them all
    names = sorted(CATALOG)
    with pytest.raises(SystemExit):
        main(["catalog", "--help"])
    assert "--surface {" + ",".join(names) + "}" in capsys.readouterr().out
    assert main(["catalog", "--surface", "k3"]) == 2
    assert capsys.readouterr().err == (
        f"monolab: config error: --surface needs one of {', '.join(names)}, got 'k3'\n")


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "amplitude": 0.2}))
    code, report = run(
        capsys, ["dirac-check", "--dims", "8", "--seed", "7", "--config", str(cfg)]
    )
    assert code == 0
    assert report["config"]["seed"] == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["psw-residual", "--dims", "8", "--pair", "gauge", "--chi", "0.2*sin(x1)"],
        ["sweep", "--check", "dirac", "--dims-list", "8,10"],
        ["catalog", "--surface", "t2xsigma2", "--sweep-delta", "0,0.5,1", "--sweep-kind", "linear"],
        # the config block records --gate off as "off"
        ["bounds", "--dims", "8", "--gate", "off"],
        # an empty sweep is recorded too, so the replay has none either
        ["catalog", "--surface", "t2xs2", "--delta", "0.5"],
    ],
)
def test_saved_config_replays_byte_identically(tmp_path, argv):
    # the config block of a report is itself a valid --config file
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(argv + ["--out", str(first)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert main([argv[0], "--config", str(cfg), "--out", str(second)]) == 0
    assert filecmp.cmp(first, second, shallow=False)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sedd": 9}))
    code, _ = run(capsys, ["dirac-check", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--metric", "conformal:bad("],
        ["curvature", "--dims", "5"],
        ["curvature", "--config", "/does/not/exist.json"],
        ["lambda", "--theta", "coord:9"],
        ["psw-residual", "--dims", "8", "--config", "bad_eps.json"],
        ["sweep", "--check", "dirac", "--dims-list", "5,8"],
        ["psw-residual", "--dims", "8", "--config", "bad_variant.json"],
        ["curvature", "--config", "bad_metric.json"],
        ["lambda", "--config", "bad_theta.json"],
        ["catalog", "--config", "bad_sweep_delta.json"],
        ["bounds", "--dims", "8", "--gate", "abc"],
        ["lebrun", "--dims", "8", "--omega-index", "99"],
        ["bounds", "--dims", "8", "--config", "bad_dump.json"],
        ["hodge", "--dims", "8", "--seed", "-1"],
        ["lambda", "--multistarts", "-1"],
        ["lambda", "--max-iter", "-1"],
        ["sweep", "--check", "weitzenboeck", "--dims-list", "8,12", "--amplitude", "nan"],
        ["dirac-check", "--dims", "8", "--config", "bad_seed.json"],
        ["curvature", "--metric", "conformal:sin(1e400*x0)"],
        ["curvature", "--metric", "conformal:400"],
        ["curvature", "--metric", "conformal:300"],
        ["lambda", "--theta", "const:inf"],
        ["bounds", "--pair", "gauge", "--chi", "1e308+1e308"],
        ["bounds", "--eps", "0"],
        ["psw-residual", "--eps", "-1"],
        ["psw-residual", "--amplitude", "1.5"],
        ["lebrun", "--c1plus-sq", "-1"],
        # lebrun's lambda is the minimiser's, so "lambda_value" is an unknown key
        ["lebrun", "--dims", "8", "--config", "lambda_key.json"],
        # lambda is the quotient's infimum, never negative
        ["psw-residual", "--dims", "8", "--lambda-value", "-1e-3"],
        ["bounds", "--dims", "8", "--config", "bad_lambda.json"],
        ["sweep", "--dims-list", "8,8"],
        # curvature draws no random field, so "seed" is an unknown key
        ["curvature", "--config", "seed_key.json"],
        ["curvature", "--dims", "8", "--periods", "1e300"],
        ["hodge", "--dims", "8", "--periods", "1e-300"],
        # without a sweep there are no rows for the CSV
        ["catalog", "--csv", "x.csv"],
        # vol = exp(460) is a float, det g = vol^2 is not
        ["curvature", "--metric", "conformal:115"],
        # numbers the checks square or raise to higher powers: these overflowed
        # into a traceback or an exit 1
        ["catalog", "--surface", "t2xs2", "--delta", "1e200"],
        ["catalog", "--surface", "t2xs2", "--sweep-delta", "0,1e200"],
        ["lebrun", "--dims", "8", "--c1", "1e308"],
        ["lebrun", "--dims", "8", "--c1plus-sq", "1e308"],
        ["bounds", "--dims", "8", "--eps", "1e300"],
        # lambda and the gate are read in [0, 1e20]: psw-residual took 1e308,
        # bounds exited 1 on a report that was not finite, and a negative
        # gate marked both bounds not applicable
        ["psw-residual", "--dims", "8", "--lambda-value", "1e308"],
        ["bounds", "--dims", "8", "--lambda-value", "1e308"],
        ["bounds", "--dims", "8", "--gate", "-1"],
        # the stop rule's tolerance is a constant of the minimiser
        ["lambda", "--dims", "8", "--config", "tol_key.json"],
        # spin^c operators are implemented on flat charts only: a curved
        # metric is input these commands do not take
        ["dirac-check", "--dims", "8", "--metric", "conformal:0.1*sin(x0)"],
        ["psw-residual", "--dims", "8", "--metric", "conformal:0.1*sin(x0)"],
        ["bounds", "--dims", "8", "--metric", "conformal:0.1*sin(x0)"],
        ["sweep", "--check", "dirac", "--dims-list", "8,12", "--metric", "conformal:0.1*sin(x0)"],
        # the rotating pair is periodic only over whole 2*pi turns of axis 2
        ["psw-residual", "--dims", "8", "--periods", "3"],
        ["bounds", "--dims", "8", "--pair", "rotating", "--periods", "6.3,6.3,3,6.3"],
    ],
)
# a numpy warning would be a second stderr line
@pytest.mark.filterwarnings("error")
def test_parse_errors_exit_2(tmp_path, monkeypatch, capsys, argv):
    # relative --config paths name the bad files written here
    monkeypatch.chdir(tmp_path)
    bad = {"bad_eps": {"eps": "abc"}, "bad_variant": {"variant": "half"},
           "bad_metric": {"metric": 5}, "bad_theta": {"theta": 3},
           "bad_sweep_delta": {"sweep_delta": [0, "half"]}, "bad_dump": {"dump": "b.zip"},
           "bad_seed": {"seed": -1}, "seed_key": {"seed": 3}, "bad_lambda": {"lambda_value": -1},
           "lambda_key": {"lambda_value": 0.3}, "tol_key": {"tol": 1e-9}}
    for name, data in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    written = sorted(tmp_path.iterdir())
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("monolab: config error:") and err.count("\n") == 1
    # no report and no CSV
    assert out == "" and sorted(tmp_path.iterdir()) == written


# readable containers whose arrays are not a metric or an angle
_BAD_FIELDS = {
    "nan-metric": lambda x0: {"g": np.where(x0[..., None, None] > 3.0, np.nan, np.eye(4))},
    "non-spd-metric": lambda x0: {"g": np.where(x0[..., None, None] > 3.0, -1.0, 1.0) * np.eye(4)},
    # g stored component-major, (4, 4, dims): files hold it node-major
    "component-major-metric": lambda x0: {
        "g": np.eye(4)[..., None, None, None, None] * np.ones(x0.shape)},
    # a file holds both triangles of g, which must agree
    "asymmetric-metric": lambda x0: {
        "g": np.broadcast_to(np.eye(4) + np.eye(4, k=1) / 10.0, x0.shape + (4, 4))},
    # the only NaN lies below the diagonal, in the triangle that is not packed
    "lower-nan-metric": lambda x0: {
        "g": np.where(x0[..., None, None] > 3.0, np.eye(4) + np.diag([np.nan], -3), np.eye(4))},
    "nan-theta": lambda x0: {"theta": np.where(x0 > 3.0, np.nan, x0)},
    "non-unit-sc": lambda x0: {"s": np.zeros_like(x0), "c": np.full_like(x0, 2.0)},
    "inf-sc": lambda x0: {"s": np.where(x0 > 3.0, np.inf, 0.0), "c": np.ones_like(x0)},
    "wrong-shape-theta": lambda x0: {"theta": x0[..., :4]},
    # a cast to float would keep the real part and only warn
    "complex-g": lambda x0: {"g": (1.0 + 1e-3j) * np.broadcast_to(np.eye(4), x0.shape + (4, 4))},
    "complex-theta": lambda x0: {"theta": x0 + 1e-3j},
    "complex-s": lambda x0: {"s": np.sin(x0) + 1e-3j, "c": np.cos(x0)},
    "complex-c": lambda x0: {"s": np.sin(x0), "c": np.cos(x0) + 1e-3j},
}


@pytest.mark.parametrize(
    "fault", ["not-a-zip", "no-manifest", "no-dims", "wrong-format", "manifest-not-object",
              *_BAD_FIELDS]
)
@pytest.mark.filterwarnings("error")
def test_bad_field_container_exit_2(tmp_path, capsys, fault):
    path = tmp_path / "fields.zip"
    if fault == "not-a-zip":
        path.write_text("plain text\n")
    elif fault in _BAD_FIELDS:
        grid = GridSpec((8,) * 4)
        save_fields(path, grid, _BAD_FIELDS[fault](grid.mesh(0)))
    else:
        manifest = {"format": "monolab-fields", "version": 1, "dims": [8] * 4,
                    "periods": [2.0 * np.pi] * 4, "arrays": []}
        if fault == "no-dims":
            del manifest["dims"]
        if fault == "wrong-format":
            manifest["format"] = "other"
        if fault == "manifest-not-object":
            manifest = [manifest]
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("readme.txt" if fault == "no-manifest" else "manifest.json",
                        json.dumps(manifest))
    for argv in (["curvature", "--dims", "8", "--metric", f"file:{path}"],
                 ["lambda", "--dims", "8", "--theta", f"file:{path}"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("monolab: config error:") and err.count("\n") == 1
        assert str(path) in err
        if fault.startswith("complex-"):
            assert repr(fault.removeprefix("complex-")) in err


@pytest.mark.parametrize("command", ["bounds", "dirac-check", "lebrun", "sweep", "catalog"])
def test_dump_only_where_written(tmp_path, command):
    # these commands write no field container, so they take no --dump
    with pytest.raises(SystemExit) as exc:
        main([command, "--dump", str(tmp_path / "fields.zip")])
    assert exc.value.code == 2
    assert not (tmp_path / "fields.zip").exists()


def test_harmonic_solve_cap_exits_1(monkeypatch, capsys):
    # the Kaehler product needs a few PCG iterations; a cap of one misses
    monkeypatch.setattr(selfdual, "_PCG_MAXITER", 1)
    code = main(["hodge", "--dims", "8", "--metric", "kaehler-product:0.3*sin(x2)*cos(x3)"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    # the timing line is printed only on success: one line, the error
    assert len(err) == 1 and err[0].startswith("monolab: check failed:")
    assert "after 1 iterations" in err[0]


def test_unwritable_out_exit_2(tmp_path, capsys):
    # the report is written inside main's error handling: one line, no file
    out = tmp_path / "missing" / "x.json"
    code = main(["curvature", "--dims", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("monolab: config error:") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 116. TiB for an array"),
                                 MemoryError()], ids=["numpy", "bare"])
def test_memory_error_exit_1(monkeypatch, capsys, exc):
    # a grid too large for memory (curvature --dims 1000 asks for 116 TiB),
    # raised here without allocating
    def refuse(m):
        raise exc

    monkeypatch.setattr(cli, "curvature_stack", refuse)
    code = main(["curvature", "--dims", "8"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("monolab: check failed: ") and captured.err.count("\n") == 1
    assert captured.err.strip() != "monolab: check failed:"


@pytest.mark.parametrize("argv", [["curvature", "--bogus"], ["curvature", "--dims"],
                                  ["lebrun", "--seed", "3"], [], ["lambda", "--tol", "1e-9"]],
                         ids=["unknown-flag", "missing-value", "flag-not-taken", "no-command",
                              "removed-flag"])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("monolab: config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, key", [(["lebrun", "--dims", "8", "--c1", "-1e-3"], "c1"),
                                       (["catalog", "--delta", "-1e-3"], "delta")],
                         ids=["lebrun-c1", "catalog-delta"])
def test_negative_number_in_exponent_form_is_a_value(capsys, argv, key):
    code, report = run(capsys, argv)
    assert code == 0 and report["config"][key] == -1e-3


def test_bad_json_config_exit_2(tmp_path, capsys):
    # one config error line that names the file, for text that is not JSON
    # and for bytes that are not UTF-8
    cfg = tmp_path / "broken.json"
    for content in (b"{not json", b'\xff\xfe{"dims": 8}'):
        cfg.write_bytes(content)
        assert main(["curvature", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"monolab: config error: {cfg}: ")


def test_hodge_report(capsys):
    code, report = run(capsys, ["hodge", "--dims", "8"])
    assert code == 0
    out = report["outputs"]
    assert out["b_plus"] == 3
    assert out["orthonormality_error"] < 1e-8
    assert out["weitzenboeck_residual"] < 1e-10
    # constant forms are exact on the flat torus: no PCG iteration runs
    assert out["harmonic_solve"] == {"iterations": 0, "residual": 0.0, "converged": True}


def test_dirac_check_report(capsys):
    code, report = run(capsys, ["dirac-check", "--dims", "8", "--amplitude", "0.2"])
    assert code == 0
    out = report["outputs"]
    assert out["weitzenboeck"]["residual"] < 5e-3
    assert out["sigma_norm_identity_error"] < 1e-12
    assert all(v < 1e-12 for v in out["clifford_identity_residuals"].values())


@pytest.mark.parametrize("amplitude", ["4e-6", "1e-4"])
def test_dirac_check_refuses_a_nearly_flat_metric(capsys, amplitude):
    # at amplitude 4e-6, |g - 1| reaches 8e-6: curved, though within numpy's
    # default relative tolerance of the identity
    code = main(["dirac-check", "--dims", "8", "--metric", f"conformal:{amplitude}*sin(x0)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"monolab: config error: --metric 'conformal:{amplitude}*sin(x0)': "
                            "spin^c operators are implemented on flat charts only\n")


@pytest.mark.parametrize("argv", [["dirac-check", "--dims", "8"],
                                  ["sweep", "--check", "identity-s", "--dims-list", "8,9"]])
# a numpy warning would be a second stderr line
@pytest.mark.filterwarnings("error")
def test_amplitude_is_bounded(tmp_path, capsys, argv):
    # the checks' integrands grow like up to amplitude^6; at 1e60 they
    # overflowed into a check failure (exit 1, several stderr lines)
    report = tmp_path / "r.json"
    for amplitude in ("1e60", "-1e60", "1.0000001e20"):
        code = main(argv + [f"--amplitude={amplitude}", "--out", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("monolab: config error:") and err.count("\n") == 1
        assert not report.exists()
    assert main(argv + ["--amplitude", "1e20", "--out", str(report)]) == 0
    assert report.exists()


# every real-valued flag, a command that takes it and its range
REAL_FLAGS = [
    ("dirac-check", "--amplitude", "[-1e20, 1e20]"),
    ("sweep", "--amplitude", "[-1e20, 1e20]"),
    ("psw-residual", "--eps", "(0, 1e20]"),
    ("bounds", "--eps", "(0, 1e20]"),
    ("psw-residual", "--amplitude", "(0, 1)"),
    ("bounds", "--amplitude", "(0, 1)"),
    ("psw-residual", "--lambda-value", "[0, 1e20]"),
    ("bounds", "--lambda-value", "[0, 1e20]"),
    ("bounds", "--gate", "[0, 1e20]"),
    ("lebrun", "--c1", "[-1e20, 1e20]"),
    ("lebrun", "--c1plus-sq", "[0, 1e20]"),
    ("catalog", "--delta", "[-1e20, 1e20]"),
    ("catalog", "--sweep-delta", "[-1e20, 1e20]"),
    ("curvature", "--periods", "[1e-20, 1e20]"),
]


@pytest.mark.parametrize("command, flag, interval", REAL_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in REAL_FLAGS])
@pytest.mark.filterwarnings("error")
def test_real_flags_are_read_in_their_range(capsys, command, flag, interval):
    # just outside each end (an open end itself, or the float beyond a closed
    # one) the flag exits 2 with one line that names its range; just inside
    # (a closed end itself, or the float within an open one) it is taken
    low, high = (float(end) for end in interval[1:-1].split(","))
    lo_in, hi_in = interval[0] == "[", interval[-1] == "]"
    refused = [float(np.nextafter(low, -np.inf)) if lo_in else low,
               float(np.nextafter(high, np.inf)) if hi_in else high]
    taken = [low if lo_in else float(np.nextafter(low, np.inf)),
             high if hi_in else float(np.nextafter(high, -np.inf))]
    for x in refused:
        assert main([command, f"{flag}={x!r}"]) == 2
        err = capsys.readouterr().err
        assert err == f"monolab: config error: {flag} needs a number in {interval}, got '{x!r}'\n"
    for x in taken:
        cli._resolve(cli._build_parser().parse_args([command, f"{flag}={x!r}"]))


def test_lambda_report(tmp_path, capsys):
    dump = tmp_path / "minimizer.zip"
    code, report = run(
        capsys,
        ["lambda", "--dims", "8", "--theta", "const:0.2", "--multistarts", "1",
         "--max-iter", "50", "--dump", str(dump)],
    )
    assert code == 0
    out = report["outputs"]
    assert out["lambda"] < 1e-7
    assert out["converged"] is True
    assert len(out["start_values"]) == 4
    assert type(out["quotient_evals"]) is int and out["quotient_evals"] > 0
    assert len(out["start_evals"]) == len(out["start_converged"]) == 4
    assert sum(out["start_evals"]) == out["quotient_evals"]
    assert all(flag is True for flag in out["start_converged"])
    assert len(out["start_gpg"]) == len(out["start_backtracks"]) == 4
    assert all(type(n) is int and n >= 0 for n in out["start_backtracks"])
    # A is applied at most once per quotient evaluation
    assert type(out["operator_applies"]) is int
    assert 0 < out["operator_applies"] <= out["quotient_evals"]
    _, arrays, _ = load_fields(dump)
    assert arrays["minimizer"].shape == (8, 8, 8, 8, 3)


def test_lambda_builds_no_curvature_stack(monkeypatch, capsys):
    # the quotient is a functional of g, theta and sigma alone
    def refuse(m):
        raise AssertionError("lambda built the curvature stack")

    monkeypatch.setattr(cli, "curvature_stack", refuse)
    code, report = run(capsys, ["lambda", "--dims", "8", "--metric", "conformal:0.1*sin(x0)",
                                "--theta", "coord:1", "--multistarts", "0", "--max-iter", "5"])
    assert code == 0
    assert report["outputs"]["lambda"] > 0.0


def test_psw_residual_report(capsys):
    code, report = run(capsys, ["psw-residual", "--dims", "8", "--pair", "rotating"])
    assert code == 0
    out = report["outputs"]
    assert out["norms"]["r2_linf"] < 1e-12
    assert out["sigma_sup"] < 0.9 + 1e-9


def test_bounds_report(capsys):
    code, report = run(
        capsys, ["bounds", "--dims", "8", "--pair", "reducible", "--eps", "0.5"]
    )
    assert code == 0
    out = report["outputs"]
    assert out["curvature_bound"]["applicable"] is True
    assert out["curvature_bound"]["margin"] > 0
    assert out["phi_l4_bound"]["margin"] > 0


def test_bounds_gate_off(capsys):
    code, report = run(
        capsys, ["bounds", "--dims", "8", "--pair", "rotating", "--gate", "off"]
    )
    assert code == 0
    assert report["outputs"]["curvature_bound"]["applicable"] is True


def test_lebrun_catalog_with_sweep_csv(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code, report = run(
        capsys,
        ["catalog", "--surface", "t2xsigma2", "--sweep-delta", "0,0.5,1",
         "--sweep-kind", "linear", "--csv", str(csv)],
    )
    assert code == 0
    out = report["outputs"]
    assert abs(out["linear"]["margin"]) < 1e-9
    assert abs(out["quadratic"]["margin"]) < 1e-9
    assert len(out["sweep"]) == 3
    lines = csv.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "delta"
    assert len(lines) == 4


def test_lebrun_grid_mode(capsys):
    code, report = run(capsys, ["lebrun", "--dims", "8", "--theta", "const:0"])
    assert code == 0
    out = report["outputs"]
    assert out["b_plus"] == 3
    assert out["lambda_search"]["lambda"] == 0.0
    assert out["lambda_search"]["converged"] is True
    assert abs(out["linear"]["lhs"]) < 1e-8
    assert abs(out["linear"]["rhs"]) < 1e-8
    assert out["quadratic"]["margin"] >= 0


def test_lebrun_flat_equality_case(capsys):
    # theta = x0 on the flat torus: the minimiser's discrete lambda cancels
    # the discrete |d theta|^2, so K = 0 to roundoff, as lambda = 1 =
    # |d theta|^2 does in the continuum
    code, report = run(capsys, ["lebrun", "--dims", "8", "--theta", "coord:0"])
    assert code == 0
    out = report["outputs"]
    assert abs(out["linear"]["lhs"]) < 1e-12
    assert abs(out["quadratic"]["rhs"]) < 1e-20


def test_lebrun_lambda_is_the_minimisers(capsys):
    metric, theta = "conformal:0.1*sin(x0)", "coord:1"
    code, report = run(capsys, ["lebrun", "--dims", "8", "--metric", metric, "--theta", theta])
    assert code == 0
    m = metric_from_preset(metric, GridSpec((8,) * 4))
    lam = minimize_lambda(theta_from_preset(theta, m), m).lam
    assert report["outputs"]["lambda_search"]["lambda"] == lam
    assert report["outputs"]["linear"]["notes"]["lambda"] == lam


def test_lebrun_runs_lambdas_default_search(tmp_path, capsys):
    # on conftest's generic metric a random start wins, so the search depends
    # on the seed: with seed 11 as the library's default and 0 as lambda's,
    # lebrun's lambda was 5.4e-10 relative below lambda's
    grid, g = generic_metric(8)
    save_fields(tmp_path / "g.zip", grid, {"g": g})
    argv = ["--dims", "8", "--metric", f"file:{tmp_path / 'g.zip'}", "--theta", "coord:1"]
    code, search = run(capsys, ["lambda", *argv])
    assert code == 0
    code, report = run(capsys, ["lebrun", *argv])
    assert code == 0
    assert report["outputs"]["lambda_search"] == search["outputs"]


def test_sweep_dirac(capsys):
    code, report = run(
        capsys, ["sweep", "--check", "dirac", "--dims-list", "8,10", "--amplitude", "0.2"]
    )
    assert code == 0
    rows = report["outputs"]["rows"]
    assert [r["n"] for r in rows] == [8, 10]
    assert rows[1]["residual"] < rows[0]["residual"]
    assert len(report["outputs"]["observed_orders"]) == 1


def test_reports_are_strict_json(capsys):
    # RFC 8259 has no Infinity or NaN: an open gate is recorded as "off" and
    # an order between two zero residuals as null
    def refuse(token):
        raise ValueError(f"report holds {token}")

    assert main(["bounds", "--dims", "8", "--gate", "off"]) == 0
    bounds = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert bounds["config"]["gate"] == "off"
    assert bounds["outputs"]["curvature_bound"]["gate"] == "off"
    assert bounds["outputs"]["phi_l4_bound"]["gate"] == "off"
    assert main(["sweep", "--check", "dirac", "--amplitude", "0", "--dims-list", "8,12"]) == 0
    sweep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert sweep["outputs"]["observed_orders"] == [None]


def test_renderer_refuses_non_finite_numbers():
    with pytest.raises(ValueError, match="non-finite"):
        render_report({"value": float("inf")})


def test_sweep_needs_two_sizes(capsys):
    code, _ = run(capsys, ["sweep", "--check", "dirac", "--dims-list", "8"])
    assert code == 2


@pytest.mark.parametrize("flag", [["--dims", "99"], ["--periods", "1,1,1,1"]])
def test_sweep_takes_no_dims_or_periods(flag):
    # sweep sizes come from --dims-list on 2*pi periods; argparse refuses the rest
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--check", "dirac", "--dims-list", "8,9"] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--seed", "3"],
        ["psw-residual", "--seed", "3"],
        ["bounds", "--seed", "3"],
        ["lebrun", "--seed", "3"],
        ["lebrun", "--catalog", "flat-t4"],
        ["lebrun", "--delta", "0.5"],
        ["lebrun", "--csv", "x.csv"],
        ["catalog", "--dims", "8"],
        ["catalog", "--metric", "flat"],
        # lebrun's lambda is the minimiser's
        ["lebrun", "--dims", "8", "--lambda-value", "-0.5"],
        # the stop rule's tolerance is a constant of the minimiser
        ["lambda", "--tol", "-1"],
    ],
)
def test_flags_only_where_read(tmp_path, monkeypatch, argv):
    # a command takes no flag it never reads; argparse refuses the rest
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def ci_runs_module():
    """tools/ci_runs.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "tools" / "ci_runs.py"
    spec = importlib.util.spec_from_file_location("ci_runs", path)
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    return ci


def ci_runs_commands() -> dict:
    """Every command line of tools/ci_runs.py, by row."""
    ci = ci_runs_module()
    rows = {f"ceiling-{name}": argv for name, (argv, _) in ci.CEILINGS.items()}
    rows.update({f"bytes-{name}": argv for name, (_, argv) in ci.BYTE_ROWS.items()})
    rows.update({f"generic8-{name}": argv for name, argv in ci.GENERIC8.items()})
    rows.update(weitzenboeck=ci.WEITZENBOECK, bench_hodge=ci.BENCH_HODGE)
    return rows


_CI_RUNS = ci_runs_commands()


@pytest.mark.parametrize("argv", list(_CI_RUNS.values()), ids=list(_CI_RUNS))
def test_ci_runs_commands_parse(argv):
    # a renamed flag fails here, in process, not first in CI's harness run
    args = cli._resolve(cli._build_parser().parse_args(argv))
    assert args.command == argv[0]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2), (["8", "12"], 2)],
                         ids=["help", "unknown-flag", "positional"])
def test_ci_runs_reads_its_arguments(monkeypatch, capsys, argv, code):
    # --help prints the module's usage; anything else is refused in one
    # line.  Neither writes an input or runs a row
    ci = ci_runs_module()

    def refused(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(ci, "write_inputs", refused)
    monkeypatch.setattr(ci, "ci_run", refused)
    assert ci.main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith(ci.__doc__) and err == ""
    else:
        assert out == "" and err.count("\n") == 1 and "takes no arguments" in err
