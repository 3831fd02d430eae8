"""Tests of the benchmark's own checker and span arithmetic.

    python3 -m pytest bench/test_checks.py -q
"""

import json

import numpy as np

from checks import LAMBDA_COORD0, check_curvature, check_hodge, check_lambda, \
    conformal_scalar_curvature
from run import REF_PROBE_S, SpeedProbe, check_report
from trace_cli import count_under, summarize
from workloads import Invocation

N = 8
CELL = (2.0 * np.pi / N) ** 4


def _render(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode()


def _lambda_report(lam=LAMBDA_COORD0, converged=True):
    return {"command": "lambda", "outputs": {
        "lambda": lam, "converged": converged, "iterations": 15,
        "start_values": [LAMBDA_COORD0, LAMBDA_COORD0 * (1 + 1e-9)]}}


def _hodge_case(b_plus=3):
    # constant frame forms are orthonormal for the flat volume weight
    basis = {f"h{a}": np.zeros((N,) * 4 + (3,)) for a in range(b_plus)}
    for a, h in enumerate(basis.values()):
        h[..., a] = 1.0 / np.sqrt(N**4 * CELL)
    report = {"command": "hodge", "outputs": {"b_plus": b_plus, "orthonormality_error": 0.0}}
    inv = Invocation("hodge8", (), False,
                     lambda r, _f: check_hodge(r, basis, np.ones((N,) * 4), CELL))
    return report, inv


def _verdict(inv, report, first=None):
    data = _render(report)
    return check_report(inv, data, data if first is None else _render(first), None)[1]


def test_good_reports_pass():
    report, inv = _hodge_case()
    assert _verdict(inv, report) == []
    lam_inv = Invocation("lambda8", (), False, lambda r, _f: check_lambda(r))
    assert _verdict(lam_inv, _lambda_report()) == []


def test_b_plus_two_is_an_error():
    report, inv = _hodge_case(b_plus=2)
    problems = _verdict(inv, report)
    assert any("b_plus = 2" in p for p in problems)


def test_shifted_or_unconverged_lambda_is_an_error():
    inv = Invocation("lambda8", (), False, lambda r, _f: check_lambda(r))
    assert _verdict(inv, _lambda_report(lam=LAMBDA_COORD0 * (1 + 1e-6)))
    assert _verdict(inv, _lambda_report(lam=0.01))
    assert _verdict(inv, _lambda_report(converged=False))


def test_report_drift_is_an_error():
    inv = Invocation("lambda8", (), False, lambda r, _f: check_lambda(r))
    first = _lambda_report()
    later = _lambda_report()
    later["outputs"]["iterations"] = 16
    assert _verdict(inv, later, first=first) == ["report bytes differ from the first run"]


def test_curvature_oracle_matches_single_mode_closed_form():
    grid = np.meshgrid(*[np.arange(16) * 2 * np.pi / 16] * 4, indexing="ij")
    f = 0.1 * np.sin(grid[0])
    closed = np.exp(-2 * f) * (6 * 0.1 * np.sin(grid[0]) - 6 * (0.1 * np.cos(grid[0])) ** 2)
    assert np.max(np.abs(conformal_scalar_curvature(f) - closed)) < 1e-13

    report = {"command": "curvature"}
    good = {"scalar": closed, "w": np.zeros_like(f)}
    assert check_curvature(report, good, f) == []
    bad = {"scalar": closed + 2e-3, "w": np.full_like(f, -1e-6)}
    assert len(check_curvature(report, bad, f)) == 2


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["selfdual.harmonic_selfdual_basis", 1.0, 7.0, 0, None],
        ["grid.d1", 2.0, 3.0, 1, 64],
        ["grid.d1", 4.0, 4.5, 1, 64],
        ["grid.d1", 8.0, 9.0, 0, 32],
    ]
    st = summarize(spans)
    assert st["cli.main"]["self_s"] == 10.0 - 6.0 - 1.0
    assert st["selfdual.harmonic_selfdual_basis"]["self_s"] == 6.0 - 1.5
    assert st["grid.d1"]["calls"] == 3 and st["grid.d1"]["note_sum"] == 160
    assert count_under(spans, "grid.d1", "selfdual.harmonic_selfdual_basis") == 2


def test_slowdown_is_the_probe_median_over_the_interval():
    probe = SpeedProbe()  # not started: samples are set by hand
    probe.samples = [(t, REF_PROBE_S * x) for t, x in
                     [(1, 9.0), (2, 1.0), (3, 2.0), (4, 2.0), (5, 1.0), (6, 2.0), (7, 9.0)]]
    assert probe.slowdown(1.5, 6.5) == 2.0
    # fewer than 5 samples inside: the 5 nearest the interval's middle
    assert probe.slowdown(3.9, 4.1) == 2.0
