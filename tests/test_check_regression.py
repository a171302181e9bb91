"""The perf-smoke gate: wall time within a factor, logical work exact."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

BENCH = "benchmarks/bench_x.py::test_x"
COUNTERS = {"HEFT/decisions": 10, "HEFT/eft_evaluations": 40}


def _write(path: Path, benches: dict, reps: int = 2) -> Path:
    path.write_text(json.dumps({
        "schema": "repro.bench_timings/1", "reps": reps, "benchmarks": benches,
    }))
    return path


def _check(tmp_path, current: dict, reps: int = 2, baseline=None) -> int:
    base = _write(
        tmp_path / "base.json",
        baseline or {BENCH: {"wall_s": 1.0, "metrics": COUNTERS}},
    )
    cur = _write(tmp_path / "cur.json", current, reps)
    return check_regression.main(["--baseline", str(base), "--current", str(cur)])


def test_identical_work_within_factor_passes(tmp_path):
    assert _check(tmp_path, {BENCH: {"wall_s": 1.9, "metrics": COUNTERS}}) == 0


def test_wall_time_past_factor_fails(tmp_path):
    assert _check(tmp_path, {BENCH: {"wall_s": 2.1, "metrics": COUNTERS}}) == 1


@pytest.mark.parametrize("metrics", [
    {"HEFT/decisions": 11, "HEFT/eft_evaluations": 40},  # a value
    {"HEFT/decisions": 10},  # a missing key
    dict(COUNTERS, **{"HEFT/runs": 1}),  # an extra key
])
def test_any_counter_difference_fails(tmp_path, metrics, capsys):
    assert _check(tmp_path, {BENCH: {"wall_s": 0.5, "metrics": metrics}}) == 1
    assert "different logical work" in capsys.readouterr().out


def test_different_reps_are_refused(tmp_path, capsys):
    assert _check(tmp_path, {BENCH: {"wall_s": 1.0, "metrics": COUNTERS}}, reps=10) == 1
    assert "REPRO_BENCH_REPS=2" in capsys.readouterr().out


def test_committed_baseline_gates_the_ci_bench_set():
    doc = json.loads((SCRIPT.parent / "BENCH_baseline.json").read_text())
    assert doc["reps"] == 2
    assert not hasattr(check_regression, "UNGATED")  # every bench is gated
    # the benches that time a call with pytest-benchmark record the
    # sweep's counters only: none of them counts a calibrated round
    for name in (
        "benchmarks/bench_engine_scaling.py::test_engine_scaling",
        "benchmarks/bench_fig13_md_slr_vs_ccr.py::test_fig13",
        "benchmarks/bench_scaling.py::test_scaling",
    ):
        assert name in doc["benchmarks"]
