"""Unit tests for paired scheduler significance testing."""

import sys

import pytest

from repro.experiments.graphspec import GraphSpec
from repro.experiments.significance import (
    compare_schedulers,
    paired_comparison,
)


def _graph(**overrides):
    """Random v=40 DAGs on 3 CPUs, the CCR driven by the x point."""
    return GraphSpec("random", {"axis": "ccr", "v": 40, "n_procs": 3, **overrides})


def test_self_comparison_is_a_tie():
    result = compare_schedulers(_graph(), 1.0, "HEFT", "HEFT", reps=6)
    assert result.mean_diff == 0.0
    assert result.p_value == 1.0
    assert result.ties == 6
    assert not result.significant


def test_known_gap_is_significant():
    """HEFT vs the clustering strawman: a large, real gap."""
    result = compare_schedulers(_graph(), 2.0, "HEFT", "LC", reps=12)
    assert result.mean_diff < 0  # HEFT lower SLR
    assert result.significant
    assert result.wins_a > result.wins_b


def test_ci_brackets_mean():
    result = compare_schedulers(_graph(), 1.0, "HDLTS", "HEFT", reps=10)
    assert result.ci_low <= result.mean_diff <= result.ci_high
    assert result.n == 10
    assert result.wins_a + result.wins_b + result.ties == 10


def test_format_is_readable():
    result = compare_schedulers(_graph(), 1.0, "HDLTS", "HEFT", reps=6)
    text = result.format()
    assert "HDLTS vs HEFT" in text and "p=" in text


def test_too_few_reps_rejected():
    with pytest.raises(ValueError):
        compare_schedulers(_graph(), 1.0, "HDLTS", "HEFT", reps=2)


def test_custom_metric():
    result = compare_schedulers(
        _graph(), 1.0, "HDLTS", "HEFT", reps=6, metric="makespan"
    )
    assert result.mean_a > 0 and result.mean_b > 0


def test_draws_the_harness_instances():
    """The compared values are the harness's own, keyed (seed, 0, rep)."""
    from repro.experiments.harness import SweepDefinition, run_sweep

    result = compare_schedulers(_graph(), 2.0, "HDLTS", "HEFT", reps=5, seed=4)
    sweep = run_sweep(
        SweepDefinition(
            key="pair", title="pair", x_label="CCR", x_values=(2.0,),
            metric="slr", schedulers=("HDLTS", "HEFT"), graph=_graph(),
        ),
        reps=5,
        seed=4,
    )
    assert result.mean_a == pytest.approx(sweep.mean(2.0, "HDLTS"), rel=1e-12)
    assert result.mean_b == pytest.approx(sweep.mean(2.0, "HEFT"), rel=1e-12)


def test_without_scipy_the_ci_decides(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    gap = paired_comparison([1.0, 1.1, 1.2, 1.3, 1.4], [2.0] * 5, "A", "B")
    assert gap.p_value is None
    assert gap.significant  # the CI lies wholly below zero
    assert "p=n/a" in gap.format()
    noise = paired_comparison([1.0, 2.0, 1.0, 2.0, 1.5], [1.5] * 5)
    assert noise.p_value is None
    assert not noise.significant  # the CI straddles zero


def test_paired_comparison_rejects_unequal_columns():
    with pytest.raises(ValueError, match="equally long"):
        paired_comparison([1.0] * 5, [1.0] * 6)
