"""Unit tests for the ASCII chart renderer."""

import pytest

from repro.experiments.chart import ascii_chart
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import run_sweep
from tests.experiments.test_harness import tiny_sweep


@pytest.fixture(scope="module")
def result():
    return run_sweep(tiny_sweep(), reps=3, seed=0)


def test_chart_structure(result):
    text = ascii_chart(result, height=10)
    lines = text.splitlines()
    assert len(lines) == 10 + 3  # rows + axis + ticks + legend
    assert "+" in lines[10]  # axis line
    assert "CCR" in lines[-1]
    assert "H=HDLTS" in lines[-1] and "E=HEFT" in lines[-1]


def test_y_labels_are_min_max(result):
    text = ascii_chart(result)
    lines = text.splitlines()
    values = [
        result.stats[x][n].mean
        for x in result.definition.x_values
        for n in result.definition.schedulers
    ]
    assert f"{max(values):.3g}" in lines[0]
    assert f"{min(values):.3g}" in text


def test_every_series_plotted(result):
    """Each (x, scheduler) pair contributes one mark or a collision."""
    text = ascii_chart(result, height=30)  # tall: fewer collisions
    body = "\n".join(text.splitlines()[:30])
    marks = sum(body.count(c) for c in "HE*")
    assert marks >= len(result.definition.x_values)  # at least per column


def test_flat_series_does_not_crash():
    from repro.experiments.harness import SweepDefinition, SweepResult
    from repro.metrics.stats import RunningStats

    definition = SweepDefinition(
        key="flat",
        title="flat",
        x_label="x",
        x_values=(1, 2),
        metric="slr",
        graph=GraphSpec("random", {"axis": "ccr"}),
        schedulers=("A-ONE", "B-TWO"),
    )
    result = SweepResult(definition=definition, reps=1, seed=0)
    for x in (1, 2):
        result.stats[x] = {"A-ONE": RunningStats(), "B-TWO": RunningStats()}
        result.stats[x]["A-ONE"].add(2.0)
        result.stats[x]["B-TWO"].add(2.0)
    text = ascii_chart(result)
    assert "A=A-ONE" in text


def test_invalid_height_rejected(result):
    with pytest.raises(ValueError):
        ascii_chart(result, height=2)


def test_cli_chart_flag(capsys):
    from repro.cli import main

    assert main(["figure", "fig13", "--reps", "1", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "H=HDLTS" in out
