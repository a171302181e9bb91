"""Unit tests for the per-figure experiment definitions."""

import numpy as np
import pytest

from repro.experiments.figures import FIGURES, get_figure, list_figures
from repro.experiments.harness import run_sweep

_EXPECTED_KEYS = {
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
}


def test_every_evaluation_figure_defined():
    assert set(FIGURES) == _EXPECTED_KEYS
    assert set(list_figures()) == _EXPECTED_KEYS


def test_unknown_figure_raises():
    with pytest.raises(KeyError, match="unknown figure"):
        get_figure("fig99")


def test_fig3_full_extends_task_axis():
    assert get_figure("fig3").x_values[-1] == 1000
    assert get_figure("fig3", full=True).x_values[-1] == 10000


def test_full_flag_rejected_elsewhere():
    with pytest.raises(TypeError):
        get_figure("fig2", full=True)


@pytest.mark.parametrize("key", sorted(_EXPECTED_KEYS))
def test_figure_graphs_materialize(key):
    """Each figure's factory produces a schedulable graph at every x."""
    definition = get_figure(key)
    rng = np.random.default_rng(0)
    for x in definition.x_values[:2]:  # first two points suffice here
        graph = definition.build_graph(x, rng)
        assert graph.n_tasks >= 1
        graph.normalized().topological_order()  # acyclic + normalizable


def test_figure_definitions_are_portable():
    """Every figure ships a declarative GraphSpec and round-trips."""
    import pickle

    from repro.experiments.harness import SweepDefinition

    for key in sorted(_EXPECTED_KEYS):
        definition = get_figure(key)
        clone = pickle.loads(pickle.dumps(definition))
        assert clone == definition
        rebuilt = SweepDefinition.from_dict(definition.to_dict())
        assert rebuilt == definition


def test_paper_parameters_pinned():
    assert get_figure("fig2").x_values == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert get_figure("fig4").x_values == (2, 4, 6, 8, 10)
    assert get_figure("fig6").x_values == (4, 8, 16, 32)
    assert "m=16" in get_figure("fig8").description
    assert "5 CPUs" in get_figure("fig10").description
    assert "CCR=3" in get_figure("fig11").description


def test_metrics_assigned_correctly():
    for key in ("fig2", "fig3", "fig6", "fig7", "fig10", "fig13"):
        assert get_figure(key).metric == "slr"
    for key in ("fig4", "fig8", "fig11", "fig14"):
        assert get_figure(key).metric == "efficiency"


def test_schedulers_are_the_paper_set():
    for key in _EXPECTED_KEYS:
        assert get_figure(key).schedulers == (
            "HDLTS",
            "HEFT",
            "PETS",
            "PEFT",
            "SDBATS",
        )


def test_small_fig13_sweep_runs_end_to_end():
    result = run_sweep(get_figure("fig13"), reps=2, seed=0, validate=True)
    assert all(result.stats[x]["HDLTS"].n == 2 for x in result.definition.x_values)
