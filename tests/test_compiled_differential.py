"""Differential suite: compiled layer vs the object-graph code paths.

``compiled=False`` in the active run context reproduces the
pre-compiled paths exactly
(per-run ``cost_matrix()`` copies, scalar rank recursions, dict-based
parent walks).  Every scheduler in the registry must produce a
bit-identical schedule -- same CPU, same start, same finish for every
task copy -- with the layer on and off, on:

* the paper's Fig. 1 worked example,
* every realized ``workflows/`` topology,
* Hypothesis-driven random DAGs across sizes / CCRs / shapes,

and the dispatching rank functions must return bit-identical vectors.
At the top of the stack, a whole ``run_sweep`` must agree between arms:
identical means, stds, replication counts and observability counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import SCHEDULER_FACTORIES, make_scheduler
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.model.ranking import downward_rank, oct_rank, optimistic_cost_table, upward_rank
from repro.model.task_graph import TaskGraph
from repro.runtime.context import activate, current_context
from repro.workflows import (
    cybershake_workflow,
    epigenomics_workflow,
    fft_workflow,
    gaussian_elimination_workflow,
    molecular_dynamics_workflow,
    montage_workflow,
    paper_example_graph,
)
from tests.test_engine_differential import schedule_signature

# long-running property suite: marked slow (still in the default run,
# deselect explicitly with -m 'not slow' for a quick loop)
pytestmark = pytest.mark.slow

ALL_SCHEDULERS = tuple(SCHEDULER_FACTORIES)
#: GA runs a full evolutionary loop per build (~0.5 s); it gets its own
#: scaled-down Hypothesis case below instead of riding the broad sweep.
FAST_SCHEDULERS = tuple(n for n in ALL_SCHEDULERS if n != "GA")


def random_graph(seed: int, v: int = 40, ccr: float = 1.0, alpha: float = 1.0):
    config = GeneratorConfig(v=v, ccr=ccr, alpha=alpha)
    return generate_random_graph(config, np.random.default_rng(seed)).normalized()


def workflow_graphs():
    rng = lambda: np.random.default_rng(42)
    return [
        ("fft", fft_workflow(4, 3, rng()).normalized()),
        ("montage", montage_workflow(20, 3, rng()).normalized()),
        ("molecular", molecular_dynamics_workflow(3, rng()).normalized()),
        ("gaussian", gaussian_elimination_workflow(5, 3, rng()).normalized()),
        ("epigenomics", epigenomics_workflow(4, 3, rng()).normalized()),
        ("cybershake", cybershake_workflow(2, 2, 3, rng()).normalized()),
    ]


def compiled_arm_context(enabled: bool):
    """Scope the compiled layer on or off for one arm."""
    return activate(current_context().with_(compiled=enabled))


def assert_arms_identical(name: str, graph: TaskGraph, label: str = "") -> None:
    """Build with the compiled layer on and off; demand exact equality."""
    with compiled_arm_context(True):
        compiled_arm = make_scheduler(name).build_schedule(graph)
    with compiled_arm_context(False):
        object_arm = make_scheduler(name).build_schedule(graph)
    context = f"{name} on {label or 'graph'}"
    assert schedule_signature(compiled_arm) == schedule_signature(
        object_arm
    ), context
    assert compiled_arm.makespan == object_arm.makespan, context


# --------------------------------------------------------------------------
# rank vectors
# --------------------------------------------------------------------------
class TestRankVectors:
    """The dispatching rank functions agree between arms bit for bit."""

    def graphs(self):
        yield "fig1", paper_example_graph()
        for label, graph in workflow_graphs():
            yield label, graph
        for seed in range(3):
            yield f"random-{seed}", random_graph(
                seed, v=35 + 20 * seed, ccr=(0.5, 3.0)[seed % 2]
            )

    @pytest.mark.parametrize(
        "func", [upward_rank, downward_rank, optimistic_cost_table, oct_rank]
    )
    def test_bit_identical_between_arms(self, func):
        for label, graph in self.graphs():
            with compiled_arm_context(True):
                compiled_arm = func(graph)
            with compiled_arm_context(False):
                object_arm = func(graph)
            assert np.array_equal(compiled_arm, object_arm), (
                f"{func.__name__} on {label}"
            )

    def test_custom_weights_between_arms(self):
        from repro.model.attributes import std_execution_times

        for label, graph in self.graphs():
            weights = np.asarray(std_execution_times(graph))
            with compiled_arm_context(True):
                compiled_arm = upward_rank(graph, weights)
            with compiled_arm_context(False):
                object_arm = upward_rank(graph, weights)
            assert np.array_equal(compiled_arm, object_arm), label


# --------------------------------------------------------------------------
# every registry scheduler on the canonical graphs
# --------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCHEDULERS)
def test_fig1_schedules_identical(name):
    assert_arms_identical(name, paper_example_graph(), "fig1")


@pytest.mark.parametrize("name", ALL_SCHEDULERS)
def test_workflow_schedules_identical(name):
    for label, graph in workflow_graphs():
        assert_arms_identical(name, graph, label)


@pytest.mark.parametrize("name", FAST_SCHEDULERS)
def test_random_dag_schedules_identical(name):
    for seed, v, ccr in ((0, 30, 0.5), (1, 60, 1.0), (2, 100, 3.0)):
        assert_arms_identical(name, random_graph(seed, v, ccr), f"v={v}")


# --------------------------------------------------------------------------
# Hypothesis: random DAGs across the generator's parameter space
# --------------------------------------------------------------------------
@given(
    seed=st.integers(0, 2**31 - 1),
    v=st.integers(5, 45),
    ccr=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=12, deadline=None)
def test_hypothesis_dags_all_fast_schedulers(seed, v, ccr, alpha):
    graph = random_graph(seed, v, ccr, alpha)
    for name in FAST_SCHEDULERS:
        assert_arms_identical(name, graph, f"seed={seed} v={v}")


@given(seed=st.integers(0, 2**31 - 1), v=st.integers(5, 15))
@settings(max_examples=3, deadline=None)
def test_hypothesis_dags_ga(seed, v):
    assert_arms_identical("GA", random_graph(seed, v), f"seed={seed} v={v}")


# --------------------------------------------------------------------------
# whole-sweep equivalence (stats + observability counters)
# --------------------------------------------------------------------------
class TestSweepEquivalence:
    def run_arms(self, reps=3, seed=11):
        from repro.experiments.harness import run_sweep
        from tests.experiments.test_harness import tiny_sweep

        with compiled_arm_context(True):
            compiled_arm = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        with compiled_arm_context(False):
            object_arm = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        return compiled_arm, object_arm

    def test_sweep_stats_bit_identical(self):
        compiled_arm, object_arm = self.run_arms()
        for x in object_arm.definition.x_values:
            for name in object_arm.definition.schedulers:
                a = compiled_arm.stats[x][name]
                b = object_arm.stats[x][name]
                assert a.mean == b.mean
                assert a.std == b.std
                assert a.n == b.n

    def test_sweep_counters_bit_identical(self):
        from repro import obs

        with activate(current_context().with_(metrics=True)):
            with obs.scoped(merge_up=False):
                compiled_arm, object_arm = self.run_arms()
        assert object_arm.metrics["counters"]
        assert (
            compiled_arm.metrics["counters"] == object_arm.metrics["counters"]
        )
