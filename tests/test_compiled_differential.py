"""Differential suite: the production path against its oracles.

Production is the compiled CSR layer with the fast EFT engines (and the
batched kernel where a sweep is eligible); it is the only path figures
run on.  Two oracles check it:

* the per-node recursions over the object graph, called directly --
  rank, OCT, mean/std cost, CP_MIN, sequential time and PETS ranks must
  come out of the compiled kernels bit for bit;
* ``engine="reference"`` in the active run context -- the seed-faithful
  EFT loops.  Every scheduler in the registry must produce a
  bit-identical schedule -- same CPU, same start, same finish for every
  task copy -- on both arms, on:

  * the paper's Fig. 1 worked example,
  * every realized ``workflows/`` topology,
  * Hypothesis-driven random DAGs across sizes / CCRs / shapes.

At the top of the stack, a whole ``run_sweep`` must agree between arms:
identical means, stds, replication counts and observability counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pets import PETS
from repro.baselines.registry import SCHEDULER_FACTORIES, make_scheduler
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.metrics.critical_path import cp_min_lower_bound, critical_path_min
from repro.metrics.metrics import sequential_time
from repro.model.attributes import mean_execution_times, std_execution_times
from repro.model.levels import level_decomposition
from repro.model.ranking import (
    downward_rank,
    downward_rank_reference,
    oct_rank,
    optimistic_cost_table,
    optimistic_cost_table_reference,
    upward_rank,
    upward_rank_reference,
)
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


def oracle_context():
    """Scope the reference EFT engine as every scheduler's default."""
    return activate(current_context().with_(engine="reference"))


def assert_arms_identical(name: str, graph: TaskGraph, label: str = "") -> None:
    """Build on the production path and the oracle; demand exact equality."""
    production = make_scheduler(name).build_schedule(graph)
    with oracle_context():
        oracle = make_scheduler(name).build_schedule(graph)
    context = f"{name} on {label or 'graph'}"
    assert schedule_signature(production) == schedule_signature(oracle), context
    assert production.makespan == oracle.makespan, context


def pets_ranks_reference(graph: TaskGraph, variant: str) -> np.ndarray:
    """PETS ranks by the per-edge/per-level loops over the object graph."""
    acc = graph.cost_matrix().mean(axis=1)
    dtc = np.zeros(graph.n_tasks)
    for edge in graph.edges():
        dtc[edge.src] += edge.cost
    rank = np.zeros(graph.n_tasks)
    for level in level_decomposition(graph):
        for task in level:
            if variant == "drc":
                extra = max(
                    (graph.comm_cost(p, task) for p in graph.predecessors(task)),
                    default=0.0,
                )
            else:
                extra = max(
                    (rank[p] for p in graph.predecessors(task)), default=0.0
                )
            rank[task] = round(acc[task] + dtc[task] + extra)
    return rank


def all_graphs():
    yield "fig1", paper_example_graph()
    for label, graph in workflow_graphs():
        yield label, graph
    for seed in range(3):
        yield f"random-{seed}", random_graph(
            seed, v=35 + 20 * seed, ccr=(0.5, 3.0)[seed % 2]
        )


# --------------------------------------------------------------------------
# compiled kernels against the object-graph recursions
# --------------------------------------------------------------------------
class TestRankVectors:
    """The compiled rank kernels equal the named recursions bit for bit."""

    @pytest.mark.parametrize(
        "func, reference",
        [
            (upward_rank, upward_rank_reference),
            (downward_rank, downward_rank_reference),
            (optimistic_cost_table, optimistic_cost_table_reference),
            (oct_rank, lambda g: oct_rank(g, optimistic_cost_table_reference(g))),
        ],
        ids=["upward_rank", "downward_rank", "optimistic_cost_table", "oct_rank"],
    )
    def test_bit_identical_between_arms(self, func, reference):
        for label, graph in all_graphs():
            assert np.array_equal(func(graph), reference(graph)), (
                f"{func.__name__} on {label}"
            )

    def test_custom_weights_between_arms(self):
        for label, graph in all_graphs():
            weights = graph.cost_matrix().std(axis=1, ddof=1)
            assert np.array_equal(
                upward_rank(graph, weights), upward_rank_reference(graph, weights)
            ), label
            assert np.array_equal(
                downward_rank(graph, weights),
                downward_rank_reference(graph, weights),
            ), label

    def test_cost_vectors_match_object_graph(self):
        for label, graph in all_graphs():
            w = graph.cost_matrix()
            assert np.array_equal(mean_execution_times(graph), w.mean(axis=1)), label
            for ddof in (0, 1):
                assert np.array_equal(
                    std_execution_times(graph, ddof=ddof), w.std(axis=1, ddof=ddof)
                ), (label, ddof)

    def test_cp_min_and_sequential_time_match_object_graph(self):
        for label, graph in all_graphs():
            assert cp_min_lower_bound(graph) == critical_path_min(graph)[0], label
            assert sequential_time(graph) == float(
                graph.cost_matrix().sum(axis=0).min()
            ), label

    @pytest.mark.parametrize("variant", ["drc", "rpt"])
    def test_pets_ranks_match_object_graph(self, variant):
        for label, graph in all_graphs():
            assert np.array_equal(
                PETS(variant=variant).ranks(graph),
                pets_ranks_reference(graph, variant),
            ), label


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

        production = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        with oracle_context():
            oracle = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        return production, oracle

    def test_sweep_stats_bit_identical(self):
        production, oracle = self.run_arms()
        for x in oracle.definition.x_values:
            for name in oracle.definition.schedulers:
                a = production.stats[x][name]
                b = oracle.stats[x][name]
                assert a.mean == b.mean
                assert a.std == b.std
                assert a.n == b.n

    def test_sweep_counters_bit_identical(self):
        from repro import obs

        with activate(current_context().with_(metrics=True)):
            with obs.scoped(merge_up=False):
                production, oracle = self.run_arms()
        assert oracle.metrics["counters"]
        assert production.metrics["counters"] == oracle.metrics["counters"]
