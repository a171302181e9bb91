"""Differential tests: fast engine vs reference path, bit-identical.

The incremental vectorized engine (``engine="fast"``) must reproduce the
reference scalar path (``engine="reference"``) *exactly* -- same CPU,
same start, same finish for every task copy, down to the last bit.  This
module checks that on:

* Hypothesis-generated random layered DAGs across the full HDLTS
  configuration grid (duplication on/off x append/insertion x every
  ``PriorityRule``);
* the fidelity-matrix graph shapes for every ported baseline;
* the paper's Table I worked example (full trace equality).

Any Hypothesis counterexample should be pinned below as an explicit
regression test with the shrunk graph inlined.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hdlts as hdlts_module
from repro import obs
from repro.baselines.dls import DLS
from repro.baselines.heft import HEFT
from repro.baselines.peft import PEFT
from repro.baselines.pets import PETS
from repro.baselines.sdbats import SDBATS
from repro.core.hdlts import HDLTS, PriorityRule
from repro.experiments.figures import get_figure
from repro.generator import GeneratorConfig, generate_random_graph
from repro.model.task_graph import TaskGraph
from repro.workflows.paper_example import paper_example_graph

# long-running property suite: marked slow (still in the default run,
# deselect explicitly with -m 'not slow' for a quick loop)
pytestmark = pytest.mark.slow


def schedule_signature(schedule):
    """Every committed copy of every task, exact floats -- the object of
    the bit-identity guarantee."""
    sig = {}
    for task in schedule.graph.tasks():
        copies = schedule.copies(task)
        if not copies:
            continue
        sig[task] = tuple(
            sorted((c.proc, c.start, c.finish, c.duplicate) for c in copies)
        )
    return sig


def assert_identical(make_scheduler, graph):
    """Run fast and reference variants; demand exact equality."""
    fast = make_scheduler("fast").build_schedule(graph)
    ref = make_scheduler("reference").build_schedule(graph)
    assert schedule_signature(fast) == schedule_signature(ref)
    assert fast.makespan == ref.makespan


# --------------------------------------------------------------------------
# Hypothesis: random layered DAGs x the full HDLTS configuration grid
# --------------------------------------------------------------------------

@st.composite
def task_graphs(draw):
    """Small layered DAGs with adversarial float costs (mirrors the
    strategy in test_properties.py, plus zero-cost and equal-cost rows
    to stress tie-breaking)."""
    n_procs = draw(st.integers(min_value=1, max_value=4))
    n_levels = draw(st.integers(min_value=1, max_value=4))
    widths = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_levels)]
    cost = st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    comm = st.floats(
        min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
    )

    graph = TaskGraph(n_procs)
    levels = []
    for width in widths:
        level = []
        for _ in range(width):
            if draw(st.booleans()):
                costs = [draw(cost)] * n_procs  # homogeneous row: tie bait
            else:
                costs = [draw(cost) for _ in range(n_procs)]
            level.append(graph.add_task(costs))
        levels.append(level)

    for upper, lower in zip(levels, levels[1:]):
        for child in lower:
            n_parents = draw(
                st.integers(min_value=1, max_value=len(upper))
            )
            parents = draw(
                st.permutations(upper).map(lambda p: p[:n_parents])
            )
            for parent in sorted(parents):
                graph.add_edge(parent, child, draw(comm))
    return graph.normalized()


@settings(max_examples=60, deadline=None)
@given(
    graph=task_graphs(),
    duplicate=st.booleans(),
    insertion=st.booleans(),
    priority=st.sampled_from(list(PriorityRule)),
)
def test_hdlts_fast_matches_reference(graph, duplicate, insertion, priority):
    assert_identical(
        lambda eng: HDLTS(
            duplicate_entry=duplicate,
            use_insertion=insertion,
            priority=priority,
            engine=eng,
        ),
        graph,
    )


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(), duplicate=st.booleans())
def test_hdlts_vectorized_pv_route_matches_reference(graph, duplicate):
    """The tiny graphs above stay under the PV crossover; pin it to 0 so
    the vectorized route sees the same adversarial ties and costs."""
    saved = hdlts_module._PV_VECTOR_MIN_CELLS
    hdlts_module._PV_VECTOR_MIN_CELLS = 0
    try:
        assert_identical(
            lambda eng: HDLTS(duplicate_entry=duplicate, engine=eng), graph
        )
    finally:
        hdlts_module._PV_VECTOR_MIN_CELLS = saved


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(), insertion=st.booleans())
def test_heft_fast_matches_reference(graph, insertion):
    assert_identical(
        lambda eng: HEFT(insertion=insertion, engine=eng), graph
    )


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(), insertion=st.booleans())
def test_dls_fast_matches_reference(graph, insertion):
    assert_identical(
        lambda eng: DLS(insertion=insertion, engine=eng), graph
    )


# --------------------------------------------------------------------------
# Fidelity-matrix shapes x every ported baseline
# --------------------------------------------------------------------------

_SHAPES = {
    "single-cpu": GeneratorConfig(v=40, n_procs=1),
    "comm-free": GeneratorConfig(v=40, ccr=0.0),
    "comm-heavy": GeneratorConfig(v=40, ccr=5.0),
    "homogeneous": GeneratorConfig(v=40, beta=0.0),
    "max-hetero": GeneratorConfig(v=40, beta=2.0),
    "tall": GeneratorConfig(v=40, alpha=0.5, single_entry=True),
    "flat": GeneratorConfig(v=40, alpha=2.5),
}

_BASELINES = {
    "HEFT": lambda eng: HEFT(engine=eng),
    "HEFT-noinsertion": lambda eng: HEFT(insertion=False, engine=eng),
    "PEFT": lambda eng: PEFT(engine=eng),
    "PETS": lambda eng: PETS(engine=eng),
    "PETS-rpt": lambda eng: PETS(variant="rpt", engine=eng),
    "SDBATS": lambda eng: SDBATS(engine=eng),
    "SDBATS-nodup": lambda eng: SDBATS(duplicate_entry=False, engine=eng),
    "DLS": lambda eng: DLS(engine=eng),
    "HDLTS": lambda eng: HDLTS(engine=eng),
    "HDLTS-insertion": lambda eng: HDLTS(use_insertion=True, engine=eng),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("name", sorted(_BASELINES))
def test_fidelity_shapes_identical(shape, name):
    config = _SHAPES[shape]
    for seed in range(3):
        graph = generate_random_graph(
            config, np.random.default_rng(seed)
        ).normalized()
        assert_identical(_BASELINES[name], graph)


# --------------------------------------------------------------------------
# HDLTS's size-selected PV route: both sides of the crossover
# --------------------------------------------------------------------------

def _route_cases():
    fig13 = get_figure("fig13")
    yield "fig13-md", fig13.build_graph(3.0, np.random.default_rng(0))
    for v, n_procs in ((500, 8), (100, 16), (60, 1)):
        yield f"v{v}-p{n_procs}", generate_random_graph(
            GeneratorConfig(v=v, n_procs=n_procs), np.random.default_rng(1)
        ).normalized()
    # a commit closes Algorithm 1's window on a CPU under a pending
    # entry child, so the dirty-column refresh changes its ready row
    yield "window-closes", generate_random_graph(
        GeneratorConfig(v=20, n_procs=4, ccr=5.0, beta=2.0, single_entry=True),
        np.random.default_rng(74),
    ).normalized()


_ROUTE_CASES = dict(_route_cases())


def _observed_run(engine, graph, insertion):
    """Schedule, decision/duplication events and HDLTS counters of one run."""
    events = []
    unsubscribe = obs.get_bus().subscribe(
        events.append,
        topics=("scheduler.decision", "scheduler.duplication"),
    )
    try:
        with obs.session(metrics=True) as sess:
            scheduler = HDLTS(
                use_insertion=insertion, record_trace=True, engine=engine
            )
            schedule = scheduler.build_schedule(graph)
    finally:
        unsubscribe()
    counters = {
        key: value
        for key, value in sess.snapshot["counters"].items()
        if key.startswith("HDLTS/")
    }
    return (
        schedule_signature(schedule),
        [(e.name, e.payload) for e in events],
        scheduler.last_trace,
        counters,
    )


@pytest.mark.parametrize("crossover", ["default", "scalar", "vectorized"])
@pytest.mark.parametrize("insertion", [False, True])
@pytest.mark.parametrize("case", sorted(_ROUTE_CASES))
def test_hdlts_pv_routes_match_reference(case, insertion, crossover, monkeypatch):
    """Every PV route reproduces the oracle's schedule, events and counters.

    ``default`` switches routes mid-run as the ready set widens and
    narrows; the other two pin one route for the whole run.
    """
    if crossover != "default":
        monkeypatch.setattr(
            hdlts_module,
            "_PV_VECTOR_MIN_CELLS",
            0 if crossover == "vectorized" else 10**9,
        )
    graph = _ROUTE_CASES[case]
    fast = _observed_run("fast", graph, insertion)
    ref = _observed_run("reference", graph, insertion)
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]
    assert fast[3] == ref[3]
    assert fast[3]["HDLTS/decisions"] == graph.n_tasks


# --------------------------------------------------------------------------
# Table I worked example: full trace equality, not just the schedule
# --------------------------------------------------------------------------

def test_table1_trace_identical():
    graph = paper_example_graph()
    fast = HDLTS(engine="fast").run(graph)
    ref = HDLTS(engine="reference").run(graph)
    assert fast.makespan == ref.makespan == 73.0
    assert fast.trace == ref.trace
    assert schedule_signature(fast.schedule) == schedule_signature(
        ref.schedule
    )


def test_invalid_engine_name_rejected():
    with pytest.raises(ValueError, match="engine"):
        HDLTS(engine="turbo")
    with pytest.raises(ValueError, match="engine"):
        HEFT(engine="turbo").build_schedule(paper_example_graph())
