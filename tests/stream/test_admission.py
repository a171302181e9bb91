"""Admission schedules: the batched producer against the scalar one.

``Static/<Name>`` policies replay each job's frozen per-CPU queues, and
:func:`repro.stream.arena.admission_queues` computes them for a whole
set of jobs at once.  Under ``batch="auto"`` it groups the jobs by
``(n_tasks, n_procs, entry)`` and runs each wide-enough group through
the batched multi-DAG kernel; under ``batch="off"`` every job runs its
scalar scheduler.  The two must give equal queues job by job and equal
counter totals -- for ragged job mixes, for groups narrower than
``min_lanes`` and for graphs the kernel does not cover.  At the sweep
level, a stream sweep under ``batch="auto"`` must report the values and
counters of the ``batch="off"`` run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.batch import min_lanes
from repro.experiments.harness import run_sweep
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.model.task_graph import TaskGraph
from repro.runtime.context import activate, current_context
from repro.stream import admission_queues, run_stream, stream_sweep_definition
from tests.stream.conftest import build_workload, small_spec

#: every batchable registry scheduler a ``Static/<Name>`` policy can name
#: (SDBATS places its entry mirrors, SDBATS-nodup does not)
STATIC_NAMES = ("HDLTS", "HEFT", "PEFT", "SDBATS", "SDBATS-nodup")


def _graph(v: int, n_procs: int, ccr: float, seed: int) -> TaskGraph:
    graph = generate_random_graph(
        GeneratorConfig(v=v, n_procs=n_procs, ccr=ccr),
        np.random.default_rng(seed),
    )
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    return graph


def _fan_graph(entry_cost: float, k: int, join: bool = True) -> TaskGraph:
    """Entry -> three middle tasks (-> one exit when ``join``) on 3 CPUs.

    ``entry_cost`` is the entry's cost on CPU 0; at 0.0 the instance is
    outside the HDLTS kernel's duplication-window gate.  Without
    ``join`` the graph has three exits.
    """
    graph = TaskGraph(3)
    entry = graph.add_task([entry_cost, 4.0, 6.0])
    mids = [graph.add_task([5.0 + t + k, 7.0, 3.0 + t]) for t in range(3)]
    for mid in mids:
        graph.add_edge(entry, mid, 3.0 + k)
    if join:
        exit_ = graph.add_task([2.0, 2.0 + k, 2.0])
        for mid in mids:
            graph.add_edge(mid, exit_, 2.0)
    return graph


def _with_batch_events(fn):
    events = []
    unsubscribe = obs.get_bus().subscribe(events.append, topics=["stream.batch"])
    try:
        return fn(), events
    finally:
        unsubscribe()


def _assert_equal_arms(graphs, name):
    """Batched (``auto``) queues and counters equal the scalar (``off``)
    ones job by job; returns the ``stream.batch`` events of auto."""
    arms = {}
    with obs.enabled_scope(True):
        for batch in ("off", "auto"):
            with activate(current_context().with_(batch=batch)), obs.scoped(
                merge_up=False
            ) as registry:
                queues, events = _with_batch_events(
                    lambda: admission_queues(graphs, name)
                )
            arms[batch] = (queues, registry.snapshot()["counters"], events)
    (auto, auto_counters, batches), (off, off_counters, off_batches) = (
        arms["auto"], arms["off"],
    )
    assert off_batches == []
    assert len(auto) == len(off) == len(graphs)
    for job, (a, b) in enumerate(zip(auto, off)):
        assert a == b, (name, job)
    assert auto_counters == off_counters, name
    return batches


@settings(max_examples=6, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([8, 10, 12]), min_size=16, max_size=40),
    n_procs=st.integers(min_value=2, max_value=4),
    ccr=st.sampled_from([0.5, 1.0, 5.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hypothesis_ragged_job_mixes(sizes, n_procs, ccr, seed):
    """Jobs of mixed sizes and structures: batched == scalar per job."""
    graphs = [
        _graph(v, n_procs, ccr, seed * 1_000 + i) for i, v in enumerate(sizes)
    ]
    for name in STATIC_NAMES:
        _assert_equal_arms(graphs, name)


@pytest.mark.parametrize("name", STATIC_NAMES)
def test_wide_group_runs_the_kernel(name):
    graphs = [_graph(10, 3, 1.0, seed) for seed in range(min_lanes(name) + 2)]
    batches = _assert_equal_arms(graphs, name)
    assert batches, f"{name}: the auto arm never ran the batched kernel"
    assert sum(e.payload["size"] for e in batches) >= min_lanes(name)


@pytest.mark.parametrize("name", STATIC_NAMES)
def test_group_narrower_than_min_lanes_stays_scalar(name):
    graphs = [_graph(10, 3, 1.0, seed) for seed in range(min_lanes(name) - 1)]
    assert _assert_equal_arms(graphs, name) == []


def test_reference_engine_keeps_the_scalar_producer():
    graphs = [_graph(10, 3, 1.0, seed) for seed in range(min_lanes("HEFT"))]
    with activate(current_context().with_(engine="reference")):
        queues, events = _with_batch_events(
            lambda: admission_queues(graphs, "HEFT")
        )
    assert events == []
    assert queues == admission_queues(graphs, "HEFT")


def test_graphs_outside_the_kernel_fall_back():
    """Gated entries take the scalar route inside a batched HDLTS group
    (the static kernels have no such gate); multi-exit graphs batch."""
    plain = [_fan_graph(1.0 + k, k) for k in range(16)]
    gated = [_fan_graph(0.0, k) for k in range(3)]
    multi_exit = [_fan_graph(1.0 + k, k, join=False) for k in range(16)]
    for name in STATIC_NAMES:
        graphs = plain + gated + multi_exit
        batches = _assert_equal_arms(graphs, name)
        lanes = sum(e.payload["size"] for e in batches)
        expected = len(plain) + len(multi_exit)
        if name != "HDLTS":
            expected += len(gated)
        assert lanes == expected, name


@pytest.mark.parametrize("name", ("HDLTS", "HEFT"))
def test_precomputed_queues_replay_like_own_admission(name):
    instance = build_workload(3, n_jobs=8, sigma=0.2)
    queues = admission_queues([job.graph for job in instance.jobs], name)
    policy = f"Static/{name}"
    with activate(current_context().with_(batch="off")):
        scalar = run_stream(instance, policy)
    given = run_stream(instance, policy, queues=queues)
    assert given.records == scalar.records
    assert run_stream(instance, policy).records == scalar.records


def test_queue_count_must_match_the_jobs():
    instance = build_workload(1, n_jobs=3)
    queues = admission_queues([job.graph for job in instance.jobs], "HEFT")
    with pytest.raises(ValueError, match="queues for 2 jobs"):
        run_stream(instance, "Static/HEFT", queues=queues[:2])
    with pytest.raises(ValueError, match="Static/<Name>"):
        run_stream(instance, "OnlineHDLTS", queues=queues)


# ----------------------------------------------------------------------
# the sweep harness: auto vs off over whole stream points
# ----------------------------------------------------------------------
def _sweep_arm(definition, reps, batch):
    with activate(current_context().with_(batch=batch)), obs.scoped(
        merge_up=False
    ) as registry:
        result = run_sweep(definition, reps=reps, seed=0)
    return result, registry.snapshot()["counters"]


def test_harness_stream_auto_vs_off():
    """Per point, 4 reps x 4 jobs reach the static kernels' 16 lanes."""
    definition = stream_sweep_definition(
        "stream_batch_diff",
        small_spec(n_jobs=4, v=8, sigma=0.2),
        (0.01, 0.05),
        policies=("OnlineHDLTS", "Static/HDLTS", "Static/HEFT", "Static/PEFT"),
    )
    with obs.enabled_scope(True):
        off, off_counters = _sweep_arm(definition, 4, "off")
        (auto, auto_counters), batches = _with_batch_events(
            lambda: _sweep_arm(definition, 4, "auto")
        )
    for x in definition.x_values:
        for name in definition.schedulers:
            a, b = off.stats[x][name], auto.stats[x][name]
            assert (a.mean, a.std, a.n) == (b.mean, b.std, b.n), (x, name)
    assert off_counters == auto_counters
    for key in ("HDLTS/decisions", "HEFT/eft_evaluations", "HEFT/runs",
                "stream/jobs", "stream/dispatches"):
        assert auto_counters.get(key), key
    sizes = {e.payload["scheduler"]: e.payload["size"] for e in batches}
    assert sizes.get("HEFT", 0) >= min_lanes("HEFT"), sizes
    assert sizes.get("HDLTS", 0) >= min_lanes("HDLTS"), sizes


def test_validated_stream_sweep_keeps_the_scalar_producer():
    """``validate=True`` is the independent oracle: no kernel runs."""
    definition = stream_sweep_definition(
        "stream_validate", small_spec(n_jobs=4, v=8), (0.05,),
    )
    validated, validated_events = _with_batch_events(
        lambda: run_sweep(definition, reps=4, seed=0, validate=True)
    )
    plain, plain_events = _with_batch_events(
        lambda: run_sweep(definition, reps=4, seed=0)
    )
    assert validated_events == []
    assert plain_events, "the unvalidated sweep should batch"
    for name in definition.schedulers:
        a, b = validated.stats[0.05][name], plain.stats[0.05][name]
        assert (a.mean, a.std) == (b.mean, b.std), name
