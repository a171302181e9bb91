"""Differential suite: batched multi-DAG kernel vs the scalar path.

The batch kernel (:mod:`repro.core.batch`) packs a replication batch of
compiled instances sharing ``(n_tasks, n_procs, entry)`` -- as the
block-diagonal union of their CSR graphs, with ``(batch, n, p)`` cost
tensors -- and runs every batchable scheduler as one array program.  Its
contract is *bit*-identity: for every lane, the replayed schedule must
equal the scalar compiled path's schedule slot for slot -- same CPU,
same start, same finish, same duplicate flags -- and the makespan must
be the same float.  This suite checks that contract on:

* the paper's Fig. 1 worked example (degenerate identical-cost batch,
  including the B=1 edge),
* workflow families (one topology realized with independent cost
  draws -- a repeated-structure group),
* Hypothesis-driven random-fixed batches across sizes, CCRs and
  batch widths,
* Hypothesis-driven ragged batches: one structure seed per lane, mixing
  repeated and distinct structures, real and pseudo (normalized) entries,
* every golden corpus entry whose pinned scheduler is batchable,
* fused static sets (:func:`~repro.core.batch.run_static_set`): the
  static members of a group in one lockstep loop equal each member run
  alone and the scalar schedulers, counters included,

and, at the top of the stack, that shape-uniform ``"random-fixed"`` and
ragged ``"random"`` sweeps (every replication a different shape) both
run through the kernel under ``batch="auto"`` and report identical
stats and observability counters under both context settings.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines.registry import make_scheduler
from repro.core import batch as batch_module
from repro.core.batch import (
    BATCHABLE,
    CompiledBatch,
    batch_key,
    batchable_schedulers,
    instance_batchable,
    min_lanes,
    run_batch,
    run_static_set,
)
from repro.experiments.graphspec import GraphSpec
from repro.experiments import harness
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.qa.corpus import read_corpus
from repro.runtime.context import activate, current_context
from repro.workflows import paper_example_graph
from repro.workflows.fft import fft_topology
from repro.workflows.molecular import molecular_dynamics_topology
from repro.workflows.montage import montage_topology
from repro.workflows.topology import realize_topology
from tests.test_engine_differential import schedule_signature

pytestmark = pytest.mark.slow

ALL_BATCHABLE = tuple(batchable_schedulers())


def assert_batch_matches_scalar(graphs, schedulers=ALL_BATCHABLE):
    """Every lane of every batched scheduler equals its scalar run."""
    compiled = [compile_graph(g) for g in graphs]
    for name in schedulers:
        assert instance_batchable(compiled[0], [name]), name
    batch = CompiledBatch(compiled)
    for name in schedulers:
        result = run_batch(batch, name)
        scheduler = make_scheduler(name)
        for lane, graph in enumerate(graphs):
            scalar = scheduler.run(graph).schedule
            batched = result.schedule_for(lane)
            assert result.makespans[lane] == scalar.makespan, (name, lane)
            assert schedule_signature(batched) == schedule_signature(
                scalar
            ), (name, lane)


# ----------------------------------------------------------------------
# Fig. 1 worked example: identical-cost lanes, B=1 and B=5
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lanes", [1, 5])
def test_fig1_batch_identical_to_scalar(lanes):
    graphs = [paper_example_graph() for _ in range(lanes)]
    assert_batch_matches_scalar(graphs)


# ----------------------------------------------------------------------
# workflow families: one topology, independent cost draws per lane
# ----------------------------------------------------------------------
def _family(topology, n_procs, lanes, ccr):
    return [
        realize_topology(
            topology,
            n_procs,
            rng=np.random.default_rng(100 + i),
            ccr=ccr,
            beta=1.0,
            w_dag=50.0,
        ).normalized()
        for i in range(lanes)
    ]


@pytest.mark.parametrize(
    "label,graphs",
    [
        ("fft", _family(fft_topology(4), 3, 4, 1.0)),
        ("molecular", _family(molecular_dynamics_topology(), 4, 3, 3.0)),
    ],
)
def test_workflow_family_batch(label, graphs):
    assert_batch_matches_scalar(graphs)


# ----------------------------------------------------------------------
# Hypothesis: random-fixed batches across sizes / CCRs / widths
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    v=st.integers(min_value=10, max_value=40),
    ccr=st.sampled_from([0.5, 1.0, 5.0]),
    structure_seed=st.integers(min_value=0, max_value=10_000),
    lanes=st.integers(min_value=1, max_value=4),
    name=st.sampled_from(sorted(BATCHABLE)),
)
def test_hypothesis_random_fixed_batches(v, ccr, structure_seed, lanes, name):
    config = GeneratorConfig(v=v, ccr=ccr, single_entry=True)
    graphs = [
        generate_random_graph(
            config,
            np.random.default_rng(1_000 + i),
            np.random.default_rng(structure_seed),
        )
        for i in range(lanes)
    ]
    compiled = [compile_graph(g) for g in graphs]
    if not instance_batchable(compiled[0], [name]):
        return  # gated instances take the scalar path by design
    batch = CompiledBatch(compiled)
    result = run_batch(batch, name)
    scheduler = make_scheduler(name)
    for lane, graph in enumerate(graphs):
        scalar = scheduler.run(graph).schedule
        assert result.makespans[lane] == scalar.makespan, lane
        assert schedule_signature(result.schedule_for(lane)) == (
            schedule_signature(scalar)
        ), lane


# ----------------------------------------------------------------------
# Hypothesis: ragged batches (one structure per lane)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    v=st.integers(min_value=8, max_value=40),
    n_procs=st.integers(min_value=2, max_value=6),
    ccr=st.sampled_from([0.5, 1.0, 5.0]),
    single_entry=st.booleans(),
    # lanes draw from a small pool of structure seeds, so a batch
    # mixes repeated and distinct structures
    structures=st.lists(
        st.integers(min_value=0, max_value=5), min_size=2, max_size=6
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hypothesis_ragged_batches(
    v, n_procs, ccr, single_entry, structures, seed
):
    config = GeneratorConfig(
        v=v, ccr=ccr, n_procs=n_procs, single_entry=single_entry
    )
    graphs = []
    for lane, structure in enumerate(structures):
        graph = generate_random_graph(
            config,
            np.random.default_rng([seed, lane]),
            np.random.default_rng([seed, 1_000 + structure]),
        )
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()  # the sweep harness's pseudo tasks
        graphs.append(graph)
    compiled = [compile_graph(g) for g in graphs]
    # the lanes the harness would batch with the first one
    key = batch_key(compiled[0])
    lanes = [i for i, c in enumerate(compiled) if batch_key(c) == key]
    batch = CompiledBatch([compiled[i] for i in lanes])
    for name in ALL_BATCHABLE:
        if not all(instance_batchable(compiled[i], [name]) for i in lanes):
            continue  # gated instances take the scalar path by design
        result = run_batch(batch, name)
        scheduler = make_scheduler(name)
        for lane, idx in enumerate(lanes):
            scalar = scheduler.run(graphs[idx]).schedule
            assert result.makespans[lane] == scalar.makespan, (name, lane)
            assert schedule_signature(result.schedule_for(lane)) == (
                schedule_signature(scalar)
            ), (name, lane)


# ----------------------------------------------------------------------
# PETS: rank rounding and tie-breaks
# ----------------------------------------------------------------------
def _pets_fan(rows, entry_comm, exit_comm):
    """Entry -> one middle task per row -> exit, on two CPUs."""
    graph = TaskGraph(2)
    entry = graph.add_task([2.0, 2.0])
    mids = [graph.add_task(row) for row in rows]
    exit_ = graph.add_task([1.0, 1.0])
    for mid, into, out in zip(mids, entry_comm, exit_comm):
        graph.add_edge(entry, mid, into)
        graph.add_edge(mid, exit_, out)
    return graph


def test_pets_rank_ties_round_half_to_even():
    """Exact ``.5`` ranks round to even; equal ranks order by ACC, then id.

    Middle tasks 1-4 (ACC + DTC + DRC): 1.5 + 0.5 + 0.5 = 2.5 -> 2,
    1.0 + 0.5 + 0.5 = 2.0 -> 2, 1.0 + 0.75 + 0.25 = 2.0 -> 2 and
    3.5 + 0 + 0 = 3.5 -> 4.  Rounding half up would move task 1 first.
    """
    rows = [[1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [3.0, 4.0]]
    graphs = [
        _pets_fan(rows, [0.5, 0.5, 0.25, 0.0], [0.5, 0.5, 0.75, 0.0]),
        # second lane: the same ranks on reversed ids
        _pets_fan(rows[::-1], [0.0, 0.25, 0.5, 0.5], [0.0, 0.75, 0.5, 0.5]),
    ]
    assert make_scheduler("PETS").ranks(graphs[0]).tolist() == [
        3.0, 2.0, 2.0, 2.0, 4.0, 2.0,
    ]
    batch = CompiledBatch([compile_graph(g) for g in graphs])
    result = run_batch(batch, "PETS")
    assert result.tasks.tolist() == [[0, 4, 2, 3, 1, 5], [0, 1, 2, 3, 4, 5]]
    assert_batch_matches_scalar(graphs, schedulers=("PETS",))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    n_procs=st.integers(min_value=1, max_value=4),
    lanes=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hypothesis_pets_ragged_tie_heavy_batches(n, n_procs, lanes, seed):
    """Half-unit costs make rank and ACC ties (and exact ``.5``) common.

    Every lane draws its own wiring over tasks ``0..n-1``; task 0 feeds
    every task left without a predecessor, so lanes share one entry.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(lanes):
        graph = TaskGraph(n_procs)
        for _ in range(n):
            graph.add_task(rng.integers(0, 6, size=n_procs) / 2.0)
        for dst in range(1, n):
            parents = [src for src in range(1, dst) if rng.random() < 0.3]
            for src in parents or [0]:
                graph.add_edge(src, dst, float(rng.integers(0, 4)) / 2.0)
        graphs.append(graph)
    assert_batch_matches_scalar(graphs, schedulers=("PETS",))


# ----------------------------------------------------------------------
# fused static sets: one lockstep loop over S x B virtual lanes
# ----------------------------------------------------------------------
PAPER_STATICS = ("HEFT", "PETS", "PEFT", "SDBATS")
#: every batchable static, mixed insertion modes and SDBATS variants
ALL_STATICS = ("HEFT", "HEFT-noinsertion", "PETS", "PEFT", "SDBATS", "SDBATS-nodup")


def _scalar_counters(name, graphs):
    """Counter totals of the scalar scheduler over every lane."""
    with obs.enabled_scope(True):
        with obs.scoped(merge_up=False) as registry:
            runs = [make_scheduler(name).run(g) for g in graphs]
    return runs, registry.snapshot()["counters"]


def assert_static_set_matches(graphs, names=ALL_STATICS):
    """The fused set equals each member alone and the scalar schedulers.

    Checks makespans, every lane's replayed schedule and the counter
    totals; each member's lone run packs its own batch, so no rank
    cache is shared with the fused run.
    """
    compiled = [compile_graph(g) for g in graphs]
    fused = run_static_set(CompiledBatch(compiled), names)
    assert list(fused) == list(dict.fromkeys(names))
    for name in names:
        got = fused[name]
        alone = run_batch(CompiledBatch(compiled), name)
        assert got.scheduler == name
        assert got.counters == alone.counters, name
        for field in ("makespans", "tasks", "procs", "starts"):
            assert np.array_equal(
                getattr(got, field), getattr(alone, field)
            ), (name, field)
        runs, counters = _scalar_counters(name, graphs)
        for key, total in got.counters.items():
            assert counters[key] == total, (name, key)
        for lane, scalar in enumerate(runs):
            assert got.makespans[lane] == scalar.makespan, (name, lane)
            assert schedule_signature(got.schedule_for(lane)) == (
                schedule_signature(scalar.schedule)
            ), (name, lane)
    return fused


@settings(max_examples=8, deadline=None)
@given(
    v=st.integers(min_value=8, max_value=30),
    n_procs=st.integers(min_value=1, max_value=5),
    ccr=st.sampled_from([0.5, 1.0, 5.0]),
    single_entry=st.booleans(),
    structures=st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_static_set_ragged(v, n_procs, ccr, single_entry, structures, seed):
    """Ragged lanes (one structure seed per lane), p = 1 included."""
    config = GeneratorConfig(
        v=v, ccr=ccr, n_procs=n_procs, single_entry=single_entry
    )
    graphs = []
    for lane, structure in enumerate(structures):
        graph = generate_random_graph(
            config,
            np.random.default_rng([seed, lane]),
            np.random.default_rng([seed, 1_000 + structure]),
        )
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        graphs.append(graph)
    key = batch_key(compile_graph(graphs[0]))
    assert_static_set_matches(
        [g for g in graphs if batch_key(compile_graph(g)) == key]
    )


@pytest.mark.parametrize("lanes", [1, 4])
def test_static_set_random_fixed(lanes):
    """One shape, independent cost draws; B = 1 and a few lanes."""
    config = GeneratorConfig(v=30, ccr=1.0, single_entry=True)
    assert_static_set_matches(
        [
            generate_random_graph(
                config,
                np.random.default_rng(2_000 + i),
                np.random.default_rng(5),
            )
            for i in range(lanes)
        ]
    )


@pytest.mark.parametrize(
    "label,graphs",
    [
        ("fft", _family(fft_topology(4), 3, 3, 1.0)),
        ("molecular", _family(molecular_dynamics_topology(), 4, 3, 3.0)),
        ("montage", _family(montage_topology(20), 3, 3, 0.5)),
        ("fig1", [paper_example_graph()]),
    ],
)
def test_static_set_workflow_families(label, graphs):
    assert_static_set_matches(graphs)


def test_static_set_single_cpu():
    config = GeneratorConfig(v=20, ccr=1.0, n_procs=1, single_entry=True)
    assert_static_set_matches(
        [
            generate_random_graph(config, np.random.default_rng(i))
            for i in range(3)
        ],
        PAPER_STATICS,
    )


@pytest.mark.parametrize("name", ALL_STATICS)
def test_static_set_of_one_member(name):
    graphs = [paper_example_graph(), paper_example_graph()]
    assert_static_set_matches(graphs, (name,))


def test_static_set_splits_within_max_lanes(monkeypatch):
    """A set wider than ``max_lanes`` splits and still matches."""
    config = GeneratorConfig(v=16, ccr=1.0, single_entry=True)
    graphs = [
        generate_random_graph(
            config, np.random.default_rng(i), np.random.default_rng(3)
        )
        for i in range(3)
    ]
    sizes = []
    fused_set = batch_module._run_static_set

    def spy(batch, members):
        sizes.append(len(members))
        return fused_set(batch, members)

    monkeypatch.setattr(batch_module, "max_lanes", lambda n, p: 7)
    monkeypatch.setattr(batch_module, "_run_static_set", spy)
    assert_static_set_matches(graphs, ALL_STATICS)
    # 7 // 3 lanes -> two members per set: the four insertion members,
    # then HEFT-noinsertion alone (the lone runs add one call each)
    assert sizes[:3] == [2, 2, 1]


def test_static_set_rejects_dynamic_schedulers():
    batch = CompiledBatch([compile_graph(paper_example_graph())])
    for name in ("HDLTS", "PETS-rpt", "CPOP"):
        with pytest.raises(KeyError):
            run_static_set(batch, ["HEFT", name])


# ----------------------------------------------------------------------
# golden corpus: replay the pinned makespans through the batched kernel
# ----------------------------------------------------------------------
def test_golden_corpus_through_batched_kernel():
    entries = read_corpus("tests/corpus/golden.jsonl")
    assert entries, "golden corpus missing"
    covered = 0
    for entry in entries:
        graph = entry.load_graph()
        for name, want in entry.expected.get("makespans", {}).items():
            if name not in BATCHABLE:
                continue
            scheduler = make_scheduler(name)
            prepared = scheduler.prepare(graph)
            compiled = compile_graph(prepared)
            if not instance_batchable(compiled, [name]):
                continue
            result = run_batch(CompiledBatch([compiled]), name)
            got = float(result.makespans[0])
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (
                entry.id,
                name,
            )
            scalar = scheduler.build_schedule(prepared)
            assert got == scalar.makespan, (entry.id, name)
            assert schedule_signature(result.schedule_for(0)) == (
                schedule_signature(scalar)
            ), (entry.id, name)
            covered += 1
    assert covered >= 1, "no golden entry exercised the batched kernel"


# ----------------------------------------------------------------------
# harness arms: auto vs off on shape-uniform and ragged sweeps
# ----------------------------------------------------------------------
def _run_arm(definition, reps, batch):
    with activate(current_context().with_(batch=batch)):
        return run_sweep(definition, reps=reps, seed=0)


def _assert_arms_identical(definition, reps):
    """Stats and counters agree; returns auto's ``sweep.batch`` events."""
    batches = []
    with obs.enabled_scope(True):
        with obs.scoped(merge_up=False) as reg_off:
            off = _run_arm(definition, reps, "off")
        unsubscribe = obs.get_bus().subscribe(
            batches.append, topics=["sweep.batch"]
        )
        try:
            with obs.scoped(merge_up=False) as reg_auto:
                auto = _run_arm(definition, reps, "auto")
        finally:
            unsubscribe()
    for x in definition.x_values:
        for name in definition.schedulers:
            a, b = off.stats[x][name], auto.stats[x][name]
            assert a.mean == b.mean, (x, name)
            assert a.std == b.std, (x, name)
            assert a.n == b.n, (x, name)
    assert reg_off.snapshot()["counters"] == reg_auto.snapshot()["counters"]
    return batches


def _widest(batches):
    return max((event.payload["size"] for event in batches), default=0)


def test_harness_auto_vs_off_shape_uniform():
    """random-fixed sweep: one shape per x point rides the batch kernel."""
    definition = SweepDefinition(
        key="batch_diff_fixed",
        title="batched vs scalar (shape-uniform)",
        x_label="CCR",
        x_values=(1.0, 5.0),
        metric="slr",
        schedulers=("HDLTS", "HEFT", "PEFT", "SDBATS", "PETS"),
        graph=GraphSpec(
            "random-fixed",
            {"axis": "ccr", "single_entry": True, "structure_seed": 3, "v": 24},
        ),
    )
    # wide enough that the static schedulers batch too
    batches = _assert_arms_identical(definition, reps=16)
    assert _widest(batches) >= min_lanes("HEFT")


def test_harness_auto_vs_off_ragged():
    """plain random sweep: per-rep shapes differ and still ride the kernel."""
    definition = SweepDefinition(
        key="batch_diff_ragged",
        title="batched vs scalar (ragged)",
        x_label="CCR",
        x_values=(1.0,),
        metric="slr",
        schedulers=("HDLTS", "HEFT"),
        graph=GraphSpec("random", {"axis": "ccr", "v": 20}),
    )
    batches = _assert_arms_identical(definition, reps=16)
    assert batches, "the auto arm never ran the batched kernel"
    assert _widest(batches) >= min_lanes("HEFT")


def test_harness_runs_a_groups_statics_in_one_call(monkeypatch):
    """One fused static call per group; only HDLTS goes through run_batch."""
    calls = []
    fused, lone = harness.run_static_set, harness.run_batch

    def run_static_set_spy(batch, names):
        calls.append(("set", tuple(names)))
        return fused(batch, names)

    def run_batch_spy(batch, name):
        calls.append(("one", name))
        return lone(batch, name)

    monkeypatch.setattr(harness, "run_static_set", run_static_set_spy)
    monkeypatch.setattr(harness, "run_batch", run_batch_spy)
    definition = SweepDefinition(
        key="batch_diff_static_set",
        title="one fused static call per group",
        x_label="CCR",
        x_values=(1.0,),
        metric="slr",
        schedulers=("HDLTS", "HEFT", "PEFT", "HEFT-noinsertion", "PETS"),
        graph=GraphSpec(
            "random-fixed",
            {"axis": "ccr", "single_entry": True, "structure_seed": 3, "v": 24},
        ),
    )
    _assert_arms_identical(definition, reps=16)
    assert calls == [
        ("set", ("HEFT", "PEFT", "HEFT-noinsertion", "PETS")),
        ("one", "HDLTS"),
    ]
