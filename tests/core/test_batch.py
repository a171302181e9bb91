"""Unit tests for the batched multi-DAG kernel's building blocks.

The full-schedule bit-identity contract lives in
``tests/test_batch_differential.py``; this module pins the pieces it
is built from: the batch key, eligibility gates, the union packing and
its level batches, the packed batch's rank kernels, and the SoA
timeline mirror.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pets import PETS
from repro.core.batch import (
    BATCHABLE,
    CompiledBatch,
    _BatchTimelines,
    batch_groups,
    batch_key,
    batchable_schedulers,
    hdlts_dup_batchable,
    instance_batchable,
    lane_gates,
    max_lanes,
    run_batch,
)
from repro.experiments.graphspec import GraphSpec, graph_factory_names
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.metrics.critical_path import critical_path_min
from repro.model.attributes import std_execution_times
from repro.model.compiled import compile_graph
from repro.model.levels import task_levels
from repro.model.ranking import (
    optimistic_cost_table_reference,
    upward_rank_reference,
)
from repro.model.task_graph import TaskGraph
from repro.runtime.context import BATCH_CHOICES, current_context
from repro.schedule.timeline import ProcessorTimeline
from repro.workflows import paper_example_graph


def _fixed_random_graph(cost_seed: int, structure_seed: int = 7, v: int = 20):
    config = GeneratorConfig(v=v, ccr=1.0, single_entry=True)
    return generate_random_graph(
        config,
        np.random.default_rng(cost_seed),
        np.random.default_rng(structure_seed),
    )


# ----------------------------------------------------------------------
# registry coverage and eligibility gates
# ----------------------------------------------------------------------
def test_batchable_scheduler_set():
    names = batchable_schedulers()
    assert set(names) == BATCHABLE
    for required in ("HEFT", "PETS", "PEFT", "SDBATS", "HDLTS", "HDLTS-nodup"):
        assert required in BATCHABLE
    # scalar-only schedulers must never be claimed by the kernel
    for excluded in ("PETS-rpt", "CPOP", "HDLTS-insertion"):
        assert excluded not in BATCHABLE


def test_run_batch_rejects_unknown_scheduler():
    compiled = compile_graph(paper_example_graph())
    batch = CompiledBatch([compiled])
    for name in ("PETS-rpt", "CPOP"):
        with pytest.raises(KeyError):
            run_batch(batch, name)


def test_min_lanes_by_kernel_family():
    # HDLTS amortizes its per-step cost over a few lanes, the static
    # list schedulers need a wider batch
    for name in ("HDLTS", "HDLTS-nodup", "HDLTS-rank"):
        assert lane_gates([name])[name] == 8
    for name in ("HEFT", "HEFT-noinsertion", "PETS", "PEFT", "SDBATS"):
        assert lane_gates([name])[name] == 16
    assert {lane_gates([name])[name] for name in BATCHABLE} == {8, 16}
    for name in ("PETS-rpt", "CPOP"):
        assert lane_gates([name]) == {}


def test_lane_gates_by_fused_set_width():
    # a fused static set is gated on S * B >= 16; HDLTS on B >= 8
    assert lane_gates(["HDLTS", "HEFT", "PETS", "PEFT", "SDBATS"]) == {
        "HDLTS": 8, "HEFT": 4, "PETS": 4, "PEFT": 4, "SDBATS": 4,
    }
    # each insertion mode is its own set; names outside the kernel and
    # duplicates drop out; a lone static needs 16 lanes
    assert lane_gates(
        ["HEFT", "HEFT-noinsertion", "PEFT", "PEFT", "CPOP", "PETS-rpt"]
    ) == {"HEFT": 8, "HEFT-noinsertion": 16, "PEFT": 8}
    assert lane_gates(["PETS"]) == {"PETS": 16}
    assert lane_gates(["HEFT", "PETS", "PEFT"])["HEFT"] == 6  # ceil(16/3)
    assert lane_gates([]) == {}


def test_max_lanes_bounds():
    assert max_lanes(100, 4) == 1024  # capped at 1024 lanes
    assert max_lanes(100, 100) == 200  # 2e6 / (n * p)
    assert max_lanes(2000, 1000) == 1  # never below one lane
    assert max_lanes(0, 0) == 1024  # degenerate shapes stay sane


def test_instance_batchable_requires_single_entry():
    graph = TaskGraph(2)
    first = graph.add_task([3.0, 4.0])
    second = graph.add_task([2.0, 5.0])
    sink = graph.add_task([1.0, 1.0])
    graph.add_edge(first, sink, 1.0)
    graph.add_edge(second, sink, 2.0)
    compiled = compile_graph(graph)
    assert compiled.entry_ids.size == 2
    assert not instance_batchable(compiled, ["HEFT"])
    assert not instance_batchable(compiled, ["HDLTS"])


def _entry_cost_graph(entry_costs, comm):
    graph = TaskGraph(2)
    entry = graph.add_task(entry_costs)
    child = graph.add_task([3.0, 4.0])
    graph.add_edge(entry, child, comm)
    return compile_graph(graph)


def test_hdlts_dup_gate():
    # positive entry costs: the batched window test is exact
    assert hdlts_dup_batchable(_entry_cost_graph([2.0, 3.0], 1.0))
    # normalized pseudo entry (all-zero costs, zero comm): also exact
    assert hdlts_dup_batchable(_entry_cost_graph([0.0, 0.0], 0.0))
    # zero-cost entry with real communication: must take the scalar path
    assert not hdlts_dup_batchable(_entry_cost_graph([0.0, 0.0], 1.0))
    # mixed zero/positive entry costs: must take the scalar path
    assert not hdlts_dup_batchable(_entry_cost_graph([0.0, 5.0], 1.0))


def test_dup_gate_only_applies_to_duplicating_hdlts():
    compiled = _entry_cost_graph([0.0, 0.0], 1.0)  # fails the dup gate
    assert not instance_batchable(compiled, ["HDLTS"])
    assert not instance_batchable(compiled, ["HEFT", "HDLTS"])
    # statics and the no-duplication variant never need the gate
    assert instance_batchable(compiled, ["HEFT", "PEFT", "SDBATS"])
    assert instance_batchable(compiled, ["HDLTS-nodup"])


def test_compiled_batch_rejects_bad_inputs():
    base = compile_graph(_fixed_random_graph(1))
    other_shape = compile_graph(_fixed_random_graph(1, v=24))
    with pytest.raises(ValueError):
        CompiledBatch([])
    with pytest.raises(ValueError):
        CompiledBatch([base, other_shape])


def _chain(costs, n_procs=2):
    """Entry 0 -> 1 -> ... chain with the given per-task CPU costs."""
    graph = TaskGraph(n_procs)
    for row in costs:
        graph.add_task(row)
    for t in range(len(costs) - 1):
        graph.add_edge(t, t + 1, 1.0)
    return compile_graph(graph)


def test_compiled_batch_rejects_mixed_batch_keys():
    """Lanes must agree on (n_tasks, n_procs, entry); structure may differ."""
    base = compile_graph(_fixed_random_graph(1))
    rewired = compile_graph(_fixed_random_graph(2, structure_seed=8))
    assert batch_key(base) == batch_key(rewired)
    assert CompiledBatch([base, rewired]).n_lanes == 2  # ragged is fine
    other_n = compile_graph(_fixed_random_graph(1, v=24))
    other_p = _chain([[1.0, 2.0, 3.0]] * base.n_tasks, n_procs=3)
    # same size, but the entry is the last task instead of task 0
    flipped = TaskGraph(2)
    for _ in range(3):
        flipped.add_task([1.0, 2.0])
    flipped.add_edge(2, 0, 1.0)
    flipped.add_edge(0, 1, 1.0)
    flipped = compile_graph(flipped)
    chain = _chain([[1.0, 2.0]] * 3)
    assert batch_key(flipped)[:2] == batch_key(chain)[:2]
    for a, b in ((base, other_n), (base, other_p), (chain, flipped)):
        assert batch_key(a) != batch_key(b)
        with pytest.raises(ValueError, match="n_tasks, n_procs, entry"):
            CompiledBatch([a, b])


def test_batch_groups_split_by_key_gate_and_width():
    same = [_fixed_random_graph(s, structure_seed=s) for s in range(4)]
    wider = [_fixed_random_graph(s, v=24) for s in range(2)]
    order = [same[0], wider[0], same[1], wider[1], same[2], same[3]]
    instances = [compile_graph(g) for g in order]
    # index 2: an instance that fails the HDLTS duplication gate
    instances.insert(2, _entry_cost_graph([0.0, 0.0], 1.0))
    assert batch_groups(instances, ["HEFT"], 2) == [[0, 3, 5, 6], [1, 4]]
    # narrower runs than ``fewest`` are dropped, gated instances skipped
    assert batch_groups(instances, ["HEFT"], 3) == [[0, 3, 5, 6]]
    assert 2 not in sum(batch_groups(instances, ["HDLTS"], 1), [])
    assert [2] in batch_groups(instances, ["HEFT"], 1)


def _ragged_batch(lanes=5):
    """(graphs, compiled, batch) of one structure per lane."""
    graphs = [
        _fixed_random_graph(seed, structure_seed=seed) for seed in range(lanes)
    ]
    compiled = [compile_graph(g) for g in graphs]
    assert len({batch_key(g) for g in compiled}) == 1
    return graphs, compiled, CompiledBatch(compiled)


def _assert_union_batches_per_lane(batch, compiled, union, own_batches, csr):
    """Lane ``b``'s slice of every union batch is its own batch."""
    n = batch.n_tasks
    for lane, g in enumerate(compiled):
        own = own_batches(g)
        assert len(own) <= len(union)
        for h, (nodes, flat, offsets, counts) in enumerate(union):
            mine = nodes // n == lane
            local = nodes[mine] - lane * n
            if h >= len(own):
                assert not local.size, (lane, h)
                continue
            want_nodes, want_flat, _, want_counts = own[h]
            assert np.array_equal(local, want_nodes), (lane, h)
            assert np.array_equal(counts[mine], want_counts), (lane, h)
            got_flat = np.split(flat, offsets[1:])
            got_flat = np.concatenate(
                [f for f, m in zip(got_flat, mine) if m]
            )
            for array in (f"{csr}_ids", f"{csr}_costs"):
                assert np.array_equal(
                    getattr(batch, array)[got_flat],
                    getattr(g, array)[want_flat],
                ), (lane, h, array)


def test_union_level_batches_match_per_lane():
    """Each lane's slice of the union level batches is its own batches."""
    _, compiled, batch = _ragged_batch()
    _assert_union_batches_per_lane(
        batch, compiled, batch.up_batches(), lambda g: g._up_batches(), "succ"
    )


def test_union_depth_batches_match_per_lane():
    """The forward peel: depths and depth batches are each lane's own."""
    graphs, compiled, batch = _ragged_batch()
    depths = batch.depths().reshape(batch.n_lanes, batch.n_tasks)
    for lane, graph in enumerate(graphs):
        assert depths[lane].tolist() == task_levels(graph), lane
    _assert_union_batches_per_lane(
        batch, compiled, batch.down_batches(), lambda g: g._down_batches(),
        "pred",
    )


def test_run_context_batch_validation():
    context = current_context()
    for choice in BATCH_CHOICES:
        assert context.with_(batch=choice).batch == choice
    with pytest.raises(ValueError, match="batch"):
        context.with_(batch="bogus")


# ----------------------------------------------------------------------
# batched rank kernels vs the per-instance compiled kernels
# ----------------------------------------------------------------------
def _factory_instances(factory, params, x, reps=6):
    """One x point's replications of ``factory``, built like the harness."""
    spec = GraphSpec(factory, params)
    graphs = []
    for rep in range(reps):
        graph = spec.build(x, np.random.default_rng([0, rep]))
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()  # zero-cost pseudo entry/exit
        graphs.append(graph)
    return graphs


#: every registered GraphSpec factory, at small sizes
_FACTORY_CASES = {
    "random": ({"axis": "ccr", "v": 24}, 1.0),
    "random-fixed": ({"axis": "ccr", "v": 24, "structure_seed": 5}, 5.0),
    "table2": (
        {"configs": [{"v": 20, "ccr": 0.5, "n_procs": 3, "alpha": 2.0}]},
        0,
    ),
    "fft": ({"axis": "m", "n_procs": 3}, 4),
    "montage": ({"axis": "ccr", "sizes": [20]}, 1.0),
    "molecular": ({"axis": "ccr", "n_procs": 3}, 3.0),
}


def test_factory_cases_cover_every_graph_factory():
    assert set(_FACTORY_CASES) == set(graph_factory_names())


def test_batch_rank_kernels_match_per_instance():
    """Same-shape, ragged and every factory's batches alike: each lane's
    ranks equal its own compiled graph's and the per-node oracles."""
    cases = [
        [
            _fixed_random_graph(seed, structure_seed=s)
            for seed, s in enumerate(structure_seeds)
        ]
        for structure_seeds in ([7] * 4, range(4))
    ]
    cases += [
        _factory_instances(factory, params, x)
        for factory, (params, x) in sorted(_FACTORY_CASES.items())
    ]
    for graphs in cases:
        compiled = [compile_graph(g) for g in graphs]
        groups = {}
        for idx, instance in enumerate(compiled):
            groups.setdefault(batch_key(instance), []).append(idx)
        assert any(len(idxs) > 1 for idxs in groups.values())
        for idxs in groups.values():
            batch = CompiledBatch([compiled[i] for i in idxs])
            for lane, idx in enumerate(idxs):
                graph, g = graphs[idx], compiled[idx]
                assert np.array_equal(
                    batch.pets_rank()[lane], PETS().ranks(graph)
                )
                assert np.array_equal(batch.mean_costs()[lane], g.mean_costs())
                assert np.array_equal(batch.std_costs()[lane], g.std_costs())
                mean_rank = batch.mean_upward_rank()[lane]
                assert np.array_equal(mean_rank, g.upward_rank(g.mean_costs()))
                assert np.array_equal(mean_rank, upward_rank_reference(graph))
                std_rank = batch.std_upward_rank()[lane]
                assert np.array_equal(std_rank, g.upward_rank(g.std_costs()))
                assert np.array_equal(
                    std_rank,
                    upward_rank_reference(graph, std_execution_times(graph)),
                )
                table = batch.oct_table()[lane]
                assert np.array_equal(table, g.oct_table())
                assert np.array_equal(
                    table, optimistic_cost_table_reference(graph)
                )
                assert np.array_equal(batch.oct_rank()[lane], g.oct_rank())


@pytest.mark.parametrize("factory", sorted(_FACTORY_CASES))
def test_cp_min_bounds_match_compiled_and_oracle(factory):
    """Batched Eq. 10 denominators equal the per-graph kernel and oracle."""
    params, x = _FACTORY_CASES[factory]
    graphs = _factory_instances(factory, params, x)
    compiled = [compile_graph(g) for g in graphs]
    groups = {}
    for idx, instance in enumerate(compiled):
        groups.setdefault(batch_key(instance), []).append(idx)
    pseudo = 0
    for idxs in groups.values():
        bounds = CompiledBatch([compiled[i] for i in idxs]).cp_min_bounds()
        for lane, idx in enumerate(idxs):
            pseudo += not compiled[idx].w[compiled[idx].entry_ids[0]].any()
            got = bounds[lane]
            assert got == compiled[idx].cp_min_bound(), (factory, idx)
            assert got == critical_path_min(graphs[idx])[0], (factory, idx)
    if factory == "random":
        assert pseudo, "no lane with a zero-cost pseudo entry"


# ----------------------------------------------------------------------
# SoA timelines vs one ProcessorTimeline per (lane, CPU)
# ----------------------------------------------------------------------
def test_batch_timelines_match_scalar_timeline():
    """Random build-up: every query answers exactly like the scalar."""
    n_lanes, n_procs = 3, 2
    batched = _BatchTimelines(n_lanes, n_procs, capacity=4)
    scalar = [
        [ProcessorTimeline(q) for q in range(n_procs)] for _ in range(n_lanes)
    ]
    rng = np.random.default_rng(0)

    def assert_queries_match(ready, durations, insertion):
        got = batched.earliest_start(ready, durations, insertion)
        for b in range(n_lanes):
            for q in range(n_procs):
                want = scalar[b][q].earliest_start(
                    float(ready[b, q]),
                    float(durations[b, q]),
                    insertion=insertion,
                )
                assert got[b, q] == want, (b, q, insertion)

    for step in range(40):
        ready = rng.uniform(0.0, 30.0, size=(n_lanes, n_procs))
        durations = rng.uniform(0.5, 8.0, size=(n_lanes, n_procs))
        assert_queries_match(ready, durations, insertion=True)
        assert_queries_match(ready, durations, insertion=False)
        # eps-scale durations exercise the per-row scalar fallback
        tiny = np.full((n_lanes, n_procs), 1e-13)
        assert_queries_match(ready, tiny, insertion=True)
        # zero-cost queries (pseudo tasks) keep the vectorized scan
        # unless the point lands inside a slot
        assert_queries_match(ready, np.zeros_like(ready), insertion=True)
        # reserve the answered slot on one rotating (lane, CPU) pair
        b, q = step % n_lanes, (step // n_lanes) % n_procs
        est = batched.earliest_start(ready, durations, True)
        start, duration = float(est[b, q]), float(durations[b, q])
        batched.insert(
            np.array([b]),
            np.array([q]),
            np.array([start]),
            np.array([start + duration]),
        )
        scalar[b][q].reserve(step, start, duration)
        assert batched.counts[b * n_procs + q] == len(scalar[b][q])
        assert batched.max_end[b, q] == scalar[b][q].avail


def test_batch_timelines_zero_cost_point_inside_slot():
    """A zero-cost candidate inside an eps-overlapping slot is re-answered."""
    batched = _BatchTimelines(1, 1, capacity=4)
    scalar = ProcessorTimeline(0)
    second = 10.0 - 5e-13  # overlaps the first slot by less than eps
    for task, (start, duration) in enumerate([(0.0, 10.0), (second, 5.0)]):
        batched.insert(
            np.array([0]),
            np.array([0]),
            np.array([start]),
            np.array([start + duration]),
        )
        scalar.reserve(task, start, duration)
    assert batched.monotone[0]
    for ready in (0.0, 10.0, 12.0):
        want = scalar.earliest_start(ready, 0.0, insertion=True)
        got = batched.earliest_start(
            np.array([[ready]]), np.zeros((1, 1)), True
        )
        assert got[0, 0] == want, ready
    # the scan's candidate at ready=10 lies inside the second slot
    assert scalar.earliest_start(10.0, 0.0, insertion=True) != 10.0


# ----------------------------------------------------------------------
# per-CPU queues read straight off a BatchResult
# ----------------------------------------------------------------------
def _zero_cost_fan(seed: int) -> TaskGraph:
    """Entry -> four zero-cost tasks -> a zero-cost exit on 2 CPUs.

    The zero-cost middle tasks land on the entry's CPU at its finish,
    so they share one ``(start, end)`` key there; their upward ranks
    (edge costs to the exit) descend with the task id reversed, so
    placement order is not id order.
    """
    rng = np.random.default_rng(seed)
    graph = TaskGraph(2)
    entry = graph.add_task(list(rng.uniform(2.0, 6.0, size=2)))
    mids = [graph.add_task([0.0, 0.0]) for _ in range(4)]
    exit_ = graph.add_task([0.0, 0.0])
    for k, mid in enumerate(mids):
        graph.add_edge(entry, mid, 50.0)
        graph.add_edge(mid, exit_, 1.0 + k)
    return graph


def _queue_cases():
    from tests.stream.conftest import build_workload

    cases = {
        factory: _factory_instances(factory, params, x, reps=8)
        for factory, (params, x) in sorted(_FACTORY_CASES.items())
    }
    cases["stream"] = [
        job.compiled
        for seed in range(3)
        for job in build_workload(seed, n_jobs=6, v=8, sigma=0.2).jobs
    ]
    cases["zero-cost"] = [_zero_cost_fan(seed) for seed in range(6)]
    return cases


def test_batch_queues_match_the_replayed_schedules():
    """For every batchable scheduler and every factory's lanes (plus
    stream jobs and zero-cost ties), :meth:`BatchResult.queues` equals
    ``schedule_queues(schedule_for(lane))`` lane by lane."""
    from repro.schedule.simulator import schedule_queues

    seen = {"dup_steps": 0, "mirrors": 0, "ties": 0, "reordered": 0}
    for case, graphs in _queue_cases().items():
        compiled = [compile_graph(g) for g in graphs]
        for name in sorted(BATCHABLE):
            for sub in batch_groups(compiled, [name], 1):
                result = run_batch(
                    CompiledBatch([compiled[i] for i in sub]), name
                )
                derived = result.queues()
                assert len(derived) == len(sub)
                for lane in range(len(sub)):
                    schedule = result.schedule_for(lane)
                    assert derived[lane] == schedule_queues(schedule), (
                        case, name, lane,
                    )
                    for timeline in schedule.timelines:
                        slots = timeline.slots()
                        for a, b in zip(slots, slots[1:]):
                            if (a.start, a.end) == (b.start, b.end):
                                seen["ties"] += 1
                                seen["reordered"] += a.task > b.task
                if result.dup_steps is not None:
                    seen["dup_steps"] += int(result.dup_steps.sum())
                if result.entry_dup is not None:
                    seen["mirrors"] += int(result.entry_dup.sum())
    # HDLTS entry duplicates, SDBATS mirrors, and equal-key ties whose
    # placement order is not id order all occurred
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# lanes sharing one structure object
# ----------------------------------------------------------------------
#: factories that hand back one cached structure for every draw
_SHARED_CASES = {
    "random-fixed": ({"axis": "ccr", "v": 24, "structure_seed": 5}, 5.0),
    "fft": ({"axis": "m", "n_procs": 3}, 4),
    "molecular": ({"axis": "ccr", "n_procs": 3}, 3.0),
}

_UNION_ARRAYS = (
    "W", "topo_position", "succ_indptr", "succ_ids", "succ_costs",
    "pred_indptr", "pred_ids", "pred_costs", "entry_child", "entry_comm",
    "ne_indptr", "ne_ids", "ne_costs",
)
_BATCH_ARTIFACTS = (
    "_succ_global", "_pred_global", "depths", "mean_costs", "std_costs",
    "mean_upward_rank", "std_upward_rank", "oct_table", "oct_rank",
    "pets_rank", "cp_min_bounds",
)


def _assert_same_result(got, want, label):
    assert np.array_equal(got.makespans, want.makespans), label
    assert got.counters == want.counters, label
    for field in (
        "tasks", "procs", "starts", "dup_steps", "entry_proc", "entry_dup"
    ):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), (label, field)
        if a is not None:
            assert np.array_equal(a, b), (label, field)


@pytest.mark.parametrize("factory", sorted(_SHARED_CASES))
def test_shared_structure_batch_equals_distinct_structures(factory):
    """A batch whose lanes hold one structure object (its peels tiled)
    equals the batch of equal but distinct structures: every union
    array, rank artifact and scheduler result."""
    from repro.core.batch import BATCHABLE_STATIC, run_static_set
    from repro.model.compiled import compile_instance

    params, x = _SHARED_CASES[factory]
    spec = GraphSpec(factory, params)
    shared, distinct = [], []
    for rep in range(6):
        arrays = spec._draw(x, np.random.default_rng([0, rep]))
        shared.append(compile_instance(arrays))
        distinct.append(compile_instance(arrays._replace(structure=None)))
    assert len({id(g.structure) for g in shared}) == 1
    assert len({id(g.structure) for g in distinct}) == len(distinct)
    one, many = CompiledBatch(shared), CompiledBatch(distinct)
    assert one._shared is shared[0].structure and many._shared is None

    for name in _UNION_ARRAYS:
        assert np.array_equal(getattr(one, name), getattr(many, name)), name
    for name in _BATCH_ARTIFACTS:
        assert np.array_equal(
            getattr(one, name)(), getattr(many, name)()
        ), name
    for name in ("up_batches", "down_batches"):
        got, want = getattr(one, name)(), getattr(many, name)()
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert all(np.array_equal(u, v) for u, v in zip(a, b)), name

    ran = 0
    for name in sorted(BATCHABLE):
        if not all(instance_batchable(g, [name]) for g in shared):
            continue
        _assert_same_result(
            run_batch(one, name), run_batch(many, name), (factory, name)
        )
        ran += 1
    assert ran == len(BATCHABLE)
    statics = sorted(BATCHABLE_STATIC)
    fused_one = run_static_set(one, statics)
    fused_many = run_static_set(many, statics)
    for name in statics:
        _assert_same_result(fused_one[name], fused_many[name], (factory, name))


@pytest.mark.parametrize("factory", sorted(_SHARED_CASES))
def test_cached_structures_are_read_only_and_unaffected_by_mutation(factory):
    """Every array of a cached structure (raw and normalized, compiled
    fields and peels included) is read-only, and mutating what a draw
    returns -- its ``GraphArrays`` or its compiled instance's graph --
    leaves the next draw unchanged."""
    from repro.model.compiled import GraphStructure

    params, x = _SHARED_CASES[factory]
    spec = GraphSpec(factory, params)

    def draw(rep):
        return spec._draw(x, np.random.default_rng([1, rep]))

    reference = [draw(rep) for rep in range(3)]
    instance = spec.instance(x, np.random.default_rng([1, 0]))
    structure = reference[0].structure
    assert isinstance(structure, GraphStructure)
    assert instance.structure is structure.normalized[0]
    for shape in (structure, instance.structure):
        for name in ("succ_ids", "heights", "depths"):  # compile, peel
            getattr(shape, name)
        arrays = [
            value for value in vars(shape).values()
            if isinstance(value, np.ndarray)
        ]
        assert len(arrays) >= 13
        for array in arrays:
            assert not array.flags.writeable

    for arrays in (draw(0), draw(1)):
        with pytest.raises(ValueError):
            arrays.src[0] = 1
        arrays.w[:] = -1.0
        arrays.cost[:] = -1.0
    graph = instance.graph
    if not graph.has_edge(graph.entry_task, graph.exit_task):
        graph.add_edge(graph.entry_task, graph.exit_task, 123.0)
    graph.add_task([1.0] * graph.n_procs)

    for rep, want in enumerate(reference):
        got = draw(rep)
        assert got.structure is want.structure
        for field in ("w", "src", "dst", "cost"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    again = spec.instance(x, np.random.default_rng([1, 0]))
    assert again.structure is instance.structure
    for field in ("w", "succ_indptr", "succ_ids", "succ_costs", "topo"):
        assert np.array_equal(getattr(again, field), getattr(instance, field))
    assert again.graph.n_tasks == instance.n_tasks
