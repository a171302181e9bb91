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
    min_lanes,
    run_batch,
)
from repro.experiments.graphspec import GraphSpec, graph_factory_names
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.metrics.critical_path import critical_path_min
from repro.model.compiled import compile_graph
from repro.model.levels import task_levels
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
        assert min_lanes(name) == 8
    for name in ("HEFT", "HEFT-noinsertion", "PETS", "PEFT", "SDBATS"):
        assert min_lanes(name) == 16
    assert {min_lanes(name) for name in BATCHABLE} == {8, 16}
    for name in ("PETS-rpt", "CPOP"):
        with pytest.raises(KeyError):
            min_lanes(name)


def test_lane_gates_by_fused_set_width():
    # a fused static set is gated on S * B >= 16; HDLTS on B >= 8
    assert lane_gates(["HDLTS", "HEFT", "PETS", "PEFT", "SDBATS"]) == {
        "HDLTS": 8, "HEFT": 4, "PETS": 4, "PEFT": 4, "SDBATS": 4,
    }
    # each insertion mode is its own set; names outside the kernel and
    # duplicates drop out; a lone static is min_lanes
    assert lane_gates(
        ["HEFT", "HEFT-noinsertion", "PEFT", "PEFT", "CPOP", "PETS-rpt"]
    ) == {"HEFT": 8, "HEFT-noinsertion": 16, "PEFT": 8}
    assert lane_gates(["PETS"]) == {"PETS": min_lanes("PETS")}
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
def test_batch_rank_kernels_match_per_instance():
    """Same-shape and ragged (one structure per lane) batches alike."""
    for structure_seeds in ([7] * 4, range(4)):
        graphs = [
            _fixed_random_graph(seed, structure_seed=s)
            for seed, s in enumerate(structure_seeds)
        ]
        compiled = [compile_graph(g) for g in graphs]
        batch = CompiledBatch(compiled)
        for lane, g in enumerate(compiled):
            assert np.array_equal(
                batch.pets_rank()[lane], PETS().ranks(graphs[lane])
            )
            assert np.array_equal(batch.mean_costs()[lane], g.mean_costs())
            assert np.array_equal(batch.std_costs()[lane], g.std_costs())
            assert np.array_equal(
                batch.mean_upward_rank()[lane], g.upward_rank(g.mean_costs())
            )
            assert np.array_equal(
                batch.std_upward_rank()[lane], g.upward_rank(g.std_costs())
            )
            assert np.array_equal(batch.oct_table()[lane], g.oct_table())
            assert np.array_equal(batch.oct_rank()[lane], g.oct_rank())


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
