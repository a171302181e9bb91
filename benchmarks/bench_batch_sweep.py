"""Batched multi-DAG kernel vs the scalar per-instance path.

The batch kernel (:mod:`repro.core.batch`) packs a replication batch of
compiled instances that share ``(n_tasks, n_procs, entry)`` -- as the
block-diagonal union of their CSR graphs, with ``(batch, n, p)`` cost
tensors -- and runs the batchable scheduler set as one array program
per batch instead of one Python dispatch per instance.  This bench
pairs the two paths on two fig2-style sweeps (100-task random DAGs,
the batchable paper schedulers):

* **shape-uniform** -- the ``random-fixed`` factory: one structure per
  x point, only the cost draws differ per lane;
* **ragged** -- the ``random`` factory ``repro figure fig2`` ships
  with: every lane has its own structure (the bench asserts all 512
  are distinct).

Each arm checks **correctness first** -- ``run_sweep`` under
``batch="auto"`` vs ``batch="off"`` must report bit-identical
means/stds and identical observability counters, and the raw kernel
makespans must equal the scalar schedulers' bit for bit -- and then
**throughput**: the batched arm times the calls the harness makes per
group (the static lists in one fused
:func:`~repro.core.batch.run_static_set` call, HDLTS in its own
:func:`~repro.core.batch.run_batch` call), and both paths consume the
*same* prebuilt compiled
instances (instance construction is identical input work, not what the
kernel optimizes), alternating scalar-then-batched each round so
CPU-frequency drift hits both alike; the per-path minimum over rounds
is the measure.  Both paths run warm: the scalar path's
per-``CompiledGraph`` rank caches persist across rounds, so the
batched path symmetrically reuses one packed :class:`CompiledBatch`
(packing is a one-time cost of a few ms, charged to the warmup round).

Acceptance: >=3x replication-batch throughput on each arm
(conservative CI floor).
"""

import time

import numpy as np

from conftest import bench_reps, emit
from repro import obs
from repro.baselines.registry import make_scheduler
from repro.core.batch import (
    BATCHABLE_STATIC,
    CompiledBatch,
    batch_key,
    run_batch,
    run_static_set,
)
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import (
    SweepDefinition,
    _build_instance,
    run_sweep,
)
from repro.runtime.context import activate, current_context

#: conservative CI floor for the paired throughput measure
SPEEDUP_FLOOR = 3.0

#: alternating scalar/batched rounds; min per arm is the measure
ROUNDS = 4

#: replication-batch width for the throughput measure (one x point)
BATCH_LANES = 512

#: the paper set, all batchable (CPOP always takes the scalar path)
SCHEDULERS = ("HDLTS", "HEFT", "PETS", "PEFT", "SDBATS")
#: the paper set's static lists: one fused call per batch
STATICS = tuple(name for name in SCHEDULERS if name in BATCHABLE_STATIC)


def _definition(factory, params, x_values=(1.0, 3.0, 5.0)):
    """Fig. 2-style sweep over one random-DAG factory."""
    return SweepDefinition(
        key=f"batch_sweep_{factory}",
        title="batched vs scalar paired sweep",
        x_label="CCR",
        x_values=x_values,
        metric="slr",
        schedulers=SCHEDULERS,
        graph=GraphSpec(factory, dict(params, axis="ccr", single_entry=True)),
    )


def _run_arm(definition, reps, batch):
    with activate(current_context().with_(batch=batch)):
        return run_sweep(definition, reps=reps, seed=0)


def _assert_outputs_identical(definition, reps):
    """Both harness arms must agree bit for bit: stats AND counters."""
    with obs.enabled_scope(True):
        with obs.scoped(merge_up=False) as reg_off:
            off = _run_arm(definition, reps, "off")
        with obs.scoped(merge_up=False) as reg_auto:
            auto = _run_arm(definition, reps, "auto")
    for x in definition.x_values:
        for name in definition.schedulers:
            a, b = off.stats[x][name], auto.stats[x][name]
            assert a.mean == b.mean, (x, name)
            assert a.std == b.std, (x, name)
            assert a.n == b.n, (x, name)
    counters_off = reg_off.snapshot()["counters"]
    counters_auto = reg_auto.snapshot()["counters"]
    assert counters_off == counters_auto


def _build_batch(definition, x, lanes):
    """``lanes`` compiled instances sharing one batch key."""
    graphs, compiled = [], []
    rep = 0
    while len(graphs) < lanes:
        instance = _build_instance(definition, x, 0, rep, seed=0)
        rep += 1
        if compiled and batch_key(instance) != batch_key(compiled[0]):
            continue  # a different task count after normalization
        graphs.append(instance.graph)  # the scalar arm's input
        compiled.append(instance)
    return graphs, compiled


def _scalar_round(graphs):
    out = {}
    for name in SCHEDULERS:
        scheduler = make_scheduler(name)
        out[name] = [scheduler.run(g).makespan for g in graphs]
    return out


def _batched_round(batch):
    """The harness's calls for one group: statics fused, HDLTS alone."""
    results = run_static_set(batch, STATICS)
    results["HDLTS"] = run_batch(batch, "HDLTS")
    return {name: result.makespans for name, result in results.items()}


def _paired_throughput(definition, key, label, distinct_shapes, benchmark):
    reps = bench_reps()

    # correctness first: the harness arms agree bit for bit
    _assert_outputs_identical(definition, reps)

    # raw kernel bit-identity on the throughput workload itself
    graphs, compiled = _build_batch(definition, 3.0, BATCH_LANES)
    shapes = {(g.succ_indptr.tobytes(), g.succ_ids.tobytes()) for g in compiled}
    assert len(shapes) == (BATCH_LANES if distinct_shapes else 1), len(shapes)
    batch = CompiledBatch(compiled)
    scalar_spans = _scalar_round(graphs)
    batched_spans = _batched_round(batch)
    for name in SCHEDULERS:
        assert np.array_equal(
            np.asarray(scalar_spans[name]), batched_spans[name]
        ), name

    # throughput: identical prebuilt instances, alternating pairs
    rows = []
    t_scalar, t_batched = [], []
    with obs.enabled_scope(False):
        _scalar_round(graphs)  # warm both paths (rank caches, packing)
        _batched_round(batch)
        for _ in range(ROUNDS):
            started = time.perf_counter()
            _scalar_round(graphs)
            mid = time.perf_counter()
            _batched_round(batch)
            ended = time.perf_counter()
            t_scalar.append(mid - started)
            t_batched.append(ended - mid)
            rows.append((mid - started, ended - mid))

    best_s, best_b = min(t_scalar), min(t_batched)
    speedup = best_s / best_b if best_b > 0 else float("inf")
    lines = [
        f"replication-batch scheduling throughput, {label}, scalar vs "
        "batched (bit-identical schedules):",
        f"  batch width          : {BATCH_LANES} lanes, {len(shapes)} "
        f"structure(s) (100-task random DAGs, CCR 3.0, schedulers "
        f"{', '.join(SCHEDULERS)})",
    ]
    for i, (s, b) in enumerate(rows):
        lines.append(
            f"  round {i}: scalar {s * 1e3:7.0f} ms   "
            f"batched {b * 1e3:7.0f} ms   ratio {s / b:.2f}x"
        )
    lines.append(
        f"  best-of-{ROUNDS}: scalar {best_s * 1e3:.0f} ms "
        f"({1e3 * best_s / BATCH_LANES:.2f} ms/rep)   "
        f"batched {best_b * 1e3:.0f} ms "
        f"({1e3 * best_b / BATCH_LANES:.2f} ms/rep)   "
        f"speedup {speedup:.2f}x"
    )
    emit(key, "\n".join(lines))

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched kernel only {speedup:.2f}x faster on the paired "
        f"{label} replication batch; the bar is {SPEEDUP_FLOOR}x"
    )

    small = CompiledBatch(compiled[:16])
    with obs.enabled_scope(False):
        benchmark(lambda: _batched_round(small))


def test_batch_sweep_throughput(benchmark):
    _paired_throughput(
        _definition("random-fixed", {"structure_seed": 11}),
        "batch_sweep",
        "shape-uniform",
        distinct_shapes=False,
        benchmark=benchmark,
    )


def test_batch_sweep_throughput_ragged(benchmark):
    _paired_throughput(
        _definition("random", {}),
        "batch_sweep_ragged",
        "ragged",
        distinct_shapes=True,
        benchmark=benchmark,
    )
