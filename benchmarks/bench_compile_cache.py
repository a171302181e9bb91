"""Compiled workload layer vs the object-graph path on a paired sweep.

The compiled layer (:mod:`repro.model.compiled`) freezes each random
instance into CSR arrays once per replication and shares the derived
artifacts (cost matrix, ranks, OCT, CP_MIN) across the full scheduler
set; ``use_compiled(False)`` restores the pre-compiled code paths
(per-run ``cost_matrix()`` copies, scalar rank recursions, dict-based
parent walks) on identical inputs -- the two arms draw the same RNG
sequence and must report bit-identical sweep statistics.

This bench times both arms on the paper's Fig. 2 sweep (100-task random
DAGs, five CCR points, the full paper scheduler set) with an
alternating-pair protocol: each round runs disabled-then-enabled
back-to-back so CPU-frequency drift hits both arms alike, and the
per-arm minimum over rounds is the measure.  Both arms pin
``batch="off"``: the compiled arm would otherwise hand the random
sweep's replication groups to the batched kernel, and this bench
isolates the compiled layer.  Acceptance: >=2x replication throughput
with identical means, stds and observability counters.
"""

import time

import numpy as np

from conftest import bench_reps, emit
from repro import obs
from repro.experiments.figures import get_figure
from repro.experiments.harness import run_sweep
from repro.model.compiled import use_compiled
from repro.runtime.context import activate, current_context

#: acceptance bar for the paired Fig. 2 sweep (full scheduler set)
SPEEDUP_FLOOR = 2.0

#: alternating disabled/enabled rounds; min per arm is the measure
ROUNDS = 4


def _run_arm(definition, reps, enabled):
    with activate(current_context().with_(batch="off")):
        if enabled:
            return run_sweep(definition, reps=reps, seed=0)
        with use_compiled(False):
            return run_sweep(definition, reps=reps, seed=0)


def _assert_outputs_identical(definition, reps):
    """Both arms must agree bit for bit: stats AND obs counters."""
    with obs.enabled_scope(True):
        with obs.scoped(merge_up=False) as reg_en:
            enabled = _run_arm(definition, reps, True)
        with obs.scoped(merge_up=False) as reg_dis:
            disabled = _run_arm(definition, reps, False)
    for x in definition.x_values:
        for name in definition.schedulers:
            a, b = enabled.stats[x][name], disabled.stats[x][name]
            assert a.mean == b.mean, (x, name)
            assert a.std == b.std, (x, name)
            assert a.n == b.n, (x, name)
    counters_en = reg_en.snapshot()["counters"]
    counters_dis = reg_dis.snapshot()["counters"]
    assert counters_en == counters_dis


def test_compile_cache_throughput(benchmark):
    definition = get_figure("fig2")
    reps = bench_reps()

    # correctness first: identical outputs, including counters
    _assert_outputs_identical(definition, reps)

    # the sweep itself is what is measured -- profiling collection
    # (enabled suite-wide by benchmarks/conftest.py) stays off here
    rows = []
    t_dis, t_en = [], []
    with obs.enabled_scope(False):
        _run_arm(definition, reps, True)  # warm both arms
        _run_arm(definition, reps, False)
        for _ in range(ROUNDS):
            started = time.perf_counter()
            _run_arm(definition, reps, False)
            mid = time.perf_counter()
            _run_arm(definition, reps, True)
            ended = time.perf_counter()
            t_dis.append(mid - started)
            t_en.append(ended - mid)
            rows.append((mid - started, ended - mid))

    replications = reps * len(definition.x_values)
    best_dis, best_en = min(t_dis), min(t_en)
    speedup = best_dis / best_en if best_en > 0 else float("inf")
    lines = [
        "paired Fig. 2 sweep: object-graph arm vs compiled arm "
        "(bit-identical outputs):",
        f"  replications per arm : {replications} "
        f"({reps} reps x {len(definition.x_values)} CCR points)",
    ]
    for i, (d, e) in enumerate(rows):
        lines.append(
            f"  round {i}: object-graph {d * 1e3:7.0f} ms   "
            f"compiled {e * 1e3:7.0f} ms   ratio {d / e:.2f}x"
        )
    lines.append(
        f"  best-of-{ROUNDS}: object-graph {best_dis * 1e3:.0f} ms "
        f"({1e3 * best_dis / replications:.1f} ms/rep)   "
        f"compiled {best_en * 1e3:.0f} ms "
        f"({1e3 * best_en / replications:.1f} ms/rep)   "
        f"speedup {speedup:.2f}x"
    )
    emit("compile_cache", "\n".join(lines))

    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled layer only {speedup:.2f}x faster on the paired Fig. 2 "
        f"sweep; the bar is {SPEEDUP_FLOOR}x"
    )

    with obs.enabled_scope(False):
        benchmark(lambda: _run_arm(definition, 2, True))
