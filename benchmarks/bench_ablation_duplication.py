"""Ablation: pillar 1 -- effective entry-task duplication.

Compares HDLTS with and without Algorithm 1 (and SDBATS's
duplicate-everywhere policy with and without duplication) as CCR grows;
duplication should matter most when the entry's output is expensive to
ship.  Regenerates an SLR-vs-CCR series in the style of Fig. 2.
"""

import numpy as np

from conftest import bench_reps, emit
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.experiments.report import format_sweep


def _definition() -> SweepDefinition:
    return SweepDefinition(
        key="ablation_duplication",
        title="Ablation: entry-task duplication (SLR vs CCR)",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        # a *real* single entry task (a zero-cost pseudo entry would make
        # Algorithm 1 a no-op); tall graphs keep the entry's fan-out modest
        graph=GraphSpec(
            "random",
            {
                "axis": "ccr",
                "alpha": 0.5,
                "v": 100,
                "single_entry": True,
            },
        ),
        schedulers=("HDLTS", "HDLTS-nodup", "SDBATS", "SDBATS-nodup"),
        description="random DAGs v=100 alpha=0.5 (tall, real entry tasks)",
    )


def test_ablation_duplication(benchmark):
    result = run_sweep(_definition(), reps=bench_reps(), seed=0)
    emit("ablation_duplication", format_sweep(result))

    graph = _definition().build_graph(3.0, np.random.default_rng(0)).normalized()
    from repro.core import HDLTS

    benchmark(lambda: HDLTS().run(graph))
