"""Ablation: pillar 3 -- the penalty-value priority rule.

Compares the paper's PV (sample std of the EFT vector) against the
ablation rules: EFT range (max - min), mean EFT, greedy min-EFT
selection, and HEFT's upward rank applied to the dynamic ready list
(pillar 2 without pillar 3).  If the paper's claim holds, PV should
dominate the greedy strawman and at least match the cruder proxies.
"""

import numpy as np

from conftest import bench_reps, emit
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.experiments.report import format_sweep


def _definition() -> SweepDefinition:
    return SweepDefinition(
        key="ablation_priority",
        title="Ablation: ITQ priority rule (SLR vs CCR)",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        # high heterogeneity
        graph=GraphSpec("random", {"axis": "ccr", "v": 100, "beta": 1.6}),
        schedulers=(
            "HDLTS",
            "HDLTS-range",
            "HDLTS-meaneft",
            "HDLTS-greedy",
            "HDLTS-rank",
        ),
        description="random DAGs v=100 beta=1.6 (strongly heterogeneous)",
    )


def test_ablation_priority(benchmark):
    result = run_sweep(_definition(), reps=bench_reps(), seed=0)
    emit("ablation_priority", format_sweep(result))

    graph = _definition().build_graph(3.0, np.random.default_rng(0)).normalized()
    from repro.core import HDLTS

    benchmark(lambda: HDLTS().run(graph))
