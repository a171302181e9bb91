"""Ablation: append (Definition 3 Avail) vs insertion-based EST.

The HDLTS trace uses append semantics while HEFT/PETS/PEFT insert into
idle gaps.  This bench quantifies how much of the algorithms' gap is due
to that policy rather than prioritization: HDLTS +- insertion against
HEFT +- insertion on communication-heavy random DAGs.
"""

import numpy as np

from conftest import bench_reps, emit
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.experiments.report import format_sweep


def _definition() -> SweepDefinition:
    return SweepDefinition(
        key="ablation_insertion",
        title="Ablation: insertion-based EST (SLR vs CCR)",
        x_label="CCR",
        x_values=(1.0, 3.0, 5.0),
        metric="slr",
        # denser -> more idle gaps
        graph=GraphSpec("random", {"axis": "ccr", "v": 100, "density": 4}),
        schedulers=("HDLTS", "HDLTS-insertion", "HEFT", "HEFT-noinsertion"),
        description="random DAGs v=100 density=4",
    )


def test_ablation_insertion(benchmark):
    result = run_sweep(_definition(), reps=bench_reps(), seed=0)
    emit("ablation_insertion", format_sweep(result))

    graph = _definition().build_graph(3.0, np.random.default_rng(0)).normalized()
    from repro.core import HDLTS

    benchmark(lambda: HDLTS(use_insertion=True).run(graph))
