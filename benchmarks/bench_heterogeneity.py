"""Heterogeneity-structure bench: consistent vs inconsistent matrices.

HDLTS's penalty value measures per-task EFT spread across CPUs.  On a
*consistent* platform (CPUs totally ordered by a per-CPU speed factor)
that spread carries no per-task information, so PV-style priorities
should lose their edge -- this bench measures exactly that, sweeping
beta for both matrix structures.
"""

import numpy as np

from conftest import bench_reps, emit
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.experiments.report import format_sweep
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph


def _definition(heterogeneity: str) -> SweepDefinition:
    return SweepDefinition(
        key=f"heterogeneity_{heterogeneity}",
        title=f"SLR vs beta, {heterogeneity} cost matrices",
        x_label="beta",
        x_values=(0.4, 0.8, 1.2, 1.6, 2.0),
        metric="slr",
        graph=GraphSpec(
            "random",
            {
                "axis": "beta",
                "v": 100,
                "ccr": 2.0,
                "single_entry": True,
                "heterogeneity": heterogeneity,
            },
        ),
        schedulers=("HDLTS", "HEFT", "SDBATS", "PEFT"),
        description=f"v=100, CCR=2, single entry, {heterogeneity} W",
    )


def test_heterogeneity(benchmark):
    reps = bench_reps()
    sections = []
    for model in ("inconsistent", "consistent"):
        result = run_sweep(_definition(model), reps=reps, seed=0)
        sections.append(format_sweep(result))
    emit("heterogeneity", "\n\n".join(sections))

    graph = generate_random_graph(
        GeneratorConfig(v=100, heterogeneity="consistent"),
        np.random.default_rng(0),
    ).normalized()
    from repro.core import HDLTS

    benchmark(lambda: HDLTS().run(graph))
