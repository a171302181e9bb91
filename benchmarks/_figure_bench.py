"""Factory producing one pytest-benchmark test per paper figure.

Each generated test

1. regenerates the figure's full series (all five algorithms, every x
   point, ``reps`` replications) and prints/saves it via ``emit``;
2. benchmarks one representative HDLTS scheduling call on that figure's
   mid-point workload, so ``--benchmark-only`` runs also produce timing
   data for the algorithm itself.

The timed call runs with observability off, so the rounds
pytest-benchmark calibrates (which vary with machine speed) add no
counters: the recorded counters are the sweep's alone, and
``check_regression.py`` gates them exactly.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_reps, emit
from repro import obs
from repro.experiments.figures import get_figure
from repro.experiments.harness import run_sweep
from repro.experiments.report import format_sweep, winners


def figure_bench(key: str):
    def bench(benchmark):
        definition = get_figure(key)
        result = run_sweep(definition, reps=bench_reps(), seed=0)
        table = format_sweep(result)
        best = winners(result)
        lines = [table, "", "winner per point: " + ", ".join(
            f"{x}->{name}" for x, name in best.items()
        )]
        emit(key, "\n".join(lines))

        # time a representative single scheduling run (mid x point)
        mid = definition.x_values[len(definition.x_values) // 2]
        graph = definition.build_graph(mid, np.random.default_rng(1))
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        from repro.core import HDLTS

        with obs.enabled_scope(False):
            benchmark(lambda: HDLTS().run(graph))

    bench.__name__ = f"test_{key}"
    bench.__doc__ = f"Regenerate {key} and time HDLTS on its workload."
    return bench
