"""Scheduler runtime scaling (the paper's complexity discussion).

The paper gives HDLTS complexity O(v^2 * (v/k) * p) and stresses that
list schedulers are the low-cost family.  This bench measures wall time
of every algorithm across task counts (the Table II sizes up to 5000)
and times HDLTS on the 1000-task point with pytest-benchmark.

The timed call runs with observability off, so the rounds
pytest-benchmark calibrates (which vary with machine speed) add no
counters and ``check_regression.py`` gates the recorded ones exactly.
"""

import time

import numpy as np

from conftest import emit
from repro import obs
from repro.baselines.registry import PAPER_SET, make_scheduler
from repro.experiments.report import format_table
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph


def test_scaling(benchmark):
    sizes = (100, 500, 1000, 5000)
    rows = []
    for v in sizes:
        graph = generate_random_graph(
            GeneratorConfig(v=v), np.random.default_rng(0)
        ).normalized()
        cells = [str(v)]
        for name in PAPER_SET:
            scheduler = make_scheduler(name)
            started = time.perf_counter()
            result = scheduler.run(graph)
            elapsed = time.perf_counter() - started
            assert result.schedule.is_complete()
            cells.append(f"{elapsed * 1e3:.0f}")
        rows.append(cells)
    emit(
        "scaling",
        "Scheduler wall time (ms) vs task count (4 CPUs):\n"
        + format_table(["tasks"] + list(PAPER_SET), rows),
    )

    graph = generate_random_graph(
        GeneratorConfig(v=1000), np.random.default_rng(0)
    ).normalized()
    from repro.core import HDLTS

    with obs.enabled_scope(False):
        benchmark(lambda: HDLTS().run(graph))
