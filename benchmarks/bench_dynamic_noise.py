"""Dynamic extension bench: scheduling under uncertainty (future work).

Two experiments on random 100-task workflows:

1. **noise** -- realized execution times deviate from estimates by a
   relative sigma; compare executing a frozen static HDLTS schedule
   against OnlineHDLTS deciding at runtime, on identical realizations;
2. **failure** -- one CPU fail-stops at 30% of the healthy makespan;
   compare fully-online HDLTS against static-with-repair
   (checkpoint-and-replan) -- frozen static schedules simply cannot
   finish at all.
"""

import numpy as np

from conftest import bench_reps, emit
from repro.core import HDLTS
from repro.dynamic import FailStop, OnlineHDLTS, gaussian_noise
from repro.dynamic.online import run_lone_job
from repro.dynamic.repair import repair_after_failure
from repro.experiments.report import format_table
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.metrics.stats import RunningStats
from repro.schedule.simulator import schedule_queues

_CONFIG = GeneratorConfig(v=100, n_procs=4, ccr=2.0)


def test_dynamic_noise(benchmark):
    reps = bench_reps()
    rows = []
    for sigma in (0.0, 0.2, 0.4, 0.6):
        static_stats, online_stats = RunningStats(), RunningStats()
        for rep in range(reps):
            rng = np.random.default_rng([rep, int(sigma * 10)])
            graph = generate_random_graph(_CONFIG, rng).normalized()
            noise = gaussian_noise(graph, sigma, rng)
            plan = schedule_queues(HDLTS().run(graph).schedule)
            static = run_lone_job(graph, "Static/HDLTS", noise, queues=plan)
            static_stats.add(static.makespan)
            online_stats.add(OnlineHDLTS().execute(graph, noise).makespan)
        rows.append(
            [
                f"{sigma:.1f}",
                f"{static_stats.mean:.1f}",
                f"{online_stats.mean:.1f}",
                f"{static_stats.mean / online_stats.mean - 1:+.1%}",
            ]
        )
    noise_table = format_table(
        ["sigma", "static replay", "online HDLTS", "online advantage"], rows
    )

    # failure scenario: fully-online vs checkpoint-and-replan repair
    survived = 0
    slowdowns = RunningStats()
    repair_vs_online = RunningStats()
    for rep in range(reps):
        rng = np.random.default_rng([7, rep])
        graph = generate_random_graph(_CONFIG, rng).normalized()
        noise = gaussian_noise(graph, 0.2, rng)
        healthy = OnlineHDLTS().execute(graph, noise)
        failure = FailStop(proc=0, at_time=healthy.makespan * 0.3)
        crashed = OnlineHDLTS().execute(graph, noise, failures=[failure])
        plan = HDLTS().run(graph).schedule
        repaired = repair_after_failure(graph, plan, failure, noise)
        if set(crashed.finish_times) == set(graph.tasks()):
            survived += 1
            slowdowns.add(crashed.makespan / healthy.makespan - 1.0)
            repair_vs_online.add(repaired.makespan / crashed.makespan - 1.0)
    failure_text = (
        f"CPU 0 fail-stop at 30% of healthy makespan: "
        f"{survived}/{reps} runs completed on survivors, "
        f"mean slowdown {slowdowns.mean:+.1%}; "
        f"static-with-repair vs online: {repair_vs_online.mean:+.1%}"
    )
    emit(
        "dynamic_noise",
        "Online vs static under execution-time noise "
        f"(v=100, 4 CPUs, CCR=2, reps={reps}):\n{noise_table}\n\n{failure_text}",
    )
    assert survived == reps  # the online scheduler always finishes

    graph = generate_random_graph(_CONFIG, np.random.default_rng(0)).normalized()
    noise = gaussian_noise(graph, 0.3, np.random.default_rng(1))
    benchmark(lambda: OnlineHDLTS().execute(graph, noise))
