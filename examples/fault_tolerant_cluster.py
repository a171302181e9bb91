"""Online HDLTS on an unreliable cluster (the paper's future-work mode).

The paper argues HDLTS suits uncertain environments because every
mapping decision reads live platform state: "if any of the CPU in the
underlying HCE is malfunctioning, the HDLTS will still be able to
efficiently assign the tasks to the remaining available CPUs."

This example demonstrates exactly that with the dynamic extension:

1. execution times deviate from their estimates (gaussian noise), and
2. one CPU fail-stops mid-run -- the online scheduler loses the task
   that was running there, detects the failure, and finishes the
   workflow on the surviving CPUs.

Run:  python examples/fault_tolerant_cluster.py
"""

import numpy as np

from repro import HDLTS
from repro.dynamic import FailStop, OnlineHDLTS, gaussian_noise
from repro.dynamic.online import run_lone_job
from repro.generator import GeneratorConfig, generate_random_graph
from repro.metrics.stats import RunningStats
from repro.schedule.simulator import schedule_queues


def main() -> None:
    config = GeneratorConfig(v=120, n_procs=4, ccr=2.0)

    # --- 1. noise only: online decisions vs a frozen static schedule ----
    print("execution-time noise (sigma = relative std of realized/estimated):")
    print(f"{'sigma':>6s} {'static':>10s} {'online':>10s} {'advantage':>10s}")
    for sigma in (0.0, 0.2, 0.4, 0.6):
        static_stats, online_stats = RunningStats(), RunningStats()
        for rep in range(25):
            rng = np.random.default_rng([rep, int(sigma * 10)])
            graph = generate_random_graph(config, rng).normalized()
            noise = gaussian_noise(graph, sigma, rng)
            plan = schedule_queues(HDLTS().run(graph).schedule)
            static = run_lone_job(graph, "Static/HDLTS", noise, queues=plan)
            static_stats.add(static.makespan)
            online_stats.add(OnlineHDLTS().execute(graph, noise).makespan)
        gain = static_stats.mean / online_stats.mean - 1.0
        print(f"{sigma:6.1f} {static_stats.mean:10.1f} "
              f"{online_stats.mean:10.1f} {gain:+9.1%}")
    print()

    # --- 2. a CPU dies mid-run ------------------------------------------
    rng = np.random.default_rng(99)
    graph = generate_random_graph(config, rng).normalized()
    noise = gaussian_noise(graph, 0.2, rng)
    healthy = OnlineHDLTS().execute(graph, noise)
    print(f"healthy cluster: makespan {healthy.makespan:.1f}")
    failure_time = healthy.makespan * 0.3
    crashed = OnlineHDLTS().execute(
        graph, noise, failures=[FailStop(proc=0, at_time=failure_time)]
    )
    print(f"CPU 0 fail-stops at t={failure_time:.0f}: "
          f"makespan {crashed.makespan:.1f}, "
          f"{crashed.n_lost} dispatch(es) lost, "
          f"dead CPUs {crashed.dead_procs}")
    slowdown = crashed.makespan / healthy.makespan - 1.0
    print(f"the workflow still completes, {slowdown:+.1%} slower "
          f"on the {graph.n_procs - 1} survivors")


if __name__ == "__main__":
    main()
