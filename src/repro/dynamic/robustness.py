"""Robustness analysis of schedulers under execution-time uncertainty.

The paper's closing argument is that HDLTS "can increase the efficiency
of scheduling for uncertain conditions".  This module measures that:
for a scheduler and a noise level, draw many (graph, realization)
pairs, execute both arms (frozen static schedule vs online decisions)
and summarize the realized-makespan distribution -- mean, spread, tail
(p95) and the *robustness ratio* mean/p95 (1.0 = no tail at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.base import Scheduler
from repro.core.hdlts import HDLTS
from repro.dynamic.noise import gaussian_noise
from repro.dynamic.online import OnlineHDLTS, run_lone_job
from repro.model.task_graph import TaskGraph
from repro.schedule.simulator import schedule_queues

__all__ = ["RobustnessReport", "robustness_report"]

GraphFactory = Callable[[np.random.Generator], TaskGraph]


@dataclass(frozen=True)
class RobustnessReport:
    """Realized-makespan distribution for one arm."""

    arm: str
    sigma: float
    n: int
    mean: float
    std: float
    p95: float
    worst: float

    @property
    def robustness(self) -> float:
        """mean / p95 -- closer to 1.0 means a thinner bad tail."""
        return self.mean / self.p95 if self.p95 > 0 else 1.0


def _summary(arm: str, sigma: float, samples: List[float]) -> RobustnessReport:
    arr = np.asarray(samples)
    return RobustnessReport(
        arm=arm,
        sigma=sigma,
        n=arr.size,
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        p95=float(np.percentile(arr, 95)),
        worst=float(arr.max()),
    )


def robustness_report(
    make_graph: GraphFactory,
    sigma: float,
    reps: int = 30,
    seed: int = 0,
    static_scheduler: Optional[Scheduler] = None,
) -> tuple:
    """Compare static-replay and online arms under identical noise.

    Returns ``(static_report, online_report)``.  The same memoized
    realization feeds both arms of each replication, so differences are
    decision differences, not sampling noise.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    scheduler = static_scheduler or HDLTS()
    static_samples: List[float] = []
    online_samples: List[float] = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        graph = make_graph(rng)
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        noise = gaussian_noise(graph, sigma, rng)
        plan = schedule_queues(scheduler.run(graph).schedule)
        static = run_lone_job(
            graph, f"Static/{scheduler.name}", noise, queues=plan
        )
        static_samples.append(static.makespan)
        online_samples.append(OnlineHDLTS().execute(graph, noise).makespan)
    return (
        _summary("static", sigma, static_samples),
        _summary("online", sigma, online_samples),
    )
