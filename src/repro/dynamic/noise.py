"""Execution-time perturbation models.

Each factory returns a ``duration_fn(task, proc) -> float`` suitable for
:class:`~repro.schedule.simulator.ScheduleSimulator` and
:class:`~repro.dynamic.online.OnlineHDLTS`.  Draws are memoized per
``(task, proc)`` so the *same* realized duration is observed no matter
how many times a run queries it -- this is what makes "static schedule
under noise" and "online scheduling under noise" comparable on
identical realizations.  Which draw a pair receives depends on the
order pairs are first asked for, so ``OnlineHDLTS`` asks lazily, in
dispatch order, and never pre-draws a matrix.  Each factory copies the
graph's ``W`` into nested lists when it is called, so it perturbs the
costs the graph had then.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.model.task_graph import TaskGraph

__all__ = ["exact_durations", "gaussian_noise", "uniform_noise"]

DurationFn = Callable[[int, int], float]


def exact_durations(graph: TaskGraph) -> DurationFn:
    """No perturbation: realized durations equal the estimates."""
    return graph.cost


def _memoized(draw: Callable[[int, int], float]) -> DurationFn:
    cache: Dict[Tuple[int, int], float] = {}

    def duration(task: int, proc: int) -> float:
        key = (task, proc)
        value = cache.get(key)
        if value is None:
            value = cache[key] = draw(task, proc)
        return value

    return duration


def gaussian_noise(
    graph: TaskGraph, sigma: float, rng: np.random.Generator
) -> DurationFn:
    """Multiplicative gaussian noise: ``d = W * max(eps, N(1, sigma))``.

    ``sigma`` is the relative standard deviation (0.2 = 20% uncertainty).
    Factors are clipped at 5% so durations stay positive.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    costs = graph.cost_matrix().tolist()

    def draw(task: int, proc: int) -> float:
        factor = max(0.05, rng.normal(1.0, sigma))
        return costs[task][proc] * factor

    return _memoized(draw)


def uniform_noise(
    graph: TaskGraph, spread: float, rng: np.random.Generator
) -> DurationFn:
    """Multiplicative uniform noise: ``d = W * U(1 - spread, 1 + spread)``."""
    if not 0 <= spread < 1:
        raise ValueError("spread must lie in [0, 1)")
    costs = graph.cost_matrix().tolist()

    def draw(task: int, proc: int) -> float:
        return costs[task][proc] * rng.uniform(1.0 - spread, 1.0 + spread)

    return _memoized(draw)
