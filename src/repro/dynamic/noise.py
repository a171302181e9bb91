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

:func:`realize` draws a whole duration matrix at once, for callers that
fix every realization up front (the job-stream arena).  Its factors come
from the same formula as the lazy models' (:func:`factors`), drawn as
one array in row-major order: the values and the generator's end state
are those of asking a lazy model for every cell task by task.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.model.task_graph import TaskGraph

__all__ = [
    "MIN_FACTOR", "check_noise", "exact_durations", "factors",
    "gaussian_noise", "realize", "uniform_noise",
]

DurationFn = Callable[[int, int], float]

#: gaussian factors are clipped here, so durations stay positive
MIN_FACTOR = 0.05


def check_noise(kind: str, level: float) -> None:
    """Raise ``ValueError`` unless ``level`` is a valid ``kind`` level:
    a gaussian ``sigma >= 0`` or a uniform ``spread`` in ``[0, 1)``."""
    if kind == "gaussian":
        if not level >= 0:
            raise ValueError(f"sigma must be >= 0, got {level!r}")
    elif kind == "uniform":
        if not 0 <= level < 1:
            raise ValueError(f"spread must lie in [0, 1), got {level!r}")
    else:
        raise ValueError(
            f"noise kind must be one of ('gaussian', 'uniform'), got {kind!r}"
        )


def factors(
    kind: str,
    level: float,
    rng: np.random.Generator,
    size: Optional[Tuple[int, ...]] = None,
):
    """Duration factors: ``max(MIN_FACTOR, N(1, sigma))`` (gaussian) or
    ``U(1 - spread, 1 + spread)`` (uniform); one, or an array of
    ``size`` drawn in row-major order."""
    if kind == "gaussian":
        return np.maximum(MIN_FACTOR, rng.normal(1.0, level, size))
    return rng.uniform(1.0 - level, 1.0 + level, size)


def realize(
    w: np.ndarray, kind: str, level: float, rng: np.random.Generator
) -> np.ndarray:
    """The realized duration matrix of costs ``w``: one factor per cell."""
    return w * factors(kind, level, rng, w.shape)


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
    Factors are clipped at :data:`MIN_FACTOR` so durations stay positive.
    """
    check_noise("gaussian", sigma)
    costs = graph.cost_matrix().tolist()

    def draw(task: int, proc: int) -> float:
        return costs[task][proc] * factors("gaussian", sigma, rng)

    return _memoized(draw)


def uniform_noise(
    graph: TaskGraph, spread: float, rng: np.random.Generator
) -> DurationFn:
    """Multiplicative uniform noise: ``d = W * U(1 - spread, 1 + spread)``."""
    check_noise("uniform", spread)
    costs = graph.cost_matrix().tolist()

    def draw(task: int, proc: int) -> float:
        return costs[task][proc] * factors("uniform", spread, rng)

    return _memoized(draw)
