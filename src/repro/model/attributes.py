"""Scalar attributes of the scheduling problem (Definitions 1-9).

These are the primitive quantities every list scheduler builds on: mean
execution time (Eq. 1), placement-aware communication cost (Eq. 2) and the
sample standard deviation used by the HDLTS penalty value (Eq. 8) and by
SDBATS ranks.  Schedule-state-dependent quantities (Ready/EST/EFT, Eqs. 5-7)
live with the timeline substrate in :mod:`repro.schedule`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph

__all__ = [
    "mean_execution_time",
    "mean_execution_times",
    "communication_cost",
    "penalty_value",
    "penalty_values",
    "sample_std",
    "std_execution_times",
]


def mean_execution_time(graph: TaskGraph, task: int) -> float:
    """Mean of a task's execution time over all CPUs -- Eq. (1)."""
    return float(graph.cost_row(task).mean())


def mean_execution_times(graph: TaskGraph) -> np.ndarray:
    """Vector of Eq. (1) values for every task.

    Computed once per graph instance and returned as a shared read-only
    array.
    """
    if graph.n_tasks == 0:
        return np.zeros(0)
    return compile_graph(graph).mean_costs()


def std_execution_times(graph: TaskGraph, ddof: int = 1) -> np.ndarray:
    """Per-task standard deviation of execution time across CPUs.

    SDBATS keys its upward rank on this heterogeneity measure.  With a
    single CPU the deviation is defined as zero.
    """
    if graph.n_tasks == 0:
        return np.zeros(0)
    return compile_graph(graph).std_costs(ddof=ddof)


def communication_cost(
    graph: TaskGraph,
    src: int,
    dst: int,
    src_proc: Optional[int] = None,
    dst_proc: Optional[int] = None,
) -> float:
    """Placement-aware communication cost -- Eq. (2).

    When both endpoints are mapped to the same CPU the cost collapses to
    zero; when either placement is unknown (``None``) the full inter-CPU
    cost is returned (the pessimistic pre-placement estimate).
    """
    if src_proc is not None and src_proc == dst_proc:
        return 0.0
    return graph.comm_cost(src, dst)


def sample_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) -- the PV convention, Eq. (8).

    Verified against every penalty value in the paper's Table I trace
    (see DESIGN.md).  Degenerates to 0.0 for a single value so that a
    1-CPU platform still yields a total order.
    """
    return penalty_value(np.asarray(values, dtype=float).ravel().tolist())


def _pairwise_sum(values: List[float], lo: int, n: int) -> float:
    """numpy's float64 ``add.reduce`` over ``values[lo:lo + n]``, bit for bit.

    Below 8 terms numpy adds left to right; up to 128 it keeps 8
    interleaved accumulators combined as a balanced tree, then adds the
    tail; beyond that it splits at a multiple of 8 and recurses.
    """
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
        i, end = lo + 8, lo + n - n % 8
        while i < end:
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
            i += 8
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(
        values, lo + half, n - half
    )


def penalty_value(eft: Sequence[float]) -> float:
    """The penalty value of one EFT row (Eq. 8) on Python floats.

    Bit-identical to ``np.std(row, ddof=1)``: the same operations in
    numpy's summation order (:func:`_pairwise_sum`).  On the narrow
    ready sets of Algorithm 2 this beats a numpy dispatch per ufunc.
    A single CPU gives 0.0.
    """
    n = len(eft)
    if n <= 1:
        return 0.0
    if n < 8:
        # the common row width, inlined: numpy sums it left to right
        total = 0.0
        for value in eft:
            total += value
        mean = total / n
        total = 0.0
        for value in eft:
            dev = value - mean
            total += dev * dev
        return math.sqrt(total / (n - 1))
    mean = _pairwise_sum(eft, 0, n) / n
    squares = [dev * dev for dev in [value - mean for value in eft]]
    return math.sqrt(_pairwise_sum(squares, 0, n) / (n - 1))


def penalty_values(eft: np.ndarray) -> np.ndarray:
    """Row-wise penalty values of an EFT matrix (Eq. 8).

    ``eft.std(axis=1, ddof=1)`` expanded into the identical ufunc
    sequence -- bit-equal, about half the call overhead.  A single
    column gives zeros.
    """
    rows, n = eft.shape
    if n <= 1:
        return np.zeros(rows)
    mean = np.add.reduce(eft, axis=1, keepdims=True)
    mean /= n
    dev = eft - mean
    dev *= dev
    var = np.add.reduce(dev, axis=1)
    var /= n - 1
    return np.sqrt(var)
