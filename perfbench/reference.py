"""A frozen reference workload that measures how fast the machine is now.

The benchmark shares its machine with other tenants, which slow the
same Python code by up to a third for tens of seconds at a time, so two
runs of an unchanged program can differ by more than any bound worth
setting.  :class:`Speedometer` runs a fixed piece of work between the
workload's units: a small list scheduler written here, which shares the
program's mix of interpreter work and short NumPy vector operations
and therefore slows the way the program does.  Timings are then
reported at the reference speed: each unit of work's time is divided by
the slowdown read just before and just after it (:meth:`Speedometer.around`),
so a stretch of slow machine cancels where it happened, in the tail of a
latency distribution as much as in its median.  This code must not
change with the program; it is the yardstick, not the thing measured.
"""

from __future__ import annotations

import random
import time
from statistics import fmean
from typing import List

import numpy as np

#: seconds one :meth:`Speedometer.sample` takes on an idle core of the
#: 2.1 GHz x86-64 virtual machine the benchmark was calibrated on
NOMINAL_S = 0.003


def _schedule(seed: int, n: int = 60, p: int = 4) -> float:
    """HEFT without insertion on a random layered DAG; returns the makespan."""
    rng = random.Random(seed)
    succ = {i: [j for j in range(i + 1, min(n, i + 8)) if rng.random() < 0.3] for i in range(n)}
    w = np.array([[rng.uniform(5, 15) for _ in range(p)] for _ in range(n)])
    comm = {(i, j): rng.uniform(1, 10) for i in succ for j in succ[i]}
    mean = w.mean(axis=1)
    rank = [0.0] * n
    for i in reversed(range(n)):
        rank[i] = float(mean[i]) + max((comm[i, j] + rank[j] for j in succ[i]), default=0.0)
    pred = {j: [] for j in range(n)}
    for i in succ:
        for j in succ[i]:
            pred[j].append(i)
    avail = np.zeros(p)
    finish, proc = {}, {}
    for t in sorted(range(n), key=lambda i: -rank[i]):
        ready = np.zeros(p)
        for u in pred[t]:
            arrival = np.full(p, finish[u] + comm[u, t])
            arrival[proc[u]] = finish[u]
            np.maximum(ready, arrival, out=ready)
        eft = np.maximum(avail, ready) + w[t]
        q = int(eft.argmin())
        finish[t], proc[t] = float(eft[q]), q
        avail[q] = eft[q]
    return max(finish.values())


class Speedometer:
    """Slowdowns of the reference piece over a run, relative to nominal."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def sample(self) -> float:
        """Time one reference piece (four small schedules); its slowdown."""
        started = time.perf_counter()
        for seed in range(4):
            _schedule(seed)
        self.readings.append((time.perf_counter() - started) / NOMINAL_S)
        return self.readings[-1]

    def around(self) -> float:
        """Slowdown of the work done since the previous reading.

        The mean of that reading and a new one taken now, so a run takes
        one :meth:`sample` before its first unit.
        """
        if not self.readings:
            raise RuntimeError("take a reading before the work it brackets")
        before = self.readings[-1]
        return (before + self.sample()) / 2.0

    def slowdown(self) -> float:
        """Mean slowdown over the run's readings."""
        return fmean(self.readings)
