"""PEFT -- Predict Earliest Finish Time (Arabnejad & Barbosa, 2014).

The Optimistic Cost Table ``OCT(t, p)`` is the optimistic remaining
path-to-exit cost of running ``t`` on ``p`` (Definition in
:func:`repro.model.ranking.optimistic_cost_table`).  Tasks are consumed
from a ready list in decreasing ``rank_oct`` (the OCT row mean); the CPU
is chosen to minimize the *optimistic* EFT ``O_EFT = EFT + OCT`` -- the
look-ahead that distinguishes PEFT from HEFT -- while the task still
starts at its true EST on the chosen CPU.  Complexity O(V^2 * P).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.baselines.common import make_engine, place_min_eft
from repro.core.base import Scheduler
from repro.core.itq import IndependentTaskQueue
from repro.model.ranking import oct_rank, optimistic_cost_table
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["PEFT"]


class PEFT(Scheduler):
    """Look-ahead list scheduler driven by the Optimistic Cost Table."""

    name = "PEFT"

    def __init__(
        self, insertion: bool = True, engine: Optional[str] = None
    ) -> None:
        self.insertion = insertion
        self.engine = resolve_engine(engine)

    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph`` with the OCT-driven PEFT policy."""
        table = optimistic_cost_table(graph)
        rank = oct_rank(graph, table)

        schedule = Schedule(graph)
        engine = make_engine(schedule, self.engine)
        # bind the fused compiled-path placement once per build
        place_best = getattr(engine, "place_best", None)
        insertion = self.insertion
        itq = IndependentTaskQueue(graph)
        heap: List[tuple] = []
        for task in itq.ready_tasks():
            heapq.heappush(heap, (-rank[task], task))
        try:
            while heap:
                _, task = heapq.heappop(heap)
                row = table[task]
                objective = lambda proc, eft, row=row: eft + row[proc]
                if place_best is not None:
                    place_best(task, insertion, objective)
                else:
                    place_min_eft(
                        schedule,
                        task,
                        insertion=insertion,
                        objective=objective,
                        engine=engine,
                    )
                for released in itq.complete(task):
                    heapq.heappush(heap, (-rank[released], released))
        finally:
            if engine is not None:
                engine.flush_counts()
        return schedule
