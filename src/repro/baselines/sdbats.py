"""SDBATS -- Standard-Deviation-Based Task Scheduling (Munir et al., 2013).

Identical skeleton to HEFT with two twists taken from the SDBATS paper:

* the upward rank uses the **standard deviation** of each task's
  execution-cost row (its heterogeneity) as the node weight instead of
  the mean -- the same signal HDLTS later turned into its dynamic
  penalty value;
* the **entry task is duplicated** on every CPU at time zero before
  scheduling begins, so each child can read the entry's output locally
  (children still fall back to the cheapest copy automatically).

Mapping is insertion-based min-EFT over the rank-descending static list.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import make_engine, place_min_eft, precedence_safe_order
from repro.core.base import Scheduler
from repro.model.attributes import std_execution_times
from repro.model.ranking import upward_rank
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["SDBATS"]


class SDBATS(Scheduler):
    """Std-deviation-ranked HEFT with full entry-task duplication."""

    name = "SDBATS"

    def __init__(
        self,
        insertion: bool = True,
        duplicate_entry: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        self.insertion = insertion
        self.duplicate_entry = duplicate_entry
        self.engine = resolve_engine(engine)

    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph`` with SDBATS (std ranks + entry duplication)."""
        weights = std_execution_times(graph)
        ranks = upward_rank(graph, weights)
        order = precedence_safe_order(graph, ranks, descending=True)

        schedule = Schedule(graph)
        entry = graph.entry_task
        # the rank-descending order always starts with the entry task
        # (its rank dominates every descendant's); place it on its
        # fastest CPU and mirror it everywhere else.
        first = order[0]
        if first != entry:  # pragma: no cover - rank invariant
            raise AssertionError("entry task must head the static list")
        best_proc = int(np.argmin(graph.cost_row(entry)))
        schedule.place(entry, best_proc, 0.0)
        if self.duplicate_entry and graph.cost_row(entry).max() > 0:
            for proc in graph.procs():
                if proc != best_proc:
                    schedule.place(entry, proc, 0.0, duplicate=True)

        # the engine ingests the entry pre-placement (and its mirrors)
        engine = make_engine(schedule, self.engine)
        # bind the fused compiled-path placement once per build
        place_best = getattr(engine, "place_best", None)
        if place_best is not None:
            insertion = self.insertion
            try:
                for task in order[1:]:
                    place_best(task, insertion)
            finally:
                engine.flush_counts()
        else:
            for task in order[1:]:
                place_min_eft(
                    schedule, task, insertion=self.insertion, engine=engine
                )
        return schedule
