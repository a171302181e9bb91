"""HEFT -- Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

Phase 1 ranks every task by the mean-cost upward rank; phase 2 walks the
rank-descending list and commits each task to the CPU with the minimum
insertion-based EFT.  Complexity O(V^2 * P).

On the paper's Fig. 1 graph this implementation produces the canonical
makespan of 80 (asserted by the test suite), matching the HDLTS paper's
in-text claim.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import make_engine, place_min_eft, precedence_safe_order
from repro.core.base import Scheduler
from repro.model.ranking import upward_rank
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["HEFT"]


class HEFT(Scheduler):
    """Classic HEFT with insertion-based CPU selection."""

    name = "HEFT"

    def __init__(
        self, insertion: bool = True, engine: Optional[str] = None
    ) -> None:
        self.insertion = insertion
        self.engine = resolve_engine(engine)

    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph`` with classic HEFT."""
        ranks = upward_rank(graph)
        order = precedence_safe_order(graph, ranks, descending=True)
        schedule = Schedule(graph)
        engine = make_engine(schedule, self.engine)
        # bind the fused compiled-path placement once per build; the
        # generic helper would re-dispatch to it on every task
        place_best = getattr(engine, "place_best", None)
        if place_best is not None:
            insertion = self.insertion
            try:
                for task in order:
                    place_best(task, insertion)
            finally:
                engine.flush_counts()
        else:
            for task in order:
                place_min_eft(
                    schedule, task, insertion=self.insertion, engine=engine
                )
        return schedule
