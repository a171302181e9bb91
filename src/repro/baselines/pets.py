"""PETS -- Performance Effective Task Scheduling (Ilavarasan et al., 2005).

Three phases: (1) *level sort* groups tasks by precedence level; (2) each
level is prioritized by ``rank = round(ACC + DTC + X)`` where ACC is the
average computation cost, DTC the total data-transfer (outgoing) cost and
``X`` is either

* ``DRC`` -- the maximum data-*receiving* cost (how the HDLTS paper
  describes PETS; our default), or
* ``RPT`` -- the highest rank among immediate predecessors (the original
  PETS paper's attribute; available as ``variant="rpt"``);

(3) tasks are mapped level by level, rank-descending, to the CPU with
minimum insertion-based EFT.  Complexity O((V+E)(P + log V)).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.common import make_engine, place_min_eft
from repro.core.base import Scheduler
from repro.model.attributes import mean_execution_times
from repro.model.compiled import (
    _data_transfer_costs, compile_graph, pets_priorities,
)
from repro.model.levels import level_decomposition
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["PETS"]


class PETS(Scheduler):
    """Level-sorted list scheduler with ACC/DTC/DRC ranks."""

    name = "PETS"

    def __init__(
        self,
        insertion: bool = True,
        variant: str = "drc",
        engine: Optional[str] = None,
    ) -> None:
        if variant not in ("drc", "rpt"):
            raise ValueError(f"variant must be 'drc' or 'rpt', got {variant!r}")
        self.insertion = insertion
        self.variant = variant
        self.engine = resolve_engine(engine)

    # ------------------------------------------------------------------
    def ranks(self, graph: TaskGraph) -> np.ndarray:
        """Compute the PETS rank of every task.

        The drc ranks are
        :func:`~repro.model.compiled.pets_priorities` over the compiled
        CSR arrays (a one-lane union); rpt ranks recurse level by level.
        """
        compiled = compile_graph(graph)
        acc = compiled.mean_costs()
        if self.variant == "drc":
            return pets_priorities(
                compiled.succ_indptr,
                compiled.succ_costs,
                compiled.pred_indptr,
                compiled.pred_costs,
                acc,
            )
        dtc = _data_transfer_costs(compiled.succ_indptr, compiled.succ_costs)
        rank = np.zeros(graph.n_tasks)
        for level in level_decomposition(graph):
            for task in level:
                # rpt: predecessors live in earlier levels, already ranked
                extra = max(
                    (rank[parent] for parent in graph.predecessors(task)),
                    default=0.0,
                )
                rank[task] = round(acc[task] + dtc[task] + extra)
        return rank

    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph`` level by level in PETS rank order."""
        rank = self.ranks(graph)
        schedule = Schedule(graph)
        engine = make_engine(schedule, self.engine)
        # bind the fused compiled-path placement once per build
        place_best = getattr(engine, "place_best", None)
        insertion = self.insertion
        acc = mean_execution_times(graph)
        try:
            for level in level_decomposition(graph):
                # highest rank first; ties by smaller average computation
                # cost, then task id (the paper leaves ties unspecified)
                ordered: List[int] = sorted(
                    level, key=lambda t: (-rank[t], acc[t], t)
                )
                for task in ordered:
                    if place_best is not None:
                        place_best(task, insertion)
                    else:
                        place_min_eft(
                            schedule, task, insertion=insertion, engine=engine
                        )
        finally:
            if engine is not None:
                engine.flush_counts()
        return schedule
