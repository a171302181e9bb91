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
from repro.model.compiled import compile_graph
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
        """Compute the PETS rank of every task (level by level).

        ACC and DTC come from the compiled CSR arrays: ``np.add.at``
        accumulates unbuffered in flat CSR order -- each source's edge
        insertion order -- so every DTC sum adds its terms in the
        sequential order, and the drc max is an order-free reduction.
        """
        compiled = compile_graph(graph)
        n = graph.n_tasks
        acc = compiled.mean_costs()
        dtc = np.zeros(n)
        counts = np.diff(compiled.succ_indptr)
        np.add.at(dtc, np.repeat(np.arange(n), counts), compiled.succ_costs)
        if self.variant == "drc":
            drc = np.zeros(n)
            pred_indptr = compiled.pred_indptr
            has_pred = np.diff(pred_indptr) > 0
            if has_pred.any():
                drc[has_pred] = np.maximum.reduceat(
                    compiled.pred_costs, pred_indptr[:-1][has_pred]
                )
            total = acc + dtc + drc
            return np.array([float(round(value)) for value in total])
        rank = np.zeros(n)
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
        for level in level_decomposition(graph):
            # highest rank first; ties by smaller average computation
            # cost, then task id (the paper leaves ties unspecified)
            acc = mean_execution_times(graph)
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
        return schedule
