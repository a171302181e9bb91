"""DLS -- Dynamic Level Scheduling (Sih & Lee, TPDS 1993).

An extension baseline (not in the paper's comparison set, but the
closest prior *dynamic* list scheduler to HDLTS): at every step DLS
examines all (ready task, CPU) pairs and commits the pair with the
highest **dynamic level**

    DL(t, p) = SL(t) - max(data_ready(t, p), avail(p)) + Delta(t, p)

where ``SL`` is the static level (mean-cost upward rank *without*
communication) and ``Delta(t, p) = mean_w(t) - w(t, p)`` rewards CPUs
that are fast for this particular task.  Like HDLTS it reacts to live
platform state; unlike HDLTS it folds task urgency (SL) and CPU
affinity (Delta) into one score instead of separating prioritization
from CPU selection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import make_engine
from repro.core.base import Scheduler
from repro.core.itq import IndependentTaskQueue
from repro.model.attributes import mean_execution_times
from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["DLS"]


class DLS(Scheduler):
    """Dynamic Level Scheduling."""

    name = "DLS"

    def __init__(
        self, insertion: bool = True, engine: Optional[str] = None
    ) -> None:
        self.insertion = insertion
        self.engine = resolve_engine(engine)

    def static_levels(self, graph: TaskGraph) -> np.ndarray:
        """Mean-cost longest path to the exit, communication excluded."""
        return compile_graph(graph).bottom_levels(mean_execution_times(graph))

    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph`` by maximizing the dynamic level each step."""
        sl = self.static_levels(graph)
        mean_w = mean_execution_times(graph)
        w = graph.cost_matrix()
        schedule = Schedule(graph)
        engine = make_engine(schedule, self.engine)
        itq = IndependentTaskQueue(graph)

        while itq:
            if engine is not None:
                # vectorized per task: one ready vector from the engine's
                # incremental arrays, then DL over all CPUs at once.  The
                # reference tie-break -- maximize (dl, -task, -proc) -- is
                # first-max within a task (argmax) and strict improvement
                # across ascending task ids.
                best = None  # (dl, task, proc, start)
                for task in itq.ready_tasks():
                    ready_vec = engine.ready_vector(task)
                    starts = np.array(
                        [
                            schedule.timelines[proc].earliest_start_fast(
                                float(ready_vec[proc]),
                                w[task, proc],
                                self.insertion,
                            )
                            for proc in graph.procs()
                        ]
                    )
                    dl = sl[task] - starts + (mean_w[task] - w[task])
                    proc = int(np.argmax(dl))
                    if best is None or dl[proc] > best[0]:
                        best = (float(dl[proc]), task, proc, float(starts[proc]))
                assert best is not None
                _, task, proc, start = best
                engine.notify(schedule.place(task, proc, start))
            else:
                best = None  # (dl, -task, -proc) maximized; ties -> low ids
                for task in itq.ready_tasks():
                    for proc in graph.procs():
                        ready = schedule.ready_time(task, proc)
                        start = schedule.timelines[proc].earliest_start(
                            ready, w[task, proc], self.insertion
                        )
                        dl = sl[task] - start + (mean_w[task] - w[task, proc])
                        key = (dl, -task, -proc)
                        if best is None or key > best[0]:
                            best = (key, task, proc, start)
                assert best is not None
                _, task, proc, start = best
                schedule.place(task, proc, start)
            itq.complete(task)
        return schedule
