"""Scheduler interface shared by HDLTS and every baseline.

A scheduler maps a :class:`~repro.model.task_graph.TaskGraph` to a complete
:class:`~repro.schedule.schedule.Schedule`.  Results are wrapped in
:class:`SchedulingResult` so experiments can carry the algorithm name, the
optional step trace and timing metadata alongside the schedule itself.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.core.trace import TraceStep

__all__ = ["Scheduler", "SchedulingResult"]


@dataclass
class SchedulingResult:
    """A completed scheduling run."""

    schedule: Schedule
    scheduler: str
    wall_time: float = 0.0
    trace: Optional[List[TraceStep]] = None
    extras: dict = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def n_duplicates(self) -> int:
        return len(self.schedule.duplicates())


class Scheduler(abc.ABC):
    """Abstract list scheduler.

    Subclasses implement :meth:`build_schedule`; callers normally use
    :meth:`run`, which also validates single-entry requirements, times the
    run and wraps the result.
    """

    #: human-readable algorithm name (class attribute on subclasses)
    name: str = "scheduler"

    #: whether the algorithm requires a single entry (and exit) task.
    requires_single_entry: bool = True
    requires_single_exit: bool = False

    @abc.abstractmethod
    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Produce a complete schedule for ``graph``."""

    def prepare(self, graph: TaskGraph) -> TaskGraph:
        """Normalize the graph if the algorithm needs it.

        Multi-entry/exit graphs are wrapped with zero-cost pseudo tasks
        (Section III) when the algorithm requires a unique entry/exit.
        """
        entries = graph.entry_tasks()
        exits = graph.exit_tasks()
        needs_norm = (self.requires_single_entry and len(entries) != 1) or (
            self.requires_single_exit and len(exits) != 1
        )
        return graph.normalized() if needs_norm else graph

    def run(self, graph: TaskGraph) -> SchedulingResult:
        """Schedule ``graph`` and return a timed, named result.

        The run executes inside one ``scheduler.run`` span
        (:mod:`repro.obs.spans`), the root of the phase stack: inner
        ``with phase(...)`` timers nest under e.g. ``HDLTS/eft_vector``,
        the span feeds the ``<name>`` timer while metrics are on, and its
        duration is the result's ``wall_time``.  One ``scheduler.run``
        event is published when anything subscribes to the bus.
        """
        prepared = self.prepare(graph)
        with obs.span("scheduler.run", phase=self.name, name=self.name) as sp:
            schedule = self.build_schedule(prepared)
            sp.set(
                n_tasks=prepared.n_tasks,
                n_procs=prepared.n_procs,
                makespan=schedule.makespan,
            )
        obs.count(f"{self.name}/runs")
        bus = obs.get_bus()
        if bus.active:
            bus.emit(
                "scheduler.run",
                scheduler=self.name,
                n_tasks=prepared.n_tasks,
                n_procs=prepared.n_procs,
                makespan=schedule.makespan,
                wall_s=sp.dur_s,
            )
        trace = getattr(self, "last_trace", None)
        return SchedulingResult(
            schedule=schedule,
            scheduler=self.name,
            wall_time=sp.dur_s,
            trace=trace,
        )

    def __call__(self, graph: TaskGraph) -> SchedulingResult:
        return self.run(graph)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"
