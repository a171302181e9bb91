"""Static scheduling with failure repair (re-planning).

The middle ground between the two arms the other modules provide:

* a **frozen static** schedule, replayed as a ``Static/<Name>`` lone
  job (:func:`~repro.dynamic.online.run_lone_job`), cannot survive a
  CPU failure at all;
* **OnlineHDLTS** makes every decision at runtime;
* :func:`repair_after_failure` executes a static schedule normally, and
  when a CPU fail-stops it *re-plans*: work already completed is kept,
  the task lost on the dead CPU and everything not yet dispatched are
  rescheduled with the HDLTS policy on the surviving CPUs, starting at
  the detection instant.

This is the classic checkpoint-and-replan recovery; comparing its
makespan with OnlineHDLTS's quantifies how much of the online mode's
value is *failure handling* versus *continuous re-prioritization*.

It is one run of the job-stream arena (:mod:`repro.stream.arena`): a
``Static/<Name>`` policy replays the plan's frozen queues until the
first dispatch that crosses a fail-stop, then hands every job's
remaining tasks to the online loop.  Data model (matching
:class:`~repro.dynamic.online.OnlineHDLTS`): outputs of tasks that
*completed* before the failure remain readable even when they were
produced on the dead CPU -- the usual results-are-persisted assumption
of fail-stop recovery models.
"""

from __future__ import annotations

from typing import Optional

from repro.dynamic.failures import FailStop
from repro.dynamic.noise import DurationFn
from repro.dynamic.online import OnlineResult, run_lone_job
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.simulator import schedule_queues

__all__ = ["repair_after_failure"]


def repair_after_failure(
    graph: TaskGraph,
    schedule: Schedule,
    failure: FailStop,
    duration_fn: Optional[DurationFn] = None,
) -> OnlineResult:
    """Execute ``schedule``; on the fail-stop, re-plan with HDLTS.

    Returns the realized execution, whose ``dead_procs`` names the
    failing CPU even when the plan ends before the failure.  Raises if
    the graph cannot finish on the survivors (single-CPU platform
    losing its only CPU).
    """
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        raise ValueError("repair expects the (normalized) scheduled graph")
    if failure.proc >= graph.n_procs:
        raise ValueError("failure names a CPU outside the platform")
    if graph.n_procs == 1:
        raise ValueError("no survivor CPUs to repair onto")
    # the plan's queues replace the named scheduler's: the name only
    # labels the run
    result = run_lone_job(
        graph, "Static/HDLTS", duration_fn, (failure,),
        schedule_queues(schedule),
    )
    result.dead_procs = (failure.proc,)
    return result
