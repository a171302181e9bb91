"""Online HDLTS: the penalty-value loop run at execution time.

``OnlineHDLTS`` makes exactly the decisions HDLTS would -- dynamic ITQ,
penalty-value selection, min-EFT mapping, effective entry duplication --
but against the *realized* platform: estimated costs ``W`` drive the
decisions while actual durations come from a perturbation model, and
CPUs may fail-stop mid-run.  A task caught on a failing CPU is lost and
re-dispatched when the failure is detected; the dead CPU is excluded
from then on.

There is one online loop, the job-stream arena's
(:mod:`repro.stream.arena`): ``OnlineHDLTS`` runs the workflow as a
stream's lone job arriving at time zero.  Its oracle is offline HDLTS,
whose schedule slots the records equal under exact durations.

The comparison arm is a schedule computed offline by any static
scheduler and executed under the same realized durations: in production
a ``Static/<Name>`` lone job replaying the plan's queues
(:func:`run_lone_job`), and in the differential suites
``replay_static``, the :class:`ScheduleSimulator` oracle it equals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dynamic.failures import FailStop
from repro.dynamic.noise import DurationFn
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.simulator import ScheduleSimulator
from repro.stream.arena import Queues, StreamInstance, StreamJob, run_stream

__all__ = [
    "OnlineHDLTS", "OnlineResult", "OnlineRecord", "replay_static", "run_lone_job",
]


@dataclass(frozen=True)
class OnlineRecord:
    """One dispatch (successful or lost) during an online run."""

    task: int
    proc: int
    start: float
    finish: float
    duplicate: bool = False
    lost: bool = False


@dataclass
class OnlineResult:
    """Realized execution of an online (or replayed static) run."""

    makespan: float
    finish_times: Dict[int, float]
    proc_of: Dict[int, int]
    records: List[OnlineRecord] = field(default_factory=list)
    n_lost: int = 0
    dead_procs: Tuple[int, ...] = ()

    def finish_of(self, task: int) -> float:
        """Realized finish time of ``task``."""
        return self.finish_times[task]


class AllProcessorsFailed(RuntimeError):
    """Every CPU died before the workflow finished."""


@dataclass(frozen=True)
class _LoneJob(StreamJob):
    """A stream job asking the caller's ``DurationFn`` lazily, in
    dispatch order: memoized noise gives each draw to the ``(task,
    proc)`` pair that asks first, so a pre-drawn matrix would differ."""

    realized: Optional[DurationFn] = None

    @property
    def exact(self) -> bool:
        return self.realized is None

    def duration_fn(self) -> DurationFn:
        return self.realized or super().duration_fn()


class OnlineHDLTS:
    """Runtime HDLTS under uncertainty (the paper's future-work mode)."""

    name = "OnlineHDLTS"

    def execute(
        self,
        graph: TaskGraph,
        duration_fn: Optional[DurationFn] = None,
        failures: Optional[Iterable[FailStop]] = None,
    ) -> OnlineResult:
        """Run the workflow online; returns the realized execution."""
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        return run_lone_job(graph, self.name, duration_fn, failures)


def run_lone_job(
    graph: TaskGraph,
    policy: str,
    duration_fn: Optional[DurationFn] = None,
    failures: Optional[Iterable[FailStop]] = None,
    queues: Optional[Queues] = None,
) -> OnlineResult:
    """Run normalized ``graph`` as a stream's lone job arriving at time
    zero under ``policy`` (``queues``: a static plan's, see
    :func:`~repro.stream.arena.run_stream`)."""
    job = _LoneJob(0, 0.0, graph, realized=duration_fn)
    result = run_stream(
        StreamInstance((job,), graph.n_procs),
        policy,
        failures,
        None if queues is None else [queues],
    )
    (done,) = result.jobs
    if done.lost:
        left = done.n_tasks - len(done.finish_times)
        raise AllProcessorsFailed(f"all CPUs failed with {left} tasks left")
    return OnlineResult(
        makespan=done.finish,
        finish_times=done.finish_times,
        proc_of=done.proc_of,
        records=[
            OnlineRecord(r.task, r.proc, r.start, r.finish, r.duplicate, r.lost)
            for r in result.records
        ],
        n_lost=result.n_lost_dispatches,
        dead_procs=result.dead_procs,
    )


def replay_static(
    graph: TaskGraph,
    schedule: Schedule,
    duration_fn: Optional[DurationFn] = None,
) -> OnlineResult:
    """Execute a statically computed schedule under perturbed durations.

    The placement and per-CPU order are fixed; only timing floats.  This
    is the :class:`ScheduleSimulator` oracle for the arena's
    ``Static/<Name>`` replay, through which production callers run
    frozen plans (:func:`run_lone_job`).  A frozen schedule cannot
    survive CPU failures; re-planning after one is
    :func:`~repro.dynamic.repair.repair_after_failure`.
    """
    sim = ScheduleSimulator(graph).run(schedule, duration_fn)
    # one record per committed copy, duplicates with their own interval
    return OnlineResult(
        makespan=sim.makespan,
        finish_times=sim.finish_times,
        proc_of=sim.proc_of,
        records=[OnlineRecord(*copy) for copy in sim.copies],
    )
