"""Discrete-event re-execution of a schedule.

The schedulers compute start/finish times analytically while they build a
schedule.  :class:`ScheduleSimulator` re-derives those times from nothing
but the *decisions* -- which copies run on which CPU, in which order --
by simulating the platform: a CPU executes its queue in order, and a task
begins only when the CPU is free and every input has arrived (same-CPU
data is free; remote data pays the edge cost, Definition 2).

This provides an independent check (for append-based schedules the
simulated makespan must equal the analytic one; insertion-based ones may
only improve) and is the replay engine of the dynamic extension: pass a
``duration_fn`` to perturb execution times, or ``release_time`` to model
a platform that only becomes available later.  CPU failures live in
:mod:`repro.dynamic` (online scheduling and repair), network contention
in :mod:`repro.schedule.contention`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule

__all__ = ["ScheduleSimulator", "SimulationResult", "schedule_queues"]

DurationFn = Callable[[int, int], float]  # (task, proc) -> execution time


@dataclass
class SimulationResult:
    """Realized execution of a schedule."""

    makespan: float
    finish_times: Dict[int, float]
    start_times: Dict[int, float]
    proc_of: Dict[int, int]
    order: List[Tuple[int, int]] = field(default_factory=list)  # (task, proc)
    #: every committed copy in commit order, duplicates included with
    #: their own realized interval: (task, proc, start, finish, duplicate)
    copies: List[Tuple[int, int, float, float, bool]] = field(
        default_factory=list
    )

    def finish_of(self, task: int) -> float:
        """Realized finish time of ``task``."""
        return self.finish_times[task]


class DeadlockError(RuntimeError):
    """The per-CPU orders are inconsistent with the precedence DAG."""


def schedule_queues(schedule: Schedule) -> List[List[Tuple[int, bool]]]:
    """A schedule's per-CPU execution order: ``(task, is_duplicate)``.

    Sorted by (start, end), stably: zero-duration pseudo tasks that
    share a start instant with a real task run first (they finish
    immediately), and slots with *equal* keys keep their timeline
    order -- which is placement order, and therefore the scheduler's
    actual commit order.  (A topological tie-break here would be
    wrong: two independent zero-duration tasks committed at the same
    instant can sit in anti-topological commit order, and reordering
    them lets the replay start one earlier than the analytic
    bookkeeping did.  Placement order is dependency-consistent for
    every scheduler in the registry: static lists are
    precedence-safe and dynamic schedulers commit along precedence.)
    """
    return [
        [
            (s.task, s.duplicate)
            for s in sorted(timeline.slots(), key=lambda s: (s.start, s.end))
        ]
        for timeline in schedule.timelines
    ]


class ScheduleSimulator:
    """Re-executes a schedule's placement + ordering decisions."""

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph

    def run(
        self,
        schedule: Schedule,
        duration_fn: Optional[DurationFn] = None,
        release_time: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``schedule``; returns realized times.

        ``duration_fn(task, proc)`` overrides ``W`` (defaults to the
        graph's costs, in which case the realized makespan must match the
        analytic one -- the cross-check used throughout the test suite).
        """
        return self.run_queues(
            schedule_queues(schedule), duration_fn, release_time
        )

    def replay_violations(self, schedule: Schedule) -> List[str]:
        """Replay ``schedule``'s decisions; list every disagreement.

        Eager re-execution of the committed placement and per-CPU order
        can never *delay* a feasible schedule: every task starts no
        later than its analytic start (parents finish no later, and the
        CPU frees up no later), so a simulated finish -- or the whole
        simulated makespan -- exceeding the analytic value beyond
        ``FEASIBILITY_EPS`` means the schedule's book-kept times are
        inconsistent with its own decisions.  Append-based schedules
        replay exactly; insertion-based ones may only improve.

        Returns human-readable problem strings (empty = agreement); a
        simulator failure (deadlocked queues, never-executed tasks) is
        itself reported rather than raised.
        """
        from repro.schedule.validation import FEASIBILITY_EPS

        try:
            sim = self.run(schedule)
        except (DeadlockError, ValueError, KeyError) as err:
            return [f"replay failed: {err}"]
        problems: List[str] = []
        span = schedule.makespan
        if sim.makespan > span + FEASIBILITY_EPS:
            problems.append(
                f"replayed makespan {sim.makespan:.6f} exceeds analytic "
                f"makespan {span:.6f}"
            )
        for task in self.graph.tasks():
            analytic = schedule.finish_of(task)
            realized = sim.finish_times[task]
            if realized > analytic + FEASIBILITY_EPS:
                problems.append(
                    f"task {task} replays to finish {realized:.6f}, after "
                    f"its analytic finish {analytic:.6f}"
                )
        return problems

    def run_queues(
        self,
        queues: Sequence[Sequence[Tuple[int, bool]]],
        duration_fn: Optional[DurationFn] = None,
        release_time: float = 0.0,
    ) -> SimulationResult:
        """Simulate explicit per-CPU queues of (task, is_duplicate)."""
        graph = self.graph
        if duration_fn is None:
            duration_fn = graph.cost
        n_procs = len(queues)
        if n_procs != graph.n_procs:
            raise ValueError(
                f"expected {graph.n_procs} queues, got {n_procs}"
            )

        # earliest availability of each task's output per CPU: we track,
        # per task, the finish time of every completed copy and its CPU.
        copy_finish: Dict[int, List[Tuple[int, float]]] = {}
        start_times: Dict[int, float] = {}
        finish_times: Dict[int, float] = {}
        proc_of: Dict[int, int] = {}
        order: List[Tuple[int, int]] = []
        copies: List[Tuple[int, int, float, float, bool]] = []

        heads = [0] * n_procs
        clocks = [release_time] * n_procs
        total = sum(len(q) for q in queues)
        done = 0
        bus = obs.get_bus()

        def arrival(parent: int, child: int, proc: int) -> float:
            copies = copy_finish.get(parent)
            if not copies:
                return float("inf")
            comm = graph.comm_cost(parent, child)
            return min(
                fin + (0.0 if cproc == proc else comm) for cproc, fin in copies
            )

        # Global-time discrete-event loop: each round commits the head
        # task with the smallest feasible start time across all CPUs.
        # Committing in start-time order is what makes "min arrival over
        # copies completed so far" correct -- any copy that could deliver
        # data before the chosen start would itself have started (and
        # been committed) earlier.
        while done < total:
            best_proc = -1
            best_start = float("inf")
            for proc in range(n_procs):
                if heads[proc] >= len(queues[proc]):
                    continue
                task, _ = queues[proc][heads[proc]]
                ready = release_time
                for parent in graph.predecessors(task):
                    t = arrival(parent, task, proc)
                    if t == float("inf"):
                        ready = float("inf")
                        break
                    if t > ready:
                        ready = t
                start = max(clocks[proc], ready)
                if start < best_start:
                    best_start = start
                    best_proc = proc
            if best_proc < 0:
                stuck = [
                    queues[p][heads[p]][0]
                    for p in range(n_procs)
                    if heads[p] < len(queues[p])
                ]
                raise DeadlockError(
                    f"simulation deadlock; blocked head tasks: {stuck}"
                )
            proc = best_proc
            task, is_dup = queues[proc][heads[proc]]
            duration = duration_fn(task, proc)
            finish = best_start + duration
            clocks[proc] = finish
            copy_finish.setdefault(task, []).append((proc, finish))
            if bus.active:
                bus.emit(
                    "sim.task_finish",
                    task=task,
                    proc=proc,
                    start=best_start,
                    finish=finish,
                    duplicate=is_dup,
                )
            if not is_dup:
                if task in finish_times:
                    raise ValueError(f"task {task} has two primary copies")
                start_times[task] = best_start
                finish_times[task] = finish
                proc_of[task] = proc
            order.append((task, proc))
            copies.append((task, proc, best_start, finish, is_dup))
            heads[proc] += 1
            done += 1

        obs.count("sim/commits", done)
        missing = [t for t in graph.tasks() if t not in finish_times]
        if missing:
            raise ValueError(f"tasks never executed: {missing[:10]}")
        makespan = max(finish_times.values(), default=0.0)
        return SimulationResult(
            makespan, finish_times, start_times, proc_of, order, copies
        )
