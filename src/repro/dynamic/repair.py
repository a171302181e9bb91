"""Static scheduling with failure repair (re-planning).

The middle ground between the two arms the other modules provide:

* a **frozen static** schedule cannot survive a CPU failure at all;
* **OnlineHDLTS** makes every decision at runtime;
* :func:`repair_after_failure` executes a static schedule normally, and
  when a CPU fail-stops it *re-plans*: work already completed is kept,
  the task lost on the dead CPU and everything not yet dispatched are
  rescheduled with the HDLTS policy on the surviving CPUs, starting at
  the detection instant.

This is the classic checkpoint-and-replan recovery; comparing its
makespan with OnlineHDLTS's quantifies how much of the online mode's
value is *failure handling* versus *continuous re-prioritization*.

Data model (matching :class:`~repro.dynamic.online.OnlineHDLTS`):
outputs of tasks that *completed* before the failure remain readable
even when they were produced on the dead CPU -- the usual
results-are-persisted assumption of fail-stop recovery models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.dynamic.failures import FailStop
from repro.dynamic.noise import DurationFn, exact_durations
from repro.dynamic.online import OnlineRecord, OnlineResult
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.simulator import schedule_queues

__all__ = ["repair_after_failure"]


def _replay_until_failure(
    graph: TaskGraph,
    schedule: Schedule,
    duration_fn: DurationFn,
    failure: FailStop,
) -> Tuple[
    Dict[int, List[Tuple[int, float]]],
    List[float],
    Set[int],
    Dict[int, Tuple[int, float]],
    List[OnlineRecord],
]:
    """Execute the static plan in min-start order until a dispatch is
    lost to the failure; returns (copies, cpu clocks, executed tasks,
    primary placements, records)."""
    queues = schedule_queues(schedule)
    n_procs = graph.n_procs
    heads = [0] * n_procs
    clocks = [0.0] * n_procs
    copies: Dict[int, List[Tuple[int, float]]] = {}
    executed: Set[int] = set()
    primary_finish: Dict[int, Tuple[int, float]] = {}
    records: List[OnlineRecord] = []

    def arrival(parent: int, child: int, proc: int) -> Optional[float]:
        parent_copies = copies.get(parent)
        if not parent_copies:
            return None
        comm = graph.comm_cost(parent, child)
        return min(
            fin + (0.0 if cproc == proc else comm)
            for cproc, fin in parent_copies
        )

    while True:
        best_proc, best_start = -1, float("inf")
        for proc in range(n_procs):
            if heads[proc] >= len(queues[proc]):
                continue
            task, _ = queues[proc][heads[proc]]
            ready = 0.0
            feasible = True
            for parent in graph.predecessors(task):
                t = arrival(parent, task, proc)
                if t is None:
                    feasible = False
                    break
                ready = max(ready, t)
            if not feasible:
                continue
            start = max(clocks[proc], ready)
            if start < best_start:
                best_proc, best_start = proc, start
        if best_proc < 0:
            break  # plan fully executed (or nothing runnable)
        proc = best_proc
        task, is_dup = queues[proc][heads[proc]]
        duration = duration_fn(task, proc)
        finish = best_start + duration
        if proc == failure.proc and finish > failure.at_time:
            # this dispatch is lost; the failure is now detected
            records.append(
                OnlineRecord(
                    task,
                    proc,
                    best_start,
                    max(best_start, failure.at_time),
                    is_dup,
                    lost=True,
                )
            )
            heads[proc] += 1
            break
        clocks[proc] = finish
        copies.setdefault(task, []).append((proc, finish))
        if not is_dup:
            executed.add(task)
            primary_finish[task] = (proc, finish)
        records.append(OnlineRecord(task, proc, best_start, finish, is_dup))
        heads[proc] += 1
    return copies, clocks, executed, primary_finish, records


def repair_after_failure(
    graph: TaskGraph,
    schedule: Schedule,
    failure: FailStop,
    duration_fn: Optional[DurationFn] = None,
) -> OnlineResult:
    """Execute ``schedule``; on the fail-stop, re-plan with HDLTS.

    Returns the realized execution.  Raises if the graph cannot finish
    on the survivors (single-CPU platform losing its only CPU).
    """
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        raise ValueError("repair expects the (normalized) scheduled graph")
    if duration_fn is None:
        duration_fn = exact_durations(graph)
    if failure.proc >= graph.n_procs:
        raise ValueError("failure names a CPU outside the platform")
    if graph.n_procs == 1:
        raise ValueError("no survivor CPUs to repair onto")

    copies, clocks, executed, primary_finish, records = _replay_until_failure(
        graph, schedule, duration_fn, failure
    )

    detection = failure.at_time
    survivors = [p for p in range(graph.n_procs) if p != failure.proc]
    avail = [max(clocks[p], detection) for p in range(graph.n_procs)]
    w = graph.cost_matrix()

    remaining = [t for t in graph.tasks() if t not in executed]
    indegree = {
        t: sum(1 for p in graph.predecessors(t) if p not in executed)
        for t in remaining
    }
    ready_set = sorted(t for t in remaining if indegree[t] == 0)
    finish_times: Dict[int, float] = {
        t: primary_finish[t][1] for t in executed
    }
    proc_of: Dict[int, int] = {t: primary_finish[t][0] for t in executed}

    def arrival(parent: int, child: int, proc: int) -> float:
        comm = graph.comm_cost(parent, child)
        return min(
            fin + (0.0 if cproc == proc else comm)
            for cproc, fin in copies[parent]
        )

    n_lost = sum(1 for r in records if r.lost)
    # HDLTS loop restricted to survivors, floored at the detection time
    while ready_set:
        rows = np.full((len(ready_set), len(survivors)), detection)
        for i, task in enumerate(ready_set):
            for j, proc in enumerate(survivors):
                ready = detection
                for parent in graph.predecessors(task):
                    ready = max(ready, arrival(parent, task, proc))
                rows[i, j] = ready
        est = np.maximum(
            rows, np.array([avail[p] for p in survivors])[None, :]
        )
        eft = est + w[np.ix_(ready_set, survivors)]
        if len(survivors) > 1:
            priorities = eft.std(axis=1, ddof=1)
        else:
            priorities = np.zeros(len(ready_set))
        i = int(np.argmax(priorities))
        task = ready_set[i]
        j = int(np.argmin(eft[i]))
        proc = survivors[j]
        start = float(est[i, j])
        finish = start + duration_fn(task, proc)
        avail[proc] = finish
        copies.setdefault(task, []).append((proc, finish))
        finish_times[task] = finish
        proc_of[task] = proc
        records.append(OnlineRecord(task, proc, start, finish))
        ready_set.remove(task)
        for succ in graph.successors(task):
            if succ in indegree:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready_set.append(succ)
        ready_set.sort()

    return OnlineResult(
        makespan=max(finish_times.values(), default=0.0),
        finish_times=finish_times,
        proc_of=proc_of,
        records=records,
        n_lost=n_lost,
        dead_procs=(failure.proc,),
    )
