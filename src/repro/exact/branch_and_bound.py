"""Branch-and-bound optimal DAG scheduling (no duplication).

Exactness argument: for makespan minimization with communication delays
there is always an optimal schedule that is *eager* -- every task starts
at ``max(CPU avail, data ready)`` given its CPU and the per-CPU order --
because starting any task earlier can only make data available earlier.
Eager schedules are exactly the ones reachable by repeatedly dispatching
some ready task to some CPU, so DFS over (ready task, CPU) choices with
eager timing enumerates an optimal schedule.

Pruning:

* lower bound = max over unscheduled tasks of (earliest conceivable
  start given scheduled parents, ignoring contention and communication)
  + the task's min-cost bottom level (communication-free);
* per-branch bound: a dispatch whose finish plus the task's remaining
  communication-free bottom level already reaches the incumbent is cut.

(No empty-CPU symmetry pruning: on a *heterogeneous* platform idle CPUs
are not interchangeable -- their cost columns differ.)

Intended for instances up to roughly a dozen tasks; ``max_states``
bounds the search explicitly and raises when exceeded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule

__all__ = ["BranchAndBound", "optimal_makespan"]


class SearchBudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive search."""


class BranchAndBound:
    """Exact scheduler via DFS branch-and-bound with eager timing."""

    name = "B&B"

    def __init__(self, max_states: int = 5_000_000) -> None:
        self.max_states = max_states
        self.states_explored = 0

    # ------------------------------------------------------------------
    def solve(
        self, graph: TaskGraph, upper_bound: Optional[float] = None
    ) -> Tuple[float, Schedule]:
        """Return ``(optimal makespan, one optimal schedule)``.

        ``upper_bound`` (e.g. a heuristic's makespan) seeds the pruning;
        the optimum is returned even when it equals the seed.
        """
        n = graph.n_tasks
        w = graph.cost_matrix()
        min_w = w.min(axis=1)

        # communication-free min-cost bottom levels (admissible heuristic)
        bottom = compile_graph(graph).bottom_levels(min_w)

        best_makespan = float("inf") if upper_bound is None else float(upper_bound) + 1e-9
        best_plan: Optional[List[Tuple[int, int, float]]] = None

        indegree = [graph.in_degree(t) for t in graph.tasks()]
        ready = [t for t in graph.tasks() if indegree[t] == 0]
        finish: Dict[int, float] = {}
        proc_of: Dict[int, int] = {}
        avail = [0.0] * graph.n_procs
        plan: List[Tuple[int, int, float]] = []
        self.states_explored = 0

        def lower_bound(current_max: float) -> float:
            bound = current_max
            for task in graph.tasks():
                if task in finish:
                    continue
                est = 0.0
                for parent in graph.predecessors(task):
                    if parent in finish and finish[parent] > est:
                        est = finish[parent]
                if est + bottom[task] > bound:
                    bound = est + bottom[task]
            return bound

        def dfs(current_max: float) -> None:
            nonlocal best_makespan, best_plan
            self.states_explored += 1
            if self.states_explored > self.max_states:
                raise SearchBudgetExceeded(
                    f"exceeded {self.max_states} states; instance too large"
                )
            if not ready:
                if current_max < best_makespan:
                    best_makespan = current_max
                    best_plan = list(plan)
                return
            if lower_bound(current_max) >= best_makespan:
                return
            for i in range(len(ready)):
                task = ready[i]
                # frontier bookkeeping: remove task, release children
                del ready[i]
                released = []
                for succ in graph.successors(task):
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        released.append(succ)
                ready.extend(released)

                for proc in graph.procs():
                    data_ready = 0.0
                    for parent in graph.predecessors(task):
                        arr = finish[parent] + (
                            0.0
                            if proc_of[parent] == proc
                            else graph.comm_cost(parent, task)
                        )
                        if arr > data_ready:
                            data_ready = arr
                    start = max(avail[proc], data_ready)
                    end = start + w[task, proc]
                    if end + (bottom[task] - min_w[task]) >= best_makespan:
                        continue  # this branch cannot improve
                    old_avail = avail[proc]
                    avail[proc] = end
                    finish[task] = end
                    proc_of[task] = proc
                    plan.append((task, proc, start))
                    dfs(max(current_max, end))
                    plan.pop()
                    del proc_of[task]
                    del finish[task]
                    avail[proc] = old_avail

                # undo frontier bookkeeping
                for succ in released:
                    ready.remove(succ)
                for succ in graph.successors(task):
                    indegree[succ] += 1
                ready.insert(i, task)

        dfs(0.0)
        if best_plan is None:
            raise RuntimeError("no schedule found (empty graph?)")

        schedule = Schedule(graph)
        for task, proc, start in best_plan:
            schedule.place(task, proc, start)
        return best_makespan, schedule


def optimal_makespan(
    graph: TaskGraph,
    upper_bound: Optional[float] = None,
    max_states: int = 5_000_000,
) -> float:
    """Convenience wrapper returning just the optimal makespan."""
    return BranchAndBound(max_states=max_states).solve(graph, upper_bound)[0]
