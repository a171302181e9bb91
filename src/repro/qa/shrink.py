"""Greedy delta-debugging of a failing task graph.

:func:`shrink_graph` takes a graph on which ``predicate`` holds (the
reproduction of some invariant violation) and repeatedly tries smaller
or simpler variants -- dropping tasks, dropping edges, dropping CPUs,
zeroing communication costs, rounding computation costs -- keeping each
simplification only if the predicate *still* holds.  The result is the
minimal reproducer the fuzz campaign writes to the golden corpus: small
enough to read, concrete enough to replay forever.

The predicate owns all judgement: it rebuilds the failing scenario
(scheduler, engine, invariant subset) on the candidate
graph and answers "does it still fail?".  ``shrink_graph`` treats a
predicate exception as "does not fail" so a crash introduced *by
shrinking* never masquerades as the original bug.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.model.task_graph import TaskGraph

__all__ = ["shrink_graph"]

Predicate = Callable[[TaskGraph], bool]
EdgeList = List[Tuple[int, int, float]]


def _arrays(graph: TaskGraph) -> Tuple[np.ndarray, EdgeList]:
    costs = graph.cost_matrix().copy()
    edges = [(e.src, e.dst, e.cost) for e in graph.edges()]
    return costs, edges


def _rebuild(costs: np.ndarray, edges: EdgeList) -> TaskGraph:
    return TaskGraph.from_arrays(np.asarray(costs, dtype=float), edges)


def _drop_task(
    costs: np.ndarray, edges: EdgeList, task: int
) -> Tuple[np.ndarray, EdgeList]:
    keep = [i for i in range(costs.shape[0]) if i != task]
    remap = {old: new for new, old in enumerate(keep)}
    new_edges = [
        (remap[u], remap[v], c) for u, v, c in edges if u != task and v != task
    ]
    return costs[keep], new_edges


def shrink_graph(
    graph: TaskGraph,
    predicate: Predicate,
    max_attempts: int = 400,
) -> TaskGraph:
    """Smallest graph (greedy, not global) on which ``predicate`` holds.

    Runs simplification passes to fixpoint or until ``max_attempts``
    predicate evaluations: remove tasks (ids compacted), remove edges,
    drop CPU columns, zero communication costs, round computation costs
    to integers.  If the initial graph does not satisfy the predicate it
    is returned unchanged.
    """
    attempts = 0

    def holds(candidate: TaskGraph) -> bool:
        nonlocal attempts
        attempts += 1
        try:
            return bool(predicate(candidate))
        except Exception:
            return False

    best = graph
    improved = True
    while improved and attempts < max_attempts:
        improved = False

        # pass 1: drop tasks, highest id first (ids stay compact)
        task = best.n_tasks - 1
        while task >= 0 and best.n_tasks > 2 and attempts < max_attempts:
            costs, edges = _arrays(best)
            candidate = _rebuild(*_drop_task(costs, edges, task))
            if holds(candidate):
                best = candidate
                improved = True
            task -= 1

        # pass 2: drop edges
        index = len(list(best.edges())) - 1
        while index >= 0 and attempts < max_attempts:
            costs, edges = _arrays(best)
            del edges[index]
            candidate = _rebuild(costs, edges)
            if holds(candidate):
                best = candidate
                improved = True
            index -= 1

        # pass 3: drop CPU columns
        proc = best.n_procs - 1
        while proc >= 0 and best.n_procs > 1 and attempts < max_attempts:
            costs, edges = _arrays(best)
            keep = [p for p in range(costs.shape[1]) if p != proc]
            candidate = _rebuild(costs[:, keep], edges)
            if holds(candidate):
                best = candidate
                improved = True
            proc -= 1

        # pass 4: zero communication costs, one edge at a time
        index = len(list(best.edges())) - 1
        while index >= 0 and attempts < max_attempts:
            costs, edges = _arrays(best)
            u, v, c = edges[index]
            if c != 0.0:
                edges[index] = (u, v, 0.0)
                candidate = _rebuild(costs, edges)
                if holds(candidate):
                    best = candidate
                    improved = True
            index -= 1

        # pass 5: round every cost to an integer (single shot per round)
        if attempts < max_attempts:
            costs, edges = _arrays(best)
            rounded_costs = np.round(costs)
            rounded_edges = [(u, v, float(round(c))) for u, v, c in edges]
            if not np.array_equal(rounded_costs, costs) or rounded_edges != edges:
                candidate = _rebuild(rounded_costs, rounded_edges)
                if holds(candidate):
                    best = candidate
                    improved = True
    return best
