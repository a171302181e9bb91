"""Static rank functions shared by the baseline list schedulers.

``upward_rank`` / ``downward_rank`` are the HEFT/CPOP recursions (Topcuoglu
et al., TPDS 2002) parameterized by the per-task node weight, so SDBATS can
reuse the same recursion with the standard deviation of the cost row instead
of its mean.  ``optimistic_cost_table`` is PEFT's OCT (Arabnejad & Barbosa,
TPDS 2014).

Each function runs the level-batched CSR kernels of
:mod:`repro.model.compiled`: ranks computed with default weights are
cached per graph instance, so every scheduler of a paired-comparison
replication shares one pass.  Cached arrays are returned read-only.
The ``*_reference`` variants keep the original per-node recursions over
the object graph -- the differential suite asserts the two are
bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph

__all__ = [
    "upward_rank",
    "downward_rank",
    "optimistic_cost_table",
    "oct_rank",
    "upward_rank_reference",
    "downward_rank_reference",
    "optimistic_cost_table_reference",
]

NodeWeights = Optional[np.ndarray]


def _node_weights(graph: TaskGraph, weights: NodeWeights) -> np.ndarray:
    if weights is None:
        # the reference recursions' default: Eq. (1) on the object graph
        return graph.cost_matrix().mean(axis=1)
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (graph.n_tasks,):
        raise ValueError(
            f"weights must have shape ({graph.n_tasks},), got {arr.shape}"
        )
    return arr


def upward_rank(graph: TaskGraph, weights: NodeWeights = None) -> np.ndarray:
    """Upward rank: ``rank_u(i) = w(i) + max_j (c(i,j) + rank_u(j))``.

    ``weights`` defaults to the mean execution time (HEFT); pass
    ``std_execution_times(graph)`` for the SDBATS variant.  Exit tasks
    have rank equal to their own weight.  With default weights the
    vector is computed once per graph instance and shared (read-only).
    """
    compiled = compile_graph(graph)
    if weights is None:
        return compiled.upward_rank()
    return compiled.upward_rank(_node_weights(graph, weights))


def upward_rank_reference(
    graph: TaskGraph, weights: NodeWeights = None
) -> np.ndarray:
    """Per-node recursion for :func:`upward_rank` (bit-identity oracle)."""
    w = _node_weights(graph, weights)
    rank = np.zeros(graph.n_tasks)
    for task in reversed(graph.topological_order()):
        best = 0.0
        for succ in graph.successors(task):
            candidate = graph.comm_cost(task, succ) + rank[succ]
            if candidate > best:
                best = candidate
        rank[task] = w[task] + best
    return rank


def downward_rank(graph: TaskGraph, weights: NodeWeights = None) -> np.ndarray:
    """Downward rank: ``rank_d(i) = max_j (rank_d(j) + w(j) + c(j,i))``
    over predecessors ``j``; entry tasks have rank 0 (CPOP)."""
    compiled = compile_graph(graph)
    if weights is None:
        return compiled.downward_rank()
    return compiled.downward_rank(_node_weights(graph, weights))


def downward_rank_reference(
    graph: TaskGraph, weights: NodeWeights = None
) -> np.ndarray:
    """Per-node recursion for :func:`downward_rank` (bit-identity oracle)."""
    w = _node_weights(graph, weights)
    rank = np.zeros(graph.n_tasks)
    for task in graph.topological_order():
        best = 0.0
        for pred in graph.predecessors(task):
            candidate = rank[pred] + w[pred] + graph.comm_cost(pred, task)
            if candidate > best:
                best = candidate
        rank[task] = best
    return rank


def optimistic_cost_table(graph: TaskGraph) -> np.ndarray:
    """PEFT's Optimistic Cost Table.

    ``OCT(i, p)`` is the optimistic remaining path length from task ``i``
    (excluding ``i`` itself) to the exit, assuming each descendant picks
    its best CPU::

        OCT(i, p) = max_{j in succ(i)} min_q [ OCT(j, q) + w(j, q)
                                               + (c(i, j) if q != p else 0) ]

    Exit tasks have an all-zero row.  Computed once per graph instance
    and shared (read-only).
    """
    return compile_graph(graph).oct_table()


def optimistic_cost_table_reference(graph: TaskGraph) -> np.ndarray:
    """Per-node recursion for :func:`optimistic_cost_table` (oracle)."""
    n, p = graph.n_tasks, graph.n_procs
    table = np.zeros((n, p))
    w = graph.cost_matrix()
    for task in reversed(graph.topological_order()):
        succs = graph.successors(task)
        if not succs:
            continue
        row = np.zeros(p)
        for succ in succs:
            # cost of running succ on each CPU q, given task is on CPU p:
            # base(q) = OCT(succ, q) + w(succ, q); add c(task, succ) unless q == p.
            base = table[succ] + w[succ]
            comm = graph.comm_cost(task, succ)
            # For each p, min over q of base(q) + comm*(q != p)
            with_comm = base + comm
            global_min = with_comm.min()
            # choosing q == p drops the comm term
            per_p = np.minimum(global_min, base)
            np.maximum(row, per_p, out=row)
        table[task] = row
    return table


def oct_rank(graph: TaskGraph, table: Optional[np.ndarray] = None) -> np.ndarray:
    """PEFT priority: average of the task's OCT row over CPUs."""
    if table is None:
        return compile_graph(graph).oct_rank()
    return table.mean(axis=1)
