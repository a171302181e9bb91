"""Compiled array form of a :class:`TaskGraph` plus its artifact cache.

A paired-comparison sweep runs *every* scheduler in the set on the same
random instance.  The object graph (:class:`~repro.model.task_graph.TaskGraph`
with Python list-of-lists adjacency and a dict of edge costs) is
convenient to build and mutate, but each scheduler independently paid to
re-derive the same flat quantities from it: the ``(n, p)`` cost matrix,
per-task parent/child arrays, upward/downward ranks, PEFT's OCT table,
and the SLR denominator.  :class:`CompiledGraph` is the frozen CSR view
of one graph that every consumer shares:

* ``w`` -- the read-only ``(n, p)`` computation-cost matrix,
* ``succ_indptr``/``succ_ids``/``succ_costs`` and the predecessor
  mirror -- CSR adjacency with the edge costs in parallel arrays, edge
  order per node identical to the ``TaskGraph`` insertion order,
* topological order, entry/exit ids, and
* a lazy **artifact cache**: upward rank, downward rank, mean/std cost
  vectors, the OCT table, the CP_MIN lower bound and the best
  sequential time are each computed at most once per instance and then
  shared by HEFT/CPOP/PEFT/Lookahead/DHEFT/SDBATS and the metrics.

Rank kernels run level-batched over the CSR arrays with
``np.maximum.reduceat`` instead of per-node Python loops.  Every kernel
is bit-identical to the reference recursion in
:mod:`repro.model.ranking`: float64 ``min``/``max`` reductions are
order-independent, and each kernel preserves the reference's addition
order (``comm + rank``, ``(rank + w) + comm``, ...) term for term.

Compiled views are cached on the graph through its version-keyed
derived cache, so mutating the graph invalidates the compiled form
automatically.  The layer is unconditional: every scheduler, metric and
sweep reads the instance through it.  The per-node recursions it
replaced survive only as named oracles the differential suite calls
directly (the ``*_reference`` rank/OCT functions in
:mod:`repro.model.ranking` and
:func:`repro.metrics.critical_path.critical_path_min`).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.model.task_graph import TaskGraph

__all__ = ["CompiledGraph", "compile_graph"]


def compile_graph(graph: TaskGraph) -> "CompiledGraph":
    """The compiled view of ``graph``, built once per graph version.

    Cached through :meth:`TaskGraph.derived`, so every scheduler and
    metric asking for the same (unmutated) graph receives the same
    :class:`CompiledGraph` instance -- and with it the shared artifact
    cache.
    """
    return graph.derived("compiled_graph", lambda: CompiledGraph(graph))


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _ragged_indices(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(flat gather indices, reduceat segment offsets) for CSR slices.

    ``starts[j] .. starts[j] + counts[j]`` concatenated for every ``j``;
    ``offsets[j]`` is where segment ``j`` begins in the flat result.
    """
    offsets = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    flat = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.intp)
    return flat, offsets


class CompiledGraph:
    """Frozen CSR arrays + lazy artifact cache for one ``TaskGraph``.

    Do not construct directly in scheduler code; go through
    :func:`compile_graph` so the instance (and its artifacts) are shared
    across the scheduler set.

    The source graph is held weakly: the graph's derived cache owns its
    compiled view, so a strong back-reference would make every instance
    a reference cycle that only the cyclic garbage collector frees.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = weakref.ref(graph)
        n, p = graph.n_tasks, graph.n_procs
        self.n_tasks = n
        self.n_procs = p
        costs = graph._costs
        self.w = _readonly(
            np.array(costs, dtype=float) if n else np.zeros((0, p))
        )

        # CSR adjacency; per-node edge order matches TaskGraph insertion
        # order so flat reductions see the same operand sequence as the
        # reference loops.
        comm = graph._comm
        self.succ_indptr, self.succ_ids, self.succ_costs = self._csr(
            graph._succ, comm, forward=True
        )
        self.pred_indptr, self.pred_ids, self.pred_costs = self._csr(
            graph._pred, comm, forward=False
        )

        topo = graph.topological_order()
        self._topo_tuple = topo
        self.topo = _readonly(np.asarray(topo, dtype=np.intp))
        position = np.empty(n, dtype=np.intp)
        position[self.topo] = np.arange(n, dtype=np.intp)
        self.topo_position = _readonly(position)
        self.entry_ids = _readonly(
            np.asarray(graph.entry_tasks(), dtype=np.intp)
        )
        self.exit_ids = _readonly(np.asarray(graph.exit_tasks(), dtype=np.intp))

        # plain-Python mirrors for the scalar hot loops (list indexing
        # beats ndarray scalar indexing on the small per-task slices the
        # EFT engines touch)
        self.w_rows: List[List[float]] = self.w.tolist()
        pred_ids_list = self.pred_ids.tolist()
        pred_costs_list = self.pred_costs.tolist()
        ptr = self.pred_indptr.tolist()
        self.pred_lists: List[Tuple[List[int], List[float]]] = [
            (pred_ids_list[ptr[t] : ptr[t + 1]], pred_costs_list[ptr[t] : ptr[t + 1]])
            for t in range(n)
        ]

        self._artifacts: Dict[object, object] = {}
        self._parent_arrays: Dict[
            Tuple[int, Optional[int]],
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        self._up_batches_cache: Optional[List[Tuple]] = None
        self._down_batches_cache: Optional[List[Tuple]] = None

    @staticmethod
    def _csr(adjacency, comm, forward):
        n = len(adjacency)
        indptr = np.zeros(n + 1, dtype=np.intp)
        if n:
            np.cumsum(
                np.fromiter(
                    (len(row) for row in adjacency), dtype=np.intp, count=n
                ),
                out=indptr[1:],
            )
        # flat edge-major comprehensions: one pass instead of per-node
        # extend calls; per-node edge order is the row order, unchanged
        if forward:
            ids = [other for row in adjacency for other in row]
            costs = [
                comm[(node, other)]
                for node, row in enumerate(adjacency)
                for other in row
            ]
        else:
            ids = [other for row in adjacency for other in row]
            costs = [
                comm[(other, node)]
                for node, row in enumerate(adjacency)
                for other in row
            ]
        return (
            _readonly(indptr),
            _readonly(np.asarray(ids, dtype=np.intp)),
            _readonly(np.asarray(costs, dtype=float)),
        )

    # ------------------------------------------------------------------
    # adjacency views
    # ------------------------------------------------------------------
    def succ_slice(self, task: int) -> Tuple[np.ndarray, np.ndarray]:
        """(child ids, edge costs) of ``task`` as read-only views."""
        lo, hi = self.succ_indptr[task], self.succ_indptr[task + 1]
        return self.succ_ids[lo:hi], self.succ_costs[lo:hi]

    def pred_slice(self, task: int) -> Tuple[np.ndarray, np.ndarray]:
        """(parent ids, edge costs) of ``task`` as read-only views."""
        lo, hi = self.pred_indptr[task], self.pred_indptr[task + 1]
        return self.pred_ids[lo:hi], self.pred_costs[lo:hi]

    def parent_arrays(
        self, task: int, entry: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, costs, ids sans entry, costs sans entry) for one task.

        The shape the :class:`~repro.core.engine.EFTEngine` keys its
        arrival expressions on; cached here so every engine built over
        the same instance shares one resolution pass.
        """
        key = (task, entry)
        cached = self._parent_arrays.get(key)
        if cached is None:
            ids, costs = self.pred_slice(task)
            if entry is not None and ids.size and bool((ids == entry).any()):
                keep = ids != entry
                ids_ne, costs_ne = ids[keep], costs[keep]
            else:
                ids_ne, costs_ne = ids, costs
            cached = (ids, costs, ids_ne, costs_ne)
            self._parent_arrays[key] = cached
        return cached

    def entry_comm_vector(self, entry: int) -> np.ndarray:
        """Dense ``entry -> child`` communication costs (0 elsewhere)."""

        def build() -> np.ndarray:
            out = np.zeros(self.n_tasks)
            ids, costs = self.succ_slice(entry)
            out[ids] = costs
            return _readonly(out)

        return self._artifact(("entry_comm", entry), build)

    # ------------------------------------------------------------------
    # artifact cache
    # ------------------------------------------------------------------
    def _artifact(self, key, builder):
        if key not in self._artifacts:
            self._artifacts[key] = builder()
        return self._artifacts[key]

    def mean_costs(self) -> np.ndarray:
        """Eq. (1) for every task (read-only, cached)."""
        return self._artifact(
            "mean", lambda: _readonly(self.w.mean(axis=1))
        )

    def std_costs(self, ddof: int = 1) -> np.ndarray:
        """Per-task execution-time std over CPUs (read-only, cached)."""

        def build() -> np.ndarray:
            if self.n_procs <= ddof:
                return _readonly(np.zeros(self.n_tasks))
            return _readonly(self.w.std(axis=1, ddof=ddof))

        return self._artifact(("std", ddof), build)

    def upward_rank(self, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """HEFT's upward rank; cached for the default mean weights."""
        if weights is None:
            return self._artifact(
                "rank_up",
                lambda: _readonly(self._upward_kernel(self.mean_costs())),
            )
        return self._upward_kernel(np.asarray(weights, dtype=float))

    def downward_rank(self, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """CPOP's downward rank; cached for the default mean weights."""
        if weights is None:
            return self._artifact(
                "rank_down",
                lambda: _readonly(self._downward_kernel(self.mean_costs())),
            )
        return self._downward_kernel(np.asarray(weights, dtype=float))

    def oct_table(self) -> np.ndarray:
        """PEFT's Optimistic Cost Table (read-only, cached)."""
        return self._artifact(
            "oct_table", lambda: _readonly(self._oct_kernel())
        )

    def oct_rank(self) -> np.ndarray:
        """PEFT priority: per-task mean of the OCT row (cached)."""
        return self._artifact(
            "oct_rank", lambda: _readonly(self.oct_table().mean(axis=1))
        )

    def cp_min_bound(self) -> float:
        """Eq. 10 denominator: longest min-cost chain (cached)."""
        return self._artifact("cp_min", self._cp_min_kernel)

    def sequential_time(self) -> float:
        """Eq. 11 numerator: best single-CPU column sum (cached)."""
        return self._artifact(
            "sequential",
            lambda: float(self.w.sum(axis=0).min())
            if self.n_tasks
            else 0.0,
        )

    # ------------------------------------------------------------------
    # level batches for the vectorized rank kernels
    # ------------------------------------------------------------------
    def _up_batches(self) -> List[Tuple]:
        """Nodes grouped by height above the sinks, with flat CSR slices.

        Batch ``h`` holds every node whose longest hop-path to a sink is
        ``h`` (so all its successors live in strictly lower batches and
        ``h >= 1`` nodes always have at least one successor -- reduceat
        segments are never empty).  Each entry is ``(nodes, flat, offsets,
        counts)``: gather ``succ_ids[flat]`` / ``succ_costs[flat]`` and
        reduce per node at ``offsets``.
        """
        if self._up_batches_cache is None:
            self._up_batches_cache = self._level_batches(
                self.succ_indptr, self.succ_ids, reverse=True
            )
        return self._up_batches_cache

    def _down_batches(self) -> List[Tuple]:
        """Nodes grouped by depth below the entries (predecessor CSR)."""
        if self._down_batches_cache is None:
            self._down_batches_cache = self._level_batches(
                self.pred_indptr, self.pred_ids, reverse=False
            )
        return self._down_batches_cache

    def _level_batches(self, indptr, ids, reverse: bool) -> List[Tuple]:
        n = self.n_tasks
        ptr = indptr.tolist()
        flat_ids = ids.tolist()
        level = [0] * n
        order = reversed(self._topo_tuple) if reverse else self._topo_tuple
        for t in order:
            lo, hi = ptr[t], ptr[t + 1]
            if lo != hi:
                level[t] = 1 + max(level[s] for s in flat_ids[lo:hi])
        buckets: List[List[int]] = [[] for _ in range(max(level, default=0) + 1)]
        for t, h in enumerate(level):
            buckets[h].append(t)
        batches: List[Tuple] = []
        for nodes in buckets[1:]:
            nodes_arr = np.asarray(nodes, dtype=np.intp)
            starts = indptr[nodes_arr]
            counts = indptr[nodes_arr + 1] - starts
            flat, offsets = _ragged_indices(starts, counts)
            batches.append((nodes_arr, flat, offsets, counts))
        return batches

    # ------------------------------------------------------------------
    # rank kernels (bit-identical to the scalar recursions)
    # ------------------------------------------------------------------
    def _upward_kernel(self, wts: np.ndarray) -> np.ndarray:
        # sinks: rank = w + 0.0 (the scalar loop's best stays 0.0)
        rank = wts + 0.0
        ids, costs = self.succ_ids, self.succ_costs
        for nodes, flat, offsets, _ in self._up_batches():
            candidates = costs[flat] + rank[ids[flat]]
            best = np.maximum.reduceat(candidates, offsets)
            rank[nodes] = wts[nodes] + np.maximum(best, 0.0)
        return rank

    def _downward_kernel(self, wts: np.ndarray) -> np.ndarray:
        rank = np.zeros(self.n_tasks)
        ids, costs = self.pred_ids, self.pred_costs
        for nodes, flat, offsets, _ in self._down_batches():
            preds = ids[flat]
            candidates = rank[preds] + wts[preds] + costs[flat]
            best = np.maximum.reduceat(candidates, offsets)
            rank[nodes] = np.maximum(best, 0.0)
        return rank

    def _oct_kernel(self) -> np.ndarray:
        n, p = self.n_tasks, self.n_procs
        w = self.w
        table = np.zeros((n, p))
        ids, costs = self.succ_ids, self.succ_costs
        for nodes, flat, offsets, _ in self._up_batches():
            succ = ids[flat]
            base = table[succ] + w[succ]
            with_comm = base + costs[flat][:, None]
            global_min = with_comm.min(axis=1)
            per_p = np.minimum(global_min[:, None], base)
            rows = np.maximum.reduceat(per_p, offsets, axis=0)
            np.maximum(rows, 0.0, out=rows)
            table[nodes] = rows
        return table

    def _cp_min_kernel(self) -> float:
        if not self.n_tasks:
            return float(-np.inf)
        min_costs = self.w.min(axis=1)
        dist = np.full(self.n_tasks, -np.inf)
        dist[self.entry_ids] = min_costs[self.entry_ids]
        ids = self.pred_ids
        for nodes, flat, offsets, counts in self._down_batches():
            # reference order: (dist[pred] + comm) + node_weight, comm=0.0
            candidates = (dist[ids[flat]] + 0.0) + np.repeat(
                min_costs[nodes], counts
            )
            dist[nodes] = np.maximum.reduceat(candidates, offsets)
        return float(dist.max())

    @property
    def graph(self) -> TaskGraph:
        """The source graph; raises ``ReferenceError`` once it is freed."""
        graph = self._graph()
        if graph is None:
            raise ReferenceError(
                "the TaskGraph this CompiledGraph was built from has been "
                "freed; keep a reference to the graph while using its "
                "compiled view"
            )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraph(n_tasks={self.n_tasks}, "
            f"n_edges={len(self.succ_ids)}, n_procs={self.n_procs}, "
            f"artifacts={sorted(map(str, self._artifacts))})"
        )
