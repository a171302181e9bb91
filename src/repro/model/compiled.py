"""Compiled array form of a task graph plus its artifact cache.

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
  order per node identical to the edge insertion order (stable sorts
  of the edge list),
* topological order, entry/exit ids, and
* a lazy **artifact cache**: upward rank, downward rank, mean/std cost
  vectors, the OCT table, the CP_MIN lower bound and the best
  sequential time are each computed at most once per instance and then
  shared by HEFT/CPOP/PEFT/Lookahead/DHEFT/SDBATS and the metrics.

Everything that depends only on ``(n, src, dst)`` -- the CSR index
arrays and the stable-sort permutations behind them, the topological
order, the terminals, the level peels and batches, the child lists and
the normalized form -- lives in a read-only :class:`GraphStructure`.
An instance holds one plus ``w`` and its edge costs, gathered into CSR
order through the structure's permutations.  A factory that draws
costs on a fixed structure (``random-fixed``, the workflow families)
caches the structure and hands it back with every draw
(``GraphArrays.structure``), so it is drawn, normalized and compiled
once however many replications share it; a source without one (a
``random`` draw, a :class:`TaskGraph`) gets its own structure on the
spot, at the cost the one compile always had.

The level peel and the rank kernels live here once, as functions over
``(batches, ids, costs, ...)``: :func:`peel_levels` (a vectorized Kahn
peel), :func:`level_batches`, and the upward, downward, OCT, CP_MIN
and PETS kernels, each a level-batched ``np.maximum.reduceat`` instead
of a per-node loop.  :class:`CompiledGraph` runs them on its own CSR,
:class:`~repro.core.batch.CompiledBatch` on a block-diagonal union with
global ids, where every node's levels and operands are its own graph's.
Every kernel is bit-identical to the reference recursion in
:mod:`repro.model.ranking`: float64 ``min``/``max`` reductions are
order-independent, and each kernel preserves the reference's addition
order (``comm + rank``, ``(rank + w) + comm``, ...) term for term.

An instance compiles from a :class:`TaskGraph` or straight from the
random generator's arrays (:class:`~repro.model.task_graph.GraphArrays`,
normalized by :func:`compile_instance`); the ``TaskGraph`` of an
array-built instance is derived on first use (:attr:`CompiledGraph.graph`).
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
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.model.task_graph import GraphArrays, TaskGraph, pseudo_edges

__all__ = [
    "CompiledGraph", "GraphStructure", "compile_graph", "compile_instance",
    "cp_min_kernel", "downward_kernel", "level_batches", "oct_kernel",
    "peel_levels", "pets_priorities", "upward_kernel",
]

#: ``(nodes, flat, offsets, counts)`` per level, see :func:`level_batches`
Batches = List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def compile_graph(
    graph: Union[TaskGraph, "CompiledGraph"]
) -> "CompiledGraph":
    """The compiled view of ``graph``, built once per graph version.

    Cached through :meth:`TaskGraph.derived`, so every scheduler and
    metric asking for the same (unmutated) graph receives the same
    :class:`CompiledGraph` instance -- and with it the shared artifact
    cache.  A compiled instance compiles to itself.
    """
    if isinstance(graph, CompiledGraph):
        return graph
    return graph.derived("compiled_graph", lambda: CompiledGraph(graph))


def compile_instance(source: Union[TaskGraph, GraphArrays]) -> "CompiledGraph":
    """The normalized, compiled instance the schedulers run on.

    Array sources (the random generator's) are normalized and compiled
    as arrays, so no :class:`TaskGraph` exists until
    :attr:`CompiledGraph.graph` asks for one.  Object graphs with
    several entries or exits are normalized first.
    """
    if isinstance(source, GraphArrays):
        return CompiledGraph(source.normalized())
    if len(source.entry_tasks()) != 1 or len(source.exit_tasks()) != 1:
        source = source.normalized()
    return compile_graph(source)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view: the caller's array stays writeable."""
    return _readonly(array.view())


def _indptr(degree: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(degree) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    return _readonly(indptr)


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


# ----------------------------------------------------------------------
# level peel and rank kernels, over one graph or a union of graphs
# ----------------------------------------------------------------------
def peel_levels(
    out_indptr: np.ndarray, in_indptr: np.ndarray, in_ids: np.ndarray
) -> np.ndarray:
    """Vectorized Kahn peel: every node's level.

    Level 0 holds the nodes without ``out`` edges; a node joins level
    ``l`` once the ``l - 1`` peel removed its last ``out`` neighbour, so
    its level is its longest hop path to level 0.  ``in_indptr``/
    ``in_ids`` is the mirror CSR each peeled node walks to reach the
    nodes pointing at it.  Peeling the successor CSR gives heights above
    the sinks, peeling the predecessor CSR depths below the sources.  In
    a disjoint union every node's level is its level in its own graph.
    """
    total = len(out_indptr) - 1
    remaining = np.diff(out_indptr)
    level = np.zeros(total, dtype=np.intp)
    frontier = np.flatnonzero(remaining == 0)
    step = 0
    while frontier.size:
        level[frontier] = step
        s0 = in_indptr[frontier]
        flat, _ = _ragged_indices(s0, in_indptr[frontier + 1] - s0)
        peeled = np.bincount(in_ids[flat], minlength=total)
        remaining = remaining - peeled
        frontier = np.flatnonzero((peeled > 0) & (remaining == 0))
        step += 1
    return level


def level_batches(level: np.ndarray, indptr: np.ndarray) -> Batches:
    """``(nodes, flat, offsets, counts)`` per level ``>= 1`` over ``indptr``.

    ``nodes`` ascend within a level; gather ``ids[flat]``/``costs[flat]``
    and reduce per node at ``offsets``.  A node at level ``l >= 1`` has
    an edge into level ``l - 1``, so no ``reduceat`` segment is empty.
    """
    order = np.argsort(level, kind="stable")
    top = int(level.max(initial=0))
    bounds = np.searchsorted(level[order], np.arange(1, top + 2))
    # one gather over every level >= 1, sliced per level
    nodes = order[bounds[0]:]
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    flat, offsets = _ragged_indices(starts, counts)
    edge = offsets.tolist() + [len(flat)]
    batches: Batches = []
    bounds = (bounds - bounds[0]).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        batches.append((
            nodes[lo:hi], flat[edge[lo]:edge[hi]],
            offsets[lo:hi] - edge[lo], counts[lo:hi],
        ))
    return batches


def upward_kernel(
    batches: Batches, ids: np.ndarray, costs: np.ndarray, wts: np.ndarray
) -> np.ndarray:
    """Upward rank over height batches of the successor CSR."""
    # sinks: rank = w + 0.0 (the scalar loop's best stays 0.0)
    rank = wts + 0.0
    for nodes, flat, offsets, _ in batches:
        candidates = costs[flat] + rank[ids[flat]]
        best = np.maximum.reduceat(candidates, offsets)
        rank[nodes] = wts[nodes] + np.maximum(best, 0.0)
    return rank


def downward_kernel(
    batches: Batches, ids: np.ndarray, costs: np.ndarray, wts: np.ndarray
) -> np.ndarray:
    """Downward rank over depth batches of the predecessor CSR."""
    rank = np.zeros(len(wts))
    for nodes, flat, offsets, _ in batches:
        preds = ids[flat]
        candidates = rank[preds] + wts[preds] + costs[flat]
        best = np.maximum.reduceat(candidates, offsets)
        rank[nodes] = np.maximum(best, 0.0)
    return rank


def oct_kernel(
    batches: Batches, ids: np.ndarray, costs: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """PEFT's ``(nodes, p)`` OCT over height batches of the successor CSR."""
    table = np.zeros(w.shape)
    for nodes, flat, offsets, _ in batches:
        succ = ids[flat]
        base = table[succ] + w[succ]
        with_comm = base + costs[flat][:, None]
        global_min = with_comm.min(axis=1)
        per_p = np.minimum(global_min[:, None], base)
        rows = np.maximum.reduceat(per_p, offsets, axis=0)
        np.maximum(rows, 0.0, out=rows)
        table[nodes] = rows
    return table


def cp_min_kernel(
    batches: Batches, ids: np.ndarray, min_costs: np.ndarray, sources
) -> np.ndarray:
    """Longest min-cost chain ending at every node (Eq. 10's ``CP_MIN``).

    Over depth batches of the predecessor CSR: ``sources`` start at
    their minimum cost, every other node takes the max over its
    predecessors of ``(dist[pred] + 0.0) + min_cost`` -- the reference's
    order with a zero communication term.
    """
    dist = np.full(len(min_costs), -np.inf)
    dist[sources] = min_costs[sources]
    for nodes, flat, offsets, counts in batches:
        candidates = (dist[ids[flat]] + 0.0) + np.repeat(
            min_costs[nodes], counts
        )
        dist[nodes] = np.maximum.reduceat(candidates, offsets)
    return dist


def _data_transfer_costs(
    succ_indptr: np.ndarray, succ_costs: np.ndarray
) -> np.ndarray:
    """DTC of every CSR row: the sum of its outgoing edge costs.

    ``np.add.at`` accumulates unbuffered in flat CSR order -- each
    source's edge insertion order -- so every sum adds its terms in the
    sequential order, from ``0.0``.
    """
    counts = np.diff(succ_indptr)
    dtc = np.zeros(counts.size)
    np.add.at(dtc, np.repeat(np.arange(counts.size), counts), succ_costs)
    return dtc


def pets_priorities(
    succ_indptr: np.ndarray,
    succ_costs: np.ndarray,
    pred_indptr: np.ndarray,
    pred_costs: np.ndarray,
    acc: np.ndarray,
) -> np.ndarray:
    """PETS's ``round(ACC + DTC + DRC)`` of every row of a CSR graph.

    DRC is the row's largest incoming edge cost (``0.0`` without
    predecessors), an order-free ``np.maximum.reduceat``.  ``np.rint``
    rounds half to even like Python's ``round``.  Each row reduces only
    its own edges, so a union row equals the same row in its lane's
    graph bit for bit.
    """
    drc = np.zeros(acc.size)
    has_pred = np.diff(pred_indptr) > 0
    if has_pred.any():
        drc[has_pred] = np.maximum.reduceat(
            pred_costs, pred_indptr[:-1][has_pred]
        )
    return np.rint(acc + _data_transfer_costs(succ_indptr, succ_costs) + drc)


#: the :class:`GraphStructure` fields built by its compile, on first use
_COMPILED = frozenset({
    "succ_order", "succ_indptr", "succ_ids", "pred_order", "pred_indptr",
    "pred_ids", "topo_tuple", "topo", "topo_position",
})


class GraphStructure:
    """Everything of a compiled instance that depends only on ``(n, src, dst)``.

    The entry/exit ids; on first use the CSR adjacency
    (``*_indptr``/``*_ids`` plus the stable-sort permutations
    ``succ_order``/``pred_order`` that gather an edge-cost array into
    CSR order) and the topological order and position; lazily the
    level peels and batches of the rank kernels, the child lists and
    the normalized form.  A structure that is only normalized (a
    factory's raw draw) never builds its CSR.  Every array is
    read-only, so one structure is shared by every instance drawn on
    it: a factory with a fixed structure (``random-fixed``, the
    workflow families) caches one and hands it back with each draw
    (:attr:`GraphArrays.structure <repro.model.task_graph.GraphArrays>`).
    A source without one gets its own on the spot.
    """

    def __init__(self, n_tasks: int, src, dst) -> None:
        n = self.n_tasks = int(n_tasks)
        self.src = _frozen(np.asarray(src, dtype=np.intp))
        self.dst = _frozen(np.asarray(dst, dtype=np.intp))
        self._out_degree = _readonly(np.bincount(self.src, minlength=n))
        self._in_degree = _readonly(np.bincount(self.dst, minlength=n))
        self.entry_ids = _readonly(np.flatnonzero(self._in_degree == 0))
        self.exit_ids = _readonly(np.flatnonzero(self._out_degree == 0))

    def __getattr__(self, name: str):
        # only called for a missing attribute: a compiled field before
        # the compile ran
        if name not in _COMPILED:
            raise AttributeError(name)
        self._compile()
        return self.__dict__[name]

    def _compile(self) -> None:
        """The CSR adjacency from stable sorts of the edge list, so
        per-node edge order is insertion order and flat reductions see
        the same operand sequence as the reference loops; then the
        topological order."""
        src, dst = self.src, self.dst
        self.succ_order = _readonly(np.argsort(src, kind="stable"))
        self.succ_indptr = _indptr(self._out_degree)
        self.succ_ids = _readonly(dst[self.succ_order])
        self.pred_order = _readonly(np.argsort(dst, kind="stable"))
        self.pred_indptr = _indptr(self._in_degree)
        self.pred_ids = _readonly(src[self.pred_order])
        self.topo_tuple = self._kahn(self._in_degree.tolist())
        self.topo = _readonly(np.asarray(self.topo_tuple, dtype=np.intp))
        position = np.empty(self.n_tasks, dtype=np.intp)
        position[self.topo] = np.arange(self.n_tasks, dtype=np.intp)
        self.topo_position = _readonly(position)

    def _kahn(self, indegree: List[int]) -> Tuple[int, ...]:
        """:meth:`TaskGraph.topological_order`'s LIFO Kahn walk on the
        CSR (HEFT and SDBATS break rank ties on topological position,
        so the order must be the same)."""
        ptr = self.succ_indptr.tolist()
        succ = self.succ_ids.tolist()
        stack = [t for t, d in enumerate(indegree) if d == 0]
        order: List[int] = []
        while stack:
            t = stack.pop()
            order.append(t)
            for s in succ[ptr[t] : ptr[t + 1]]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    stack.append(s)
        if len(order) != self.n_tasks:
            raise ValueError("task graph contains a cycle")
        return tuple(order)

    @cached_property
    def normalized(self) -> Tuple["GraphStructure", Tuple[str, ...]]:
        """``(structure, added names)`` with Section III's pseudo
        entry/exit appended (:meth:`GraphArrays.normalized
        <repro.model.task_graph.GraphArrays.normalized>`); ``(self, ())``
        when there is one entry and one exit."""
        src, dst, added = pseudo_edges(
            self.n_tasks, self.src, self.dst, self.entry_ids, self.exit_ids
        )
        if not added:
            return self, ()
        return GraphStructure(self.n_tasks + len(added), src, dst), added

    @cached_property
    def succ_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Per task: child ids as a Python tuple, in edge order."""
        succ = tuple(self.succ_ids.tolist())
        ptr = self.succ_indptr.tolist()
        return tuple(succ[ptr[t] : ptr[t + 1]] for t in range(self.n_tasks))

    @cached_property
    def heights(self) -> np.ndarray:
        """Every node's height above the sinks (:func:`peel_levels` of
        the successor CSR)."""
        return _readonly(
            peel_levels(self.succ_indptr, self.pred_indptr, self.pred_ids)
        )

    @cached_property
    def depths(self) -> np.ndarray:
        """Every node's depth below the sources (the predecessor CSR's
        peel)."""
        return _readonly(
            peel_levels(self.pred_indptr, self.succ_indptr, self.succ_ids)
        )

    @cached_property
    def up_batches(self) -> Batches:
        """Nodes grouped by height: every successor of batch ``h``
        lives in a lower batch."""
        return level_batches(self.heights, self.succ_indptr)

    @cached_property
    def down_batches(self) -> Batches:
        """Nodes grouped by depth, over the predecessor CSR."""
        return level_batches(self.depths, self.pred_indptr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphStructure(n_tasks={self.n_tasks}, n_edges={len(self.src)})"


class CompiledGraph:
    """Frozen CSR arrays + lazy artifact cache for one task graph.

    Built from a :class:`TaskGraph` or from its array form
    (:class:`~repro.model.task_graph.GraphArrays`, what the random
    generator emits).  Do not construct directly in scheduler code; go
    through :func:`compile_graph` (or :func:`compile_instance`) so the
    instance (and its artifacts) are shared across the scheduler set.

    The structural half is a :class:`GraphStructure`: the source's own
    when it carries one, else one built here.  The instance adds ``w``
    and the edge costs gathered into CSR order through the structure's
    sort permutations; its adjacency, order and terminal fields are the
    structure's (shared, read-only) arrays.

    :attr:`graph` is derived: the source graph while it lives, else a
    :class:`TaskGraph` rebuilt from the arrays on first use, whose
    derived cache holds this same instance (``compile_graph(c.graph) is
    c``).  The graph is held weakly either way: the graph's derived
    cache owns its compiled view, so a strong back-reference would make
    every instance a reference cycle that only the cyclic garbage
    collector frees.
    """

    def __init__(self, source: Union[TaskGraph, GraphArrays]) -> None:
        if isinstance(source, TaskGraph):
            self._graph: Optional[weakref.ref] = weakref.ref(source)
            source = source.arrays()
        else:
            self._graph = None
        n, p = source.w.shape
        structure = source.structure
        if structure is None:
            structure = GraphStructure(n, source.src, source.dst)
        self.structure = structure
        self.n_tasks = n
        self.n_procs = p
        self.w = _readonly(np.array(source.w, dtype=float))
        cost = np.asarray(source.cost, dtype=float)
        self._arrays = GraphArrays(
            self.w, structure.src, structure.dst, cost, source.names, structure
        )
        self.succ_indptr = structure.succ_indptr
        self.succ_ids = structure.succ_ids
        self.succ_costs = _readonly(cost[structure.succ_order])
        self.pred_indptr = structure.pred_indptr
        self.pred_ids = structure.pred_ids
        self.pred_costs = _readonly(cost[structure.pred_order])
        self.topo = structure.topo
        self.topo_position = structure.topo_position
        self.entry_ids = structure.entry_ids
        self.exit_ids = structure.exit_ids

        self._artifacts: Dict[object, object] = {}

    # plain-Python mirrors for the scalar hot loops (list indexing beats
    # ndarray scalar indexing on the small per-task slices the EFT
    # engines touch); built on first use, which the batched kernel
    # never makes
    @cached_property
    def w_rows(self) -> List[List[float]]:
        """``w`` as Python float rows."""
        return self.w.tolist()

    @cached_property
    def pred_lists(self) -> List[Tuple[List[int], List[float]]]:
        """Per task: (parent ids, edge costs) as Python lists."""
        pred_ids_list = self.pred_ids.tolist()
        pred_costs_list = self.pred_costs.tolist()
        ptr = self.pred_indptr.tolist()
        return [
            (pred_ids_list[ptr[t] : ptr[t + 1]], pred_costs_list[ptr[t] : ptr[t + 1]])
            for t in range(self.n_tasks)
        ]

    @property
    def succ_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Per task: child ids as a Python tuple, in edge order (the
        structure's)."""
        return self.structure.succ_lists

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

        def rank(wts: np.ndarray) -> np.ndarray:
            return upward_kernel(
                self._up_batches(), self.succ_ids, self.succ_costs, wts
            )

        if weights is None:
            return self._artifact(
                "rank_up", lambda: _readonly(rank(self.mean_costs()))
            )
        return rank(np.asarray(weights, dtype=float))

    def downward_rank(self, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """CPOP's downward rank; cached for the default mean weights."""

        def rank(wts: np.ndarray) -> np.ndarray:
            return downward_kernel(
                self._down_batches(), self.pred_ids, self.pred_costs, wts
            )

        if weights is None:
            return self._artifact(
                "rank_down", lambda: _readonly(rank(self.mean_costs()))
            )
        return rank(np.asarray(weights, dtype=float))

    def bottom_levels(self, weights: np.ndarray) -> np.ndarray:
        """Longest ``weights`` path from each task to a sink, communication
        excluded (DLS's static level, branch-and-bound's bound)."""
        return upward_kernel(
            self._up_batches(), self.succ_ids, np.zeros(len(self.succ_ids)),
            np.asarray(weights, dtype=float),
        )

    def oct_table(self) -> np.ndarray:
        """PEFT's Optimistic Cost Table (read-only, cached)."""
        return self._artifact(
            "oct_table",
            lambda: _readonly(
                oct_kernel(
                    self._up_batches(), self.succ_ids, self.succ_costs, self.w
                )
            ),
        )

    def oct_rank(self) -> np.ndarray:
        """PEFT priority: per-task mean of the OCT row (cached)."""
        return self._artifact(
            "oct_rank", lambda: _readonly(self.oct_table().mean(axis=1))
        )

    def cp_min_bound(self) -> float:
        """Eq. 10 denominator: longest min-cost chain (cached)."""

        def build() -> float:
            if not self.n_tasks:
                return float(-np.inf)
            return float(
                cp_min_kernel(
                    self._down_batches(),
                    self.pred_ids,
                    self.w.min(axis=1),
                    self.entry_ids,
                ).max()
            )

        return self._artifact("cp_min", build)

    def prime_cp_min_bound(self, value: float) -> None:
        """Cache a :meth:`cp_min_bound` computed elsewhere.

        The batch kernel's
        :meth:`~repro.core.batch.CompiledBatch.cp_min_bounds` gives every
        lane's bound bit-equal to this kernel's in one pass.
        """
        self._artifacts.setdefault("cp_min", value)

    def sequential_time(self) -> float:
        """Eq. 11 numerator: best single-CPU column sum (cached)."""
        return self._artifact(
            "sequential",
            lambda: float(self.w.sum(axis=0).min())
            if self.n_tasks
            else 0.0,
        )

    # ------------------------------------------------------------------
    # level batches for the rank kernels
    # ------------------------------------------------------------------
    def _up_batches(self) -> Batches:
        """The structure's height batches (:attr:`GraphStructure.up_batches`)."""
        return self.structure.up_batches

    def _down_batches(self) -> Batches:
        """The structure's depth batches (:attr:`GraphStructure.down_batches`)."""
        return self.structure.down_batches

    @property
    def graph(self) -> TaskGraph:
        """The task graph; rebuilt from the arrays once the source (or
        the last rebuilt graph) is freed.  Hold the returned graph while
        using it: each rebuild is a new object."""
        graph = self._graph() if self._graph is not None else None
        if graph is None:
            graph = self._arrays.to_graph()
            # the rebuilt graph's derived cache starts with what is
            # already known: this instance (and so its artifacts), the
            # topological order and the terminals
            graph.derived("compiled_graph", lambda: self)
            graph.derived("topo", lambda: self.structure.topo_tuple)
            graph.derived("entries", lambda: tuple(self.entry_ids.tolist()))
            graph.derived("exits", lambda: tuple(self.exit_ids.tolist()))
            self._graph = weakref.ref(graph)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraph(n_tasks={self.n_tasks}, "
            f"n_edges={len(self.succ_ids)}, n_procs={self.n_procs}, "
            f"artifacts={sorted(map(str, self._artifacts))})"
        )
