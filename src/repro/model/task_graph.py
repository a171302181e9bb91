"""The central DAG data structure shared by every scheduler and generator.

A :class:`TaskGraph` couples three things:

* the precedence DAG ``G = (V, E)`` (Section III of the paper),
* the ``n x p`` computation-cost matrix ``W`` (Definition 1), and
* the per-edge communication costs ``C`` (Definition 2).

Tasks are dense integer ids ``0 .. n-1``.  The structure is built
incrementally (``add_task`` / ``add_edge``) and exposes cached derived
views (topological order, predecessors, entry/exit tasks) that are
invalidated automatically on mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = ["TaskGraph", "Edge", "GraphArrays"]


@dataclass(frozen=True)
class Edge:
    """A precedence-constrained data transfer between two tasks."""

    src: int
    dst: int
    cost: float

    def __iter__(self) -> Iterator[float]:
        return iter((self.src, self.dst, self.cost))


class TaskGraph:
    """Directed acyclic task graph with heterogeneous execution costs.

    Parameters
    ----------
    n_procs:
        Number of CPUs in the heterogeneous computing environment. The
        computation-cost matrix ``W`` has one column per CPU.
    names:
        Optional human-readable task names (useful for real-world
        workflows such as Montage where tasks have job types).
    """

    def __init__(self, n_procs: int) -> None:
        if n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        self._n_procs = int(n_procs)
        self._costs: List[np.ndarray] = []
        self._names: List[str] = []
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        self._comm: Dict[Tuple[int, int], float] = {}
        self._version = 0
        self._cache: Dict[str, object] = {}
        self._cache_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, costs: Sequence[float], name: Optional[str] = None) -> int:
        """Add a task with its per-CPU execution costs; returns the task id."""
        row = np.asarray(costs, dtype=float)
        if row.shape != (self._n_procs,):
            raise ValueError(
                f"expected {self._n_procs} costs, got shape {row.shape}"
            )
        if np.any(row < 0) or not np.all(np.isfinite(row)):
            raise ValueError(f"costs must be finite and non-negative: {row}")
        tid = len(self._costs)
        self._costs.append(row)
        self._names.append(name if name is not None else f"T{tid + 1}")
        self._succ.append([])
        self._pred.append([])
        self._version += 1
        return tid

    def add_edge(self, src: int, dst: int, cost: float) -> None:
        """Add a dependency ``src -> dst`` with communication cost ``cost``.

        The cost is the time to ship the edge's data between *distinct*
        CPUs; schedulers treat it as zero when both endpoints land on the
        same CPU (Definition 2).
        """
        self._check_task(src)
        self._check_task(dst)
        if src == dst:
            raise ValueError(f"self-loop on task {src}")
        if cost < 0 or not np.isfinite(cost):
            raise ValueError(f"communication cost must be finite and >= 0: {cost}")
        if (src, dst) in self._comm:
            raise ValueError(f"duplicate edge ({src}, {dst})")
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._comm[(src, dst)] = float(cost)
        self._version += 1

    def _check_task(self, tid: int) -> None:
        if not 0 <= tid < len(self._costs):
            raise KeyError(f"unknown task id {tid}")

    @classmethod
    def _bulk(
        cls,
        n_procs: int,
        rows: Sequence[np.ndarray],
        names: Optional[Sequence[str]],
        edge_src: Sequence[int],
        edge_dst: Sequence[int],
        edge_costs: Sequence[float],
    ) -> "TaskGraph":
        """Trusted bulk constructor (package-internal).

        Skips the per-element validation of ``add_task``/``add_edge``;
        callers (``GraphArrays.to_graph``, ``scaled_comm``)
        guarantee float64 ``(n_procs,)`` cost rows, valid acyclic edges
        and Python-float communication costs.  Edge order defines the
        same ``_succ``/``_pred``/``_comm`` insertion order the
        incremental path would produce.
        """
        graph = cls(n_procs)
        graph._costs = list(rows)
        n = len(graph._costs)
        graph._names = (
            list(names) if names is not None else [f"T{i + 1}" for i in range(n)]
        )
        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        comm: Dict[Tuple[int, int], float] = {}
        for src, dst, cost in zip(edge_src, edge_dst, edge_costs):
            succ[src].append(dst)
            pred[dst].append(src)
            comm[(src, dst)] = cost
        graph._succ = succ
        graph._pred = pred
        graph._comm = comm
        graph._version += 1
        return graph

    @classmethod
    def from_arrays(
        cls,
        costs: np.ndarray,
        edges: Iterable[Tuple[int, int, float]],
        names: Optional[Sequence[str]] = None,
    ) -> "TaskGraph":
        """Build a graph from an ``(n, p)`` cost matrix and an edge list."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError("costs must be a 2-D (n_tasks, n_procs) array")
        graph = cls(costs.shape[1])
        for i, row in enumerate(costs):
            graph.add_task(row, name=None if names is None else names[i])
        for src, dst, cost in edges:
            graph.add_edge(int(src), int(dst), float(cost))
        return graph

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._costs)

    @property
    def n_procs(self) -> int:
        return self._n_procs

    @property
    def n_edges(self) -> int:
        return len(self._comm)

    def tasks(self) -> range:
        """Iterable of task ids (0 .. n_tasks-1)."""
        return range(self.n_tasks)

    def procs(self) -> range:
        """Iterable of CPU indices (0 .. n_procs-1)."""
        return range(self._n_procs)

    def name(self, tid: int) -> str:
        """Human-readable task name."""
        self._check_task(tid)
        return self._names[tid]

    def cost(self, tid: int, proc: int) -> float:
        """Execution time of ``tid`` on CPU ``proc`` -- ``W(v_i, m_p)``."""
        return float(self._costs[tid][proc])

    def cost_row(self, tid: int) -> np.ndarray:
        """The task's execution-time vector across all CPUs (read-only)."""
        self._check_task(tid)
        row = self._costs[tid]
        row.flags.writeable = False
        return row

    def cost_matrix(self) -> np.ndarray:
        """The full ``(n_tasks, n_procs)`` matrix ``W`` as a fresh array."""
        if self.n_tasks == 0:
            return np.zeros((0, self._n_procs))
        return np.vstack(self._costs)

    def successors(self, tid: int) -> Tuple[int, ...]:
        """Direct children of ``tid``."""
        self._check_task(tid)
        return tuple(self._succ[tid])

    def predecessors(self, tid: int) -> Tuple[int, ...]:
        """Direct parents of ``tid``."""
        self._check_task(tid)
        return tuple(self._pred[tid])

    def out_degree(self, tid: int) -> int:
        """Number of children."""
        return len(self._succ[tid])

    def in_degree(self, tid: int) -> int:
        """Number of parents."""
        return len(self._pred[tid])

    def has_edge(self, src: int, dst: int) -> bool:
        """True when the dependency ``src -> dst`` exists."""
        return (src, dst) in self._comm

    def comm_cost(self, src: int, dst: int) -> float:
        """Inter-CPU communication cost of edge ``src -> dst``."""
        try:
            return self._comm[(src, dst)]
        except KeyError:
            raise KeyError(f"no edge ({src}, {dst})") from None

    def edges(self) -> Iterator[Edge]:
        """Iterate every dependency as an :class:`Edge`."""
        for (src, dst), cost in self._comm.items():
            yield Edge(src, dst, cost)

    # ------------------------------------------------------------------
    # cached derived views
    # ------------------------------------------------------------------
    def _derived(self, key: str, builder) -> object:
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def derived(self, key: str, builder) -> object:
        """Version-keyed cache for values derived from this graph.

        ``builder()`` runs at most once per graph version; any mutation
        (``add_task``/``add_edge``) invalidates every cached value.  The
        compiled layer (:func:`repro.model.compiled.compile_graph`)
        stores its per-instance artifact cache here so all schedulers
        running on the same instance share it.
        """
        return self._derived(key, builder)

    def topological_order(self) -> Tuple[int, ...]:
        """Kahn topological order; raises ``ValueError`` on a cycle."""

        def build() -> Tuple[int, ...]:
            indeg = [len(p) for p in self._pred]
            stack = [t for t in self.tasks() if indeg[t] == 0]
            order: List[int] = []
            while stack:
                t = stack.pop()
                order.append(t)
                for s in self._succ[t]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        stack.append(s)
            if len(order) != self.n_tasks:
                raise ValueError("task graph contains a cycle")
            return tuple(order)

        return self._derived("topo", build)  # type: ignore[return-value]

    def entry_tasks(self) -> Tuple[int, ...]:
        """Tasks with no parents."""
        return self._derived(
            "entries",
            lambda: tuple(t for t in self.tasks() if not self._pred[t]),
        )  # type: ignore[return-value]

    def exit_tasks(self) -> Tuple[int, ...]:
        """Tasks with no children."""
        return self._derived(
            "exits",
            lambda: tuple(t for t in self.tasks() if not self._succ[t]),
        )  # type: ignore[return-value]

    @property
    def entry_task(self) -> int:
        """The unique entry task; raises if the graph has several."""
        entries = self.entry_tasks()
        if len(entries) != 1:
            raise ValueError(
                f"graph has {len(entries)} entry tasks; call normalized() first"
            )
        return entries[0]

    @property
    def exit_task(self) -> int:
        """The unique exit task; raises if the graph has several."""
        exits = self.exit_tasks()
        if len(exits) != 1:
            raise ValueError(
                f"graph has {len(exits)} exit tasks; call normalized() first"
            )
        return exits[0]

    # ------------------------------------------------------------------
    # normalization (pseudo entry / exit tasks, Section III)
    # ------------------------------------------------------------------
    def normalized(self) -> "TaskGraph":
        """Return a graph with a single entry and a single exit task.

        Multi-entry / multi-exit graphs gain a *pseudo task* with zero
        computation cost connected with zero communication cost, exactly
        as the paper's Section III prescribes.  Graphs that are already
        single-entry/single-exit are returned as a structural copy.
        """
        return self.arrays().normalized().to_graph()

    def arrays(self) -> "GraphArrays":
        """The graph as flat arrays (:class:`GraphArrays`), edges in
        insertion order."""
        n, comm = self.n_tasks, self._comm
        m = len(comm)
        return GraphArrays(
            np.array(self._costs, dtype=float)
            if n
            else np.zeros((0, self._n_procs)),
            np.fromiter((src for src, _ in comm), dtype=np.intp, count=m),
            np.fromiter((dst for _, dst in comm), dtype=np.intp, count=m),
            np.fromiter(comm.values(), dtype=float, count=m),
            tuple(self._names),
        )

    # ------------------------------------------------------------------
    # conversions / misc
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (costs become attributes)."""
        import networkx as nx

        g = nx.DiGraph()
        for tid in self.tasks():
            g.add_node(tid, name=self._names[tid], costs=self._costs[tid].copy())
        for (src, dst), cost in self._comm.items():
            g.add_edge(src, dst, cost=cost)
        return g

    def scaled_comm(self, factor: float) -> "TaskGraph":
        """Copy of the graph with every communication cost multiplied.

        Handy for CCR sweeps over a fixed topology (Figs 7, 10, 13).
        """
        if factor < 0 or not np.isfinite(factor):
            raise ValueError("factor must be finite and >= 0")
        edge_src = [src for (src, _) in self._comm]
        edge_dst = [dst for (_, dst) in self._comm]
        edge_costs = [cost * factor for cost in self._comm.values()]
        return TaskGraph._bulk(
            self._n_procs,
            list(self._costs),
            list(self._names),
            edge_src,
            edge_dst,
            edge_costs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph(n_tasks={self.n_tasks}, n_edges={self.n_edges}, "
            f"n_procs={self._n_procs})"
        )


def pseudo_edges(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    entries: np.ndarray,
    exits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]:
    """Section III's pseudo terminals as appended edges.

    With several ``entries`` a pseudo entry ``n`` gets an edge to each
    (then, with several ``exits``, a pseudo exit gets an edge from
    each), in task-id order after the existing edges.  Returns the
    edge arrays and the names of the tasks added; ``(src, dst, ())``
    when the graph already has one entry and one exit.
    """
    src_parts, dst_parts, added = [src], [dst], []
    pseudo = n
    if len(entries) > 1:
        src_parts.append(np.full(len(entries), pseudo, dtype=np.intp))
        dst_parts.append(entries)
        added.append("pseudo_entry")
        pseudo += 1
    if len(exits) > 1:
        src_parts.append(exits)
        dst_parts.append(np.full(len(exits), pseudo, dtype=np.intp))
        added.append("pseudo_exit")
    if not added:
        return src, dst, ()
    return np.concatenate(src_parts), np.concatenate(dst_parts), tuple(added)


class GraphArrays(NamedTuple):
    """A task graph as flat arrays: the cost matrix and the edge list.

    ``w`` is the ``(n, p)`` matrix ``W``; edge ``e`` runs ``src[e] ->
    dst[e]`` at communication cost ``cost[e]``, in insertion order.
    ``names`` holds the *trailing* task names: the tasks before them
    keep the default ``T<id + 1>``, so ``None`` means every name is a
    default and a pseudo task's name costs no string for the others.
    ``structure`` (optional) is the shared, already compiled
    :class:`~repro.model.compiled.GraphStructure` whose ``src``/``dst``
    these are: a factory drawing costs on a fixed structure hands it
    back so the instance compile and normalization reuse it.

    This is the form the random generator produces and
    :class:`~repro.model.compiled.CompiledGraph` compiles; a
    :class:`TaskGraph` is derived from it (:meth:`to_graph`) only when
    one is asked for.
    """

    w: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    cost: np.ndarray
    names: Optional[Tuple[str, ...]] = None
    structure: Optional[object] = None

    def to_graph(self) -> TaskGraph:
        """The :class:`TaskGraph` with these rows, edges and names."""
        names = self.names
        if names is not None:
            lead = len(self.w) - len(names)
            names = [f"T{i + 1}" for i in range(lead)] + list(names)
        return TaskGraph._bulk(
            self.w.shape[1],
            list(self.w),
            names,
            self.src.tolist(),
            self.dst.tolist(),
            self.cost.tolist(),
        )

    def normalized(self) -> "GraphArrays":
        """:meth:`TaskGraph.normalized` in array form.

        The pseudo entry (then the pseudo exit) is appended as a zero
        row, with zero-cost edges to every entry (from every exit) in
        task-id order after the existing edges -- the ids, edge order
        and costs the object form gives.  Returns ``self`` when the
        graph already has one entry and one exit.  With a
        ``structure``, its cached normalized form supplies the edges
        and rides along on the result.
        """
        n, p = self.w.shape
        if self.structure is not None:
            shape, added = self.structure.normalized
            src, dst = shape.src, shape.dst
        else:
            shape = None
            has_parent = np.zeros(n, dtype=bool)
            has_parent[self.dst] = True
            has_child = np.zeros(n, dtype=bool)
            has_child[self.src] = True
            src, dst, added = pseudo_edges(
                n, self.src, self.dst,
                np.flatnonzero(~has_parent), np.flatnonzero(~has_child),
            )
        if not added:
            return self
        return GraphArrays(
            np.concatenate([self.w, np.zeros((len(added), p))]),
            src,
            dst,
            np.concatenate([self.cost, np.zeros(len(src) - len(self.cost))]),
            (self.names or ()) + added,
            shape,
        )
