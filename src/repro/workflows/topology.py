"""Topology + cost realization shared by every real-world workflow.

The paper's real-world experiments keep a *fixed structure* (FFT, Montage,
Molecular Dynamics) and vary the cost parameters: CCR, heterogeneity
``beta``, mean computation ``W_dag`` and the CPU count (Sections V-C.1-3).
A :class:`Topology` captures just the structure; :func:`realize_arrays`
draws per-CPU computation costs with Eq. (13) and edge communication costs
with Eq. (14) -- the same cost model the synthetic generator uses, so the
sweep axes mean the same thing for every workload.  It reads the
structure as read-only edge arrays (:meth:`Topology.arrays`), which the
sweep factories build once per structure and reuse for every
replication; :func:`realize_topology` is the same draw as a
:class:`~repro.model.task_graph.TaskGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.model.compiled import GraphStructure
from repro.model.task_graph import GraphArrays, TaskGraph

__all__ = [
    "Topology", "TopologyArrays", "draw_costs", "realize_arrays",
    "realize_topology",
]


class TopologyArrays(NamedTuple):
    """A validated topology as read-only arrays: edge ``e`` runs
    ``src[e] -> dst[e]``, in the topology's edge order.  ``compiled``
    (optional) is the shared
    :class:`~repro.model.compiled.GraphStructure` of these edges, which
    every realized draw carries along."""

    n_tasks: int
    src: np.ndarray
    dst: np.ndarray
    names: Optional[Tuple[str, ...]] = None
    compiled: Optional[GraphStructure] = None


@dataclass
class Topology:
    """A bare DAG structure: task names and precedence edges."""

    n_tasks: int
    edges: List[Tuple[int, int]] = field(default_factory=list)
    names: Optional[List[str]] = None
    label: str = "topology"

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("topology needs at least one task")
        seen = set()
        for src, dst in self.edges:
            if not (0 <= src < self.n_tasks and 0 <= dst < self.n_tasks):
                raise ValueError(f"edge ({src}, {dst}) out of range")
            if src == dst:
                raise ValueError(f"self-loop on task {src}")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))
        if self.names is not None and len(self.names) != self.n_tasks:
            raise ValueError("names length must equal n_tasks")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def arrays(self) -> TopologyArrays:
        """The structure as fresh read-only edge arrays."""
        m = len(self.edges)
        src = np.fromiter((s for s, _ in self.edges), dtype=np.intp, count=m)
        dst = np.fromiter((d for _, d in self.edges), dtype=np.intp, count=m)
        src.flags.writeable = False
        dst.flags.writeable = False
        names = tuple(self.names) if self.names else None
        return TopologyArrays(self.n_tasks, src, dst, names)


def draw_costs(
    n_tasks: int,
    n_procs: int,
    rng: np.random.Generator,
    w_dag: float = 50.0,
    beta: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the computation-cost matrix of Eq. (13).

    Each task's average cost ``w_i`` is uniform on ``[0, 2 * w_dag]``;
    its per-CPU cost is uniform on ``[w_i (1 - beta/2), w_i (1 + beta/2)]``.
    Returns ``(mean_costs, W)`` where ``W`` has shape ``(n_tasks, n_procs)``.
    """
    if w_dag <= 0:
        raise ValueError("w_dag must be positive")
    if not 0 <= beta <= 2:
        raise ValueError("beta must lie in [0, 2] so costs stay non-negative")
    mean_costs = rng.uniform(0.0, 2.0 * w_dag, size=n_tasks)
    low = mean_costs * (1.0 - beta / 2.0)
    high = mean_costs * (1.0 + beta / 2.0)
    w = rng.uniform(low[:, None], high[:, None], size=(n_tasks, n_procs))
    return mean_costs, w


def realize_arrays(
    structure: TopologyArrays,
    n_procs: int,
    rng: Optional[np.random.Generator] = None,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
    randomize_comm: bool = False,
) -> GraphArrays:
    """Assign costs to a structure, as :class:`GraphArrays`.

    Communication costs follow Eq. (14): ``comm(i, j) = w_i * CCR`` with
    ``w_i`` the source task's average computation cost.  With
    ``randomize_comm=True`` the cost is drawn uniform on
    ``[0, 2 * CCR * w_i]`` instead (same mean, randomized -- an optional
    variant documented in DESIGN.md), one draw per edge in edge order.
    The edge arrays (and ``structure.compiled``) are shared with
    ``structure``, not copied.
    """
    if rng is None:
        rng = np.random.default_rng()
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    if ccr < 0:
        raise ValueError("ccr must be >= 0")
    mean_costs, w = draw_costs(structure.n_tasks, n_procs, rng, w_dag, beta)
    source_costs = mean_costs[structure.src]
    if randomize_comm:
        cost = rng.uniform(0.0, 2.0 * ccr * source_costs)
    else:
        cost = ccr * source_costs
    if not np.isfinite(cost).all():
        raise ValueError(f"communication costs must be finite (ccr={ccr})")
    return GraphArrays(
        w, structure.src, structure.dst, cost, structure.names,
        structure.compiled,
    )


def realize_topology(
    topology: Topology,
    n_procs: int,
    rng: Optional[np.random.Generator] = None,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
    randomize_comm: bool = False,
) -> TaskGraph:
    """:func:`realize_arrays` on ``topology`` as a :class:`TaskGraph`
    (the same draws)."""
    return realize_arrays(
        topology.arrays(), n_procs, rng=rng, ccr=ccr, beta=beta,
        w_dag=w_dag, randomize_comm=randomize_comm,
    ).to_graph()
