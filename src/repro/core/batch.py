"""Batched multi-DAG scheduling kernel: one array program per batch.

A figure sweep's replication loop runs the same scheduler on many
independent random instances of one size.  The scalar path pays full
Python dispatch per instance; this module packs a whole replication
batch of compiled instances (:class:`~repro.model.compiled.CompiledGraph`)
that share a task count, a CPU count and an entry task id -- their
structures may all differ -- into one struct-of-arrays program:

* the lanes' graphs are packed as the block-diagonal union of their
  CSR structures (global node ``lane * n + task``), with per-lane
  ``(batch, n, p)`` cost tensors;
* the rank kernels (upward rank, OCT, the PETS priority, the Eq. 10
  ``CP_MIN`` bound) are the level-``reduceat`` kernels of
  :mod:`repro.model.compiled`, run over the union with global ids --
  the same functions a single compiled graph runs.  Its
  :func:`~repro.model.compiled.peel_levels` gives the union's heights
  above the sinks and, mirrored, the depths below the sources; in a
  disjoint union both are each lane's own, so every node reduces
  exactly the operands it reduces in its own graph;
* the static-priority baselines (HEFT, PEFT, PETS, SDBATS and their
  registered ablations) compute per-lane task orders up front -- PETS's
  level-sorted order is one lexsort over (lane, depth, -rank, ACC) --
  and then place one task per lane per step in lockstep, with a
  vectorized timeline gap scan (:class:`_BatchTimelines`) replicating
  ``ProcessorTimeline.earliest_start_fast`` and the 1e-12
  strict-improvement CPU selection of ``StaticEFTEngine.place_best``.
  Every static member of a group shares **one** lockstep loop
  (:func:`run_static_set`): virtual lane ``s * B + b`` is member ``s``
  on batch lane ``b``, so the per-step numpy calls -- which bound a
  step at these sizes, not the elements they touch -- are paid once
  for the set; what differs per member (the order, PEFT's OCT term,
  SDBATS's entry mirrors) is per-lane data.  :func:`run_batch` on a
  static list is the one-member set;
* HDLTS runs a batched ready-list step: the union of the lanes' ITQ
  frontiers is compacted into one ``(batch, |union|, p)`` EFT block per
  step, the penalty-value kernel and the argmax/argmin selections run
  per lane, and Algorithm 1's entry-duplication window test reduces to
  a ``first_start >= W(entry, p) - eps`` comparison (exact under the
  :func:`hdlts_dup_batchable` instance gate).

Everything here is **bit-identical** to the scalar compiled path: the
same IEEE-754 float64 operations run in the same order per lane
(``min``/``max`` reductions are order-free; additions are preserved
term for term).  The differential suite asserts schedule-level equality
for every batchable registry scheduler; the sweep harness
(:mod:`repro.experiments.harness`) falls back to the scalar path for
anything this module does not cover.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hdlts import PriorityRule
from repro.model.compiled import (
    CompiledGraph, _ragged_indices, cp_min_kernel, level_batches, oct_kernel,
    peel_levels, pets_priorities, upward_kernel,
)
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import _EPS

__all__ = [
    "BATCHABLE",
    "BATCHABLE_STATIC",
    "BatchResult",
    "CompiledBatch",
    "batch_groups",
    "batch_key",
    "batchable_schedulers",
    "hdlts_dup_batchable",
    "instance_batchable",
    "lane_gates",
    "max_lanes",
    "run_batch",
    "run_static_set",
]


# ----------------------------------------------------------------------
# scheduler configurations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StaticConfig:
    """One static-list baseline as the batch kernel sees it."""

    obs_name: str  # Scheduler.name (counter prefix), not the registry key
    rank: str  # "mean" | "std" | "oct" | "pets"
    insertion: bool = True
    sdbats: bool = False  # entry pre-placement (primary + mirrors)
    duplicate_entry: bool = True  # SDBATS only
    peft: bool = False  # OCT objective + dynamic-heap order


@dataclass(frozen=True)
class _DynamicConfig:
    """One HDLTS variant (append mode) as the batch kernel sees it."""

    obs_name: str
    priority: PriorityRule
    duplicate_entry: bool


#: registry name -> batch kernel configuration: the whole paper set
#: (HDLTS, HEFT, PETS, PEFT, SDBATS) and their batchable ablations.
#: Schedulers absent here (``PETS-rpt``, whose rank recurses over the
#: predecessors' ranks, CPOP, ``HDLTS-insertion``, ``engine="reference"``
#: variants, ...) always take the scalar path.
_CONFIGS: Dict[str, object] = {
    "HEFT": _StaticConfig("HEFT", rank="mean", insertion=True),
    "HEFT-noinsertion": _StaticConfig("HEFT", rank="mean", insertion=False),
    "PEFT": _StaticConfig("PEFT", rank="oct", insertion=True, peft=True),
    "PETS": _StaticConfig("PETS", rank="pets", insertion=True),
    "SDBATS": _StaticConfig(
        "SDBATS", rank="std", insertion=True, sdbats=True, duplicate_entry=True
    ),
    "SDBATS-nodup": _StaticConfig(
        "SDBATS", rank="std", insertion=True, sdbats=True, duplicate_entry=False
    ),
    "HDLTS": _DynamicConfig(
        "HDLTS", PriorityRule.PENALTY_VALUE, duplicate_entry=True
    ),
    "HDLTS-nodup": _DynamicConfig(
        "HDLTS", PriorityRule.PENALTY_VALUE, duplicate_entry=False
    ),
    "HDLTS-range": _DynamicConfig(
        "HDLTS", PriorityRule.EFT_RANGE, duplicate_entry=True
    ),
    "HDLTS-meaneft": _DynamicConfig(
        "HDLTS", PriorityRule.MEAN_EFT, duplicate_entry=True
    ),
    "HDLTS-greedy": _DynamicConfig(
        "HDLTS", PriorityRule.MIN_EFT_FIRST, duplicate_entry=True
    ),
    "HDLTS-rank": _DynamicConfig(
        "HDLTS", PriorityRule.UPWARD_RANK, duplicate_entry=True
    ),
}

#: registry names the batch kernel covers
BATCHABLE = frozenset(_CONFIGS)
#: the static-list members of :data:`BATCHABLE` (:func:`run_static_set`)
BATCHABLE_STATIC = frozenset(
    name for name, cfg in _CONFIGS.items() if isinstance(cfg, _StaticConfig)
)


def batchable_schedulers() -> List[str]:
    """Registry names the batched kernel can run (insertion order)."""
    return list(_CONFIGS)


#: fewest lanes at which each kernel family beats the scalar path.  The
#: kernel pays a fixed numpy dispatch cost per scheduling step that its
#: lanes must amortize; since both sides scale with the task count, the
#: break-even width barely moves with size.  Measured on random DAGs of
#: 30-200 tasks on 2-8 CPUs: HDLTS breaks even at 6-10 lanes against
#: its Python-float scalar path (it wins at 8 on 8 and 4 CPUs, 0.9x on
#: 2), a lone static list at 12-16 (PETS at 16-20: 0.88-1.11x at 16
#: lanes, 1.11-1.24x at 24; at 2 lanes they run ~5x slower batched).
#: A fused static set (:func:`run_static_set`) pays one loop's dispatch
#: cost for all S members, so the static figure gates the set's virtual
#: width S*B (:func:`lane_gates`): the paper's four statics batch from
#: B = 4, where the fused set beat their scalar runs on fig2's random
#: DAGs and fig13's MD graph and lost at B = 2 (docs/performance.md).
_MIN_LANES = {_StaticConfig: 16, _DynamicConfig: 8}


def min_lanes(scheduler: str) -> int:
    """Fewest lanes for which the harness batches ``scheduler`` alone
    (for a static list: as a one-member set)."""
    return _MIN_LANES[type(_CONFIGS[scheduler])]


def lane_gates(schedulers: Sequence[str]) -> Dict[str, int]:
    """Fewest lanes at which each batchable name in ``schedulers`` batches.

    Each HDLTS variant runs its own loop and needs :func:`min_lanes`.
    The static lists sharing an insertion mode run as one fused loop of
    ``S * B`` virtual lanes, gated on that width: ``S * B >= 16``, so
    each of them needs ``ceil(16 / S)`` lanes.  Names the kernel does
    not cover are left out.
    """
    names = [name for name in dict.fromkeys(schedulers) if name in _CONFIGS]
    modes = [
        cfg.insertion for cfg in map(_CONFIGS.get, names)
        if isinstance(cfg, _StaticConfig)
    ]
    gates: Dict[str, int] = {}
    for name in names:
        cfg = _CONFIGS[name]
        members = isinstance(cfg, _StaticConfig) and modes.count(cfg.insertion)
        gates[name] = -(-min_lanes(name) // (members or 1))
    return gates


def max_lanes(n_tasks: int, n_procs: int) -> int:
    """Soft cap on lanes per sub-batch (bounds the (B, n, p) tensors)."""
    cells = max(1, n_tasks * n_procs)
    return max(1, min(1024, 2_000_000 // cells))


def hdlts_dup_batchable(compiled: CompiledGraph) -> bool:
    """True when Algorithm 1's window test batches exactly for this instance.

    The batched kernel replaces ``timeline.fits(0, W(entry, p))`` with
    ``first_start[p] >= W(entry, p) - eps``.  The two agree whenever
    every slot on a CPU without an entry copy starts strictly after
    ``eps``, which holds when every entry cost exceeds ``eps`` (all
    finish times then inherit ``BF(entry) > eps``).  A normalized
    pseudo entry (all-zero cost row and all-zero outgoing comm) is also
    exact: the duplication test ``W(entry, p) < arrival`` is then
    constantly false on both paths.  Anything else falls back.
    """
    entry = int(compiled.entry_ids[0])
    w_entry = compiled.w[entry]
    if bool((w_entry > _EPS).all()):
        return True
    if bool((w_entry == 0.0).all()):
        _, costs = compiled.succ_slice(entry)
        return not costs.size or bool((costs == 0.0).all())
    return False


def instance_batchable(
    compiled: CompiledGraph, schedulers: Sequence[str]
) -> bool:
    """Can this instance ride the batch kernel for all ``schedulers``?

    Requires a single entry task (the harness normalizes instances
    before compiling) and, when any requested scheduler is an HDLTS
    variant with entry duplication, the :func:`hdlts_dup_batchable`
    window-test gate.
    """
    if compiled.entry_ids.size != 1:
        return False
    needs_gate = any(
        isinstance(cfg, _DynamicConfig) and cfg.duplicate_entry
        for cfg in (_CONFIGS.get(name) for name in schedulers)
        if cfg is not None
    )
    return hdlts_dup_batchable(compiled) if needs_gate else True


# ----------------------------------------------------------------------
# the packed batch
# ----------------------------------------------------------------------
def batch_key(compiled: CompiledGraph) -> Tuple[int, int, int]:
    """``(n_tasks, n_procs, entry)``: what the lanes of one batch share.

    Only sizes and the (single) entry id must agree; structures and
    cost draws may differ per lane.  Callers check
    :func:`instance_batchable` first, which guarantees one entry.
    """
    return (compiled.n_tasks, compiled.n_procs, int(compiled.entry_ids[0]))


def batch_groups(
    instances: Sequence[CompiledGraph],
    schedulers: Sequence[str],
    fewest: int,
) -> List[List[int]]:
    """Indices of ``instances`` packed into kernel-sized sub-batches.

    Instances passing :func:`instance_batchable` for ``schedulers`` are
    grouped by :func:`batch_key` (first-seen order), each group is split
    into runs of at most :func:`max_lanes` lanes, and runs narrower than
    ``fewest`` are dropped: their instances take the scalar path.
    """
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for idx, instance in enumerate(instances):
        if instance_batchable(instance, schedulers):
            groups.setdefault(batch_key(instance), []).append(idx)
    subs: List[List[int]] = []
    for (n_tasks, n_procs, _), idxs in groups.items():
        cap = max_lanes(n_tasks, n_procs)
        for lo in range(0, len(idxs), cap):
            sub = idxs[lo:lo + cap]
            if len(sub) >= fewest:
                subs.append(sub)
    return subs


def _union_csr(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal union of per-lane CSR ``(indptr, ids, costs)``.

    Row ``lane * n + task`` of the union is row ``task`` of lane
    ``lane``: each lane's ``indptr`` is shifted by the edges of the
    lanes before it, while ids stay lane-local task ids.
    """
    sizes = np.fromiter((ip[-1] for ip, _, _ in parts), np.intp, len(parts))
    shift = np.zeros(len(parts), dtype=np.intp)
    np.cumsum(sizes[:-1], out=shift[1:])
    indptr = np.empty(len(parts) * n + 1, dtype=np.intp)
    indptr[:-1] = (
        np.stack([ip[:-1] for ip, _, _ in parts]) + shift[:, None]
    ).ravel()
    indptr[-1] = sizes.sum()
    ids = np.concatenate([ids for _, ids, _ in parts])
    costs = np.concatenate([costs for _, _, costs in parts])
    return indptr, ids, costs


class CompiledBatch:
    """Struct-of-arrays view of compiled instances sharing one :func:`batch_key`.

    The lanes' graphs are packed as the block-diagonal union of their
    CSR structures: global node ``lane * n + task``, lane-local ids,
    flat 1-D edge costs aligned with the union CSR.  Per-lane node data
    (costs, topological positions, entry-child rows) is stacked along a
    leading batch axis.  Rank kernels run the compiled graph's
    level-``reduceat`` kernels over the flattened ``(B * n)`` view and
    cache their results per batch.
    """

    def __init__(self, instances: Sequence[CompiledGraph]) -> None:
        if not instances:
            raise ValueError("batch needs at least one instance")
        if any(g.entry_ids.size != 1 for g in instances):
            raise ValueError("batch instances must have a single entry task")
        key = batch_key(instances[0])
        if any(batch_key(g) != key for g in instances[1:]):
            raise ValueError(
                "all batch instances must share (n_tasks, n_procs, entry)"
            )
        self.instances: Tuple[CompiledGraph, ...] = tuple(instances)
        self.n_lanes = len(self.instances)
        self.n_tasks, self.n_procs, self.entry = key
        n = self.n_tasks
        lanes = np.arange(self.n_lanes)
        # per-lane data planes
        self.W = np.stack([g.w for g in self.instances])  # (B, n, p)
        self.topo_position = np.stack(
            [g.topo_position for g in self.instances]
        )  # (B, n)
        # union CSR, indexed by global node lane * n + task
        self.succ_indptr, self.succ_ids, self.succ_costs = _union_csr(
            [(g.succ_indptr, g.succ_ids, g.succ_costs) for g in self.instances],
            n,
        )
        self.pred_indptr, self.pred_ids, self.pred_costs = _union_csr(
            [(g.pred_indptr, g.pred_ids, g.pred_costs) for g in self.instances],
            n,
        )
        # dense entry -> child mask and communication per lane
        s0 = self.succ_indptr[lanes * n + self.entry]
        counts = self.succ_indptr[lanes * n + self.entry + 1] - s0
        flat, _ = _ragged_indices(s0, counts)
        b_of = np.repeat(lanes, counts)
        children = self.succ_ids[flat]
        self.entry_child = np.zeros((self.n_lanes, n), dtype=bool)
        self.entry_child[b_of, children] = True
        self.entry_comm = np.zeros((self.n_lanes, n))
        self.entry_comm[b_of, children] = self.succ_costs[flat]
        # entry-stripped predecessor CSR (HDLTS ready rows)
        keep = self.pred_ids != self.entry
        total = self.n_lanes * n
        owner = np.repeat(np.arange(total), np.diff(self.pred_indptr))
        self.ne_indptr = np.zeros(total + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(owner[keep], minlength=total), out=self.ne_indptr[1:]
        )
        self.ne_ids = self.pred_ids[keep]
        self.ne_costs = self.pred_costs[keep]
        # the one structure every lane holds, if they share one: its
        # level peels, tiled per lane, are the union's
        shared = self.instances[0].structure
        self._shared = (
            shared if all(g.structure is shared for g in self.instances)
            else None
        )
        self._cache: Dict[str, object] = {}

    @property
    def label(self) -> str:
        """Short human-readable batch tag for spans and logs."""
        return f"n{self.n_tasks}p{self.n_procs}e{self.entry}"

    def _global_ids(self, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Lane-local ids of a union CSR as global nodes ``lane * n + id``."""
        n = self.n_tasks
        lane_base = np.arange(self.n_lanes * n) // n * n
        return ids + np.repeat(lane_base, np.diff(indptr))

    def _succ_global(self) -> np.ndarray:
        """Union successor ids as global nodes (cached)."""
        return self._cached(
            "succ_global",
            lambda: self._global_ids(self.succ_indptr, self.succ_ids),
        )

    def _pred_global(self) -> np.ndarray:
        """Union predecessor ids as global nodes (cached)."""
        return self._cached(
            "pred_global",
            lambda: self._global_ids(self.pred_indptr, self.pred_ids),
        )

    def up_batches(self) -> List[Tuple]:
        """Union nodes grouped by height above the sinks (cached).

        :meth:`CompiledGraph._up_batches` over the union, with global
        ``nodes`` and ``flat`` indexing the union successor CSR: lane
        ``b``'s slice of batch ``h`` is batch ``h`` of its own graph.
        """
        return self._cached("up_batches", lambda: level_batches(
            self._levels("heights", self.succ_indptr, self.pred_indptr,
                         self._pred_global),
            self.succ_indptr,
        ))

    def depths(self) -> np.ndarray:
        """(B * n,) each union node's depth below the sources (cached):
        :func:`~repro.model.levels.task_levels` of the node's lane."""
        return self._cached("depths", lambda: self._levels(
            "depths", self.pred_indptr, self.succ_indptr, self._succ_global
        ))

    def _levels(self, name: str, out_indptr, in_indptr, in_global) -> np.ndarray:
        """The union's :func:`~repro.model.compiled.peel_levels`: the
        shared structure's ``heights``/``depths`` tiled per lane, else a
        peel of the whole union (``in_global`` gives its global ids)."""
        if self._shared is not None:
            return np.tile(getattr(self._shared, name), self.n_lanes)
        return peel_levels(out_indptr, in_indptr, in_global())

    def down_batches(self) -> List[Tuple]:
        """Union nodes grouped by depth, over the predecessor CSR (cached).

        The layout of :meth:`CompiledGraph._down_batches`, over the
        union: ``flat`` indexes the union predecessor CSR.
        """
        return self._cached(
            "down_batches",
            lambda: level_batches(self.depths(), self.pred_indptr),
        )

    # ------------------------------------------------------------------
    # batched rank kernels (per-lane bit-identical to CompiledGraph's)
    # ------------------------------------------------------------------
    def _cached(self, key: str, builder):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = builder()
        return out

    def mean_costs(self) -> np.ndarray:
        """(B, n) per-lane Eq. (1) mean execution times."""
        return self._cached("mean", lambda: self.W.mean(axis=2))

    def std_costs(self, ddof: int = 1) -> np.ndarray:
        """(B, n) per-lane execution-time std over CPUs."""

        def build() -> np.ndarray:
            if self.n_procs <= ddof:
                return np.zeros((self.n_lanes, self.n_tasks))
            return self.W.std(axis=2, ddof=ddof)

        return self._cached(f"std{ddof}", build)

    def upward_rank(self, weights: np.ndarray) -> np.ndarray:
        """(B, n) upward rank from per-lane node weights ``(B, n)``."""
        return upward_kernel(
            self.up_batches(), self._succ_global(), self.succ_costs,
            weights.reshape(-1),
        ).reshape(self.n_lanes, self.n_tasks)

    def mean_upward_rank(self) -> np.ndarray:
        """HEFT's rank (cached): upward rank over mean costs."""
        return self._cached(
            "rank_mean", lambda: self.upward_rank(self.mean_costs())
        )

    def std_upward_rank(self) -> np.ndarray:
        """SDBATS's rank (cached): upward rank over std costs."""
        return self._cached(
            "rank_std", lambda: self.upward_rank(self.std_costs())
        )

    def oct_table(self) -> np.ndarray:
        """(B, n, p) PEFT Optimistic Cost Table per lane (cached)."""
        return self._cached("oct_table", lambda: oct_kernel(
            self.up_batches(), self._succ_global(), self.succ_costs,
            self.W.reshape(-1, self.n_procs),
        ).reshape(self.W.shape))

    def oct_rank(self) -> np.ndarray:
        """(B, n) PEFT priority: per-lane OCT row means (cached)."""
        return self._cached(
            "oct_rank", lambda: self.oct_table().mean(axis=2)
        )

    def pets_rank(self) -> np.ndarray:
        """(B, n) PETS priority ``round(ACC + DTC + DRC)`` (cached)."""
        return self._cached(
            "pets_rank",
            lambda: pets_priorities(
                self.succ_indptr,
                self.succ_costs,
                self.pred_indptr,
                self.pred_costs,
                self.mean_costs().reshape(-1),
            ).reshape(self.n_lanes, self.n_tasks),
        )

    def cp_min_bounds(self) -> np.ndarray:
        """(B,) Eq. 10 denominators, :meth:`CompiledGraph.cp_min_bound` per lane."""
        return self._cached("cp_min", lambda: cp_min_kernel(
            self.down_batches(), self._pred_global(),
            self.W.min(axis=2).reshape(-1), self.depths() == 0,
        ).reshape(self.n_lanes, self.n_tasks).max(axis=1))


# ----------------------------------------------------------------------
# batched per-CPU timelines (statics only; HDLTS append needs none)
# ----------------------------------------------------------------------
class _BatchTimelines:
    """SoA mirror of one :class:`ProcessorTimeline` per (lane, CPU).

    ``starts``/``ends`` are ``(B, p, S)`` slot arrays padded with
    ``+inf`` past ``counts``; slots are kept sorted by ``(start, end)``
    exactly like the scalar timeline's key list.  The insertion gap
    scan vectorizes ``earliest_start_fast``'s monotone-ends loop; the
    shapes where that proof does not hold (eps-scale durations, a lane
    knocked non-monotone by a boundary point slot) fall back to a
    faithful per-lane port of the scalar ``earliest_start``/``fits``.
    """

    def __init__(self, n_lanes: int, n_procs: int, capacity: int) -> None:
        capacity = max(4, capacity)
        self.n_lanes = n_lanes
        self.n_procs = n_procs
        # flat (lane * p + CPU, S) layout: one fancy index on axis 0
        # reaches a contiguous row, which is much cheaper than the 2-D
        # advanced indexing a (B, p, S) layout would force per step
        self.starts = np.full((n_lanes * n_procs, capacity), np.inf)
        # ends sit behind one leading 0.0 column: ``ends`` is the view
        # from column 1 and ``prev_ends`` the view from column 0, each
        # slot's gap predecessor end (0.0 before the first slot) -- the
        # scan's right-shifted ends with no second array to keep in sync
        self._ends = np.full((n_lanes * n_procs, capacity + 1), np.inf)
        self._ends[:, 0] = 0.0
        # ``starts + _EPS`` kept in sync by ``insert`` (touched rows
        # only), saving a full-slab pass per gap scan
        self.starts_eps = np.full((n_lanes * n_procs, capacity), np.inf)
        self._views()
        self.counts = np.zeros(n_lanes * n_procs, dtype=np.intp)
        self.max_end = np.zeros((n_lanes, n_procs))
        self.monotone = np.ones(n_lanes * n_procs, dtype=bool)
        # hot width: max slot count over all (lane, CPU) rows.  Every
        # column past it is an untouched +inf pad, so the vectorized
        # scans slice to ``hot + 1`` (one pad column -- the guaranteed
        # append-fallback slot) instead of sweeping the full capacity.
        self.hot = 0
        self._alloc_scratch()
        self._row_id = np.arange(n_lanes * n_procs)
        # per-row slot-list cache for the scalar fallback (a bad row is
        # re-queried every step but mutated only when an insert lands
        # on it); version counters invalidate on write
        self._version = np.zeros(n_lanes * n_procs, dtype=np.int64)
        self._fallback_cache: Dict[int, Tuple[int, list, list]] = {}

    def _views(self) -> None:
        self.ends = self._ends[:, 1:]
        self.prev_ends = self._ends[:, :-1]

    def _alloc_scratch(self) -> None:
        shape = self.starts.shape
        self._sf = np.empty(shape)
        self._sb1 = np.empty(shape, dtype=bool)
        self._sb2 = np.empty(shape, dtype=bool)

    def _ensure_capacity(self) -> None:
        capacity = self.starts.shape[1]
        needed = self.hot + 3
        if needed <= capacity:
            return
        # grow by an eighth (at least 8 columns), not by doubling: the
        # slabs of a fused static set span S*B lanes, and a doubled
        # capacity would hold up to twice the columns ``hot`` reaches.
        # Free the scratch and fill the grown slabs in place: no padded
        # copies, so the growth holds at most one old slab beside the new
        pad = max(needed - capacity, 8, capacity // 8)
        del self._sf, self._sb1, self._sb2, self.ends, self.prev_ends
        for name in ("starts", "_ends", "starts_eps"):
            old = getattr(self, name)
            grown = np.full((old.shape[0], old.shape[1] + pad), np.inf)
            grown[:, : old.shape[1]] = old
            setattr(self, name, grown)
            del old
        self._views()
        self._alloc_scratch()

    # ------------------------------------------------------------------
    def earliest_start(
        self, ready: np.ndarray, dur: np.ndarray, insertion: bool
    ) -> np.ndarray:
        """(B, p) earliest starts, bit-identical to the scalar engine."""
        if not insertion:
            return np.maximum(ready, self.max_end)
        # slice to the hot window: the fullest row's first pad column is
        # ``hot``, so every row keeps its append-fallback pad in view.
        # All arithmetic lands in preallocated scratch rows -- these
        # temporaries are large enough that fresh allocations would go
        # through mmap (and its page faults) on every step
        w = self.hot + 1
        n_rows = self.n_lanes * self.n_procs
        ends = self.ends[:, :w]
        ready_f = ready.reshape(n_rows, 1)
        dur_f = dur.reshape(n_rows, 1)
        fit = self._sf[:, :w]
        feasible = self._sb1[:, :w]
        open_ = self._sb2[:, :w]
        np.maximum(ready_f, self.prev_ends[:, :w], out=fit)  # gap starts
        fit += dur_f
        np.less_equal(fit, self.starts_eps[:, :w], out=feasible)
        np.greater(ends, ready_f, out=open_)
        feasible &= open_
        # the first pad slot (starts/ends = +inf past counts) is always
        # feasible with gap = max(ready, max_end): exactly the scalar
        # append-after-everything fallback, so argmax needs no miss case
        idx = feasible.argmax(axis=1)
        out = np.maximum(
            ready_f[:, 0], self.prev_ends[self._row_id, idx]
        ).reshape(self.n_lanes, self.n_procs)
        # an empty row answers ``max(ready, 0.0)`` on both paths (the
        # scalar's ``max(ready, avail)`` with ``avail`` still 0), so
        # only occupied rows can need the scalar port
        occupied = self.counts > 0
        point = dur_f[:, 0] == 0.0
        bad = (~self.monotone | ((dur_f[:, 0] <= _EPS) & ~point)) & occupied
        # a zero-cost query (normalized pseudo tasks) on a monotone row:
        # the scan's candidate is the scalar's answer unless the scalar
        # ``fits`` point test rejects it, i.e. it lies inside a slot
        check = np.flatnonzero(point & self.monotone & occupied)
        if check.size:
            at = out.reshape(-1)[check][:, None]
            inside = (self.starts[check, :w] < at) & (
                at < self.ends[check, :w] - _EPS
            )
            bad[check[inside.any(axis=1)]] = True
        bad = bad.reshape(self.n_lanes, self.n_procs)
        if bad.any():
            for b, q in zip(*np.nonzero(bad)):
                out[b, q] = self._scalar_earliest(
                    int(b) * self.n_procs + int(q),
                    float(ready[b, q]),
                    float(dur[b, q]),
                )
        return out

    def _scalar_earliest(
        self, row: int, ready: float, duration: float
    ) -> float:
        """Port of ``ProcessorTimeline.earliest_start`` (insertion)."""
        count = int(self.counts[row])
        avail = float(self.max_end.reshape(-1)[row])
        if not count:
            return max(ready, avail)
        version = int(self._version[row])
        cached = self._fallback_cache.get(row)
        if cached is not None and cached[0] == version:
            starts, ends = cached[1], cached[2]
        else:
            starts = self.starts[row, :count].tolist()
            ends = self.ends[row, :count].tolist()
            self._fallback_cache[row] = (version, starts, ends)

        def fits(lo_t: float, hi_t: float) -> bool:
            if lo_t < -_EPS:
                return False
            if hi_t - lo_t <= _EPS:
                return not any(
                    s < lo_t < e - _EPS for s, e in zip(starts, ends)
                )
            lo = bisect_right(starts, lo_t)
            hi = bisect_left(starts, hi_t - _EPS)
            if lo < hi:
                return False
            j = hi
            while j > 0:
                c_start, c_end = starts[j - 1], ends[j - 1]
                j -= 1
                if c_end - c_start <= _EPS:
                    continue
                return c_end <= lo_t + _EPS
            return True

        first = bisect_right(ends, ready)
        prev_end = ends[first - 1] if first > 0 else 0.0
        for idx in range(first, count):
            gap_start = max(ready, prev_end)
            if gap_start + duration <= starts[idx] + _EPS and fits(
                gap_start, gap_start + duration
            ):
                return gap_start
            prev_end = max(prev_end, ends[idx])
        fallback = max(ready, prev_end)
        if fits(fallback, fallback + duration):
            return fallback
        return max(ready, avail)

    # ------------------------------------------------------------------
    def insert(
        self,
        lanes: np.ndarray,
        procs: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Reserve ``[start, end)`` on each (lane, CPU) pair.

        Pairs must be distinct within one call.  Mirrors
        ``ProcessorTimeline.reserve``: sorted ``(start, end)`` insertion
        position, monotone-ends break detection, ``max_end`` update.
        """
        if not len(lanes):
            return
        self._ensure_capacity()
        rows = lanes * self.n_procs + procs
        cap = self.starts.shape[1]
        count = self.counts[rows]
        # bisect_right on the (start, end) key list: starts are sorted
        # and column ``hot`` is a +inf pad in every row, so the first
        # start >= ``start`` exists; slots with an equal start then
        # order by end
        w = self.hot + 1
        row_s = self.starts[rows, :w]
        pos = (row_s >= start[:, None]).argmax(axis=1)
        tie = row_s == start[:, None]
        if tie.any():
            pos += (tie & (self.ends[rows, :w] <= end[:, None])).sum(axis=1)
        # flat slab indices: slot c of row r is ``r * cap + c`` in the
        # start rows and ``r * (cap + 1) + 1 + c`` in the ends behind
        # their leading column
        at = rows * cap + pos
        at_e = at + rows + 1
        starts = self.starts.reshape(-1)
        starts_eps = self.starts_eps.reshape(-1)
        ends = self._ends.reshape(-1)
        # monotone break (old row values; the +inf pads make the right
        # test vacuous for appends, matching reserve's append fast path)
        prev_e = ends[at_e - 1]
        broke = ((pos > 0) & (prev_e > end)) | (end > ends[at_e])
        self.monotone[rows] &= ~broke
        # shift the slots at and after ``pos`` one column right (none
        # for an append), then write the new slot
        move = count - pos
        if move.any():
            src, _ = _ragged_indices(at, move)
            starts[src + 1] = starts[src]
            starts_eps[src + 1] = starts_eps[src]
            src += np.repeat(rows + 1, move)
            ends[src + 1] = ends[src]
        starts[at] = start
        starts_eps[at] = start + _EPS
        ends[at_e] = end
        self._version[rows] += 1
        self.counts[rows] = count + 1
        self.hot = max(self.hot, int(count.max()) + 1)
        self.max_end[lanes, procs] = np.maximum(
            self.max_end[lanes, procs], end
        )


# ----------------------------------------------------------------------
# shared ragged helpers
# ----------------------------------------------------------------------
def _gather_ready(
    indptr: np.ndarray,
    ids: np.ndarray,
    costs: np.ndarray,
    fin_of: np.ndarray,
    proc_of: np.ndarray,
    best_finish: np.ndarray,
    b_idx: np.ndarray,
    t_idx: np.ndarray,
    n_procs: int,
) -> np.ndarray:
    """(K, p) Definition-5 ready rows for (lane, task) pairs.

    ``indptr``/``ids``/``costs`` are a union CSR of the batch (row
    ``lane * n + task``, lane-local ids), ``n`` being ``fin_of``'s width.

    Per pair: ``max over parents of min(LF[parent], BF[parent] + comm)``
    floored at 0 -- bit-identical to ``StaticEFTEngine.ready_vector``
    (min/max reductions are order-free and the
    single ``BF + comm`` addition per parent edge is preserved).

    Parents here are single-copy tasks (never the duplicable entry), so
    ``LF[parent]`` is ``fin_of`` on ``proc_of`` and ``+inf`` elsewhere:
    the arrival row is ``via`` everywhere except the parent's own CPU,
    where ``min(fin, via) == fin`` exactly (``via = fin + comm >= fin``).
    """
    rows = b_idx * fin_of.shape[1] + t_idx
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.zeros((len(t_idx), n_procs))
    if not len(t_idx) or int(counts.sum()) == 0:
        return out
    flat, offsets = _ragged_indices(starts, counts)
    b_of = np.repeat(b_idx, counts)
    parents = ids[flat]
    via = best_finish[b_of, parents] + costs[flat]
    arrivals = np.repeat(via, n_procs).reshape(-1, n_procs)
    arrivals[np.arange(via.size), proc_of[b_of, parents]] = fin_of[
        b_of, parents
    ]
    nonzero = counts > 0
    seg = np.maximum.reduceat(arrivals, offsets[nonzero], axis=0)
    out[nonzero] = np.maximum(seg, 0.0)
    return out


def _select_min_score(scores: np.ndarray) -> np.ndarray:
    """(B,) CPU picks from ``(B, p)`` scores: strict 1e-12 improvement.

    A sequential loop over CPUs with vectorized lane updates -- the
    exact comparison sequence of ``place_min_eft``/``place_best``
    (which is *not* a plain argmin: an eps-scale improvement on a later
    CPU does not displace an earlier winner, so the low CPU wins).
    """
    best_score = np.full(len(scores), np.inf)
    best_proc = np.zeros(len(scores), dtype=np.intp)
    for q in range(scores.shape[1]):
        score = scores[:, q]
        better = score < best_score - 1e-12
        best_score = np.where(better, score, best_score)
        best_proc[better] = q
    return best_proc


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """Outcome of one batched scheduler run over a :class:`CompiledBatch`.

    ``makespans[lane]`` is bit-identical to the scalar compiled path's
    ``Schedule.makespan`` for the same instance.  ``counters`` holds
    the same per-scheduler observability totals the scalar runs would
    have produced (``NAME/eft_evaluations``, ``NAME/decisions``,
    ``NAME/runs``, HDLTS extras); keys follow the scalar key-existence
    semantics (duplication counters appear only when an event fired).
    :meth:`queues` reads every lane's per-CPU execution order straight
    off these arrays; :meth:`schedule_for` replays a lane's decisions
    into a full :class:`Schedule`, the differential suite's oracle.
    """

    scheduler: str
    batch: CompiledBatch
    makespans: np.ndarray
    counters: Dict[str, int]
    tasks: np.ndarray  # (B, steps) commit order
    procs: np.ndarray  # (B, steps)
    starts: np.ndarray  # (B, steps)
    dup_steps: Optional[np.ndarray] = None  # (B, steps) bool, HDLTS
    entry_proc: Optional[np.ndarray] = None  # (B,), SDBATS primary CPU
    entry_dup: Optional[np.ndarray] = None  # (B,) bool, SDBATS mirrors

    def queues(self) -> List[List[List[Tuple[int, bool]]]]:
        """Every lane's per-CPU ``(task, is_duplicate)`` execution order.

        The order :func:`~repro.schedule.simulator.schedule_queues`
        reads off :meth:`schedule_for`'s replay: a CPU's copies sorted
        by ``(start, end)``, equal keys in placement order.  Every copy
        of every lane sorts at once, with one lexsort on ``(lane, CPU,
        start, end, placement index)``; the placement index follows
        :meth:`schedule_for`: SDBATS's entry copies first, then per step
        an HDLTS entry duplicate before the step's task.
        """
        batch = self.batch
        n_lanes, p, entry = batch.n_lanes, batch.n_procs, batch.entry
        steps = self.tasks.shape[1]
        first = 0 if self.entry_proc is None else p + 1
        lane, step = np.divmod(np.arange(self.tasks.size), steps)
        # (lane, task, CPU, start, is_duplicate, placement index) per copy
        copies = [(
            lane, self.tasks.ravel(), self.procs.ravel(),
            self.starts.ravel(), False, first + 2 * step + 1,
        )]
        if self.dup_steps is not None:
            lane, step = np.nonzero(self.dup_steps)
            copies.append((
                lane, entry, self.procs[lane, step], 0.0, True,
                first + 2 * step,
            ))
        if self.entry_proc is not None:
            # the primary entry copy, then its mirrors in CPU order
            copies.append((np.arange(n_lanes), entry, self.entry_proc,
                           0.0, False, 0))
            if self.entry_dup is not None:
                lane, proc = np.nonzero(
                    self.entry_dup[:, None]
                    & (np.arange(p) != self.entry_proc[:, None])
                )
                copies.append((lane, entry, proc, 0.0, True, 1 + proc))
        lane, task, proc, start, dup, placed = (
            np.concatenate([np.broadcast_to(c[i], c[0].shape) for c in copies])
            for i in range(6)
        )
        end = start + batch.W[lane, task, proc]
        order = np.lexsort((placed, end, start, proc, lane))
        out: List[List[List[Tuple[int, bool]]]] = [
            [[] for _ in range(p)] for _ in range(n_lanes)
        ]
        for b, q, t, d in zip(
            lane[order].tolist(), proc[order].tolist(),
            task[order].tolist(), dup[order].tolist(),
        ):
            out[b][q].append((t, d))
        return out

    def schedule_for(self, lane: int) -> Schedule:
        """Replay lane ``lane`` into a :class:`Schedule` (exact floats)."""
        compiled = self.batch.instances[lane]
        graph = compiled.graph
        entry = self.batch.entry
        schedule = Schedule(graph)
        if self.entry_proc is not None:
            best = int(self.entry_proc[lane])
            schedule.place(entry, best, 0.0)
            if self.entry_dup is not None and bool(self.entry_dup[lane]):
                for proc in graph.procs():
                    if proc != best:
                        schedule.place(entry, proc, 0.0, duplicate=True)
        for k in range(self.tasks.shape[1]):
            proc = int(self.procs[lane, k])
            if self.dup_steps is not None and bool(self.dup_steps[lane, k]):
                schedule.place(entry, proc, 0.0, duplicate=True)
            schedule.place(
                int(self.tasks[lane, k]), proc, float(self.starts[lane, k])
            )
        return schedule


# ----------------------------------------------------------------------
# static-list baselines (HEFT / PEFT / PETS / SDBATS) in one lockstep loop
# ----------------------------------------------------------------------
def _static_orders(batch: CompiledBatch, cfg: _StaticConfig) -> np.ndarray:
    """(B, n) per-lane task orders, exactly the scalar derivations."""
    if cfg.rank == "oct":  # PEFT's dynamic heap order, simulated per lane
        return _peft_orders(batch, batch.oct_rank())
    # one lexsort over all lanes: with the lane index as the primary
    # (last) key, the stable within-lane order is exactly the per-lane
    # sort of the scalar scheduler
    n_lanes, n = batch.n_lanes, batch.n_tasks
    lane_key = np.repeat(np.arange(n_lanes), n)
    if cfg.rank == "pets":
        # PETS: level by level, rank descending, then smaller ACC; full
        # ties keep ascending task ids (lexsort is stable)
        keys = (
            batch.mean_costs().ravel(),
            np.negative(batch.pets_rank()).ravel(),
            batch.depths(),
            lane_key,
        )
    else:
        # HEFT/SDBATS: rank descending, ties in topological position
        ranks = (
            batch.mean_upward_rank()
            if cfg.rank == "mean"
            else batch.std_upward_rank()
        )
        keys = (
            batch.topo_position.ravel(),
            np.negative(ranks).ravel(),
            lane_key,
        )
    flat = np.lexsort(keys)
    return flat.reshape(n_lanes, n) - np.arange(n_lanes)[:, None] * n


def _release(
    batch: CompiledBatch,
    lanes: np.ndarray,
    task: np.ndarray,
    indeg: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Commit ``task[b]`` in every lane ``b`` of ``lanes`` (all of
    them): decrement its children's in-degrees in ``indeg`` and return
    the ``(lane, child)`` pairs whose last parent that was.  One task
    per lane has distinct children, so the scatter has no write
    conflicts."""
    row = lanes * batch.n_tasks + task
    s0 = batch.succ_indptr[row]
    cnt = batch.succ_indptr[row + 1] - s0
    if not int(cnt.sum()):
        return lanes[:0], lanes[:0]
    flat, _ = _ragged_indices(s0, cnt)
    b_of = np.repeat(lanes, cnt)
    child = batch.succ_ids[flat]
    newdeg = indeg[b_of, child] - 1
    indeg[b_of, child] = newdeg
    released = newdeg == 0
    return b_of[released], child[released]


def _peft_orders(batch: CompiledBatch, ranks: np.ndarray) -> np.ndarray:
    """PEFT's ready-heap consumption order, all lanes per step.

    The scalar heap pops the ``(-rank, task)`` minimum of the ready
    set: the maximum rank, ties to the lowest task id.  ``argmax`` over
    a row whose non-ready entries are ``-inf`` returns its *first*
    maximum -- the lowest-id maximum -- so one argmax per step across
    all lanes reproduces every lane's pop sequence exactly.
    """
    n = batch.n_tasks
    n_lanes = batch.n_lanes
    lanes = np.arange(n_lanes)
    indeg = np.diff(batch.pred_indptr).reshape(n_lanes, n)
    score = np.where(indeg == 0, ranks, -np.inf)
    orders = np.empty((n_lanes, n), dtype=np.intp)
    for k in range(n):
        task = score.argmax(axis=1)
        orders[:, k] = task
        score[lanes, task] = -np.inf
        rb, rc = _release(batch, lanes, task, indeg)
        if rb.size:
            score[rb, rc] = ranks[rb, rc]
    return orders


def _place_entries(
    batch: CompiledBatch,
    members: Sequence[Tuple[str, _StaticConfig]],
    timelines: _BatchTimelines,
    proc_rec: np.ndarray,
    start_rec: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Tuple]]:
    """Every member's entry copies: the pre-loop step of the static set.

    SDBATS pre-places its entry (primary copy on the cheapest CPU plus,
    with duplication, a mirror on every other CPU); every other member
    places it as its step 0, whose ready row is all zeros on empty
    timelines, so the start is ``0.0`` and the pick is the scalar
    engine's over ``0.0 + W(entry)`` (PEFT: plus the entry's OCT row).
    Returns the ``(S*B, p)`` entry local-finish rows, each virtual
    lane's best entry finish and makespan so far, and SDBATS's
    ``(entry_proc, entry_dup)`` per member name.
    """
    n_lanes, p, entry = batch.n_lanes, batch.n_procs, batch.entry
    lanes = np.arange(n_lanes)
    w_entry = batch.W[:, entry, :]  # (B, p)
    entry_fin = np.full((len(members) * n_lanes, p), np.inf)
    primary_fin = np.empty(len(members) * n_lanes)
    entry_extra: Dict[str, Tuple] = {}
    for s, (name, cfg) in enumerate(members):
        v = slice(s * n_lanes, (s + 1) * n_lanes)
        rows = entry_fin[v]
        if cfg.sdbats:
            proc = w_entry.argmin(axis=1)
            dup = np.zeros(n_lanes, dtype=bool)
            if cfg.duplicate_entry:
                dup = w_entry.max(axis=1) > 0
                rows[dup] = w_entry[dup]  # a mirror on every other CPU
            fin = w_entry[lanes, proc]
            entry_extra[name] = (proc, dup)
        else:
            est = np.zeros((n_lanes, p))
            eft = est + w_entry
            if cfg.peft:
                eft += batch.oct_table()[:, entry, :]
            proc = _select_min_score(eft)
            start = est[lanes, proc]
            fin = start + w_entry[lanes, proc]
            proc_rec[0, v] = proc
            start_rec[0, v] = start
        rows[lanes, proc] = fin
        primary_fin[v] = fin
    # every copy starts at 0.0 on its own (lane, CPU) row
    copy_v, copy_q = np.nonzero(np.isfinite(entry_fin))
    timelines.insert(
        copy_v, copy_q, np.zeros(copy_v.size), entry_fin[copy_v, copy_q]
    )
    # min is order-free: the best copy's finish; an SDBATS mirror never
    # raises the makespan, only the primary copy does
    makespan = np.maximum(np.zeros(len(primary_fin)), primary_fin)
    return entry_fin, entry_fin.min(axis=1), makespan, entry_extra


#: steps per up-front edge plan of the static loop: long enough to
#: amortize the plan's build, short enough that its edge arrays stay
#: small next to the timelines
_PLAN_STEPS = 16


def _edge_plan(
    batch: CompiledBatch,
    g_nodes: np.ndarray,
    slot_of: np.ndarray,
    entry_fin: np.ndarray,
    entry_best: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """The (step, virtual lane) -> predecessor-edge plan of a run of steps.

    ``g_nodes`` is ``(k, S*B)``: each step's task as a union CSR row.
    Static lists fix the whole plan up front, so it is built step-major
    in one pass: per step a contiguous slice of edges, one segment per
    virtual lane (every non-entry task has a parent, so none is empty).
    Returns ``(src, cost, bounds, offsets, ent_pos, ent_rows,
    ent_bounds)``: each edge's parent record slot and communication
    cost, the per-step plan bounds and reduceat offsets, and the entry
    edges' positions with their arrival rows, which are final once the
    entry's copies are placed: ``min(LF_entry, BF_entry + comm)`` per
    CPU (on a single copy that is ``via`` except ``fin`` on its CPU,
    exactly the one-copy row).  The entry heads every list, so its
    record slot is the virtual lane itself.
    """
    n_steps, n_virtual = g_nodes.shape
    n = batch.n_tasks
    starts = batch.pred_indptr[g_nodes].ravel()
    counts = batch.pred_indptr[g_nodes + 1].ravel() - starts
    seg = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=seg[1:])
    flat = np.repeat(starts - seg[:-1], counts) + np.arange(seg[-1])
    parent = batch.pred_ids[flat]
    lanes = np.repeat(np.tile(np.arange(n_virtual), n_steps), counts)
    src = slot_of.ravel()[lanes * n + parent]
    cost = batch.pred_costs[flat]
    bounds = seg[::n_virtual]
    offsets = seg[:-1].reshape(n_steps, n_virtual) - bounds[:-1, None]
    ent_pos = np.flatnonzero(parent == batch.entry)
    ent_v = src[ent_pos]
    ent_rows = np.minimum(
        entry_fin[ent_v], (entry_best[ent_v] + cost[ent_pos])[:, None]
    )
    ent_bounds = np.searchsorted(ent_pos, bounds)
    return src, cost, bounds, offsets, ent_pos, ent_rows, ent_bounds


def _run_static_set(
    batch: CompiledBatch, members: Sequence[Tuple[str, _StaticConfig]]
) -> Dict[str, BatchResult]:
    """Static members sharing one ``insertion`` mode, in one lockstep loop.

    Virtual lane ``s * B + b`` is member ``s`` on batch lane ``b``: the
    members' per-lane task orders are stacked, every per-step array is
    ``(S*B, ...)`` and reads ``W`` and the predecessor CSR through the
    lane map ``b``.  What differs per member is per-lane data, not a
    branch: the task order, PEFT's OCT term (added on PEFT's rows only)
    and the SDBATS entry mirrors, which live in the entry's local-finish
    rows every lane carries.
    """
    n_lanes, n, p = batch.n_lanes, batch.n_tasks, batch.n_procs
    entry = batch.entry
    n_virtual = len(members) * n_lanes
    vlanes = np.arange(n_virtual)
    lane_of = np.tile(np.arange(n_lanes), len(members))
    orders = np.concatenate(
        [_static_orders(batch, cfg) for _, cfg in members]
    )
    if not bool((orders[:, 0] == entry).all()):  # pragma: no cover
        raise AssertionError("entry task must head the static list")

    # start small and grow: the hot-window slices then stay nearly
    # dense in the slab (a capacity of n + 3 up front would make every
    # ``[:, :w]`` view ~4x strided, which triples the scan cost)
    timelines = _BatchTimelines(n_virtual, p, capacity=8)
    # step-major records: row k is every virtual lane's step k
    proc_rec = np.zeros((n, n_virtual), dtype=np.intp)
    start_rec = np.zeros((n, n_virtual))
    entry_fin, entry_best, makespan, entry_extra = _place_entries(
        batch, members, timelines, proc_rec, start_rec
    )

    # Steps 1..n-1 place one non-entry task per virtual lane.  Every
    # non-entry task is single-copy -- statics place it once -- so the
    # scalar engine's local-finish row collapses to the (CPU, finish)
    # pair recorded at its step, read at record slot ``step * S*B + v``.
    steps = n - 1
    # (steps, S*B) each step's task as a union CSR row = a row of W
    g_nodes = lane_of * n + orders.T[1:]
    w_rows = batch.W.reshape(-1, p)
    # slot_of[v, task]: where lane v's records hold the task's step
    slot_of = np.empty((n_virtual, n), dtype=np.intp)
    slot_of[vlanes[:, None], orders] = (
        np.arange(n) * n_virtual + vlanes[:, None]
    )
    peft_terms = [
        (
            slice(s * n_lanes, (s + 1) * n_lanes),
            batch.oct_table().reshape(-1, p)[
                g_nodes[:, s * n_lanes:(s + 1) * n_lanes]
            ],
        )
        for s, (_, cfg) in enumerate(members)
        if cfg.peft
    ]
    insertion = members[0][1].insertion
    fin_rec = np.zeros((n, n_virtual))
    fin_flat = fin_rec.reshape(-1)
    proc_flat = proc_rec.reshape(-1)

    for k in range(steps):
        j = k % _PLAN_STEPS
        if j == 0:
            src_all, cost_all, bounds, offsets, ent_pos, ent_rows, ent_at = (
                _edge_plan(
                    batch, g_nodes[k:k + _PLAN_STEPS], slot_of,
                    entry_fin, entry_best,
                )
            )
            cell = np.arange(int(np.diff(bounds).max(initial=0))) * p
        lo, hi = bounds[j], bounds[j + 1]
        src = src_all[lo:hi]
        fin_p = fin_flat[src]
        arrivals = np.repeat(fin_p + cost_all[lo:hi], p)
        arrivals[cell[: hi - lo] + proc_flat[src]] = fin_p
        arrivals = arrivals.reshape(-1, p)
        if ent_at[j + 1] > ent_at[j]:
            e = slice(ent_at[j], ent_at[j + 1])
            arrivals[ent_pos[e] - lo] = ent_rows[e]
        # max is order-free, and every arrival is >= 0: the scalar
        # ready vector's ``max(.., 0)`` floor never binds
        ready = np.maximum.reduceat(arrivals, offsets[j], axis=0)
        costs = w_rows[g_nodes[k]]
        est = timelines.earliest_start(ready, costs, insertion)
        eft = est + costs
        # PEFT ranks CPUs by EFT + OCT row, the others by EFT alone
        for rows, oct_sm in peft_terms:
            eft[rows] += oct_sm[k]
        proc = _select_min_score(eft)
        start = est[vlanes, proc]
        fin = start + costs[vlanes, proc]
        timelines.insert(vlanes, proc, start, fin)
        np.maximum(makespan, fin, out=makespan)
        proc_rec[k + 1] = proc
        start_rec[k + 1] = start
        fin_rec[k + 1] = fin

    results: Dict[str, BatchResult] = {}
    for s, (name, cfg) in enumerate(members):
        v = slice(s * n_lanes, (s + 1) * n_lanes)
        first = 1 if cfg.sdbats else 0
        placed = n - first
        entry_proc, entry_dup = entry_extra.get(name, (None, None))
        results[name] = BatchResult(
            scheduler=name,
            batch=batch,
            makespans=makespan[v].copy(),
            counters={
                f"{cfg.obs_name}/eft_evaluations": n_lanes * placed * p,
                f"{cfg.obs_name}/decisions": n_lanes * placed,
                f"{cfg.obs_name}/runs": n_lanes,
            },
            tasks=orders[v, first:].copy(),
            procs=proc_rec[first:, v].T.copy(),
            starts=start_rec[first:, v].T.copy(),
            entry_proc=entry_proc,
            entry_dup=entry_dup,
        )
    return results


# ----------------------------------------------------------------------
# HDLTS (append mode) with a batched ready-list step
# ----------------------------------------------------------------------
def _entry_arrival(
    lf: np.ndarray,
    arrive: np.ndarray,
    w_entry: np.ndarray,
    first_start: np.ndarray,
    duplicate: bool,
) -> np.ndarray:
    """When the entry's data reaches an entry child, per CPU.

    ``min(LF(entry), BF(entry) + comm)``: a local copy's finish, or the
    best copy's finish plus the edge's communication (``arrive``).
    With Algorithm 1 (``duplicate``), a CPU that holds no entry copy
    and whose first start leaves room for the entry's cost ``w_entry``
    would duplicate the entry there, so the data arrives at ``w_entry``
    when that is earlier.
    """
    via = np.minimum(lf, arrive)
    if not duplicate:
        return via
    ok = (first_start >= w_entry - _EPS) & np.isinf(lf)
    return np.where(ok & (w_entry < via), w_entry, via)


def _run_hdlts(batch: CompiledBatch, name: str, cfg: _DynamicConfig) -> BatchResult:
    n_lanes, n, p = batch.n_lanes, batch.n_tasks, batch.n_procs
    entry = batch.entry
    W = batch.W
    lanes = np.arange(n_lanes)
    entry_child = batch.entry_child  # (B, n)
    # task ids that are an entry child in some lane, and their (k, B)
    # rows of the task-major per-lane mask
    child_ids = np.flatnonzero(entry_child.any(axis=0))
    child_mask_t = entry_child.T[child_ids]
    rule = cfg.priority
    rank_u = (
        batch.mean_upward_rank()
        if rule is PriorityRule.UPWARD_RANK
        else None
    )
    pv_rule = rule is PriorityRule.PENALTY_VALUE and p > 1

    # non-entry tasks are single-copy: their local-finish rows collapse
    # to (CPU, finish) scalars.  Only the entry can gain duplicate
    # copies, so it alone keeps a dense (B, p) local-finish row.
    proc_of = np.zeros((n_lanes, n), dtype=np.intp)
    fin_of = np.full((n_lanes, n), np.inf)
    lf_entry = np.full((n_lanes, p), np.inf)
    best_finish = np.full((n_lanes, n), np.inf)
    # frontier state is task-major (n, B, ...): the per-step union
    # frontier slice ``ready_t[cols]`` is then a contiguous first-axis
    # gather instead of a strided middle-axis one
    ready_t = np.zeros((n, n_lanes, p))
    non_entry_t = np.zeros((n, n_lanes, p))
    W_t = np.ascontiguousarray(W.transpose(1, 0, 2))
    rank_u_t = (
        np.ascontiguousarray(rank_u.T) if rank_u is not None else None
    )
    avail = np.zeros((n_lanes, p))
    first_start = np.full((n_lanes, p), np.inf)
    mask_t = np.zeros((n, n_lanes), dtype=bool)
    indeg = np.diff(batch.pred_indptr).reshape(n_lanes, n)
    makespan = np.zeros(n_lanes)
    # the single entry is the only zero-in-degree task; its ready row is
    # all zeros (no parents), exactly the scalar refresh
    mask_t[entry, :] = True

    tasks_rec = np.empty((n_lanes, n), dtype=np.intp)
    procs_rec = np.empty((n_lanes, n), dtype=np.intp)
    starts_rec = np.empty((n_lanes, n))
    dup_rec = np.zeros((n_lanes, n), dtype=bool)

    c_eft = 0
    c_rows = 0
    c_cols = 0
    dup_yes = 0
    dup_no = 0

    for step in range(n):
        cols = np.flatnonzero(mask_t.any(axis=1))
        sub = mask_t[cols]  # (k, B)
        c_eft += int(sub.sum()) * p
        est = np.maximum(ready_t[cols], avail[None, :, :])
        eft = est + W_t[cols]  # (k, B, p)

        if pv_rule:
            # the scalar fast path's hand-expanded sample-std kernel,
            # one axis deeper: identical ufunc sequence per lane row
            mean = np.add.reduce(eft, axis=2, keepdims=True)
            mean /= p
            dev = eft - mean
            dev *= dev
            var = np.add.reduce(dev, axis=2)
            var /= p - 1
            priorities = np.sqrt(var)
        elif rule is PriorityRule.PENALTY_VALUE:
            priorities = np.zeros((len(cols), n_lanes))
        elif rule is PriorityRule.EFT_RANGE:
            priorities = eft.max(axis=2) - eft.min(axis=2)
        elif rule is PriorityRule.MEAN_EFT:
            priorities = eft.mean(axis=2)
        elif rule is PriorityRule.MIN_EFT_FIRST:
            priorities = -eft.min(axis=2)
        else:  # UPWARD_RANK
            priorities = rank_u_t[cols]

        # lanes see only their own frontier; -inf holes cannot win, so
        # argmax's first-max along the frontier axis is the lane's
        # lowest-id maximum (the scalar tie-break) and argmin picks the
        # lowest CPU
        masked = np.where(sub, priorities, -np.inf)  # (k, B)
        index = masked.argmax(axis=0)
        selected = cols[index]
        lane_eft = eft[index, lanes, :]
        proc = lane_eft.argmin(axis=1)

        if cfg.duplicate_entry:
            cand = (selected != entry) & entry_child[lanes, selected]
            if cand.any():
                cb = np.flatnonzero(cand)
                cp = proc[cb]
                w_entry = W[cb, entry, cp]
                comm = batch.entry_comm[cb, selected[cb]]
                via = np.minimum(
                    lf_entry[cb, cp],
                    best_finish[cb, entry] + comm,
                )
                window = first_start[cb, cp] >= w_entry - _EPS
                dup = (
                    window
                    & np.isinf(lf_entry[cb, cp])
                    & (w_entry < via)
                )
                dup_yes += int(dup.sum())
                dup_no += int((~dup).sum())
                db = cb[dup]
                if db.size:
                    dp = proc[db]
                    fin = W[db, entry, dp]
                    lf_entry[db, dp] = fin
                    best_finish[db, entry] = np.minimum(
                        best_finish[db, entry], fin
                    )
                    avail[db, dp] = np.maximum(avail[db, dp], fin)
                    first_start[db, dp] = 0.0
                    dup_rec[db, step] = True

        cost = W[lanes, selected, proc]
        r = ready_t[selected, lanes, proc]
        start = np.maximum(r, avail[lanes, proc])
        fin = start + cost
        avail[lanes, proc] = fin
        first_start[lanes, proc] = np.minimum(first_start[lanes, proc], start)
        if step == 0:
            # the single entry is every lane's whole first frontier; its
            # primary copy lands in the dense entry row
            lf_entry[lanes, proc] = fin
        else:
            # first (and only) commit of a single-copy task: direct
            # writes equal the scalar min-with-inf updates bit for bit
            proc_of[lanes, selected] = proc
            fin_of[lanes, selected] = fin
        best_finish[lanes, selected] = np.minimum(
            best_finish[lanes, selected], fin
        )
        makespan = np.maximum(makespan, fin)
        mask_t[selected, lanes] = False
        tasks_rec[:, step] = selected
        procs_rec[:, step] = proc
        starts_rec[:, step] = start

        # release children whose last parent just committed.  One
        # gather over the entry-stripped CSR builds every released row:
        # a task without an entry parent has the same row on both CSRs,
        # and an entry child's row waits for the entry's data as well
        rb, rc = _release(batch, lanes, selected, indeg)
        c_rows += rb.size
        if rb.size:
            mask_t[rc, rb] = True
            rows = _gather_ready(
                batch.ne_indptr,
                batch.ne_ids,
                batch.ne_costs,
                fin_of,
                proc_of,
                best_finish,
                rb,
                rc,
                p,
            )
            is_ec = entry_child[rb, rc]
            if is_ec.any():
                eb, ec = rb[is_ec], rc[is_ec]
                non_entry_t[ec, eb, :] = rows[is_ec]
                arrive = best_finish[eb, entry] + batch.entry_comm[eb, ec]
                via = _entry_arrival(
                    lf_entry[eb],
                    arrive[:, None],
                    W[eb, entry, :],
                    first_start[eb],
                    cfg.duplicate_entry,
                )
                rows[is_ec] = np.maximum(rows[is_ec], via)
            ready_t[rc, rb, :] = rows

        # the commit (and any duplicate) only touched the chosen CPU:
        # refresh the pending entry children's dirty column there
        # (scan only the entry-child rows; pair order is irrelevant
        # to the independent per-(lane, task) scatter updates)
        pj, pb = np.nonzero(mask_t[child_ids] & child_mask_t)
        pc = child_ids[pj]
        c_cols += pb.size
        if pb.size:
            pp = proc[pb]
            via = _entry_arrival(
                lf_entry[pb, pp],
                best_finish[pb, entry] + batch.entry_comm[pb, pc],
                W[pb, entry, pp],
                first_start[pb, pp],
                cfg.duplicate_entry,
            )
            ready_t[pc, pb, pp] = np.maximum(via, non_entry_t[pc, pb, pp])

    counters = {
        f"{cfg.obs_name}/eft_evaluations": c_eft,
        f"{cfg.obs_name}/decisions": n_lanes * n,
        f"{cfg.obs_name}/ready_rows_recomputed": c_rows,
        f"{cfg.obs_name}/entry_child_col_refreshes": c_cols,
        f"{cfg.obs_name}/runs": n_lanes,
    }
    # scalar key-existence semantics: duplication counters appear only
    # when at least one accept/reject event fired
    if dup_yes:
        counters[f"{cfg.obs_name}/duplication_accepted"] = dup_yes
    if dup_no:
        counters[f"{cfg.obs_name}/duplication_rejected"] = dup_no
    return BatchResult(
        scheduler=name,
        batch=batch,
        makespans=makespan,
        counters=counters,
        tasks=tasks_rec,
        procs=procs_rec,
        starts=starts_rec,
        dup_steps=dup_rec,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_static_set(
    batch: CompiledBatch, schedulers: Sequence[str]
) -> Dict[str, BatchResult]:
    """Run static-list registry schedulers over a packed batch, fused.

    The members run as one lockstep loop over ``S * B`` virtual lanes
    per set: members sharing an ``insertion`` mode form a set, split so
    that ``S * B`` stays within :func:`max_lanes`.  Returns one
    :class:`BatchResult` per member (duplicates collapse), each equal to
    :func:`run_batch` on that member alone: same makespans, counters and
    replayed schedules.  Raises ``KeyError`` for a name outside
    :data:`BATCHABLE_STATIC`.
    """
    members: List[Tuple[str, _StaticConfig]] = []
    for name in dict.fromkeys(schedulers):
        cfg = _CONFIGS.get(name)
        if not isinstance(cfg, _StaticConfig):
            raise KeyError(
                f"scheduler {name!r} is not a batchable static list; "
                f"batchable statics: {sorted(BATCHABLE_STATIC)}"
            )
        members.append((name, cfg))
    per_set = max(1, max_lanes(batch.n_tasks, batch.n_procs) // batch.n_lanes)
    results: Dict[str, BatchResult] = {}
    for insertion in (True, False):
        group = [m for m in members if m[1].insertion is insertion]
        for lo in range(0, len(group), per_set):
            results.update(_run_static_set(batch, group[lo:lo + per_set]))
    return {name: results[name] for name, _ in members}


def run_batch(batch: CompiledBatch, scheduler: str) -> BatchResult:
    """Run one batchable registry scheduler over a packed batch.

    A static list is the one-member case of :func:`run_static_set`.
    Raises ``KeyError`` for schedulers the kernel does not cover (check
    :data:`BATCHABLE` first); the caller owns eligibility gating
    (:func:`instance_batchable`) and counter emission.
    """
    cfg = _CONFIGS.get(scheduler)
    if cfg is None:
        raise KeyError(
            f"scheduler {scheduler!r} is not batchable; "
            f"batchable: {sorted(BATCHABLE)}"
        )
    if isinstance(cfg, _StaticConfig):
        return run_static_set(batch, [scheduler])[scheduler]
    return _run_hdlts(batch, scheduler, cfg)
