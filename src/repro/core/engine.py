"""Incremental vectorized EFT engine shared by HDLTS and the baselines.

Every list scheduler in this repository evaluates the same kernel at
each decision: *when can task ``t`` start on CPU ``p`` given the
schedule built so far?* (Definitions 5-7).  The reference
implementations answer it with Python loops over ``parents x copies x
CPUs``; this engine answers it from persistent per-task arrays that are
updated incrementally as assignments are committed:

* ``local_finish[t, p]`` -- earliest finish of a copy of ``t`` *on*
  CPU ``p`` (``inf`` when none), and ``best_finish[t]`` -- earliest
  finish of any copy.  The arrival of the edge ``t -> c`` on CPU ``p``
  (Definition 5) is then one vectorized expression::

      arrival(t, c) = minimum(local_finish[t], best_finish[t] + comm(t, c))

  which is exactly ``min over copies of finish + (0 | comm)`` because
  communication costs are non-negative.
* ``avail[p]`` -- Definition 3, mirrored from the timelines.
* a per-CPU memo of Algorithm 1's entry-duplication window test
  (``fits(0, W(entry, p))``), invalidated only when CPU ``p``'s
  timeline actually changes, so the hypothetical-duplicate arrival of
  the entry's output is evaluated once per (child, CPU) *invalidation*
  instead of once per scheduling step.

Copies are immutable once committed, so an arrival computed from these
arrays is bit-identical to the reference loops: ``min``/``max`` over
the same float64 values reassociate freely, and ``best_finish + comm``
equals ``min over copies of (finish + comm)`` exactly because IEEE
addition of a common non-negative term is monotone.

The engine is advisory: it never mutates the :class:`Schedule`.  Feed
it every committed :class:`~repro.schedule.schedule.Assignment` through
:meth:`notify` (construction ingests whatever is already placed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.model.compiled import compile_graph
from repro.schedule.schedule import Assignment, Schedule
from repro.schedule.timeline import _EPS, Slot

__all__ = ["EFTEngine", "StaticEFTEngine"]


class EFTEngine:
    """Incremental EFT evaluation state for one schedule under construction.

    Parameters
    ----------
    schedule:
        The schedule being built; existing assignments are ingested.
    entry:
        The graph's entry task, required for the Algorithm-1 aware
        queries (:meth:`entry_arrival_vector`, :meth:`entry_plan`).
    hypothetical_entry_dup:
        When True, entry arrivals account for a *hypothetical* entry
        duplicate wherever Algorithm 1 would still accept one (HDLTS
        pillar 1); when False they use committed copies only.
    """

    def __init__(
        self,
        schedule: Schedule,
        entry: Optional[int] = None,
        hypothetical_entry_dup: bool = False,
    ) -> None:
        self.schedule = schedule
        graph = schedule.graph
        self.graph = graph
        n, p = graph.n_tasks, graph.n_procs
        # share the compiled instance's read-only cost matrix and CSR
        # parent arrays instead of rebuilding them per engine
        compiled = compile_graph(graph)
        self._compiled = compiled
        self.w = compiled.w
        self.local_finish = np.full((n, p), np.inf)
        self.best_finish = np.full(n, np.inf)
        self.avail = np.zeros(p)
        self.entry = entry
        self.hypothetical_entry_dup = bool(hypothetical_entry_dup)
        # Algorithm-1 window memo: does a duplicate still fit over
        # [0, W(entry, p))?  Recomputed lazily per dirty CPU.
        self._dup_fits = np.zeros(p, dtype=bool)
        self._dup_dirty = np.ones(p, dtype=bool)
        # per-task (parent ids, edge costs, ids sans entry, costs sans
        # entry), resolved once per task
        self._parents: List[
            Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
        ] = [None] * n
        # entry -> child communication costs, pre-resolved for the
        # per-step dirty-column refresh
        self._entry_comm = (
            compiled.entry_comm_vector(entry)
            if entry is not None
            else np.zeros(n)
        )
        # ingest whatever is already committed (order-free: notify is
        # all min/max updates), without scanning the full task set
        for assignment in schedule.assignments():
            self.notify(assignment)
        for duplicate in schedule.duplicates():
            self.notify(duplicate)

    # ------------------------------------------------------------------
    # state maintenance
    # ------------------------------------------------------------------
    def notify(self, assignment: Assignment) -> None:
        """Fold a committed assignment into the incremental arrays."""
        task, proc, finish = assignment.task, assignment.proc, assignment.finish
        if finish < self.local_finish[task, proc]:
            self.local_finish[task, proc] = finish
        if finish < self.best_finish[task]:
            self.best_finish[task] = finish
        self.avail[proc] = self.schedule.timelines[proc].avail
        self._dup_dirty[proc] = True

    def _parent_arrays(
        self, task: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        cached = self._parents[task]
        if cached is None:
            cached = self._compiled.parent_arrays(task, self.entry)
            self._parents[task] = cached
        return cached

    # ------------------------------------------------------------------
    # Definition 5: data arrival / ready times
    # ------------------------------------------------------------------
    def arrival_vector(self, parent: int, child: int) -> np.ndarray:
        """Arrival of the edge ``parent -> child`` data on every CPU."""
        if not np.isfinite(self.best_finish[parent]):
            raise ValueError(f"parent {parent} of {child} is not scheduled")
        comm = self.graph.comm_cost(parent, child)
        return np.minimum(
            self.local_finish[parent], self.best_finish[parent] + comm
        )

    def ready_vector(self, task: int, exclude_entry: bool = False) -> np.ndarray:
        """Definition 5 on every CPU: when the task's inputs are present.

        ``exclude_entry=True`` drops the entry parent's contribution
        (HDLTS recombines it with the hypothetical-duplicate arrival).
        """
        all_ids, _, ids_ne, comms_ne = self._parent_arrays(task)
        parents = ids_ne if exclude_entry else all_ids
        if parents.size:
            best = self.best_finish[parents]
            if not np.all(np.isfinite(best)):
                missing = int(parents[np.argmax(~np.isfinite(best))])
                raise ValueError(
                    f"parent {missing} of {task} is not scheduled"
                )
        return self._ready_row(task, exclude_entry)

    def _ready_row(self, task: int, exclude_entry: bool) -> np.ndarray:
        """:meth:`ready_vector` without the scheduled-parents check.

        The HDLTS hot loop only asks about tasks the ITQ has released,
        whose parents are committed by construction.
        """
        ids, comms, ids_ne, comms_ne = self._parent_arrays(task)
        if exclude_entry:
            ids, comms = ids_ne, comms_ne
        if not ids.size:
            return np.zeros(self.graph.n_procs)
        arrivals = np.minimum(
            self.local_finish[ids], (self.best_finish[ids] + comms)[:, None]
        )
        return np.maximum(arrivals.max(axis=0), 0.0)

    # ------------------------------------------------------------------
    # Algorithm 1: hypothetical entry duplication
    # ------------------------------------------------------------------
    def _dup_window_free(self) -> np.ndarray:
        """Per-CPU: an entry duplicate at time 0 still fits (memoized)."""
        if self._dup_dirty.any():
            entry = self.entry
            for proc in np.flatnonzero(self._dup_dirty):
                self._dup_fits[proc] = self.schedule.timelines[proc].fits(
                    0.0, self.w[entry, proc]
                )
            self._dup_dirty[:] = False
        return self._dup_fits

    def entry_arrival_vector(self, child: int) -> np.ndarray:
        """Entry-output arrival on every CPU, hypothetical dup included."""
        assert self.entry is not None, "engine built without an entry task"
        via_network = self.arrival_vector(self.entry, child)
        if not self.hypothetical_entry_dup:
            return via_network
        w_entry = self.w[self.entry]
        dup_ok = self._dup_window_free() & np.isinf(
            self.local_finish[self.entry]
        )
        return np.where(
            dup_ok & (w_entry < via_network), w_entry, via_network
        )

    def entry_arrival_column(
        self, children: Sequence[int], proc: int
    ) -> np.ndarray:
        """Entry-output arrival on one CPU for a batch of children."""
        assert self.entry is not None
        entry = self.entry
        comms = self._entry_comm[np.asarray(children, dtype=np.intp)]
        via = np.minimum(
            self.local_finish[entry, proc], self.best_finish[entry] + comms
        )
        if not self.hypothetical_entry_dup:
            return via
        if not (
            self._dup_window_free()[proc]
            and np.isinf(self.local_finish[entry, proc])
        ):
            return via
        w_entry = self.w[entry, proc]
        return np.where(w_entry < via, w_entry, via)

    def entry_plan(self, child: int, proc: int) -> Tuple[bool, float]:
        """Algorithm 1 for one (child, CPU) pair: (duplicate?, arrival).

        Matches :func:`repro.core.duplication.entry_duplication_plan`
        decision-for-decision against the live schedule.
        """
        assert self.entry is not None
        entry = self.entry
        comm = self.graph.comm_cost(entry, child)
        via = min(
            float(self.local_finish[entry, proc]),
            float(self.best_finish[entry]) + comm,
        )
        if not self.hypothetical_entry_dup:
            return False, via
        if np.isfinite(self.local_finish[entry, proc]):
            return False, via  # a copy is already local
        if not self._dup_window_free()[proc]:
            return False, via
        dup_finish = float(self.w[entry, proc])
        if dup_finish < via:
            return True, dup_finish
        return False, via

    # ------------------------------------------------------------------
    # EST / EFT for the static-list baselines
    # ------------------------------------------------------------------
    def est_eft(
        self, task: int, insertion: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(EST, EFT) of ``task`` on every CPU against the live schedule."""
        ready = self.ready_vector(task)
        costs = self.w[task]
        timelines = self.schedule.timelines
        starts = np.array(
            [
                timelines[proc].earliest_start_fast(
                    float(ready[proc]), float(costs[proc]), insertion
                )
                for proc in range(len(timelines))
            ]
        )
        return starts, starts + costs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = int(np.isfinite(self.best_finish).sum())
        return f"EFTEngine(placed={placed}/{self.graph.n_tasks})"


_INF = float("inf")


class StaticEFTEngine:
    """Scalar EFT engine for the static-list baselines (compiled path).

    The static baselines (HEFT, PETS, PEFT, SDBATS, ...) issue exactly
    one query shape: ``est_eft(task)`` across *all* CPUs for a task
    whose parents are already committed, with small fan-in.  At that
    scale numpy's per-call dispatch overhead exceeds the arithmetic, so
    this engine walks the compiled graph's plain-Python list mirrors
    with float scalars instead.  Every value is bit-identical to
    :class:`EFTEngine`: the same IEEE-754 float64 operations run in the
    same order (``min``/``max`` reductions are order-free, and the
    single ``best_finish + comm`` addition per parent is preserved).

    Like :class:`EFTEngine` it is advisory -- feed committed
    assignments through :meth:`notify`; construction ingests whatever
    the schedule already holds (SDBATS pre-places entry duplicates).
    """

    def __init__(
        self, schedule: Schedule, compiled: Optional[object] = None
    ) -> None:
        self.schedule = schedule
        graph = schedule.graph
        self.graph = graph
        self.compiled = (
            compiled if compiled is not None else compile_graph(graph)
        )
        n = graph.n_tasks
        self._n_procs = graph.n_procs
        self._timelines = schedule.timelines
        # shared read-only mirrors -- never mutated by the engine
        self._w_rows = self.compiled.w_rows
        self._parents = self.compiled.pred_lists
        # per-task local-finish rows materialize on first commit (None
        # == no copy anywhere == a row of +inf)
        self.local_finish: List[Optional[List[float]]] = [None] * n
        self.best_finish: List[float] = [_INF] * n
        # ingest whatever is already committed (order-free: notify is
        # all min/max updates), without scanning the full task set
        for assignment in schedule.assignments():
            self.notify(assignment)
        for duplicate in schedule.duplicates():
            self.notify(duplicate)

    def notify(self, assignment: Assignment) -> None:
        """Fold a committed assignment into the incremental state."""
        task, proc, finish = assignment.task, assignment.proc, assignment.finish
        row = self.local_finish[task]
        if row is None:
            row = self.local_finish[task] = [_INF] * self._n_procs
        if finish < row[proc]:
            row[proc] = finish
        if finish < self.best_finish[task]:
            self.best_finish[task] = finish

    def ready_vector(self, task: int) -> List[float]:
        """Definition 5 on every CPU: when the task's inputs are present."""
        parents, comms = self._parents[task]
        n_procs = self._n_procs
        ready = [0.0] * n_procs
        if parents:
            best_finish = self.best_finish
            local_finish = self.local_finish
            for parent, comm in zip(parents, comms):
                via = best_finish[parent] + comm
                row = local_finish[parent]
                if row is None:
                    # no committed copy: arrival is ``via`` (= +inf)
                    # on every CPU
                    for q in range(n_procs):
                        if via > ready[q]:
                            ready[q] = via
                    continue
                for q in range(n_procs):
                    arrival = row[q]
                    if via < arrival:
                        arrival = via
                    if arrival > ready[q]:
                        ready[q] = arrival
            if ready[0] == _INF:
                # an unscheduled parent's +inf arrival floods every CPU
                missing = next(
                    p for p in parents if best_finish[p] == _INF
                )
                raise ValueError(
                    f"parent {missing} of {task} is not scheduled"
                )
        return ready

    def est_eft(
        self, task: int, insertion: bool = True
    ) -> Tuple[List[float], List[float]]:
        """(EST, EFT) of ``task`` on every CPU against the live schedule."""
        ready = self.ready_vector(task)
        costs = self._w_rows[task]
        starts: List[float] = []
        finishes: List[float] = []
        for q, timeline in enumerate(self._timelines):
            cost = costs[q]
            start = timeline.earliest_start_fast(ready[q], cost, insertion)
            starts.append(start)
            finishes.append(start + cost)
        return starts, finishes

    def place_best(
        self,
        task: int,
        insertion: bool = True,
        objective=None,
    ) -> Assignment:
        """Fused :func:`~repro.baselines.common.place_min_eft` hot path.

        One pass over the CPUs computes EST/EFT and runs the selection
        loop in place -- the same scalar operations, comparisons and
        1e-12 strict-improvement tie-break as the generic helper, one
        call frame instead of four.  Commits the winner and folds it
        back into the engine state.
        """
        ready = self.ready_vector(task)
        costs = self._w_rows[task]
        best_proc = -1
        best_score = _INF
        best_start = 0.0
        q = 0
        for timeline in self._timelines:
            cost = costs[q]
            r = ready[q]
            if r >= timeline._max_end and cost > _EPS and timeline._ends_monotone:
                # the task becomes ready at or after this CPU's last
                # finish: the gap scan's bisect lands past every end and
                # earliest_start_fast returns the ready time unchanged
                start = r
            else:
                start = timeline.earliest_start_fast(r, cost, insertion)
            finish = start + cost
            score = objective(q, finish) if objective is not None else finish
            if score < best_score - 1e-12:
                best_score = score
                best_proc = q
                best_start = start
            q += 1
        obs.scoped_count("eft_evaluations", self._n_procs)
        obs.scoped_count("decisions")
        # inline commit: statics only place fresh primary copies, so
        # this is Schedule.place minus the duplicate branch, with the
        # duration read from the mirror row (exactly float(W[t, p]))
        schedule = self.schedule
        if task in schedule._primary:
            raise ValueError(f"task {task} already has a primary assignment")
        duration = costs[best_proc]
        timeline = self._timelines[best_proc]
        end = best_start + duration
        if duration > _EPS and best_start >= timeline._max_end:
            # Timeline.reserve's append-at-end fast path, inlined (same
            # proof: no overlap possible, (start, end) sorts last, the
            # end list stays non-decreasing)
            timeline._slots.append(Slot(best_start, end, task, False))
            timeline._keys.append((best_start, end))
            timeline._starts.append(best_start)
            timeline._ends.append(end)
            timeline._max_end = end
            timeline._busy += duration
            timeline._gap_cache = None
        else:
            timeline.reserve(task, best_start, duration)
        assignment = Assignment(task, best_proc, best_start, end)
        schedule._primary[task] = assignment
        self.notify(assignment)
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(1 for f in self.best_finish if f < _INF)
        return f"StaticEFTEngine(placed={placed}/{self.graph.n_tasks})"
