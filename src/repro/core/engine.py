"""Scalar EFT engine shared by HDLTS and the static-list baselines.

Every list scheduler in this repository evaluates the same kernel at
each decision: *when can task ``t`` start on CPU ``p`` given the
schedule built so far?* (Definitions 5-7).  The reference
implementations answer it with Python loops over ``parents x copies x
CPUs``; this engine answers it from per-task state updated
incrementally as assignments are committed:

* ``local_finish[t][p]`` -- earliest finish of a copy of ``t`` *on*
  CPU ``p`` (``inf`` when none), and ``best_finish[t]`` -- earliest
  finish of any copy.  The arrival of the edge ``t -> c`` on CPU ``p``
  (Definition 5) is then::

      arrival(t, c, p) = min(local_finish[t][p], best_finish[t] + comm(t, c))

  which is exactly ``min over copies of finish + (0 | comm)`` because
  communication costs are non-negative.
* a per-CPU memo of Algorithm 1's entry-duplication window test
  (``fits(0, W(entry, p))``), invalidated only when a commit lands on
  CPU ``p``, so HDLTS's hypothetical-duplicate arrival of the entry's
  output costs one timeline scan per invalidation, not per query.

Copies are immutable once committed, so an arrival computed from this
state is bit-identical to the reference loops: ``min``/``max`` over the
same float64 values reassociate freely, and ``best_finish + comm``
equals ``min over copies of (finish + comm)`` exactly because IEEE
addition of a common non-negative term is monotone.

The state lives in plain Python lists and floats: the queries have
small fan-in and a handful of CPUs, where numpy's per-call dispatch
costs more than the arithmetic.

The engine is advisory: apart from :meth:`StaticEFTEngine.place_best`
it never mutates the :class:`Schedule`.  Feed it every committed
:class:`~repro.schedule.schedule.Assignment` through ``notify``
(construction ingests whatever is already placed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.model.compiled import compile_graph
from repro.schedule.schedule import Assignment, Schedule
from repro.schedule.timeline import _EPS, Slot

__all__ = ["StaticEFTEngine"]


_INF = float("inf")


class StaticEFTEngine:
    """Scalar EFT engine over the compiled graph's Python-list mirrors.

    The static baselines (HEFT, PETS, PEFT, SDBATS, ...) ask
    ``est_eft(task)`` / :meth:`place_best` across *all* CPUs for a task
    whose parents are already committed.  HDLTS asks for whole ready
    rows (:meth:`ready_vector`) and, given ``entry``, for Algorithm 1's
    hypothetical-duplicate arrival of the entry's output
    (:meth:`entry_plan`).  Every value is bit-identical to the
    reference loops: the same IEEE-754 float64 operations run in the
    same order (``min``/``max`` reductions are order-free, and the
    single ``best_finish + comm`` addition per parent is preserved).

    Parameters
    ----------
    schedule:
        The schedule being built; existing assignments are ingested
        (SDBATS pre-places entry duplicates).
    compiled:
        The graph's compiled instance (looked up when omitted).
    entry:
        The graph's entry task, required by :meth:`entry_plan` and
        ``ready_vector(..., exclude_entry=True)``.
    hypothetical_entry_dup:
        When True, :meth:`entry_plan` accounts for an entry duplicate
        wherever Algorithm 1 would still accept one (HDLTS pillar 1);
        when False it uses committed copies only.
    """

    def __init__(
        self,
        schedule: Schedule,
        compiled: Optional[object] = None,
        entry: Optional[int] = None,
        hypothetical_entry_dup: bool = False,
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
        self.entry = entry
        self.hypothetical_entry_dup = bool(hypothetical_entry_dup)
        # Algorithm-1 window memo: does an entry duplicate still fit
        # over [0, W(entry, p))?  Recomputed lazily per dirty CPU.
        self._dup_fits = [False] * self._n_procs
        self._dup_dirty = [True] * self._n_procs
        # place_best calls not yet published (see flush_counts)
        self._placed = 0
        # entry -> child edge costs and the parent lists sans the entry
        # (resolved per task on first use)
        self._entry_comm: Dict[int, float] = {}
        self._parents_ne: Dict[int, Tuple[List[int], List[float]]] = {}
        if entry is not None:
            children, comms = self.compiled.succ_slice(entry)
            self._entry_comm = dict(zip(children.tolist(), comms.tolist()))
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
        self._dup_dirty[proc] = True

    def ready_vector(
        self, task: int, exclude_entry: bool = False
    ) -> List[float]:
        """Definition 5 on every CPU: when the task's inputs are present.

        ``exclude_entry=True`` drops the entry parent's contribution
        (HDLTS recombines it with :meth:`entry_plan`'s arrival).
        """
        if exclude_entry:
            parents, comms = self._parents_sans_entry(task)
        else:
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

    def _parents_sans_entry(self, task: int) -> Tuple[List[int], List[float]]:
        cached = self._parents_ne.get(task)
        if cached is None:
            entry = self.entry
            pairs = [pc for pc in zip(*self._parents[task]) if pc[0] != entry]
            cached = self._parents_ne[task] = (
                [parent for parent, _ in pairs],
                [comm for _, comm in pairs],
            )
        return cached

    # ------------------------------------------------------------------
    # Algorithm 1: hypothetical entry duplication
    # ------------------------------------------------------------------
    def entry_plan(self, child: int, proc: int) -> Tuple[bool, float]:
        """Algorithm 1 for one (child, CPU) pair: (duplicate?, arrival).

        Matches :func:`repro.core.duplication.entry_duplication_plan`
        decision-for-decision against the live schedule.
        """
        entry = self.entry
        assert entry is not None, "engine built without an entry task"
        via = self.best_finish[entry] + self._entry_comm[child]
        row = self.local_finish[entry]
        if row is not None and row[proc] < _INF:
            # a copy is already local
            local = row[proc]
            return False, (local if local < via else via)
        if not self.hypothetical_entry_dup:
            return False, via
        if self._dup_dirty[proc]:
            self._dup_fits[proc] = self._timelines[proc].fits(
                0.0, self._w_rows[entry][proc]
            )
            self._dup_dirty[proc] = False
        if self._dup_fits[proc]:
            dup_finish = self._w_rows[entry][proc]
            if dup_finish < via:
                return True, dup_finish
        return False, via

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
        self._placed += 1
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

    def flush_counts(self) -> None:
        """Publish :meth:`place_best`'s counters, summed since the last
        flush: one decision and one EFT evaluation per CPU per call,
        under the running scheduler's phase.  Builders call it once per
        run, also when the run raises, so the quiet path pays no
        per-placement ``obs`` call."""
        placed, self._placed = self._placed, 0
        if placed:
            obs.scoped_count("eft_evaluations", self._n_procs * placed)
            obs.scoped_count("decisions", placed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(1 for f in self.best_finish if f < _INF)
        return f"StaticEFTEngine(placed={placed}/{self.graph.n_tasks})"
