"""Heterogeneous Dynamic List Task Scheduling (HDLTS) -- Algorithm 2.

The scheduler keeps the paper's three pillars separable so each can be
ablated:

* ``duplicate_entry`` -- pillar 1, effective entry-task duplication
  (Algorithm 1, :mod:`repro.core.duplication`);
* the dynamic ITQ -- pillar 2, only precedence-satisfied tasks are
  prioritized, and priorities are recomputed from live platform state at
  every step (:mod:`repro.core.itq`);
* ``priority`` -- pillar 3, the penalty value PV = sample standard
  deviation of the task's EFT vector over the CPUs (Eq. 8); alternative
  rules are provided for the ablation benchmarks.

Two interchangeable execution paths implement the identical algorithm:

* ``engine="fast"`` (the default) keeps its per-decision state on
  Python floats through the scalar EFT engine
  (:class:`~repro.core.engine.StaticEFTEngine`): each ITQ task's ready
  row is computed once, when the ITQ releases it, and afterwards only
  the committed CPU's column of the entry children's rows is refreshed
  (a commit there may close Algorithm 1's duplication window).  While
  ``|ITQ| x CPUs`` is below a measured crossover the EFT rows and the
  penalty values are Python floats too
  (:func:`~repro.model.attributes.penalty_value`); wider ready sets,
  insertion mode (a persistent EST matrix and a batch gap scan) and
  the ablation priority rules run the vectorized kernel over a
  persistent ready matrix.  The route is picked from the input size;
  there is no option;
* ``engine="reference"`` is the original loop-per-parent/CPU
  implementation, kept as the differential-testing oracle.

The two paths are enforced to be **bit-identical** (same assignments,
same trace, same counters) by the test suite.  Semantics are pinned to
the paper's Table I worked example -- see DESIGN.md; the full trace is
reproduced bit-exactly by the test suite.
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.base import Scheduler
from repro.core.duplication import entry_duplication_plan
from repro.core.engine import StaticEFTEngine
from repro.core.itq import IndependentTaskQueue
from repro.core.trace import TraceRecorder, TraceStep
from repro.model.attributes import penalty_value, penalty_values
from repro.model.task_graph import TaskGraph
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["HDLTS", "PriorityRule"]

#: |ITQ| x CPUs from which the PV selection leaves Python floats for the
#: vectorized kernel over the persistent ready matrix, below 8 CPUs.
#: From 8 CPUs on, the Python kernel replays numpy's pairwise blocks at
#: about twice the per-row cost, and the crossover halves.  Measured on
#: the figure instances and random DAGs of 100-1000 tasks on 2-32 CPUs
#: (best thresholds 48-128 cells below 8 CPUs and 16-48 from 8 on).
_PV_VECTOR_MIN_CELLS = 64


class PriorityRule(str, enum.Enum):
    """Task-selection rule applied to the ITQ each step."""

    #: the paper's penalty value: sample std (ddof=1) of the EFT vector
    PENALTY_VALUE = "pv"
    #: spread of the EFT vector (max - min): a cheaper heterogeneity proxy
    EFT_RANGE = "range"
    #: largest mean EFT first (schedule the globally slowest task early)
    MEAN_EFT = "mean_eft"
    #: smallest best-case EFT first (pure greedy; a weak strawman)
    MIN_EFT_FIRST = "min_eft"
    #: HEFT's mean-cost upward rank, applied to the dynamic ready list --
    #: isolates pillar 2 (the ITQ) from pillar 3 (the PV formula): this
    #: is "dynamic HEFT" with global downstream awareness
    UPWARD_RANK = "rank_u"


class HDLTS(Scheduler):
    """The paper's scheduler.

    Parameters
    ----------
    duplicate_entry:
        Enable Algorithm 1 (effective entry-task duplication).
    use_insertion:
        Search idle gaps for the EST instead of appending after
        ``Avail`` (the paper's trace uses append; insertion is an
        extension used by the ablation study).
    priority:
        Task-selection rule; defaults to the paper's penalty value.
    record_trace:
        Keep a per-step :class:`~repro.core.trace.TraceStep` record
        (costs memory on big graphs; required to print Table I).
    engine:
        ``"fast"`` (the scalar EFT engine, see above) or ``"reference"``
        (the original per-parent/CPU loops); ``None`` (the default)
        defers to the active :class:`~repro.runtime.context.RunContext`
        (``"fast"`` unless overridden).  Both produce bit-identical
        schedules; see docs/performance.md.
    """

    name = "HDLTS"

    def __init__(
        self,
        duplicate_entry: bool = True,
        use_insertion: bool = False,
        priority: PriorityRule = PriorityRule.PENALTY_VALUE,
        record_trace: bool = False,
        engine: Optional[str] = None,
    ) -> None:
        engine = resolve_engine(engine)
        self.duplicate_entry = duplicate_entry
        self.use_insertion = use_insertion
        self.priority = PriorityRule(priority)
        self.record_trace = record_trace
        self.engine = engine
        self.last_trace: Optional[List[TraceStep]] = None

    # ------------------------------------------------------------------
    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Run Algorithm 2 on ``graph`` (single-entry required)."""
        entry = graph.entry_task  # raises for multi-entry graphs
        if self.priority is PriorityRule.UPWARD_RANK:
            from repro.model.ranking import upward_rank

            self._rank_u = upward_rank(graph)

        # trace recording is just one subscriber of the decision events;
        # a JSONL sink or a test listens to the very same stream.
        bus = obs.get_bus()
        recorder: Optional[TraceRecorder] = None
        unsubscribe = None
        if self.record_trace:
            recorder = TraceRecorder(scheduler=self.name)
            unsubscribe = bus.subscribe(recorder, topics=(TraceRecorder.TOPIC,))
        try:
            if self.engine == "reference":
                schedule = self._build_reference(graph, entry, bus)
            else:
                schedule = self._build_fast(graph, entry, bus)
        finally:
            if unsubscribe is not None:
                unsubscribe()

        self.last_trace = recorder.steps if recorder is not None else None
        return schedule

    # ------------------------------------------------------------------
    # fast path: scalar EFT engine, size-selected PV route
    # ------------------------------------------------------------------
    def _build_fast(self, graph: TaskGraph, entry: int, bus) -> Schedule:
        n_tasks, n_procs = graph.n_tasks, graph.n_procs
        schedule = Schedule(graph)
        itq = IndependentTaskQueue(graph)
        engine = StaticEFTEngine(
            schedule, entry=entry, hypothetical_entry_dup=self.duplicate_entry
        )
        entry_plan = engine.entry_plan
        w = engine.compiled.w
        w_rows = engine.compiled.w_rows
        timelines = schedule.timelines
        insertion = self.use_insertion
        entry_children = set(graph.successors(entry))
        # only the paper's PV rule in append mode has a scalar route;
        # insertion's EST matrix and the ablation rules stay vectorized
        scalar_ok = (
            self.priority is PriorityRule.PENALTY_VALUE and not insertion
        )
        min_cells = _PV_VECTOR_MIN_CELLS
        if n_procs >= 8:
            min_cells //= 2
        # the per-step counters accumulate here and reach obs once, at
        # the end of the run (same totals, no per-step obs calls)
        n_eft = n_rows = n_cols = n_dup_yes = n_dup_no = 0

        # Definition 5 per CPU, including the hypothetical entry
        # duplicate of Algorithm 1, for every task in the ITQ; entry
        # children also keep their (immutable) non-entry component so a
        # dirty-column refresh only recombines the entry arrival
        rows: Dict[int, List[float]] = {}
        non_entry: Dict[int, List[float]] = {}
        avail = [0.0] * n_procs
        # the vectorized route's mirrors of ``rows`` and ``avail``,
        # written through only while ``live``.  Insertion mode adds a
        # persistent EST matrix: a row depends only on the task's ready
        # row and the timelines, so a commit on CPU ``p`` invalidates
        # exactly column ``p`` -- one batch gap scan per step.
        ready = np.zeros((n_tasks, n_procs))
        avail_arr = np.zeros(n_procs)
        est_mat = np.zeros((n_tasks, n_procs)) if insertion else None
        live = False

        # the ITQ frontier as a sorted id list (ascending id is the
        # reference tie-break order) and its entry-children subset
        ready_ids: List[int] = []
        pending_entry: List[int] = []
        rl_arr = None

        def refresh_row(task: int) -> None:
            if task in entry_children:
                base = non_entry[task] = engine.ready_vector(task, True)
                row = []
                for q in range(n_procs):
                    arrival = entry_plan(task, q)[1]
                    row.append(arrival if arrival > base[q] else base[q])
            else:
                row = engine.ready_vector(task)
            rows[task] = row
            if live:
                ready[task] = row
            if insertion:
                costs = w_rows[task]
                est_mat[task] = [
                    timelines[q].earliest_start_fast(
                        row[q], costs[q], insertion=True
                    )
                    for q in range(n_procs)
                ]

        for task in itq.ready_tasks():
            ready_ids.append(task)
            if task in entry_children:
                pending_entry.append(task)
            refresh_row(task)

        step = 0
        while ready_ids:
            step += 1
            cells = len(ready_ids) * n_procs
            vectorized = not scalar_ok or cells >= min_cells
            with obs.phase("eft_vector"):
                if vectorized:
                    if rl_arr is None:
                        rl_arr = np.fromiter(
                            ready_ids, dtype=np.intp, count=len(ready_ids)
                        )
                    if not live:
                        ready[rl_arr] = [rows[t] for t in ready_ids]
                        avail_arr[:] = avail
                        live = True
                    if insertion:
                        est = est_mat[rl_arr]
                    else:
                        est = np.maximum(ready[rl_arr], avail_arr[None, :])
                    # est is a fresh array either way (fancy indexing
                    # copies), so the add can run in place
                    eft = est
                    eft += w[rl_arr]
                else:
                    live = False
                    eft = [
                        [
                            (r if r > a else a) + c
                            for r, a, c in zip(rows[t], avail, w_rows[t])
                        ]
                        for t in ready_ids
                    ]
                n_eft += cells

            if vectorized:
                priorities = self._priorities(eft, ready_ids)
                index = int(priorities.argmax())  # first max -> lowest id
                eft_row = eft[index]
                proc = int(eft_row.argmin())  # first min -> lowest CPU
            else:
                priorities = [penalty_value(row) for row in eft]
                index = priorities.index(max(priorities))
                eft_row = eft[index]
                proc = eft_row.index(min(eft_row))
            task = ready_ids[index]

            duplicated_on: Tuple[int, ...] = ()
            if (
                self.duplicate_entry
                and task != entry
                and task in entry_children
            ):
                with obs.phase("duplication_check"):
                    duplicate, arrival = entry_plan(task, proc)
                    if duplicate:
                        engine.notify(
                            schedule.place(entry, proc, 0.0, duplicate=True)
                        )
                        duplicated_on = (proc,)
                if duplicate:
                    n_dup_yes += 1
                    if bus.active:
                        bus.emit(
                            "scheduler.duplication",
                            scheduler=self.name,
                            step=step,
                            child=task,
                            proc=proc,
                            arrival=arrival,
                        )
                else:
                    n_dup_no += 1

            # the committed start comes from live state; the ready row
            # already equals it (a materialized duplicate realizes
            # exactly the hypothetical arrival the row was built from)
            with obs.phase("commit"):
                timeline = timelines[proc]
                cost = w_rows[task][proc]
                r = rows[task][proc]
                if insertion:
                    start = timeline.earliest_start_fast(
                        r, cost, insertion=True
                    )
                else:
                    # append mode: earliest_start_fast reduces to
                    # max(ready, Avail) on the chosen CPU
                    avail_p = timeline._max_end
                    start = r if r > avail_p else avail_p
                # w_rows mirrors the graph's cost table bit-for-bit, so
                # the duration pass-through skips place()'s own lookup
                assignment = schedule.place(task, proc, start, cost)
                engine.notify(assignment)
                avail[proc] = timeline.avail
                if live:
                    avail_arr[proc] = avail[proc]

            if bus.active:
                bus.emit(
                    "scheduler.decision",
                    scheduler=self.name,
                    step=step,
                    ready_tasks=tuple(ready_ids),
                    priorities=tuple(float(v) for v in priorities),
                    selected=task,
                    eft=tuple(float(v) for v in eft_row),
                    chosen_proc=proc,
                    start=assignment.start,
                    finish=assignment.finish,
                    duplicated_on=duplicated_on,
                )

            with obs.phase("ready_update"):
                released = itq.complete(task)
                del ready_ids[index]
                del rows[task]
                if task in entry_children:
                    pending_entry.remove(task)
                for fresh in released:
                    bisect.insort(ready_ids, fresh)
                    if fresh in entry_children:
                        bisect.insort(pending_entry, fresh)
                    refresh_row(fresh)
                rl_arr = None

                # the commit (and any duplicate) only touched ``proc``;
                # the hypothetical-duplication window of pending entry
                # children may have changed there, so refresh that
                # dirty column (their non-entry component is immutable).
                if pending_entry:
                    column = []
                    for child in pending_entry:
                        arrival = entry_plan(child, proc)[1]
                        base = non_entry[child][proc]
                        value = arrival if arrival > base else base
                        rows[child][proc] = value
                        column.append(value)
                    if live:
                        ready[pending_entry, proc] = column
                if insertion and ready_ids:
                    # CPU ``proc``'s timeline changed (and the pending
                    # entry children's ready column with it): one batch
                    # gap scan re-derives the whole EST column
                    rl_arr = np.fromiter(
                        ready_ids, dtype=np.intp, count=len(ready_ids)
                    )
                    with obs.phase("insertion_scan"):
                        est_mat[rl_arr, proc] = timelines[
                            proc
                        ].earliest_start_batch(
                            ready[rl_arr, proc], w[rl_arr, proc],
                            insertion=True,
                        )
            n_rows += len(released)
            n_cols += len(pending_entry)

        name = self.name
        if insertion:
            obs.count(f"{name}/insertion_scans", n_eft)
        obs.count(f"{name}/eft_evaluations", n_eft)
        obs.count(f"{name}/decisions", step)
        obs.count(f"{name}/ready_rows_recomputed", n_rows)
        obs.count(f"{name}/entry_child_col_refreshes", n_cols)
        if n_dup_yes:
            obs.count(f"{name}/duplication_accepted", n_dup_yes)
        if n_dup_no:
            obs.count(f"{name}/duplication_rejected", n_dup_no)
        return schedule

    # ------------------------------------------------------------------
    # reference path: the original per-parent/CPU loops (the oracle)
    # ------------------------------------------------------------------
    def _build_reference(self, graph: TaskGraph, entry: int, bus) -> Schedule:
        n_procs = graph.n_procs
        schedule = Schedule(graph)
        itq = IndependentTaskQueue(graph)
        w = graph.cost_matrix()
        avail = np.zeros(n_procs)
        entry_children = set(graph.successors(entry))

        # cached per-task ready-time vectors (Definition 5 per CPU,
        # including the hypothetical entry duplicate of Algorithm 1)
        ready_rows: Dict[int, np.ndarray] = {}

        def compute_ready_row(task: int) -> np.ndarray:
            row = np.zeros(n_procs)
            for parent in graph.predecessors(task):
                if parent == entry:
                    for proc in range(n_procs):
                        arrival = entry_duplication_plan(
                            schedule, entry, task, proc, self.duplicate_entry
                        ).arrival
                        if arrival > row[proc]:
                            row[proc] = arrival
                else:
                    comm = graph.comm_cost(parent, task)
                    copies = schedule.copies(parent)
                    for proc in range(n_procs):
                        arrival = min(
                            c.finish + (0.0 if c.proc == proc else comm)
                            for c in copies
                        )
                        if arrival > row[proc]:
                            row[proc] = arrival
            return row

        for task in itq.ready_tasks():
            ready_rows[task] = compute_ready_row(task)

        step = 0
        while itq:
            step += 1
            ready_list = itq.ready_tasks()
            with obs.phase("eft_vector"):
                ready_mat = np.array([ready_rows[t] for t in ready_list])
                w_ready = w[ready_list]
                if self.use_insertion:
                    with obs.phase("insertion_scan"):
                        est = np.empty_like(ready_mat)
                        for i, task in enumerate(ready_list):
                            for proc in range(n_procs):
                                est[i, proc] = schedule.timelines[
                                    proc
                                ].earliest_start(
                                    ready_mat[i, proc],
                                    w_ready[i, proc],
                                    insertion=True,
                                )
                    obs.count(f"{self.name}/insertion_scans", est.size)
                else:
                    est = np.maximum(ready_mat, avail[None, :])
                eft = est + w_ready
                obs.count(f"{self.name}/eft_evaluations", eft.size)

            priorities = self._priorities(eft, ready_list)
            index = int(np.argmax(priorities))  # first max -> lowest task id
            task = ready_list[index]
            proc = int(np.argmin(eft[index]))  # first min -> lowest CPU

            duplicated_on: Tuple[int, ...] = ()
            if (
                self.duplicate_entry
                and task != entry
                and task in entry_children
            ):
                with obs.phase("duplication_check"):
                    plan = entry_duplication_plan(schedule, entry, task, proc)
                    if plan.duplicate:
                        schedule.place(entry, proc, 0.0, duplicate=True)
                        duplicated_on = (proc,)
                if plan.duplicate:
                    obs.count(f"{self.name}/duplication_accepted")
                    if bus.active:
                        bus.emit(
                            "scheduler.duplication",
                            scheduler=self.name,
                            step=step,
                            child=task,
                            proc=proc,
                            arrival=plan.arrival,
                        )
                else:
                    obs.count(f"{self.name}/duplication_rejected")

            # recompute the committed start from live state (the
            # materialized duplicate is now a real copy)
            with obs.phase("commit"):
                ready = schedule.ready_time(task, proc)
                start = schedule.timelines[proc].earliest_start(
                    ready, w[task, proc], insertion=self.use_insertion
                )
                assignment = schedule.place(task, proc, start)
                avail[proc] = schedule.timelines[proc].avail
            obs.count(f"{self.name}/decisions")

            if bus.active:
                bus.emit(
                    "scheduler.decision",
                    scheduler=self.name,
                    step=step,
                    ready_tasks=tuple(ready_list),
                    priorities=tuple(float(v) for v in priorities),
                    selected=task,
                    eft=tuple(float(v) for v in eft[index]),
                    chosen_proc=proc,
                    start=assignment.start,
                    finish=assignment.finish,
                    duplicated_on=duplicated_on,
                )

            with obs.phase("ready_update"):
                rows_recomputed = 0
                col_refreshes = 0
                for released in itq.complete(task):
                    ready_rows[released] = compute_ready_row(released)
                    rows_recomputed += 1
                ready_rows.pop(task, None)

                # the commit (and any duplicate) only touched ``proc``;
                # the hypothetical-duplication window of pending entry
                # children may have changed there, so refresh that column.
                for pending in itq:
                    if pending in entry_children:
                        arrival = entry_duplication_plan(
                            schedule, entry, pending, proc, self.duplicate_entry
                        ).arrival
                        ready_rows[pending][proc] = max(
                            arrival,
                            self._non_entry_ready(
                                schedule, pending, proc, entry
                            ),
                        )
                        col_refreshes += 1
            obs.count(f"{self.name}/ready_rows_recomputed", rows_recomputed)
            obs.count(
                f"{self.name}/entry_child_col_refreshes", col_refreshes
            )
        return schedule

    # ------------------------------------------------------------------
    def _non_entry_ready(
        self, schedule: Schedule, task: int, proc: int, entry: int
    ) -> float:
        """Ready contribution on ``proc`` from the non-entry parents."""
        graph = schedule.graph
        best = 0.0
        for parent in graph.predecessors(task):
            if parent == entry:
                continue
            arrival = schedule.arrival_time(parent, task, proc)
            if arrival > best:
                best = arrival
        return best

    def _priorities(self, eft: np.ndarray, ready_list=None) -> np.ndarray:
        """Apply the configured priority rule to the ITQ's EFT matrix."""
        if self.priority is PriorityRule.UPWARD_RANK:
            return self._rank_u[ready_list]
        if self.priority is PriorityRule.PENALTY_VALUE:
            return penalty_values(eft)
        if self.priority is PriorityRule.EFT_RANGE:
            return eft.max(axis=1) - eft.min(axis=1)
        if self.priority is PriorityRule.MEAN_EFT:
            return eft.mean(axis=1)
        if self.priority is PriorityRule.MIN_EFT_FIRST:
            return -eft.min(axis=1)
        raise AssertionError(f"unhandled priority rule {self.priority}")
