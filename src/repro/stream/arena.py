"""The job-stream arena: interleaved DAG instances on shared CPUs.

A :class:`StreamInstance` is a fully materialized workload -- jobs with
arrival times, normalized compiled instances, and (optionally) realized
duration matrices -- and :class:`JobStream` executes it under an online
policy.  The arena reads only the compiled form of each job (sizes,
entry, ``W``'s rows and the per-task parent and child lists); a job's
:class:`~repro.model.task_graph.TaskGraph` is derived only for I/O,
invariants and oracles.  Two policy families exist:

* ``"OnlineHDLTS"`` -- HDLTS's penalty-value loop run at execution
  time over many jobs: one merged ready set across all admitted jobs,
  shared CPU availability, per-job entry duplication, and fail-stop
  semantics.  This is the only online loop:
  :class:`~repro.dynamic.online.OnlineHDLTS` runs a workflow as the
  lone job of a stream arriving at time zero.  With exact durations
  that lone job dispatches exactly the slots of offline HDLTS's
  schedule (the differential tests pin this under both EFT engines).
* ``"Static/<Name>"`` -- each job's schedule depends on its own graph
  only, so every job's is computed in isolation before the event loop
  runs by a registry scheduler (placement and per-CPU order frozen;
  :func:`admission_queues` batches them through the multi-DAG kernel
  when the run context allows it), then the queues of all admitted jobs
  are replayed on the shared platform with the same global-time commit
  loop as
  :meth:`~repro.schedule.simulator.ScheduleSimulator.run_queues`.  A
  single job at time zero replays exactly like
  :func:`~repro.dynamic.online.replay_static`.

Admission is FIFO with a hold-back rule: whenever the best dispatch the
arena could make would start at or after the next pending arrival, that
job is admitted first and the decision is re-taken with its tasks in
the ready set.  A single-job stream therefore never observes the rule,
preserving the differential anchor, while under load later jobs join
the contest for every slot they could plausibly win.

Failures follow :mod:`repro.dynamic.failures`: a dispatch that would
run past a CPU's fail-stop instant is truncated and recorded as lost,
and the CPU goes dead.  The online policy re-dispatches the task
elsewhere.  A static policy replays its frozen queues only until that
first lost dispatch, then hands every admitted job's remaining tasks
to the online loop on the survivors, from the detection instant on
(:meth:`JobStream._hand_off`); this is the checkpoint-and-replan
recovery of :func:`~repro.dynamic.repair.repair_after_failure`.  If
the whole fleet dies, remaining jobs are marked lost rather than
raising -- the conservation invariant (every arrived job finishes or
is explicitly lost) holds either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro import obs
from repro.core.itq import IndependentTaskQueue
from repro.model.attributes import penalty_value, penalty_values
from repro.model.compiled import CompiledGraph, compile_graph
from repro.model.task_graph import TaskGraph
from repro.schedule.simulator import DeadlockError, schedule_queues

if TYPE_CHECKING:  # repro.dynamic.online imports this module
    from repro.dynamic.failures import FailStop
    from repro.dynamic.noise import DurationFn

__all__ = [
    "JobRecord",
    "JobResult",
    "JobStream",
    "Queues",
    "StreamInstance",
    "StreamJob",
    "StreamResult",
    "admission_queues",
    "normalize_policy",
    "run_stream",
]

_EPS = 1e-9

ONLINE_POLICY = "OnlineHDLTS"
STATIC_PREFIX = "Static/"

#: ready tasks x alive CPUs from which OnlineHDLTS prices the merged
#: ready set as one numpy EFT matrix instead of row by row on Python
#: floats; halved from 8 alive CPUs on, where ``penalty_value`` replays
#: numpy's pairwise blocks at about twice the per-row cost.  Measured on
#: the pricing step alone, 2-64 CPUs x 1-128 ready tasks: the matrix
#: pays from 96-128 cells below 8 CPUs and from 48-64 cells on 8-64.
_PV_VECTOR_MIN_CELLS = 128

#: one job's frozen static schedule as the arena replays it: per CPU,
#: the ``(task, is_duplicate)`` dispatches in start order
Queues = List[List[Tuple[int, bool]]]


def normalize_policy(name: str) -> str:
    """Canonical policy name; raises ``KeyError`` on junk."""
    if name in (ONLINE_POLICY, "online", "Online"):
        return ONLINE_POLICY
    if name.startswith(STATIC_PREFIX) and len(name) > len(STATIC_PREFIX):
        from repro.baselines.registry import SCHEDULER_FACTORIES

        inner = name[len(STATIC_PREFIX):]
        if inner not in SCHEDULER_FACTORIES:
            raise KeyError(
                f"unknown static scheduler {inner!r} in policy {name!r}"
            )
        return STATIC_PREFIX + inner
    raise KeyError(
        f"unknown stream policy {name!r}; use 'OnlineHDLTS' or 'Static/<Name>'"
    )


@dataclass(frozen=True)
class StreamJob:
    """One DAG instance of the workload, ready to execute.

    ``compiled`` is the normalized (single entry/exit) compiled instance;
    a :class:`TaskGraph` given in its place is compiled on construction.
    ``durations`` is the realized execution-time matrix ``(n_tasks,
    n_procs)`` or ``None`` for exact execution (realized == estimated
    ``W``); it is materialized up front so every policy replays the
    *same* world regardless of dispatch order.
    """

    index: int
    arrival: float
    compiled: CompiledGraph
    durations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "compiled", compile_graph(self.compiled))

    @property
    def graph(self) -> TaskGraph:
        """The job's task graph, derived from the compiled instance (for
        I/O, invariants and oracles; the arena never asks for it)."""
        return self.compiled.graph

    @property
    def exact(self) -> bool:
        return self.durations is None

    def duration_fn(self) -> DurationFn:
        """Realized execution time of ``(task, proc)``, read from nested
        lists (``W``'s or the realized matrix's)."""
        if self.durations is None:
            rows = self.compiled.w_rows
        else:
            rows = self.durations.tolist()

        def duration(task: int, proc: int) -> float:
            return rows[task][proc]

        return duration


@dataclass(frozen=True)
class StreamInstance:
    """A materialized workload: jobs sorted by arrival, shared platform."""

    jobs: Tuple[StreamJob, ...]
    n_procs: int
    busy_power: Tuple[float, ...] = ()
    idle_power: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a stream instance needs at least one job")
        for job in self.jobs:
            if job.compiled.n_procs != self.n_procs:
                raise ValueError(
                    f"job {job.index} has {job.compiled.n_procs} CPUs, "
                    f"platform has {self.n_procs}"
                )
        arrivals = [job.arrival for job in self.jobs]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("jobs must be sorted by arrival time")

    @property
    def exact(self) -> bool:
        return all(job.exact for job in self.jobs)


@dataclass(frozen=True)
class JobRecord:
    """One dispatch in the arena: :class:`OnlineRecord` plus a job id."""

    job: int
    task: int
    proc: int
    start: float
    finish: float
    duplicate: bool = False
    lost: bool = False


@dataclass
class JobResult:
    """Per-job outcome: when it arrived, started, and finished."""

    job: int
    arrival: float
    n_tasks: int
    finished: bool
    lost: bool
    finish: float = float("nan")
    first_start: float = float("nan")
    finish_times: Dict[int, float] = field(default_factory=dict)
    proc_of: Dict[int, int] = field(default_factory=dict)

    @property
    def sojourn(self) -> float:
        """Turnaround: completion minus arrival (waiting + service)."""
        return self.finish - self.arrival

    @property
    def makespan(self) -> float:
        """Execution span: completion minus first dispatch."""
        return self.finish - self.first_start

    @property
    def wait(self) -> float:
        """Admission-to-first-dispatch delay."""
        return self.first_start - self.arrival


@dataclass
class StreamResult:
    """Realized execution of a whole stream under one policy."""

    policy: str
    n_procs: int
    jobs: List[JobResult]
    records: List[JobRecord]
    horizon: float
    dead_procs: Tuple[int, ...] = ()
    n_lost_dispatches: int = 0
    exact: bool = True
    busy_power: Tuple[float, ...] = ()
    idle_power: Tuple[float, ...] = ()

    def finished_jobs(self) -> List[JobResult]:
        """Jobs that ran to completion, in arrival order."""
        return [j for j in self.jobs if j.finished]

    def lost_jobs(self) -> List[JobResult]:
        """Jobs explicitly marked lost (fleet died), in arrival order."""
        return [j for j in self.jobs if j.lost]

    def busy_times(self) -> np.ndarray:
        """Occupied time per CPU: the union of its realized intervals.

        Overlapping intervals (legal for noisy entry duplicates, whose
        admission window is estimate-driven) are merged, so busy time
        never exceeds the horizon and utilization stays <= 1.
        """
        busy = np.zeros(self.n_procs)
        per_proc: List[List[Tuple[float, float]]] = [
            [] for _ in range(self.n_procs)
        ]
        for rec in self.records:
            if rec.finish > rec.start:
                per_proc[rec.proc].append((rec.start, rec.finish))
        for proc, intervals in enumerate(per_proc):
            intervals.sort()
            total = 0.0
            lo = hi = None
            for s, e in intervals:
                if hi is None or s > hi:
                    if hi is not None:
                        total += hi - lo
                    lo, hi = s, e
                elif e > hi:
                    hi = e
            if hi is not None:
                total += hi - lo
            busy[proc] = total
        return busy

    def utilization(self) -> float:
        """Mean fraction of the horizon each CPU spent busy."""
        if self.horizon <= 0.0:
            return 0.0
        return float(np.mean(self.busy_times() / self.horizon))


# ----------------------------------------------------------------------
def _window_free(
    slots: Sequence[Tuple[float, float]], lo: float, hi: float
) -> bool:
    """Is ``[lo, hi)`` idle given the realized ``slots`` on a CPU?

    Mirrors ``ProcessorTimeline.fits`` semantics exactly (point slots
    block only strictly inside the window; a zero-duration window is
    blocked only strictly inside a real slot) so that at ``lo == 0`` the
    decision matches offline HDLTS's Algorithm 1 window test bit for
    bit.
    """
    if hi - lo <= _EPS:
        return not any(s < lo < e - _EPS for s, e in slots)
    for s, e in slots:
        if e - s <= _EPS:
            if lo < s < hi - _EPS:
                return False
        elif s > lo:
            if s < hi - _EPS:
                return False
        elif e > lo + _EPS:
            return False
    return True


class _AdmittedJob:
    """Mutable per-job execution state inside the arena.

    Everything the event loops touch per dispatch is a Python float or a
    list of them: ``w``, ``parents`` and ``children`` are the compiled
    instance's list mirrors of ``W``, of each task's ``(parent ids, edge
    costs)`` and of its child ids.
    Data-ready times are cached rather than re-derived per dispatch (see
    ``docs/streaming.md``, "Incremental ready times"):

    * online policy -- ``ready_base[task]`` is the part of a ready
      task's arrival row that is final once the task is ready (the max
      over its non-entry parents, which have exactly one copy each),
      and the entry-duplication window of each CPU is re-checked only
      against slots it has not seen yet, since a closed window stays
      closed;
    * static policies -- ``ready_at[task]`` is a queue head's ready
      time, dropped whenever one of the task's parents gains a copy.
      A task queued on several CPUs (a duplicated parent) has a ready
      time per CPU, so it is never cached.

    Every cached value is the same float64 expression the direct
    computation evaluates, combined only by ``min``/``max``, so cached
    and recomputed ready times are bit-identical.
    """

    __slots__ = (
        "job",
        "compiled",
        "n_procs",
        "w",
        "w_array",
        "parents",
        "children",
        "entry",
        "arrival",
        "duration_fn",
        "itq",
        "copies",
        "finish_times",
        "proc_of",
        "ready_base",
        "base_arrays",
        "window_open",
        "window_seen",
        "queues",
        "heads",
        "left",
        "ready_at",
        "shared",
    )

    def __init__(self, job: StreamJob) -> None:
        compiled = job.compiled
        self.job = job
        self.compiled = compiled
        self.n_procs = n_procs = compiled.n_procs
        self.w = compiled.w_rows
        self.w_array = compiled.w
        self.parents = compiled.pred_lists
        self.children = compiled.succ_lists
        self.entry = int(compiled.entry_ids[0])
        self.arrival = job.arrival
        self.duration_fn = job.duration_fn()
        self.itq: Optional[IndependentTaskQueue] = None
        self.copies: Dict[int, List[Tuple[int, float]]] = {}
        self.finish_times: Dict[int, float] = {}
        self.proc_of: Dict[int, int] = {}
        # online policy: task -> (base row, entry comm or None)
        self.ready_base: Dict[int, Tuple[List[float], Optional[float]]] = {}
        # ... and its base rows as numpy, made when a wide ready set
        # first prices the task
        self.base_arrays: Dict[int, np.ndarray] = {}
        self.window_open = [True] * n_procs
        self.window_seen = [0] * n_procs
        # static policy: per-CPU (task, is_duplicate) queues + cursors,
        # the number of queued dispatches left, cached head readiness
        # and the tasks queued on more than one CPU
        self.queues: Optional[Queues] = None
        self.heads: Optional[List[int]] = None
        self.left = 0
        self.ready_at: Dict[int, float] = {}
        self.shared: Set[int] = set()

    def arrival_of(self, parent: int, comm: float, proc: int) -> float:
        """Earliest availability on ``proc`` of ``parent``'s output over
        an edge of cost ``comm``."""
        copies = self.copies.get(parent)
        if not copies:
            return float("inf")
        return min(
            fin + (0.0 if cproc == proc else comm) for cproc, fin in copies
        )

    # -- online policy -------------------------------------------------
    def cache_ready_base(self, task: int) -> None:
        """Cache ``task``'s arrival row over its non-entry parents.

        Called once, when ``task`` enters the ready set: its parents are
        all dispatched then, and the online policy never copies a
        non-entry task, so the row never changes.  A parent with several
        copies (a static plan's duplicates, handed off after a failure)
        counts its earliest copy per CPU, as :meth:`arrival_of` does.
        The row is floored at the job's arrival; the entry parent's
        term, which moves as duplicates land and windows close, is kept
        apart.
        """
        n_procs = self.n_procs
        row = [self.arrival] * n_procs
        entry_comm: Optional[float] = None
        ids, comms = self.parents[task]
        for parent, comm in zip(ids, comms):
            if parent == self.entry:
                entry_comm = comm
                continue
            try:
                ((proc, fin),) = self.copies[parent]
            except ValueError:  # several copies: the earliest per CPU
                for p in range(n_procs):
                    term = self.arrival_of(parent, comm, p)
                    if term > row[p]:
                        row[p] = term
                continue
            remote = fin + comm
            for p in range(n_procs):
                term = fin if p == proc else remote
                if term > row[p]:
                    row[p] = term
        self.ready_base[task] = (row, entry_comm)

    def dup_window_open(
        self, proc: int, slots: Sequence[Tuple[float, float]]
    ) -> bool:
        """Is the entry-duplicate window on ``proc`` still idle?

        ``slots`` only grow and :func:`_window_free` is a conjunction
        over slots, so each slot is checked once and a closed window
        stays closed.
        """
        if self.window_open[proc] and self.window_seen[proc] < len(slots):
            self.window_open[proc] = _window_free(
                slots[self.window_seen[proc]:],
                self.arrival,
                self.arrival + self.w[self.entry][proc],
            )
            self.window_seen[proc] = len(slots)
        return self.window_open[proc]

    def entry_terms(
        self, slots: Sequence[Sequence[Tuple[float, float]]]
    ) -> Tuple[List[float], List[float]]:
        """The entry output's availability per CPU, split by channel.

        Returns ``(near, remote)``: ``near`` is the finish of a copy on
        the CPU itself, or of a duplicate that could still start at the
        job's arrival; ``remote`` is the earliest copy finish on any
        other CPU.  A child with entry comm ``c`` sees the entry output
        at ``min(near, remote + c)`` -- the same minimum
        :meth:`arrival_of` takes, because rounding ``fin + c`` is
        monotone in ``fin``.
        """
        inf = float("inf")
        n_procs = self.n_procs
        copies = self.copies[self.entry]
        near = [inf] * n_procs
        remote = [inf] * n_procs
        for proc in range(n_procs):
            for cproc, fin in copies:
                if cproc == proc:
                    near[proc] = min(near[proc], fin)
                else:
                    remote[proc] = min(remote[proc], fin)
            if near[proc] == inf and self.dup_window_open(proc, slots[proc]):
                near[proc] = self.arrival + self.w[self.entry][proc]
        return near, remote

    def ready_row(
        self, task: int, terms: Optional[Tuple[List[float], List[float]]]
    ) -> List[float]:
        """``task``'s data-ready time per CPU: its cached base row, maxed
        with the entry output's arrival when the entry is a parent
        (``terms`` is then this step's :meth:`entry_terms`)."""
        base, entry_comm = self.ready_base[task]
        if entry_comm is None:
            return base
        near, remote = terms
        row = []
        for b, n, r in zip(base, near, remote):
            r += entry_comm
            if n < r:
                r = n
            row.append(b if b > r else r)
        return row

    def ready_array(
        self, task: int, terms: Optional[Tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """:meth:`ready_row` on numpy rows (``terms`` as arrays)."""
        base = self.base_arrays.get(task)
        if base is None:
            base = self.base_arrays[task] = np.array(self.ready_base[task][0])
        entry_comm = self.ready_base[task][1]
        if entry_comm is None:
            return base
        near, remote = terms
        return np.maximum(base, np.minimum(near, remote + entry_comm))

    # -- static policies -----------------------------------------------
    def head_ready(self, task: int, proc: int) -> float:
        """When every input of ``task`` can be on ``proc``; fills
        ``ready_at[task]``, which callers consult first, unless the task
        is queued on several CPUs."""
        ready = self.arrival
        ids, comms = self.parents[task]
        for parent, comm in zip(ids, comms):
            t = self.arrival_of(parent, comm, proc)
            if t == float("inf"):
                ready = t
                break
            if t > ready:
                ready = t
        if task not in self.shared:
            self.ready_at[task] = ready
        return ready

    def add_copy(self, task: int, proc: int, finish: float) -> None:
        """Record a (primary or duplicate) copy of ``task`` and drop the
        cached head readiness of its children, which it may advance."""
        self.copies.setdefault(task, []).append((proc, finish))
        ready_at = self.ready_at
        for child in self.children[task]:
            ready_at.pop(child, None)


def admission_queues(
    instances: Sequence[Union[CompiledGraph, TaskGraph]], names: Sequence[str]
) -> Dict[str, List[Queues]]:
    """Every job's frozen per-CPU queues under each registry scheduler
    in ``names``, keyed by name.

    A static schedule depends on its job's instance alone, so all of
    them can be computed before any event loop runs.  When the active
    context allows it (``batch="auto"``, fast engine) the instances are
    grouped by :func:`~repro.core.batch.batch_key` -- structures may
    differ -- and each group is packed once: the names whose
    :func:`~repro.core.batch.lane_gates` entry the group reaches run on
    that one :class:`~repro.core.batch.CompiledBatch`, the static lists
    as one fused :func:`~repro.core.batch.run_static_set` call and each
    HDLTS variant through :func:`~repro.core.batch.run_batch`, and each
    lane's queues come straight from the result's arrays
    (:meth:`~repro.core.batch.BatchResult.queues`).  Narrower groups,
    instances the kernel does not cover and non-batchable schedulers
    run ``make_scheduler(name)`` on the instance's derived graph.  Both
    routes give the same queues and the same counter totals.
    """
    from repro.baselines.registry import make_scheduler
    from repro.core.batch import (
        BATCHABLE_STATIC,
        CompiledBatch,
        batch_groups,
        lane_gates,
        run_batch,
        run_static_set,
    )
    from repro.runtime.context import current_context

    names = list(dict.fromkeys(names))
    compiled = [compile_graph(instance) for instance in instances]
    queues: Dict[str, List[Optional[Queues]]] = {
        name: [None] * len(compiled) for name in names
    }
    ctx = current_context()
    gates = {}
    if ctx.batch == "auto" and ctx.engine == "fast":
        gates = lane_gates(names)
    groups = []
    if gates:
        groups = batch_groups(compiled, list(gates), min(gates.values()))
    bus = obs.get_bus()
    for sub in groups:
        batch = CompiledBatch([compiled[i] for i in sub])
        wide = [name for name in gates if batch.n_lanes >= gates[name]]
        with obs.span(
            "stream.batch", schedulers=wide, size=batch.n_lanes,
            key=batch.label,
        ):
            if bus.active:
                bus.emit(
                    "stream.batch", schedulers=wide,
                    size=batch.n_lanes, key=batch.label,
                )
            statics = [name for name in wide if name in BATCHABLE_STATIC]
            batched = run_static_set(batch, statics) if statics else {}
            for name in wide:
                if name not in batched:
                    batched[name] = run_batch(batch, name)
                # the counter totals the scalar runs would have recorded
                # (no-ops while profiling is off)
                for key, total in batched[name].counters.items():
                    obs.count(key, total)
                for idx, lane_queues in zip(sub, batched[name].queues()):
                    queues[name][idx] = lane_queues
    for name in names:
        for idx, instance in enumerate(compiled):
            if queues[name][idx] is None:
                schedule = make_scheduler(name).run(instance.graph).schedule
                queues[name][idx] = schedule_queues(schedule)
    return queues


class JobStream:
    """Event-driven arena executing a :class:`StreamInstance`."""

    def __init__(
        self,
        instance: StreamInstance,
        failures: Optional[Iterable[FailStop]] = None,
    ) -> None:
        self.instance = instance
        self.failures = tuple(failures) if failures else ()

    # ------------------------------------------------------------------
    def run(
        self, policy: str, queues: Optional[Sequence[Queues]] = None
    ) -> StreamResult:
        """Execute the stream under ``policy``; returns the realization.

        ``queues`` are the jobs' precomputed :func:`admission_queues`
        (one entry per job, in job order) for a ``Static/<Name>``
        policy; without them the static policy computes its own.
        """
        policy = normalize_policy(policy)
        instance = self.instance
        if queues is not None:
            if policy == ONLINE_POLICY:
                raise ValueError(
                    "precomputed queues only apply to Static/<Name> policies"
                )
            if len(queues) != len(instance.jobs):
                raise ValueError(
                    f"got queues for {len(queues)} jobs, the instance has "
                    f"{len(instance.jobs)}"
                )
        state = self._setup()
        try:
            with obs.span(
                "stream.run",
                policy=policy,
                jobs=len(instance.jobs),
                procs=instance.n_procs,
            ):
                if policy == ONLINE_POLICY:
                    return self._run_online(policy, state, [])
                return self._run_static(policy, queues, state)
        finally:
            self._flush_counts(state)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _setup(self):
        instance = self.instance
        state: Dict[str, object] = {
            "avail": [0.0] * instance.n_procs,
            "dead": set(),
            # jobs arriving before this instant never duplicate their
            # entry: a static replay's handoff moves it to the detection
            "handoff": float("-inf"),
            "slots": [[] for _ in range(instance.n_procs)],
            "records": [],
            "first_start": {},
            "n_lost": 0,
            "admitted": [],
            "next_ix": 0,
            "bus": obs.get_bus(),
            # the run's counters, summed here and published once by
            # _flush_counts (no per-event obs call on the quiet path)
            "n_dispatched": 0,
            "n_finished": 0,
        }
        return state

    @staticmethod
    def _flush_counts(state) -> None:
        """Publish the run's ``stream/*`` counters (events that never
        happened create no counter)."""
        for key, total in (
            ("stream/jobs", len(state["admitted"])),
            ("stream/dispatches", state["n_dispatched"]),
            ("stream/lost", state["n_lost"]),
            ("stream/job_finishes", state["n_finished"]),
        ):
            if total:
                obs.count(key, total)

    def _admit(self, state) -> _AdmittedJob:
        job = self.instance.jobs[state["next_ix"]]
        state["next_ix"] += 1
        admitted = _AdmittedJob(job)
        state["admitted"].append(admitted)
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.arrival",
                job=job.index,
                t=job.arrival,
                tasks=job.compiled.n_tasks,
            )
        return admitted

    def _record(self, state, rec: JobRecord) -> None:
        state["records"].append(rec)
        state["slots"][rec.proc].append((rec.start, rec.finish))
        first = state["first_start"]
        if rec.job not in first or rec.start < first[rec.job]:
            first[rec.job] = rec.start
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.dispatch",
                job=rec.job,
                task=rec.task,
                proc=rec.proc,
                start=rec.start,
                finish=rec.finish,
                duplicate=rec.duplicate,
                lost=rec.lost,
            )
        if rec.lost:
            state["n_lost"] += 1
        else:
            state["n_dispatched"] += 1

    def _finish_job(self, state, st: _AdmittedJob) -> None:
        finish = max(st.finish_times.values(), default=st.arrival)
        state["n_finished"] += 1
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.job_finish",
                job=st.job.index,
                arrival=st.arrival,
                finish=finish,
                sojourn=finish - st.arrival,
            )

    def _assemble(self, state, dead: set, policy: str) -> StreamResult:
        instance = self.instance
        records: List[JobRecord] = state["records"]
        first_start: Dict[int, float] = state["first_start"]
        by_index = {st.job.index: st for st in state["admitted"]}
        horizon = 0.0
        for job in instance.jobs:
            horizon = max(horizon, job.arrival)
        for rec in records:
            horizon = max(horizon, rec.finish)
        jobs: List[JobResult] = []
        for job in instance.jobs:
            st = by_index.get(job.index)
            n_tasks = job.compiled.n_tasks
            if st is not None and len(st.finish_times) == n_tasks:
                jobs.append(
                    JobResult(
                        job=job.index,
                        arrival=job.arrival,
                        n_tasks=n_tasks,
                        finished=True,
                        lost=False,
                        finish=max(st.finish_times.values()),
                        first_start=first_start.get(
                            job.index, float("nan")
                        ),
                        finish_times=st.finish_times,
                        proc_of=st.proc_of,
                    )
                )
            else:
                jobs.append(
                    JobResult(
                        job=job.index,
                        arrival=job.arrival,
                        n_tasks=n_tasks,
                        finished=False,
                        lost=True,
                        first_start=first_start.get(
                            job.index, float("nan")
                        ),
                        finish_times=(
                            dict(st.finish_times) if st is not None else {}
                        ),
                        proc_of=(
                            dict(st.proc_of) if st is not None else {}
                        ),
                    )
                )
        return StreamResult(
            policy=policy,
            n_procs=instance.n_procs,
            jobs=jobs,
            records=records,
            horizon=horizon,
            dead_procs=tuple(sorted(dead)),
            n_lost_dispatches=state["n_lost"],
            exact=instance.exact,
            busy_power=instance.busy_power,
            idle_power=instance.idle_power,
        )

    # ------------------------------------------------------------------
    # online policy: merged-ready-set penalty-value loop
    # ------------------------------------------------------------------
    def _run_online(
        self,
        policy: str,
        state: Dict[str, object],
        active: List[_AdmittedJob],
    ) -> StreamResult:
        """The online loop, from an empty platform (a fresh ``state``,
        no ``active`` jobs) or from a static replay's :meth:`_hand_off`."""
        from repro.dynamic.failures import failure_times

        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        fail_at = failure_times(self.failures or None, n_procs)
        avail: List[float] = state["avail"]
        dead: Set[int] = state["dead"]
        slots: List[List[Tuple[float, float]]] = state["slots"]
        alive = list(range(n_procs))
        inf = float("inf")

        def admit_online() -> None:
            st = self._admit(state)
            st.itq = IndependentTaskQueue(st.compiled)
            if st.arrival < state["handoff"]:
                st.window_open = [False] * n_procs
            for task in st.itq.ready_tasks():
                st.cache_ready_base(task)
            active.append(st)

        def pick_next() -> Tuple[_AdmittedJob, int]:
            """The merged ready set's task with the largest penalty value
            (Eq. 8) over the alive CPUs; the first strict maximum wins,
            as in ``np.argmax``.  Narrow sets are priced row by row on
            Python floats, wide ones as one EFT matrix (see
            ``_PV_VECTOR_MIN_CELLS``); both give the same floats."""
            n_ready = 0
            for st in active:
                n_ready += len(st.itq)
            width = len(alive)
            min_cells = _PV_VECTOR_MIN_CELLS
            if width >= 8:
                min_cells //= 2
            vectorized = n_ready * width >= min_cells
            if not vectorized:
                best = -1.0
                pick = None
                for st in active:
                    terms = None
                    w = st.w
                    for t in st.itq.ready_tasks():
                        base, entry_comm = st.ready_base[t]
                        cost = w[t]
                        if entry_comm is None:
                            eft = [
                                (base[p] if base[p] > avail[p] else avail[p])
                                + cost[p]
                                for p in alive
                            ]
                        else:
                            # ready_row and the EFT fused: entry
                            # children are most of a random DAG's
                            # early ready set
                            if terms is None:
                                terms = st.entry_terms(slots)
                            near, remote = terms
                            eft = []
                            for p in alive:
                                ready = remote[p] + entry_comm
                                if near[p] < ready:
                                    ready = near[p]
                                if base[p] > ready:
                                    ready = base[p]
                                if avail[p] > ready:
                                    ready = avail[p]
                                eft.append(ready + cost[p])
                        priority = penalty_value(eft)
                        if priority > best:
                            best = priority
                            pick = (st, t)
                return pick
            ready: List[Tuple[_AdmittedJob, int]] = []
            rows: List[np.ndarray] = []
            for st in active:
                terms = None
                for t in st.itq.ready_tasks():
                    if terms is None and st.ready_base[t][1] is not None:
                        near, remote = st.entry_terms(slots)
                        terms = (np.array(near), np.array(remote))
                    ready.append((st, t))
                    rows.append(st.ready_array(t, terms))
            eft = np.maximum(np.array(rows), np.array(avail))
            eft += np.array([st.w_array[t] for st, t in ready])
            if dead:
                eft = eft[:, alive]
            return ready[int(np.argmax(penalty_values(eft)))]

        def try_dispatch(
            st: _AdmittedJob, task: int, proc: int, ready: float
        ) -> Optional[float]:
            entry = st.entry
            base, entry_comm = st.ready_base[task]
            if entry_comm is not None and not any(
                c == proc for c, _ in st.copies[entry]
            ):
                via_network = st.arrival_of(entry, entry_comm, proc)
                dup_end = st.arrival + st.w[entry][proc]
                if dup_end < via_network and st.dup_window_open(
                    proc, slots[proc]
                ):
                    dup_start = st.arrival
                    dup_finish = dup_start + st.duration_fn(entry, proc)
                    tau = fail_at.get(proc, inf)
                    if dup_finish > tau:
                        dead.add(proc)
                        avail[proc] = max(avail[proc], tau)
                        self._record(
                            state,
                            JobRecord(
                                st.job.index, entry, proc,
                                dup_start, tau, True, True,
                            ),
                        )
                        return None
                    avail[proc] = max(avail[proc], dup_finish)
                    st.copies[entry].append((proc, dup_finish))
                    self._record(
                        state,
                        JobRecord(
                            st.job.index, entry, proc,
                            dup_start, dup_finish, True,
                        ),
                    )
                    ready = max(
                        base[proc], st.arrival_of(entry, entry_comm, proc)
                    )
            start = max(avail[proc], ready)
            duration = st.duration_fn(task, proc)
            finish = start + duration
            tau = fail_at.get(proc, inf)
            if finish > tau:
                dead.add(proc)
                avail[proc] = tau
                self._record(
                    state,
                    JobRecord(
                        st.job.index, task, proc,
                        start, max(start, tau), False, True,
                    ),
                )
                return None
            avail[proc] = finish
            st.copies.setdefault(task, []).append((proc, finish))
            st.finish_times[task] = finish
            st.proc_of[task] = proc
            self._record(
                state, JobRecord(st.job.index, task, proc, start, finish)
            )
            return finish

        while state["next_ix"] < n_jobs or active:
            if not active:
                admit_online()
                continue
            if len(alive) + len(dead) != n_procs:
                alive = [p for p in range(n_procs) if p not in dead]
            if not alive:
                break
            st, task = pick_next()

            floor = st.arrival
            cost = st.w[task]
            held = False
            while True:
                if len(dead) == n_procs:
                    break
                terms = (
                    None if st.ready_base[task][1] is None
                    else st.entry_terms(slots)
                )
                row = [
                    r if r > floor else floor
                    for r in st.ready_row(task, terms)
                ]
                proc = -1
                score = inf
                for p in range(n_procs):
                    if p in dead:
                        continue
                    s = (row[p] if row[p] > avail[p] else avail[p]) + cost[p]
                    if proc < 0 or s < score:
                        proc, score = p, s
                # hold-back admission: the next pending job arrives no
                # later than this dispatch would start -> let it compete
                if (
                    state["next_ix"] < n_jobs
                    and max(row[proc], avail[proc])
                    >= self.instance.jobs[state["next_ix"]].arrival
                ):
                    admit_online()
                    held = True
                    break
                finish = try_dispatch(st, task, proc, row[proc])
                if finish is not None:
                    break
                floor = max(floor, avail[proc])
            if len(dead) == n_procs:
                break
            if held:
                continue
            del st.ready_base[task]
            st.base_arrays.pop(task, None)
            for released in st.itq.complete(task):
                st.cache_ready_base(released)
            if not st.itq:
                active.remove(st)
                self._finish_job(state, st)
        return self._assemble(state, dead, policy)

    # ------------------------------------------------------------------
    # static policies: per-job frozen schedules, shared global-time replay
    # ------------------------------------------------------------------
    def _run_static(
        self,
        policy: str,
        job_queues: Optional[Sequence[Queues]],
        state: Dict[str, object],
    ) -> StreamResult:
        from repro.dynamic.failures import failure_times

        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        if job_queues is None:
            name = policy[len(STATIC_PREFIX):]
            job_queues = admission_queues(
                [job.compiled for job in instance.jobs], [name]
            )[name]
        avail: List[float] = state["avail"]
        fail_at = failure_times(self.failures or None, n_procs)
        taus = [fail_at.get(p, float("inf")) for p in range(n_procs)]
        # admitted jobs with queued dispatches left, in admission order
        active: List[_AdmittedJob] = []

        def admit_static() -> None:
            st = self._admit(state)
            st.queues = job_queues[state["next_ix"] - 1]
            st.heads = [0] * n_procs
            st.left = sum(len(q) for q in st.queues)
            seen: Set[int] = set()
            for queue in st.queues:
                for task, _ in queue:
                    if task in seen:
                        st.shared.add(task)
                    seen.add(task)
            active.append(st)

        while state["next_ix"] < n_jobs or active:
            if not active:
                admit_static()
                continue
            best = None
            best_start = float("inf")
            for st in active:
                queues, heads, ready_at = st.queues, st.heads, st.ready_at
                for proc in range(n_procs):
                    queue = queues[proc]
                    if heads[proc] >= len(queue):
                        continue
                    task = queue[heads[proc]][0]
                    ready = ready_at.get(task)
                    if ready is None:
                        ready = st.head_ready(task, proc)
                    start = avail[proc] if avail[proc] > ready else ready
                    if start < best_start:
                        best_start = start
                        best = (st, proc)
            if best is None:
                stuck = [
                    st.queues[p][st.heads[p]][0]
                    for st in active
                    for p in range(n_procs)
                    if st.heads[p] < len(st.queues[p])
                ]
                raise DeadlockError(
                    f"stream replay deadlock; blocked head tasks: {stuck}"
                )
            if (
                state["next_ix"] < n_jobs
                and best_start >= instance.jobs[state["next_ix"]].arrival
            ):
                admit_static()
                continue
            st, proc = best
            task, is_dup = st.queues[proc][st.heads[proc]]
            duration = st.duration_fn(task, proc)
            finish = best_start + duration
            if finish > taus[proc]:
                tau = taus[proc]
                self._record(
                    state,
                    JobRecord(
                        st.job.index, task, proc,
                        best_start, max(best_start, tau), is_dup, True,
                    ),
                )
                state["dead"].add(proc)
                return self._run_online(
                    policy, state, self._hand_off(state, active, tau)
                )
            avail[proc] = finish
            st.add_copy(task, proc, finish)
            if not is_dup:
                if task in st.finish_times:
                    raise ValueError(
                        f"job {st.job.index} task {task} has two "
                        "primary copies"
                    )
                st.finish_times[task] = finish
                st.proc_of[task] = proc
            self._record(
                state,
                JobRecord(
                    st.job.index, task, proc, best_start, finish, is_dup
                ),
            )
            st.heads[proc] += 1
            st.left -= 1
            if not st.left:
                active.remove(st)
                missing = [
                    t for t in range(st.compiled.n_tasks)
                    if t not in st.finish_times
                ]
                if missing:
                    raise ValueError(
                        f"job {st.job.index} tasks never executed: "
                        f"{missing[:10]}"
                    )
                self._finish_job(state, st)
        return self._assemble(state, state["dead"], policy)

    def _hand_off(
        self, state, active: List[_AdmittedJob], detection: float
    ) -> List[_AdmittedJob]:
        """A static replay's state as the online loop's, at the instant
        a fail-stop is detected.

        Every CPU is floored at ``detection`` and every admitted job
        resumes from the primaries it executed.  No job admitted or
        arrived by then duplicates its entry: the plan placed it, and
        that window lies in the past.  Returns the jobs with tasks left.
        """
        avail = state["avail"]
        for proc, t in enumerate(avail):
            if t < detection:
                avail[proc] = detection
        state["handoff"] = detection
        resumed: List[_AdmittedJob] = []
        for st in active:
            st.itq = IndependentTaskQueue.resumed(
                st.compiled, st.finish_times
            )
            st.window_open = [False] * len(avail)
            for task in st.itq.ready_tasks():
                st.cache_ready_base(task)
            if st.itq:
                resumed.append(st)
            else:  # only duplicates were left
                self._finish_job(state, st)
        return resumed


def run_stream(
    instance: StreamInstance,
    policy: str,
    failures: Optional[Iterable[FailStop]] = None,
    queues: Optional[Sequence[Queues]] = None,
) -> StreamResult:
    """Execute ``instance`` under ``policy``; convenience wrapper."""
    return JobStream(instance, failures).run(policy, queues)
