"""The job-stream arena: interleaved DAG instances on shared CPUs.

A :class:`StreamInstance` is a fully materialized workload -- jobs with
arrival times, normalized task graphs, and (optionally) realized
duration matrices -- and :class:`JobStream` executes it under an online
policy.  Two policy families exist:

* ``"OnlineHDLTS"`` -- the penalty-value loop of
  :class:`~repro.dynamic.online.OnlineHDLTS` generalized to many jobs:
  one merged ready set across all admitted jobs, shared CPU
  availability, per-job entry duplication, and the same fail-stop
  semantics.  With a single job arriving at time zero it reduces to the
  offline online scheduler *bit-identically* (the differential tests
  pin this).
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
the CPU goes dead, and the task is re-dispatched elsewhere.  If the
whole fleet dies, remaining jobs are marked lost rather than raising --
the conservation invariant (every arrived job finishes or is explicitly
lost) holds either way.  Static policies reject failures, exactly like
``replay_static``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.itq import IndependentTaskQueue
from repro.dynamic.failures import FailStop, failure_times
from repro.dynamic.noise import DurationFn
from repro.model.task_graph import TaskGraph
from repro.schedule.simulator import DeadlockError

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

    ``graph`` is already normalized (single entry/exit).  ``durations``
    is the realized execution-time matrix ``(n_tasks, n_procs)`` or
    ``None`` for exact execution (realized == estimated ``W``); it is
    materialized up front so every policy replays the *same* world
    regardless of dispatch order.
    """

    index: int
    arrival: float
    graph: TaskGraph
    durations: Optional[np.ndarray] = None

    @property
    def exact(self) -> bool:
        return self.durations is None

    def duration_fn(self) -> DurationFn:
        """Realized execution time of ``(task, proc)``."""
        if self.durations is None:
            return self.graph.cost
        matrix = self.durations

        def duration(task: int, proc: int) -> float:
            return float(matrix[task, proc])

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
            if job.graph.n_procs != self.n_procs:
                raise ValueError(
                    f"job {job.index} has {job.graph.n_procs} CPUs, "
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
    decision matches ``OnlineHDLTS``'s ``dup_fits`` bit for bit.
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

    Data-ready times are cached rather than re-derived per dispatch
    (see ``docs/streaming.md``, "Incremental ready times"):

    * online policy -- ``ready_base[task]`` is the part of a ready
      task's arrival row that is final once the task is ready (the max
      over its non-entry parents, which have exactly one copy each),
      and the entry-duplication window of each CPU is re-checked only
      against slots it has not seen yet, since a closed window stays
      closed;
    * static policies -- ``ready_at[(task, proc)]`` is a queue head's
      ready time, dropped whenever one of the task's parents gains a
      copy.

    Every cached value is the same float64 expression the direct
    computation evaluates, combined only by ``min``/``max``, so cached
    and recomputed ready times are bit-identical.
    """

    __slots__ = (
        "job",
        "graph",
        "w",
        "entry",
        "arrival",
        "duration_fn",
        "itq",
        "copies",
        "finish_times",
        "proc_of",
        "ready_base",
        "window_open",
        "window_seen",
        "queues",
        "heads",
        "left",
        "ready_at",
    )

    def __init__(self, job: StreamJob) -> None:
        self.job = job
        self.graph = job.graph
        self.w = job.graph.cost_matrix()
        self.entry = job.graph.entry_task
        self.arrival = job.arrival
        self.duration_fn = job.duration_fn()
        self.itq: Optional[IndependentTaskQueue] = None
        self.copies: Dict[int, List[Tuple[int, float]]] = {}
        self.finish_times: Dict[int, float] = {}
        self.proc_of: Dict[int, int] = {}
        # online policy: task -> (base row, entry comm or None)
        self.ready_base: Dict[int, Tuple[np.ndarray, Optional[float]]] = {}
        n_procs = job.graph.n_procs
        self.window_open = [True] * n_procs
        self.window_seen = [0] * n_procs
        # static policy: per-CPU (task, is_duplicate) queues + cursors,
        # the number of queued dispatches left, and cached head readiness
        self.queues: Optional[List[List[Tuple[int, bool]]]] = None
        self.heads: Optional[List[int]] = None
        self.left = 0
        self.ready_at: Dict[Tuple[int, int], float] = {}

    def arrival_of(self, parent: int, child: int, proc: int) -> float:
        """Earliest availability of ``parent``'s output on ``proc``."""
        copies = self.copies.get(parent)
        if not copies:
            return float("inf")
        comm = self.graph.comm_cost(parent, child)
        return min(
            fin + (0.0 if cproc == proc else comm) for cproc, fin in copies
        )

    # -- online policy -------------------------------------------------
    def cache_ready_base(self, task: int) -> None:
        """Cache ``task``'s arrival row over its non-entry parents.

        Called once, when ``task`` enters the ready set: its parents are
        all dispatched then, and a non-entry task has exactly one copy
        under the online policy, so the row never changes.  The row is
        floored at the job's arrival; the entry parent's term, which
        moves as duplicates land and windows close, is kept apart.
        """
        graph = self.graph
        row = np.full(graph.n_procs, self.arrival)
        entry_comm: Optional[float] = None
        for parent in graph.predecessors(task):
            comm = graph.comm_cost(parent, task)
            if parent == self.entry:
                entry_comm = comm
                continue
            ((proc, fin),) = self.copies[parent]
            term = np.full(graph.n_procs, fin + comm)
            term[proc] = fin
            np.maximum(row, term, out=row)
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
                self.arrival + self.w[self.entry, proc],
            )
            self.window_seen[proc] = len(slots)
        return self.window_open[proc]

    def entry_terms(
        self, slots: Sequence[Sequence[Tuple[float, float]]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The entry output's availability per CPU, split by channel.

        Returns ``(near, remote)``: ``near`` is the finish of a copy on
        the CPU itself, or of a duplicate that could still start at the
        job's arrival; ``remote`` is the earliest copy finish on any
        other CPU.  A child with entry comm ``c`` sees the entry output
        at ``min(near, remote + c)`` -- the same minimum
        :meth:`arrival_of` takes, because rounding ``fin + c`` is
        monotone in ``fin``.
        """
        n_procs = self.graph.n_procs
        copies = self.copies[self.entry]
        near = [np.inf] * n_procs
        remote = [np.inf] * n_procs
        for proc in range(n_procs):
            for cproc, fin in copies:
                if cproc == proc:
                    near[proc] = min(near[proc], fin)
                else:
                    remote[proc] = min(remote[proc], fin)
            if near[proc] == np.inf and self.dup_window_open(
                proc, slots[proc]
            ):
                near[proc] = self.arrival + self.w[self.entry, proc]
        return np.array(near), np.array(remote)

    # -- static policies -----------------------------------------------
    def head_ready(self, task: int, proc: int) -> float:
        """When every input of ``task`` can be on ``proc``; fills
        ``ready_at[(task, proc)]``, which callers consult first."""
        ready = self.arrival
        for parent in self.graph.predecessors(task):
            t = self.arrival_of(parent, task, proc)
            if t == float("inf"):
                ready = t
                break
            if t > ready:
                ready = t
        self.ready_at[(task, proc)] = ready
        return ready

    def add_copy(self, task: int, proc: int, finish: float) -> None:
        """Record a (primary or duplicate) copy of ``task`` and drop the
        cached head readiness of its children, which it may advance."""
        self.copies.setdefault(task, []).append((proc, finish))
        for child in self.graph.successors(task):
            for p in range(self.graph.n_procs):
                self.ready_at.pop((child, p), None)


def _queues_of(schedule) -> Queues:
    """A schedule's per-CPU dispatch order, as the arena replays it."""
    return [
        [
            (s.task, s.duplicate)
            for s in sorted(timeline.slots(), key=lambda s: (s.start, s.end))
        ]
        for timeline in schedule.timelines
    ]


def admission_queues(graphs: Sequence[TaskGraph], name: str) -> List[Queues]:
    """Every job's frozen per-CPU queues under registry scheduler ``name``.

    A static schedule depends on its job's graph alone, so all of them
    can be computed before any event loop runs.  When the active context
    allows it (``batch="auto"``, fast engine) the graphs are grouped by
    :func:`~repro.core.batch.batch_key` -- structures may differ -- and
    each group of at least :func:`~repro.core.batch.min_lanes` lanes runs
    as one :func:`~repro.core.batch.run_batch` call, replaying each lane
    with :meth:`~repro.core.batch.BatchResult.schedule_for`.  Narrower
    groups, graphs the kernel does not cover and non-batchable
    schedulers run ``make_scheduler(name).run(graph)``.  Both routes
    give the same queues and the same counter totals.
    """
    from repro.baselines.registry import make_scheduler
    from repro.core.batch import (
        BATCHABLE,
        CompiledBatch,
        batch_groups,
        min_lanes,
        run_batch,
    )
    from repro.model.compiled import compile_graph
    from repro.runtime.context import current_context

    queues: List[Optional[Queues]] = [None] * len(graphs)
    ctx = current_context()
    if ctx.batch == "auto" and ctx.engine == "fast" and name in BATCHABLE:
        compiled = [compile_graph(graph) for graph in graphs]
        bus = obs.get_bus()
        for sub in batch_groups(compiled, [name], min_lanes(name)):
            batch = CompiledBatch([compiled[i] for i in sub])
            with obs.span(
                "stream.batch", scheduler=name, size=batch.n_lanes,
                key=batch.label,
            ):
                if bus.active:
                    bus.emit(
                        "stream.batch", scheduler=name,
                        size=batch.n_lanes, key=batch.label,
                    )
                batched = run_batch(batch, name)
                # the counter totals the scalar runs would have recorded
                # (no-ops while profiling is off)
                for key, total in batched.counters.items():
                    obs.count(key, total)
                for lane, idx in enumerate(sub):
                    queues[idx] = _queues_of(batched.schedule_for(lane))
    for idx, graph in enumerate(graphs):
        if queues[idx] is None:
            queues[idx] = _queues_of(make_scheduler(name).run(graph).schedule)
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
        with obs.span(
            "stream.run",
            policy=policy,
            jobs=len(instance.jobs),
            procs=instance.n_procs,
        ):
            if policy == ONLINE_POLICY:
                return self._run_online(policy)
            if self.failures:
                raise ValueError(
                    "static stream policies cannot survive CPU failures; "
                    "use the OnlineHDLTS policy"
                )
            return self._run_static(policy, queues)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _setup(self):
        instance = self.instance
        state: Dict[str, object] = {
            "avail": np.zeros(instance.n_procs),
            "slots": [[] for _ in range(instance.n_procs)],
            "records": [],
            "first_start": {},
            "n_lost": 0,
            "admitted": [],
            "next_ix": 0,
            "bus": obs.get_bus(),
        }
        return state

    def _admit(self, state) -> _AdmittedJob:
        job = self.instance.jobs[state["next_ix"]]
        state["next_ix"] += 1
        admitted = _AdmittedJob(job)
        state["admitted"].append(admitted)
        obs.count("stream/jobs")
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.arrival",
                job=job.index,
                t=job.arrival,
                tasks=job.graph.n_tasks,
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
            obs.count("stream/lost")
            state["n_lost"] += 1
        else:
            obs.count("stream/dispatches")

    def _finish_job(self, state, st: _AdmittedJob) -> None:
        finish = max(st.finish_times.values(), default=st.arrival)
        obs.count("stream/job_finishes")
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
            n_tasks = job.graph.n_tasks
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
    def _run_online(self, policy: str) -> StreamResult:
        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        fail_at = failure_times(self.failures or None, n_procs)
        state = self._setup()
        avail: np.ndarray = state["avail"]
        slots: List[List[Tuple[float, float]]] = state["slots"]
        # admitted jobs with tasks left, in admission order
        active: List[_AdmittedJob] = []
        dead: set = set()

        def admit_online() -> None:
            st = self._admit(state)
            st.itq = IndependentTaskQueue(st.graph)
            for task in st.itq.ready_tasks():
                st.cache_ready_base(task)
            active.append(st)

        def ready_row(st: _AdmittedJob, task: int, floor: float) -> np.ndarray:
            base, entry_comm = st.ready_base[task]
            row = np.maximum(base, floor)
            if entry_comm is not None:
                near, remote = st.entry_terms(slots)
                np.maximum(row, np.minimum(near, remote + entry_comm), out=row)
            return row

        def try_dispatch(
            st: _AdmittedJob, task: int, proc: int, ready: float
        ) -> Optional[float]:
            entry = st.entry
            base, entry_comm = st.ready_base[task]
            if entry_comm is not None and not any(
                c == proc for c, _ in st.copies[entry]
            ):
                via_network = st.arrival_of(entry, task, proc)
                dup_end = st.arrival + st.w[entry, proc]
                if dup_end < via_network and st.dup_window_open(
                    proc, slots[proc]
                ):
                    dup_start = st.arrival
                    dup_finish = dup_start + st.duration_fn(entry, proc)
                    tau = fail_at.get(proc, np.inf)
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
                    ready = max(base[proc], st.arrival_of(entry, task, proc))
            start = max(avail[proc], ready)
            duration = st.duration_fn(task, proc)
            finish = start + duration
            tau = fail_at.get(proc, np.inf)
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
            alive = [p for p in range(n_procs) if p not in dead]
            if not alive:
                break
            ready: List[Tuple[_AdmittedJob, int]] = []
            rows: List[np.ndarray] = []
            costs: List[np.ndarray] = []
            for st in active:
                terms = None
                for t in st.itq.ready_tasks():
                    row, entry_comm = st.ready_base[t]
                    if entry_comm is not None:
                        if terms is None:
                            terms = st.entry_terms(slots)
                        near, remote = terms
                        row = np.maximum(
                            row, np.minimum(near, remote + entry_comm)
                        )
                    ready.append((st, t))
                    rows.append(row)
                    costs.append(st.w[t])
            est = np.maximum(np.array(rows), avail[None, :])
            eft = est + np.array(costs)
            eft[:, sorted(dead)] = np.inf
            if len(alive) > 1:
                priorities = np.asarray(eft[:, alive]).std(axis=1, ddof=1)
            else:
                priorities = np.zeros(len(ready))
            index = int(np.argmax(priorities))
            st, task = ready[index]

            floor = st.arrival
            excluded: set = set(dead)
            held = False
            fleet_dead = False
            while True:
                candidates = [
                    p for p in range(n_procs) if p not in excluded
                ]
                if not candidates:
                    fleet_dead = True
                    break
                row = ready_row(st, task, floor)
                scores = {
                    p: max(row[p], avail[p]) + st.w[task, p]
                    for p in candidates
                }
                proc = min(scores, key=lambda p: (scores[p], p))
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
                excluded = set(dead)
            if fleet_dead:
                break
            if held:
                continue
            del st.ready_base[task]
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
        self, policy: str, job_queues: Optional[Sequence[Queues]]
    ) -> StreamResult:
        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        if job_queues is None:
            job_queues = admission_queues(
                [job.graph for job in instance.jobs],
                policy[len(STATIC_PREFIX):],
            )
        state = self._setup()
        avail: np.ndarray = state["avail"]
        # admitted jobs with queued dispatches left, in admission order
        active: List[_AdmittedJob] = []

        def admit_static() -> None:
            st = self._admit(state)
            st.queues = job_queues[state["next_ix"] - 1]
            st.heads = [0] * n_procs
            st.left = sum(len(q) for q in st.queues)
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
                    ready = ready_at.get((task, proc))
                    if ready is None:
                        ready = st.head_ready(task, proc)
                    start = max(avail[proc], ready)
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
                    t for t in st.graph.tasks() if t not in st.finish_times
                ]
                if missing:
                    raise ValueError(
                        f"job {st.job.index} tasks never executed: "
                        f"{missing[:10]}"
                    )
                self._finish_job(state, st)
        return self._assemble(state, set(), policy)


def run_stream(
    instance: StreamInstance,
    policy: str,
    failures: Optional[Iterable[FailStop]] = None,
    queues: Optional[Sequence[Queues]] = None,
) -> StreamResult:
    """Execute ``instance`` under ``policy``; convenience wrapper."""
    return JobStream(instance, failures).run(policy, queues)
