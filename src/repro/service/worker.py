"""Daemon workers: claim runs of tasks, execute, commit, publish progress.

A :class:`Worker` is one agent process in the scheduling service.  Its
loop is deliberately boring:

1. :meth:`~repro.service.queue.WorkQueue.claim_run` the next run of
   tasks -- consecutive claimable tasks of one sweep of one job, up to
   :data:`~repro.service.queue.RUN_REPS` replications -- (or sleep
   ``poll_s`` when the queue is idle) and beat the worker's heartbeat
   file (:class:`~repro.runtime.telemetry.HeartbeatWriter` under
   ``<dir>/telemetry/``: state ``idle`` or ``busy``, written at once
   when a claim flips it to ``busy``, and ``exited`` with the final
   counts on the way out),
2. :func:`~repro.runtime.context.adopt` the submitting job's stored
   :class:`~repro.runtime.context.RunContext` -- seed, engine,
   batched kernel: execution is governed by the
   submission, not by whatever the worker process happens to have
   active (the worker caches the current job's context and
   definitions only),
3. run the whole run's replications as one cross-point pass through
   the existing harness (:func:`~repro.experiments.harness.run_points`
   -- one kernel group per ``(n_tasks, n_procs, entry)`` key when the
   context says so), renewing the run's leases between kernel groups
   and before the commit,
4. :meth:`~repro.service.queue.WorkQueue.commit_run` each task's
   values in one transaction; a task whose lease was reclaimed is
   counted and dropped,
5. publish progress over the obs event bus, whose pluggable backend
   (:class:`StoreEventSink`) persists the events into the service
   store -- so ``repro watch`` in another process sees them.

Crash-safety falls out of the queue protocol: a worker killed with
``kill -9`` leaves leased tasks whose leases expire, another worker
reclaims and re-runs them (bit-identical, thanks to the ``(seed,
x_index, rep)`` RNG streams), and the dead worker's late commit --
had it survived -- would be rejected by the ownership guard.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.obs.events import Event, _json_default
from repro.runtime.context import RunContext, adopt
from repro.runtime.telemetry import HeartbeatWriter, load_heartbeats, telemetry_dir
from repro.service.queue import (
    DEFAULT_LEASE_S,
    RUN_REPS,
    Lease,
    WorkQueue,
)
from repro.service.store import SqliteStore

__all__ = ["StoreEventSink", "Worker", "WorkerReport", "serve"]

PathLike = Union[str, pathlib.Path]

#: how long an idle worker sleeps between claim attempts
DEFAULT_POLL_S = 0.5


class StoreEventSink:
    """Bus backend persisting events into the store's ``events`` table.

    Rows are buffered and bulk-inserted (``flush_every`` events, plus
    explicit :meth:`flush` calls between queue polls), so publishing is
    cheap relative to task execution.  Like
    :class:`~repro.obs.events.JsonlSink` the sink remembers its PID and
    ignores events delivered in forked children -- a SQLite connection
    must never be shared across a fork.
    """

    def __init__(
        self, store: SqliteStore, source: str, flush_every: int = 32
    ) -> None:
        self.store = store
        self.source = source
        self.flush_every = flush_every
        self.n_written = 0
        self._buffer: List[tuple] = []
        self._pid = os.getpid()

    def __call__(self, event: Event) -> None:
        if os.getpid() != self._pid:
            return
        self._buffer.append(
            (
                event.ts,
                self.source,
                event.name,
                json.dumps(event.payload, default=_json_default),
            )
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Bulk-insert buffered rows (no-op on an empty buffer)."""
        if self._buffer and os.getpid() == self._pid:
            self.store.append_events(self._buffer)
            self.n_written += len(self._buffer)
        self._buffer.clear()


@dataclass(frozen=True)
class WorkerReport:
    """What one worker loop did before exiting."""

    worker: str
    executed: int
    replayed_discards: int
    failed: int
    interrupted: bool

    @property
    def total(self) -> int:
        return self.executed + self.failed


class Worker:
    """One daemon agent against a service store (see module docstring).

    ``drain=True`` exits once nothing is claimable *and* no live lease
    is outstanding (a crashed peer's lease is waited out, then
    reclaimed -- the CI crash test relies on this).  Without ``drain``
    the loop runs until interrupted, like any daemon.
    """

    def __init__(
        self,
        store_path: PathLike,
        worker_id: Optional[str] = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = DEFAULT_POLL_S,
        drain: bool = False,
        max_tasks: Optional[int] = None,
    ) -> None:
        self.store_path = store_path
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.drain = drain
        self.max_tasks = max_tasks
        #: ``(job_id, context, definitions)`` of the job served last
        self.job_cache: Optional[Tuple[int, RunContext, Dict]] = None

    def run(self) -> WorkerReport:
        """Run the claim/execute/commit loop to drain or interrupt."""
        from repro.experiments.harness import run_points

        worker_id = self.worker_id or f"worker-{os.getpid()}"
        store = SqliteStore.open(self.store_path)
        queue = WorkQueue(store, lease_s=self.lease_s)
        heartbeat = HeartbeatWriter(
            telemetry_dir(store.path.parent), role="worker",
            extra={"worker": worker_id},
        )
        heartbeat.beat(force=True, state="idle")
        bus = obs.get_bus()
        sink = StoreEventSink(store, source=worker_id)
        previous = bus.set_backend(sink, topics=["service."])
        executed = discarded = failed = 0
        interrupted = False
        run: List[Lease] = []
        bus.emit("service.worker", worker=worker_id, phase="started")
        try:
            while True:
                limit = RUN_REPS
                if self.max_tasks is not None:
                    limit = min(limit, self.max_tasks - executed)
                if limit < 1:
                    break
                run = queue.claim_run(worker_id, limit)
                # the idle -> busy flip skips the throttle (once per
                # busy spell): a worker killed right after its claim
                # must not read idle while it holds a lease
                heartbeat.beat(
                    executed,
                    force=bool(run) and heartbeat.extra["state"] != "busy",
                    state="busy" if run else "idle",
                )
                if not run:
                    sink.flush()
                    if self.drain and self._drained(queue):
                        break
                    time.sleep(self.poll_s)
                    continue
                for lease in run:
                    bus.emit(
                        "service.claim",
                        ticket=lease.ticket,
                        task=lease.task,
                        worker=worker_id,
                        attempt=lease.attempt,
                        run=len(run),
                    )
                context, definitions = self._load_job(store, run[0].job_id)
                adopt(context)
                renew = _Renewal(queue, worker_id, run)
                points = [(t.x, t.x_index, t.rep_lo, t.rep_hi) for t in run]
                try:
                    with obs.span(
                        "service.task", task=run[0].task, worker=worker_id,
                        run=len(run),
                    ) as sp:
                        values = run_points(
                            definitions[run[0].sweep], points, context.seed,
                            context.validate, tick=renew,
                        )
                except KeyboardInterrupt:
                    for lease in run:
                        queue.release(worker_id, lease)
                    run = []
                    interrupted = True
                    break
                except Exception as exc:
                    # one deterministic error fails the job: the run's
                    # first task carries it, the rest are handed back
                    error = f"{type(exc).__name__}: {exc}"
                    queue.fail(worker_id, run[0], error)
                    for lease in run[1:]:
                        queue.release(worker_id, lease)
                    failed += 1
                    bus.emit(
                        "service.fail",
                        ticket=run[0].ticket,
                        task=run[0].task,
                        worker=worker_id,
                        error=error,
                    )
                    run = []
                    continue
                wall = sp.dur_s
                renew()
                reps = sum(t.rep_hi - t.rep_lo for t in run)
                # each task's share of the run's wall time
                walls = [wall * (t.rep_hi - t.rep_lo) / reps for t in run]
                committed = queue.commit_run(
                    worker_id, list(zip(run, values, walls))
                )
                for lease, share, ok in zip(run, walls, committed):
                    # a lost lease: the task expired mid-run and someone
                    # else owns (or already committed) it
                    executed += ok
                    discarded += not ok
                    bus.emit(
                        "service.commit",
                        ticket=lease.ticket,
                        task=lease.task,
                        worker=worker_id,
                        wall_s=share,
                        committed=ok,
                    )
                if any(committed):
                    job = store.job_by_id(run[0].job_id)
                    if job.state == "done":
                        bus.emit(
                            "service.job", ticket=run[0].ticket, state="done"
                        )
                run = []
        except KeyboardInterrupt:
            interrupted = True
            for lease in run:
                queue.release(worker_id, lease)
        finally:
            bus.emit(
                "service.worker",
                worker=worker_id,
                phase="exited",
                executed=executed,
            )
            sink.flush()
            # the exit beat: serve() reads a child's report from it
            heartbeat.beat(
                executed, force=True, state="exited", failed=failed,
                discarded=discarded, interrupted=interrupted,
            )
            bus.set_backend(previous)
            store.close()
        return WorkerReport(
            worker=worker_id,
            executed=executed,
            replayed_discards=discarded,
            failed=failed,
            interrupted=interrupted,
        )

    def _load_job(self, store: SqliteStore, job_id: int) -> Tuple:
        """The job's run context and definitions by sweep key, cached
        for the current job only (a daemon serves jobs without end)."""
        from repro.experiments.harness import SweepDefinition

        if self.job_cache is None or self.job_cache[0] != job_id:
            job = store.job_by_id(job_id)
            self.job_cache = (
                job_id,
                RunContext.from_dict(job.context),
                {d["key"]: SweepDefinition.from_dict(d) for d in job.spec},
            )
        return self.job_cache[1:]

    @staticmethod
    def _drained(queue: WorkQueue) -> bool:
        counts = queue.outstanding()
        return counts["claimable"] == 0 and counts["leased"] == 0


class _Renewal:
    """Renews a run's leases once half the lease span has passed since
    the claim or the last renewal: called between the run's kernel
    groups and before its commit, it costs a clock read until then."""

    def __init__(
        self, queue: WorkQueue, worker: str, run: List[Lease]
    ) -> None:
        self.queue = queue
        self.worker = worker
        self.run = run
        self.due = time.time() + queue.lease_s / 2

    def __call__(self) -> None:
        now = time.time()
        if now >= self.due:
            self.queue.extend_run(self.worker, self.run, now)
            self.due = now + self.queue.lease_s / 2


def _run_worker(store_path: str, kwargs: Dict) -> None:
    Worker(store_path, **kwargs).run()


def serve(
    store_path: PathLike,
    workers: int = 1,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = DEFAULT_POLL_S,
    drain: bool = False,
    max_tasks: Optional[int] = None,
) -> List[WorkerReport]:
    """Run ``workers`` daemon agents against one service directory.

    One worker runs in-process (its report is returned); more than one
    runs each in its own OS process -- they coordinate purely through
    the store, exactly like workers started on different machines
    would.  A child's report is read from its exit heartbeat (by pid,
    written after this call started); a child killed before its exit
    beat reports what its last beat recorded.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = SqliteStore.open(store_path)  # create the schema up front
    directory = store.path.parent
    store.close()
    kwargs = dict(
        lease_s=lease_s, poll_s=poll_s, drain=drain, max_tasks=max_tasks
    )
    if workers == 1:
        return [Worker(store_path, **kwargs).run()]
    mp = multiprocessing.get_context("spawn")
    procs = [
        mp.Process(
            target=_run_worker, args=(str(store_path), kwargs), daemon=False
        )
        for _ in range(workers)
    ]
    started = time.time()
    for proc in procs:
        proc.start()
    try:
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        raise
    beats = {
        beat["pid"]: beat for beat in load_heartbeats(directory)
        if float(beat.get("started", 0.0)) >= started
    }
    reports = []
    for proc in procs:
        beat = beats.get(proc.pid, {})
        reports.append(
            WorkerReport(
                worker=str(beat.get("worker", f"worker-{proc.pid}")),
                executed=int(beat.get("chunks_done", 0)),
                replayed_discards=int(beat.get("discarded", 0)),
                failed=int(beat.get("failed", 0)),
                interrupted=bool(beat.get("interrupted", False)),
            )
        )
    return reports
