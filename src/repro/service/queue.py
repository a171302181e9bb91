"""The work queue: lease-based run claims with at-most-once commit.

The queue is a thin protocol over the ``tasks`` table of a
:class:`~repro.service.store.SqliteStore`.  Its invariants:

**Claim.**  One ``BEGIN IMMEDIATE`` transaction leases a *run*: the
claimable tasks -- ``pending``, or ``leased`` with an expired lease --
of the oldest non-terminal job's first claimable sweep, in task order,
up to a task limit and :data:`RUN_REPS` replications (always at least
one task).  Each task is marked ``leased`` for this worker with a
fresh expiry and its attempt counter bumped.  IMMEDIATE takes the
write lock before the read, so two workers can never claim the same
task.  :meth:`WorkQueue.claim` is the one-task run.

**Lease expiry.**  A worker that dies (even ``kill -9``) simply stops
renewing; once ``lease_expires`` passes, the task is claimable again
and another worker re-runs it.  A worker renews its run's leases
(:meth:`WorkQueue.extend_run`) between the run's kernel groups and
before its commit, once half the lease span has passed since the
claim or the last renewal, so the lease span must exceed twice the
wall time of one kernel group (or one scalar replication) -- not the
whole run's.

**At-most-once commit.**  :meth:`WorkQueue.commit_run` records a run's
results in one transaction, and updates each task row
*conditionally*: ``state = 'leased' AND worker = ?``.  When a
presumed-dead worker resurfaces after a task was reclaimed, that
task's guard fails (the row now names the new owner) and its stale
result is discarded -- exactly one result per task ever lands in the
store; the run's other tasks commit as usual.  Re-running a task is
safe in the first place because execution is deterministic: both
owners compute bit-identical values from the ``(seed, x_index, rep)``
RNG streams.  :meth:`WorkQueue.commit` is the one-lease commit.

**Job transitions.**  The first claim moves a job ``queued`` ->
``running``; the commit that completes the last task moves it ->
``done``.  A failed task marks the job ``failed`` (other tasks of the
job stop being claimable).  Cancelled jobs are skipped by the claim
query; an in-flight task of a cancelled job runs to completion and its
commit is accepted, but the job stays ``cancelled``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.store import SqliteStore

__all__ = ["DEFAULT_LEASE_S", "RUN_REPS", "Lease", "WorkQueue"]

#: default lease span; must exceed twice the wall time of one kernel
#: group, and CI's crash test shrinks it to make reclaim fast
DEFAULT_LEASE_S = 60.0

#: most replications one run claim leases: a fig2 point's 30 and a
#: whole fig13 job's 10 (5 CCR points x 2) each fit in one kernel group
RUN_REPS = 64


@dataclass(frozen=True)
class Lease:
    """One claimed task: everything a worker needs to execute it."""

    task_rowid: int
    job_id: int
    ticket: str
    task: str
    sweep: str
    x_index: int
    x: object
    rep_lo: int
    rep_hi: int
    attempt: int
    expires: float


class WorkQueue:
    """Lease protocol over one service store (see the module docstring)."""

    def __init__(
        self, store: SqliteStore, lease_s: float = DEFAULT_LEASE_S
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.store = store
        self.lease_s = lease_s

    # -- claiming --------------------------------------------------------
    def claim_run(
        self, worker: str, limit: int = RUN_REPS, now: Optional[float] = None
    ) -> List[Lease]:
        """Atomically lease the next run of tasks; empty when idle.

        The run is the claimable tasks of the oldest live job's first
        claimable sweep, in task order: at most ``limit`` tasks holding
        at most :data:`RUN_REPS` replications, and never fewer than one
        task while any is claimable.  Claim order is deterministic:
        oldest job first, then task enumeration order -- so a lone
        worker executes the exact serial schedule.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        now = time.time() if now is None else now
        conn = self.store.conn
        with self.store.transaction():
            rows = conn.execute(
                "SELECT t.id AS rowid, t.job, j.ticket, t.task, t.sweep,"
                " t.x_index, t.x, t.rep_lo, t.rep_hi, t.attempts"
                " FROM tasks t JOIN jobs j ON t.job = j.id"
                " WHERE j.state IN ('queued', 'running') AND"
                " (t.state = 'pending' OR"
                "  (t.state = 'leased' AND t.lease_expires < ?))"
                " ORDER BY t.job, t.id LIMIT ?",
                (now, limit),
            ).fetchall()
            run, reps = [], 0
            for row in rows:
                reps += int(row["rep_hi"]) - int(row["rep_lo"])
                if run and (
                    reps > RUN_REPS
                    or (row["job"], row["sweep"])
                    != (run[0]["job"], run[0]["sweep"])
                ):
                    break
                run.append(row)
            if not run:
                return []
            expires = now + self.lease_s
            ids = [row["rowid"] for row in run]
            conn.execute(
                "UPDATE tasks SET state = 'leased', worker = ?,"
                " lease_expires = ?, attempts = attempts + 1"
                f" WHERE id IN ({', '.join('?' * len(ids))})",
                (worker, expires, *ids),
            )
            conn.execute(
                "UPDATE jobs SET state = 'running', updated = ?"
                " WHERE id = ? AND state = 'queued'",
                (now, run[0]["job"]),
            )
            return [
                Lease(
                    task_rowid=int(row["rowid"]),
                    job_id=int(row["job"]),
                    ticket=str(row["ticket"]),
                    task=str(row["task"]),
                    sweep=str(row["sweep"]),
                    x_index=int(row["x_index"]),
                    x=json.loads(row["x"]),
                    rep_lo=int(row["rep_lo"]),
                    rep_hi=int(row["rep_hi"]),
                    attempt=int(row["attempts"]) + 1,
                    expires=expires,
                )
                for row in run
            ]

    def claim(
        self, worker: str, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim the next task, or ``None`` when idle: the
        one-task :meth:`claim_run`."""
        run = self.claim_run(worker, 1, now)
        return run[0] if run else None

    def extend_run(
        self, worker: str, leases: Sequence[Lease], now: Optional[float] = None
    ) -> List[bool]:
        """Renew held leases in one transaction; ``False`` marks a lease
        that was already reclaimed (or committed)."""
        now = time.time() if now is None else now
        conn = self.store.conn
        with self.store.transaction():
            return [
                conn.execute(
                    "UPDATE tasks SET lease_expires = ? WHERE id = ? AND"
                    " state = 'leased' AND worker = ?",
                    (now + self.lease_s, lease.task_rowid, worker),
                ).rowcount > 0
                for lease in leases
            ]

    def extend(
        self, worker: str, lease: Lease, now: Optional[float] = None
    ) -> bool:
        """Renew a held lease; ``False`` means it was already reclaimed."""
        return self.extend_run(worker, [lease], now)[0]

    # -- finishing -------------------------------------------------------
    def commit_run(
        self,
        worker: str,
        results: Sequence[Tuple[Lease, List[Dict[str, float]], float]],
        metrics: Optional[Dict] = None,
        now: Optional[float] = None,
    ) -> List[bool]:
        """Record a run's ``(lease, values, wall)`` results in one
        transaction, each at most once.

        ``False`` marks a lease that was lost (the task was reclaimed
        and now belongs to someone else, or its result is already
        committed): that stale result is discarded without a trace
        beyond the return value.  A commit that finished a job's last
        task also flips the job to ``done``.
        """
        now = time.time() if now is None else now
        conn = self.store.conn
        metrics_json = json.dumps(metrics if metrics is not None else {})
        with self.store.transaction():
            committed = [
                conn.execute(
                    "UPDATE tasks SET state = 'done', result = ?,"
                    " metrics = ?, wall = ?, lease_expires = NULL"
                    " WHERE id = ? AND state = 'leased' AND worker = ?",
                    (
                        json.dumps(values), metrics_json, wall,
                        lease.task_rowid, worker,
                    ),
                ).rowcount > 0
                for lease, values, wall in results
            ]
            jobs = {
                lease.job_id
                for (lease, _, _), ok in zip(results, committed)
                if ok
            }
            for job_id in sorted(jobs):
                remaining = conn.execute(
                    "SELECT COUNT(*) AS n FROM tasks WHERE job = ? AND"
                    " state != 'done'",
                    (job_id,),
                ).fetchone()
                if int(remaining["n"]) == 0:
                    conn.execute(
                        "UPDATE jobs SET state = 'done', updated = ?"
                        " WHERE id = ? AND state IN ('queued', 'running')",
                        (now, job_id),
                    )
            return committed

    def commit(
        self,
        worker: str,
        lease: Lease,
        values: List[Dict[str, float]],
        metrics: Optional[Dict] = None,
        wall: float = 0.0,
        now: Optional[float] = None,
    ) -> bool:
        """Record one task's result, at most once: the one-lease
        :meth:`commit_run`."""
        results = [(lease, values, wall)]
        return self.commit_run(worker, results, metrics, now)[0]

    def release(self, worker: str, lease: Lease) -> bool:
        """Hand a claimed task back (graceful shutdown mid-claim)."""
        cur = self.store.conn.execute(
            "UPDATE tasks SET state = 'pending', worker = NULL,"
            " lease_expires = NULL WHERE id = ? AND state = 'leased'"
            " AND worker = ?",
            (lease.task_rowid, worker),
        )
        return cur.rowcount > 0

    def fail(
        self, worker: str, lease: Lease, error: str,
        now: Optional[float] = None,
    ) -> bool:
        """Mark a task (and its job) failed -- a deterministic error,
        not a crash: crashes are handled by lease expiry instead."""
        now = time.time() if now is None else now
        conn = self.store.conn
        with self.store.transaction():
            cur = conn.execute(
                "UPDATE tasks SET state = 'failed', error = ?,"
                " lease_expires = NULL WHERE id = ? AND state = 'leased'"
                " AND worker = ?",
                (error, lease.task_rowid, worker),
            )
            if cur.rowcount == 0:
                return False
            conn.execute(
                "UPDATE jobs SET state = 'failed', error = ?, updated = ?"
                " WHERE id = ? AND state IN ('queued', 'running')",
                (error, now, lease.job_id),
            )
            return True

    # -- introspection ---------------------------------------------------
    def outstanding(self, now: Optional[float] = None) -> Dict[str, int]:
        """Queue-wide counts: claimable now, leased (live), done, failed.

        Only tasks of non-terminal jobs count as ``claimable`` /
        ``leased`` -- a cancelled job's pending tasks are dead weight,
        not work.
        """
        now = time.time() if now is None else now
        conn = self.store.conn
        out = {"claimable": 0, "leased": 0, "done": 0, "failed": 0}
        for row in conn.execute(
            "SELECT t.state, t.lease_expires, j.state AS job_state,"
            " COUNT(*) AS n FROM tasks t JOIN jobs j ON t.job = j.id"
            " GROUP BY t.state, t.lease_expires, j.state"
        ):
            n = int(row["n"])
            state = str(row["state"])
            live_job = str(row["job_state"]) in ("queued", "running")
            if state == "done":
                out["done"] += n
            elif state == "failed":
                out["failed"] += n
            elif not live_job:
                continue
            elif state == "pending":
                out["claimable"] += n
            elif state == "leased":
                expires = row["lease_expires"]
                if expires is not None and float(expires) < now:
                    out["claimable"] += n
                else:
                    out["leased"] += n
        return out
