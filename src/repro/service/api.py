"""The submission API: tickets in, bit-identical results out.

This module is what ``repro submit`` / ``ps`` / ``watch`` (and any
script) talk to: submit portable
:class:`~repro.experiments.harness.SweepDefinition`\\ s plus the
:class:`~repro.runtime.context.RunContext` that should govern
execution, get back a **ticket**; poll the ticket's status; cancel it;
and, once the job is done, materialize the merged
:class:`~repro.experiments.harness.SweepResult`\\ s.

Result folding replays committed task values **in chunk-plan order**
-- the submission order the serial harness and the resume path use --
through the same scalar :class:`~repro.metrics.stats.RunningStats`
recurrence, with values round-tripping through JSON exactly.  A result
merged from any number of workers, crashes and reclaims is therefore
bit-identical to ``repro figure`` run serially.

Ticket states are the job states of the store:
``queued -> running -> done`` with ``failed`` and ``cancelled``
terminal branches (see ``docs/service.md``).
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.runtime.context import RunContext
from repro.service.store import SERVICE_DB, JobRow, SqliteStore

__all__ = [
    "SUBMIT_SCHEMA",
    "PS_SCHEMA",
    "SERVICE_STATUS_SCHEMA",
    "is_service_dir",
    "submit",
    "cancel",
    "job_status",
    "result",
    "ps_document",
    "service_status",
    "format_ps",
    "format_service_top",
]

PathLike = Union[str, pathlib.Path]

SUBMIT_SCHEMA = "repro.submit/1"
PS_SCHEMA = "repro.ps/1"
SERVICE_STATUS_SCHEMA = "repro.service-status/1"

#: a worker whose last beat is older than this is presumed dead
_WORKER_STALE_S = 30.0


def is_service_dir(path: PathLike) -> bool:
    """Does ``path`` hold a service store?"""
    return (pathlib.Path(path) / SERVICE_DB).exists()


def _open(store: Union[SqliteStore, PathLike], create: bool = False) -> tuple:
    """Accept a live store or a directory; says whether we opened it."""
    if isinstance(store, SqliteStore):
        return store, False
    return SqliteStore.open(store, create=create), True


# ----------------------------------------------------------------------
# submit / cancel / status
# ----------------------------------------------------------------------
def submit(
    store: Union[SqliteStore, PathLike],
    definitions: Sequence,
    reps: int,
    context: RunContext,
    title: str = "",
) -> JobRow:
    """Enqueue one job; returns its row (``.ticket`` is the handle).

    The service directory (and its store) is created on first use.
    Tasks are enumerated immediately -- the shared deterministic
    decomposition -- so the queue is claimable the moment this returns.
    """
    store, owned = _open(store, create=True)
    try:
        return store.add_job(definitions, reps, context, title=title)
    finally:
        if owned:
            store.close()


def cancel(store: Union[SqliteStore, PathLike], ticket: str) -> bool:
    """Cancel a queued/running job; ``False`` if already terminal."""
    store, owned = _open(store)
    try:
        store.job(ticket)  # raise KeyError on unknown tickets
        return store.cancel(ticket)
    finally:
        if owned:
            store.close()


def _job_doc(store: SqliteStore, job: JobRow, now: float) -> Dict[str, object]:
    counts = store.task_counts(job.id)
    total = sum(counts.values())
    return {
        "ticket": job.ticket,
        "title": job.title,
        "kind": job.kind,
        "state": job.state,
        "error": job.error,
        "sweeps": [d["key"] for d in job.spec],
        "reps": job.reps,
        "tasks_total": total,
        "tasks_done": counts["done"],
        "tasks_failed": counts["failed"],
        "tasks_leased": counts["leased"],
        "tasks_pending": counts["pending"],
        "age_s": now - job.created,
        "updated_age_s": now - job.updated,
    }


def job_status(
    store: Union[SqliteStore, PathLike],
    ticket: str,
    now: Optional[float] = None,
) -> Dict[str, object]:
    """One ticket's status document (schema ``repro.submit/1``)."""
    store, owned = _open(store)
    now = time.time() if now is None else now
    try:
        doc = _job_doc(store, store.job(ticket), now)
        doc["schema"] = SUBMIT_SCHEMA
        return doc
    finally:
        if owned:
            store.close()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def result(
    store: Union[SqliteStore, PathLike],
    ticket: str,
    strict: bool = True,
) -> Dict[str, object]:
    """Materialize a job's merged results, bit-identically.

    ``strict`` requires the job to be ``done``; ``strict=False`` folds
    whatever tasks have committed (a live preview -- points missing
    chunks simply have fewer samples).  Committed values
    (:meth:`~repro.service.store.SqliteStore.committed_values`) replay
    in chunk-plan order, exactly like a resumed run-dir sweep, so the
    returned
    :class:`~repro.experiments.harness.SweepResult`\\ s match a serial
    run of the same definitions bit for bit.
    """
    from repro.experiments.harness import SweepDefinition, SweepResult
    from repro.experiments.parallel import chunk_plan
    from repro.metrics.stats import RunningStats

    store, owned = _open(store)
    try:
        job = store.job(ticket)
        if strict and job.state != "done":
            raise ValueError(
                f"job {ticket} is {job.state}, not done"
                + (f": {job.error}" if job.error else "")
            )
        context = RunContext.from_dict(job.context)
        results: Dict[str, SweepResult] = {}
        for entry in job.spec:
            definition = SweepDefinition.from_dict(entry)
            completed = store.committed_values(job.id, definition.key)
            sweep = SweepResult(
                definition=definition, reps=job.reps, seed=context.seed
            )
            for x in definition.x_values:
                sweep.stats[x] = {
                    name: RunningStats() for name in definition.schedulers
                }
            for chunk in chunk_plan(
                definition, job.reps, context.seed, context.validate,
                context.chunk_size,
            ):
                values = completed.get((chunk[1], chunk[3], chunk[4]))
                if values is None:
                    if strict:
                        raise ValueError(
                            f"job {ticket}: task "
                            f"{definition.key}:x{chunk[1]:03d} "
                            f"r{chunk[3]}-{chunk[4]} has no result"
                        )
                    continue
                accumulators = sweep.stats[chunk[2]]
                for rep_values in values:
                    for name, value in rep_values.items():
                        accumulators[name].add(value)
            results[definition.key] = sweep
        return results
    finally:
        if owned:
            store.close()


# ----------------------------------------------------------------------
# listings / status documents
# ----------------------------------------------------------------------
def _worker_docs(store: SqliteStore, now: float) -> List[Dict[str, object]]:
    out = []
    for row in store.workers():
        age = now - float(row["last_beat"])
        state = str(row["state"])
        out.append(
            {
                "worker": row["worker"],
                "pid": row["pid"],
                "host": row["host"],
                "state": state,
                "tasks_done": row["tasks_done"],
                "beat_age_s": age,
                "stale": bool(state != "exited" and age > _WORKER_STALE_S),
            }
        )
    return out


def ps_document(
    store: Union[SqliteStore, PathLike], now: Optional[float] = None
) -> Dict[str, object]:
    """Everything ``repro ps`` shows (schema ``repro.ps/1``)."""
    store, owned = _open(store)
    now = time.time() if now is None else now
    try:
        return {
            "schema": PS_SCHEMA,
            "run_dir": str(store.path.parent),
            "jobs": [_job_doc(store, job, now) for job in store.jobs()],
            "workers": _worker_docs(store, now),
        }
    finally:
        if owned:
            store.close()


def service_status(
    path: PathLike, now: Optional[float] = None
) -> Dict[str, object]:
    """One status document over a service directory.

    Schema ``repro.service-status/1``, shaped like the run/campaign
    status documents so ``repro status``/``top`` can dispatch on the
    directory kind and render uniformly.
    """
    now = time.time() if now is None else now
    store = SqliteStore.open(path, create=False)
    try:
        jobs = [_job_doc(store, job, now) for job in store.jobs()]
        workers = _worker_docs(store, now)
        tasks_done = sum(j["tasks_done"] for j in jobs)
        tasks_total = sum(j["tasks_total"] for j in jobs)
        live = [j for j in jobs if j["state"] in ("queued", "running")]
        return {
            "schema": SERVICE_STATUS_SCHEMA,
            "run_dir": str(path),
            "complete": not live and bool(jobs),
            "tasks_done": tasks_done,
            "tasks_total": tasks_total,
            "jobs_total": len(jobs),
            "jobs_live": len(live),
            "jobs": jobs,
            "workers": workers,
        }
    finally:
        store.close()


def _job_table(jobs: List[Dict[str, object]]) -> List[str]:
    lines = [
        f"{'TICKET':<14}{'KIND':<8}{'STATE':<11}{'TASKS':>12}  "
        f"{'AGE':>8}  SWEEPS"
    ]
    for job in jobs:
        tasks = f"{job['tasks_done']}/{job['tasks_total']}"
        sweeps = ",".join(job["sweeps"])
        lines.append(
            f"{job['ticket']:<14}{job['kind']:<8}{job['state']:<11}"
            f"{tasks:>12}  {_age(job['age_s']):>8}  {sweeps}"
        )
    return lines


def _worker_table(workers: List[Dict[str, object]]) -> List[str]:
    lines = [
        f"{'WORKER':<22}{'PID':>8}  {'STATE':<8}{'DONE':>6}  {'BEAT':>8}"
    ]
    for w in workers:
        state = "stale?" if w["stale"] else w["state"]
        lines.append(
            f"{str(w['worker']):<22}{w['pid']:>8}  {state:<8}"
            f"{w['tasks_done']:>6}  {_age(w['beat_age_s']):>8}"
        )
    return lines


def format_ps(doc: Dict[str, object]) -> str:
    """Render a :func:`ps_document` as the ``repro ps`` listing."""
    jobs = doc["jobs"]
    lines: List[str] = []
    if jobs:
        lines.extend(_job_table(jobs))
    else:
        lines.append(f"no jobs in {doc['run_dir']} (submit with: repro submit)")
    if doc["workers"]:
        lines.append("")
        lines.extend(_worker_table(doc["workers"]))
    return "\n".join(lines)


def format_service_top(doc: Dict[str, object]) -> str:
    """Render a service status document as a ``repro top`` screen."""
    lines: List[str] = []
    done, total = doc["tasks_done"], doc["tasks_total"]
    pct = 100.0 * done / total if total else 0.0
    lines.append(
        f"service {doc['run_dir']} -- {doc['jobs_live']} live of "
        f"{doc['jobs_total']} jobs, tasks {done}/{total} ({pct:.1f}%)"
    )
    lines.append("")
    lines.extend(_job_table(doc["jobs"]))
    if doc["workers"]:
        lines.append("")
        lines.extend(_worker_table(doc["workers"]))
    return "\n".join(lines)


def _age(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"
