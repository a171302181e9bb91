"""The submission API: tickets in, bit-identical results out.

This module is what ``repro submit`` / ``watch`` / ``status`` (and any
script) talk to: submit
:class:`~repro.experiments.harness.SweepDefinition`\\ s plus the
:class:`~repro.runtime.context.RunContext` that should govern
execution, get back a **ticket**; poll the ticket's status; cancel it;
and, once the job is done, materialize the merged
:class:`~repro.experiments.harness.SweepResult`\\ s.

Result folding replays committed task values (round-tripped through
JSON exactly) into the one :class:`~repro.experiments.harness
.ExactWelford` under the fold contract stated in
``docs/architecture.md``, so a result merged from any number of
workers, crashes and reclaims is bit-identical to ``repro figure`` run
serially.

Ticket states are the job states of the store:
``queued -> running -> done`` with ``failed`` and ``cancelled``
terminal branches (see ``docs/service.md``).
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.runtime.context import RunContext
from repro.service.store import (
    SERVICE_DB,
    JobRow,
    SqliteStore,
    enumerate_tasks,
    values_matrix,
)

__all__ = [
    "SUBMIT_SCHEMA",
    "is_service_dir",
    "submit",
    "cancel",
    "job_status",
    "result",
    "status_section",
]

PathLike = Union[str, pathlib.Path]

SUBMIT_SCHEMA = "repro.submit/1"


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
    in task order, exactly like a resumed run-dir sweep, so the
    returned
    :class:`~repro.experiments.harness.SweepResult`\\ s match a serial
    run of the same definitions bit for bit.
    """
    from repro.experiments.harness import (
        ExactWelford,
        SweepDefinition,
        SweepResult,
    )

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
            columns = list(definition.schedulers)
            fold = ExactWelford(len(definition.x_values), len(columns))
            for task in enumerate_tasks(
                [definition], job.reps, context.chunk_size
            ):
                values = completed.get(
                    (task.x_index, task.rep_lo, task.rep_hi)
                )
                if values is None:
                    if strict:
                        raise ValueError(
                            f"job {ticket}: task {task.task_id} has no "
                            "result"
                        )
                    continue
                fold.add_rows(values_matrix(values, columns), task.x_index)
            results[definition.key] = SweepResult.from_fold(
                definition, job.reps, context.seed, fold
            )
        return results
    finally:
        if owned:
            store.close()


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
def status_section(
    path: PathLike, processes: List[Dict[str, object]], now: float
) -> Tuple[Dict[str, object], FrozenSet[Tuple[None, str]]]:
    """A service directory's part of the ``repro.status/2`` document.

    Totals over every job and the job list itself; the workers are the
    heartbeat ``processes`` of the envelope
    (:func:`repro.runtime.telemetry.status_document`), so this reads
    only the ``jobs`` and ``tasks`` tables.  The directory is complete
    once it holds jobs and none is queued or running.  No worker ever
    finishes its share of the work, so the finished set is empty.
    """
    store = SqliteStore.open(path, create=False)
    try:
        jobs = [_job_doc(store, job, now) for job in store.jobs()]
    finally:
        store.close()
    live = [j for j in jobs if j["state"] in ("queued", "running")]
    section = {
        "kind": "service",
        "complete": not live and bool(jobs),
        "tasks_done": sum(j["tasks_done"] for j in jobs),
        "tasks_total": sum(j["tasks_total"] for j in jobs),
        "jobs_total": len(jobs),
        "jobs_live": len(live),
        "jobs": jobs,
    }
    return section, frozenset()
