"""Scheduling-as-a-service: run store, work queue, workers, API.

This package turns the repo's persistence into a service: the stores
(:mod:`repro.service.store` -- the columnar shard store campaigns and
run directories write, and the SQLite service database), a lease-based
work queue (:mod:`repro.service.queue`), daemon workers
(:mod:`repro.service.worker`) and a submission API
(:mod:`repro.service.api`), surfaced on the CLI as ``repro serve`` /
``submit`` / ``watch`` / ``status``.

Only the store layer is imported eagerly -- it sits beneath the
parallel sweep runner and the campaign engine, so this ``__init__``
must stay free of imports that reach back into
:mod:`repro.experiments` (queue/worker/api are imported on demand).
"""

from repro.service.store import (
    JOB_STATES,
    SERVICE_DB,
    STORE_SCHEMA,
    TASK_STATES,
    ColumnarStore,
    SqliteStore,
    TaskSpec,
    enumerate_tasks,
    parse_task_id,
    task_id,
)

__all__ = [
    "JOB_STATES",
    "SERVICE_DB",
    "STORE_SCHEMA",
    "TASK_STATES",
    "ColumnarStore",
    "SqliteStore",
    "TaskSpec",
    "enumerate_tasks",
    "parse_task_id",
    "task_id",
]
