"""Run-context architecture: explicit, picklable execution state.

Two pieces (see docs/architecture.md):

* :mod:`repro.runtime.context` -- the frozen :class:`RunContext`
  (seed, engine, validation, observability flags,
  worker decomposition) held in a context variable.  Readers across the
  model/obs/experiments layers consult it instead of process-global
  toggles; the parallel runner ships it to workers explicitly, which is
  what makes ``spawn``/``forkserver`` pools bit-identical to ``fork``.
* :mod:`repro.runtime.telemetry` -- live observation of a run,
  campaign or service directory: per-process heartbeat files, the
  status document ``repro status`` prints (:func:`status_document`),
  and the ``repro top`` terminal view (:func:`format_status`).

A ``repro run`` directory itself is a one-shard campaign; see
:mod:`repro.experiments.campaign`.
"""

from repro.runtime.context import (
    BATCH_CHOICES,
    DEFAULT_CONTEXT,
    ENGINE_CHOICES,
    START_METHODS,
    RunContext,
    activate,
    adopt,
    current_context,
    resolve_engine,
)
from repro.runtime.telemetry import (
    HeartbeatWriter,
    format_status,
    load_heartbeats,
    status_document,
    telemetry_dir,
)

__all__ = [
    "BATCH_CHOICES",
    "DEFAULT_CONTEXT",
    "ENGINE_CHOICES",
    "START_METHODS",
    "RunContext",
    "activate",
    "adopt",
    "current_context",
    "resolve_engine",
    "HeartbeatWriter",
    "format_status",
    "load_heartbeats",
    "status_document",
    "telemetry_dir",
]
