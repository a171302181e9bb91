"""The run context: one frozen, picklable description of *how* to run.

Every knob that used to live in scattered process-global toggles --
the :mod:`repro.obs` enable flags, the engine default baked into each
scheduler's signature, worker counts threaded through function
arguments -- is a field of one immutable :class:`RunContext`.  The
active context lives in a :mod:`contextvars` variable, so

* readers (``obs.enabled()``, ``obs.tracing()``, engine resolution)
  cost one ``ContextVar.get`` on the hot path,
* :func:`activate` scopes an override exactly like the old context
  managers did, and
* a context **pickles**: the parallel sweep runner ships it to worker
  processes explicitly (the pool initializer calls :func:`adopt`), which
  is what makes ``spawn``/``forkserver`` start methods produce
  bit-identical results to ``fork`` -- workers no longer depend on
  fork-inherited module state.

There is no other override: ``obs.enabled_scope``/``obs.tracing_scope``
are themselves :func:`activate` calls.  The compiled CSR layer is not a
field -- every run goes through it; ``engine="reference"`` is the one
oracle arm (see docs/architecture.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, Optional

__all__ = [
    "BATCH_CHOICES",
    "ENGINE_CHOICES",
    "START_METHODS",
    "RunContext",
    "DEFAULT_CONTEXT",
    "current_context",
    "activate",
    "adopt",
    "resolve_engine",
]

#: the EFT-engine implementations schedulers can run on
ENGINE_CHOICES = ("fast", "reference")

#: accepted pool start methods; ``None`` = auto (fork where available,
#: then spawn, else serial), ``"serial"`` = never create a pool
START_METHODS = ("fork", "spawn", "forkserver", "serial")

#: batched multi-DAG kernel selection: ``"auto"`` groups the
#: replications of each harness call (one x point, or a service run's
#: points) by ``(n_tasks, n_procs, entry)`` -- structures may
#: differ -- and runs the groups through the batched kernel
#: (:mod:`repro.core.batch`); stream sweeps group every job of a point
#: the same way to compute the ``Static/<Name>`` admission schedules
#: (:func:`repro.stream.arena.admission_queues`).  ``"off"`` forces the
#: scalar per-instance path everywhere.  Auto falls back to scalar
#: bit-identically for groups narrower than
#: :func:`repro.core.batch.lane_gates`, multi-entry instances,
#: ``engine="reference"``, validation runs and non-batchable schedulers.
BATCH_CHOICES = ("auto", "off")


@dataclass(frozen=True)
class RunContext:
    """Declarative execution configuration for one run.

    Frozen and built from plain values only, so a context pickles, ships
    to any worker process, serializes into a run manifest, and
    round-trips through JSON (:meth:`to_dict` / :meth:`from_dict`).
    """

    #: base seed of the run's RNG streams
    seed: int = 0
    #: default EFT engine for schedulers constructed without an explicit
    #: ``engine=`` argument ("fast" or "reference")
    engine: str = "fast"
    #: feasibility-check every schedule produced by the harness
    validate: bool = False
    #: record observability metrics (counters/timers/phases)
    metrics: bool = False
    #: JSONL event-sink path (parent process only; informational for
    #: workers -- sinks are never re-opened in worker processes)
    events: Optional[str] = None
    #: telemetry directory of the owning run (heartbeats, span files,
    #: metric snapshots); workers read it from the shipped context
    telemetry: Optional[str] = None
    #: record hierarchical spans (``span.end`` events) -- see
    #: :mod:`repro.obs.spans`
    trace: bool = False
    #: worker processes for parallel sweeps (1 = serial)
    workers: int = 1
    #: replications per worker chunk
    chunk_size: int = 5
    #: pool start method; ``None`` picks fork > spawn > serial
    start_method: Optional[str] = None
    #: batched multi-DAG kernel: "auto" (shape-group replications per x
    #: point through :mod:`repro.core.batch`) or "off" (always scalar)
    batch: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}"
            )
        if self.batch not in BATCH_CHOICES:
            raise ValueError(
                f"batch must be one of {BATCH_CHOICES}, got {self.batch!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS} or None, "
                f"got {self.start_method!r}"
            )

    def with_(self, **kwargs) -> "RunContext":
        """Functional update, e.g. ``ctx.with_(engine="reference")``."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Plain-dict form for manifests (JSON-able, exact)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunContext":
        """Rebuild a context from :meth:`to_dict` output.

        Unknown keys raise: a manifest written by a newer version with
        semantics this version cannot honor must not be half-applied.
        The retired ``compiled`` field is read for old manifests: ``true``
        (every run now takes the compiled path) is dropped, ``false``
        names a path that no longer exists and raises.
        """
        data = dict(data)
        if data.pop("compiled", True) is not True:
            raise ValueError(
                "RunContext field 'compiled' is retired: only the compiled "
                "path exists (use engine='reference' for the oracle arm)"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunContext fields: {sorted(unknown)}")
        return cls(**data)


DEFAULT_CONTEXT = RunContext()

_ACTIVE: ContextVar[RunContext] = ContextVar(
    "repro_run_context", default=DEFAULT_CONTEXT
)


def current_context() -> RunContext:
    """The :class:`RunContext` governing the calling code."""
    return _ACTIVE.get()


@contextmanager
def activate(context: RunContext) -> Iterator[RunContext]:
    """Scope ``context`` as the active run context for a block."""
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)


def adopt(context: RunContext) -> None:
    """Install ``context`` for the rest of this process's lifetime.

    Used by worker-pool initializers (the shipped context becomes the
    worker's world) and by CLI entry points that own the whole process.
    """
    _ACTIVE.set(context)


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve a scheduler's ``engine=`` parameter.

    ``None`` (the new default) defers to the active context; explicit
    strings are validated and win over the context.
    """
    if engine is None:
        return current_context().engine
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
        )
    return engine
