"""Profiling contexts: nested phase spans and counters behind one switch.

``with phase("eft_vector"):`` opens a ``phase`` span
(:mod:`repro.obs.spans`) whose duration feeds the metrics timer keyed
by the joined phase stack (``HDLTS/eft_vector`` inside the
``scheduler.run`` span that :meth:`~repro.core.base.Scheduler.run`
opens as the phase root), and which a traced run also emits.

The switch is the whole design: profiling defaults to *off*, and while
nothing would record a phase (metrics off, and tracing off or no bus
subscriber) :func:`phase` returns one shared no-op context manager --
no allocation, no clock read, one context lookup -- so the measured
hot paths of the schedulers cost nothing in production runs.

Whether recording is on is the ``metrics`` field of the active
:class:`~repro.runtime.context.RunContext` -- there is no other switch.
A CLI run therefore turns measurement on by *activating a context*
(:func:`enabled_scope` is shorthand for that), and the parallel sweep
runner ships that context to worker processes -- under any pool start
method, not just ``fork``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.runtime.context import activate as _activate
from repro.runtime.context import current_context as _current_context

__all__ = [
    "enabled",
    "enabled_scope",
    "phase",
    "count",
    "scoped_count",
    "current_scope",
]


def enabled() -> bool:
    """Whether the profiling layer is currently recording."""
    return _current_context().metrics


@contextmanager
def enabled_scope(flag: bool = True) -> Iterator[None]:
    """Scope a derived context with ``metrics=flag`` (restored on exit)."""
    with _activate(_current_context().with_(metrics=bool(flag))):
        yield


def phase(name: str):
    """Context manager timing a named (nestable) phase as a span.

    Returns the shared no-op singleton unless metrics are on or a traced
    run has a bus subscriber to emit to: phases run per decision step,
    so a hot loop pays one context lookup when nothing would record.
    """
    ctx = _current_context()
    if not (ctx.metrics or (ctx.trace and _events.get_bus().active)):
        return _spans.NOOP_SPAN
    return _spans.Span("phase", {}, phase=name)


def current_scope() -> Optional[str]:
    """Root of the active phase stack (the scheduler name inside a run)."""
    return _spans.phase_root() if enabled() else None


def count(name: str, n: int = 1) -> None:
    """Increment a counter, but only while profiling is enabled."""
    if enabled():
        _metrics.get_metrics().counter(name).inc(n)


def scoped_count(name: str, n: int = 1) -> None:
    """Like :func:`count`, prefixing the current phase root (if any).

    Lets shared helpers (e.g. the baselines' EFT machinery) attribute
    counts to whichever scheduler's run they execute inside.
    """
    if enabled():
        root = _spans.phase_root()
        key = f"{root}/{name}" if root else name
        _metrics.get_metrics().counter(key).inc(n)
