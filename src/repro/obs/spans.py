"""Hierarchical span tracing: timed, parented occurrences on the bus.

A *span* is one timed unit of work -- a scheduler run, one sweep
replication, one parallel worker chunk -- with a process-unique
``span_id``, the ``parent_id`` of the enclosing span (0 at the root), a
monotonic duration and a flat attribute dict.  Spans ride the existing
:class:`~repro.obs.events.EventBus`: closing a span emits one
``span.end`` event whose payload is the complete span record, so every
existing consumer (JSONL sinks, in-memory recorders, tests) works
unchanged, and the Chrome-trace exporter (:mod:`repro.obs.export`) is
just another subscriber reading those records back.

The quiet path follows the bus discipline: :func:`span` checks one
flag (the ``trace`` field of the active
:class:`~repro.runtime.context.RunContext`) and returns a shared no-op
handle when tracing is off -- no id allocation, no clock read.  Worker
processes therefore start tracing simply by adopting a context with
``trace=True``; the pool initializer only has to attach a sink.

Span kinds emitted by the instrumented library code:

==========================  ==================================================
``sweep.run``               one whole sweep (serial or parallel collector)
``sweep.point``             one x point of a serial sweep
``sweep.chunk``             one worker chunk (replication range of one point)
``sweep.replication``       one replication: every scheduler on one instance
``scheduler.run``           one :meth:`Scheduler.run`
``phase``                   one profiler phase (opt-in, see below)
==========================  ==================================================

Phase spans mirror the :mod:`repro.obs.profile` timers (``HDLTS/commit``
and friends) and are *per decision step*, so they are gated behind the
separate :func:`phase_spans_scope` switch -- a single scheduler run
traces beautifully, a 10^5-replication sweep does not want 10^7 spans.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.obs.events import Event, get_bus
from repro.runtime.context import activate, current_context

__all__ = [
    "SPAN_TOPIC",
    "span",
    "tracing",
    "tracing_scope",
    "phase_spans_enabled",
    "phase_spans_scope",
    "SpanRecorder",
]

#: the event name span records are published under
SPAN_TOPIC = "span.end"

#: per-decision-step phase spans (off unless explicitly scoped on)
_phase_spans: bool = False

#: open-span stack of this process (span ids, innermost last)
_stack: List[int] = []

#: process-unique span ids (combine with the pid across processes)
_ids = itertools.count(1)


def tracing() -> bool:
    """Whether span tracing is currently on.

    The ``trace`` field of the active run context decides -- which is
    how pool workers inherit tracing under any start method.
    """
    return current_context().trace


@contextmanager
def tracing_scope(flag: bool = True) -> Iterator[None]:
    """Scope a derived context with ``trace=flag`` (restored on exit)."""
    with activate(current_context().with_(trace=bool(flag))):
        yield


def phase_spans_enabled() -> bool:
    """Whether profiler phases also emit spans (see module docstring)."""
    return _phase_spans and tracing()


@contextmanager
def phase_spans_scope(flag: bool = True) -> Iterator[None]:
    """Scope the per-phase span bridge on/off (single-run deep dives)."""
    global _phase_spans
    previous = _phase_spans
    _phase_spans = flag
    try:
        yield
    finally:
        _phase_spans = previous


class _NoopSpan:
    """Shared do-nothing handle: the tracing-off fast path."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        """Ignore attributes (tracing is off)."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """An open span; emits its record as one ``span.end`` event on exit."""

    __slots__ = ("kind", "attrs", "span_id", "parent_id", "_wall0", "_t0")

    def __init__(self, kind: str, attrs: Dict[str, object]) -> None:
        self.kind = kind
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self._wall0 = 0.0
        self._t0 = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.parent_id = _stack[-1] if _stack else 0
        self.span_id = next(_ids)
        _stack.append(self.span_id)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        dur = time.perf_counter() - self._t0
        if _stack and _stack[-1] == self.span_id:
            _stack.pop()
        bus = get_bus()
        if bus.active:
            payload: Dict[str, object] = {
                "kind": self.kind,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "pid": os.getpid(),
                "wall0": self._wall0,
                "dur_s": dur,
            }
            if exc_type is not None:
                payload["error"] = exc_type.__name__
            payload.update(self.attrs)
            bus.emit(SPAN_TOPIC, **payload)
        return False


def span(kind: str, /, **attrs: object):
    """Open a span of ``kind`` with flat attributes.

    Returns the shared no-op handle when tracing is off, so quiet call
    sites pay one flag check.  Use as a context manager::

        with spans.span("scheduler.run", name="HDLTS") as sp:
            ...
            sp.set(makespan=schedule.makespan)
    """
    if not tracing():
        return NOOP_SPAN
    return _Span(kind, attrs)


class SpanRecorder:
    """Bus subscriber collecting span records in memory.

    Subscribe with ``obs.subscribe(recorder, topics=("span.",))``; the
    records are the flat ``span.end`` payload dicts, ready for
    :func:`repro.obs.export.chrome_trace`.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def __call__(self, event: Event) -> None:
        """Collect one span record (bus subscriber hook)."""
        self.records.append(event.to_dict())

    def __len__(self) -> int:
        return len(self.records)
