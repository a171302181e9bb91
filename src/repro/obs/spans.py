"""Spans: the program's one duration clock.

A *span* is one timed unit of work -- a scheduler run, one sweep
replication, one parallel worker chunk, one profiler phase -- and the
only place the program reads a duration clock.  Closing a span keeps
its duration on the handle (``dur_s``), so a caller that needs a wall
time reads it off its span whether or not anything records, and the
span *records* that duration in two cases:

* while tracing is on (the ``trace`` field of the active
  :class:`~repro.runtime.context.RunContext`) it emits one ``span.end``
  event whose payload is the complete span record -- a process-unique
  ``span_id``, the ``parent_id`` of the enclosing span (0 at the root),
  the wall-clock start, ``dur_s`` and a flat attribute dict.  Spans ride
  the :class:`~repro.obs.events.EventBus`, so every consumer (JSONL
  sinks, in-memory recorders, tests) works unchanged, and the
  Chrome-trace exporter (:mod:`repro.obs.export`) is just another
  subscriber reading those records back;
* while metrics are on (the ``metrics`` field) it feeds the metrics
  :class:`~repro.obs.metrics.Timer` it names.

Worker processes therefore start tracing simply by adopting a context
with ``trace=True``; the pool initializer only has to attach a sink.

Span kinds the library opens:

==========================  ==================================================
``sweep.run``               one whole sweep (serial or parallel collector)
``sweep.point``             one x point of a serial sweep
``sweep.chunk``             one worker chunk (replication range of one point)
``sweep.replication``       one scalar replication: every scheduler on one
                            instance (timer ``sweep/replication``)
``sweep.batch``             one batched lane group (timer ``sweep/batch``)
``scheduler.run``           one :meth:`Scheduler.run` (the phase root)
``phase``                   one profiler phase (:func:`repro.obs.profile.phase`)
==========================  ==================================================

A span opened with ``phase=name`` joins the *phase stack*: its timer
key is the names of the enclosing phase spans and its own, joined with
``/`` (``HDLTS/eft_vector``).  ``scheduler.run`` opens the root, the
profiler's :func:`~repro.obs.profile.phase` the stages inside it.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.events import Event, get_bus
from repro.obs.metrics import get_metrics
from repro.runtime.context import activate, current_context

__all__ = [
    "SPAN_TOPIC",
    "Span",
    "span",
    "tracing",
    "tracing_scope",
    "phase_root",
    "SpanRecorder",
]

#: the event name span records are published under
SPAN_TOPIC = "span.end"

#: recording spans open in this process, innermost last
_stack: List["Span"] = []

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


def _phase_key() -> Optional[str]:
    """Timer key of the innermost open phase span (None outside one)."""
    for sp in reversed(_stack):
        if sp.phase is not None:
            return sp.phase
    return None


def phase_root() -> Optional[str]:
    """Name of the outermost open phase span (the scheduler in a run)."""
    for sp in _stack:
        if sp.phase is not None:
            return sp.phase
    return None


class _NoopSpan:
    """Shared do-nothing handle: a quiet :func:`~repro.obs.profile.phase`."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        """Ignore attributes (nothing records)."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """An open span: times its block and records it as the context says.

    ``timer`` names the metrics timer the duration feeds; ``phase``
    joins the phase stack under that name, and the joined key becomes
    the timer (and the ``name`` attribute, unless one was given).  The
    switches are read once, on entry; a span that records neither takes
    no id and stays off the stack.
    """

    __slots__ = (
        "kind", "attrs", "timer", "phase", "dur_s", "span_id",
        "parent_id", "_trace", "_record", "_wall0", "_t0",
    )

    def __init__(
        self,
        kind: str,
        attrs: Dict[str, object],
        timer: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.attrs = attrs
        self.timer = timer
        self.phase = phase
        self.dur_s = 0.0
        self.span_id = 0
        self.parent_id = 0

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        ctx = current_context()
        self._trace = ctx.trace
        self._record = ctx.metrics
        if self._trace or self._record:
            if self.phase is not None:
                outer = _phase_key()
                if outer is not None:
                    self.phase = f"{outer}/{self.phase}"
                self.timer = self.phase
                self.attrs.setdefault("name", self.phase)
            self.parent_id = _stack[-1].span_id if _stack else 0
            self.span_id = next(_ids)
            _stack.append(self)
            if self._trace:
                self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self.dur_s = time.perf_counter() - self._t0
        if not (self._trace or self._record):
            return False
        if _stack and _stack[-1] is self:
            _stack.pop()
        if self._record and self.timer is not None:
            get_metrics().timer(self.timer).observe(self.dur_s)
        if self._trace:
            bus = get_bus()
            if bus.active:
                payload: Dict[str, object] = {
                    "kind": self.kind,
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "pid": os.getpid(),
                    "wall0": self._wall0,
                    "dur_s": self.dur_s,
                }
                if exc_type is not None:
                    payload["error"] = exc_type.__name__
                payload.update(self.attrs)
                bus.emit(SPAN_TOPIC, **payload)
        return False


def span(
    kind: str, /, timer: Optional[str] = None, phase: Optional[str] = None,
    **attrs: object,
) -> Span:
    """Open a span of ``kind`` with flat attributes.

    ``timer`` and ``phase`` are described on :class:`Span`.  Use as a
    context manager and read the duration off the handle::

        with spans.span("scheduler.run", phase="HDLTS") as sp:
            ...
            sp.set(makespan=schedule.makespan)
        wall = sp.dur_s
    """
    return Span(kind, attrs, timer, phase)


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
