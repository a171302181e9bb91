"""Structured event bus: the nervous system of the observability layer.

Producers emit named events (``scheduler.decision``, ``sim.task_finish``,
``sweep.replication``, ...) with a flat JSON-serializable payload;
subscribers receive :class:`Event` records.  The bus is dependency-free
and built for hot paths: :meth:`EventBus.emit` returns immediately when
nobody listens, and call sites that must build a payload dict should
gate on :attr:`EventBus.active` so a quiet bus costs one attribute read.

Event taxonomy (see ``docs/observability.md`` for the payload schemas):

==========================  ==================================================
``scheduler.run``           one completed :meth:`Scheduler.run`
``scheduler.decision``      one mapping decision (a Table-I row)
``scheduler.duplication``   an entry duplicate was materialized
``sim.task_finish``         the simulator committed one task copy
``stream.arrival``          a job joined the stream arena
``stream.dispatch``         an arena dispatch (successful or lost),
                            ``OnlineHDLTS`` runs included
``stream.job_finish``       a stream job completed
``sweep.point``             one x point of a sweep started
``sweep.replication``       one replication of one x point finished
``sweep.chunk``             one parallel worker chunk finished
``span.end``                a hierarchical span closed (:mod:`repro.obs.spans`)
==========================  ==================================================
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Event", "EventBus", "JsonlSink", "get_bus"]

#: how many recent delivery failures a bus remembers (for diagnostics)
_ERROR_KEEP = 16

Subscriber = Callable[["Event"], None]


@dataclass(frozen=True)
class Event:
    """One structured occurrence: a dotted name plus a flat payload."""

    name: str
    payload: Dict[str, object] = field(default_factory=dict)
    ts: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-ready form (payload keys hoisted to the top level)."""
        out: Dict[str, object] = {"event": self.name, "ts": self.ts}
        out.update(self.payload)
        return out


def _topic_matches(topic: str, name: str) -> bool:
    """``"scheduler."`` matches the family; an exact name matches itself."""
    if topic == "*" or topic == name:
        return True
    return topic.endswith(".") and name.startswith(topic)


class EventBus:
    """Synchronous fan-out of events to subscribers.

    Subscribers are plain callables; :meth:`subscribe` returns an
    unsubscribe closure so scoped listeners (trace recorders, JSONL
    sinks) can detach without knowing about each other.

    Delivery is *isolated*: a subscriber (or backend) that raises does
    not corrupt the publishing run or wedge the other subscribers --
    the exception is recorded on :attr:`errors`, a ``RuntimeWarning``
    fires once per offender per process, and delivery continues.

    Besides subscribers the bus can carry one pluggable **backend**
    (:meth:`set_backend`): a durable delivery target -- e.g. a
    :class:`~repro.service.worker.StoreEventSink` persisting events
    into the service store so workers in other processes can publish
    progress home.  A backend receives every *published* event
    (optionally topic-filtered) but does **not** flip :attr:`active`:
    ``active`` is the hot-path gate, and service/progress events are
    emitted unconditionally by their producers, while per-decision
    instrumentation stays quiet unless a subscriber asks for it.
    """

    def __init__(self) -> None:
        self._subscribers: List[Tuple[Subscriber, Optional[Tuple[str, ...]]]] = []
        self._backend: Optional[Tuple[Subscriber, Optional[Tuple[str, ...]]]] = None
        self._warned: set = set()
        #: recent delivery failures: (subscriber repr, exception)
        self.errors: List[Tuple[str, BaseException]] = []

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached.

        Hot paths check this before building an event payload so an
        idle bus adds no allocations to the emitting code.  A
        backend alone does not count: it receives the unconditionally
        emitted (cold-path) events without dragging per-decision
        payload construction into every run.
        """
        return bool(self._subscribers)

    def set_backend(
        self,
        backend: Optional[Subscriber],
        topics: Optional[Sequence[str]] = None,
    ) -> Optional[Subscriber]:
        """Install (or, with ``None``, remove) the bus backend.

        Returns the previous backend so scoped installers can restore
        it.  Unlike subscribers the backend survives :meth:`clear` --
        it represents where this process durably publishes, not a
        transient listener.
        """
        previous = self._backend[0] if self._backend is not None else None
        if backend is None:
            self._backend = None
        else:
            self._backend = (
                backend, tuple(topics) if topics is not None else None
            )
        return previous

    def subscribe(
        self,
        subscriber: Subscriber,
        topics: Optional[Sequence[str]] = None,
    ) -> Callable[[], None]:
        """Attach ``subscriber``; returns a function that detaches it.

        ``topics`` filters delivery: exact names (``"scheduler.decision"``),
        family prefixes ending in a dot (``"scheduler."``), or ``"*"``.
        ``None`` receives everything.
        """
        entry = (subscriber, tuple(topics) if topics is not None else None)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def emit(self, name: str, /, **payload: object) -> None:
        """Deliver one event to every matching subscriber and the backend.

        A no-op (no Event allocation, no clock read) when nobody --
        subscriber or backend -- would receive it.
        """
        if not self._subscribers and self._backend is None:
            return
        event = Event(name=name, payload=payload, ts=time.time())
        self.publish(event)

    def publish(self, event: Event) -> None:
        """Deliver an already-constructed :class:`Event`.

        The backend receives the event first (progress must outlive a
        crashing listener), then every matching subscriber.  A raising
        target is quarantined for this delivery only: the error lands
        on :attr:`errors`, a ``RuntimeWarning`` fires the first time
        that target misbehaves, and the remaining targets still get
        the event.
        """
        if self._backend is not None:
            backend, topics = self._backend
            if topics is None or any(
                _topic_matches(t, event.name) for t in topics
            ):
                self._deliver(backend, event)
        for subscriber, topics in list(self._subscribers):
            if topics is None or any(_topic_matches(t, event.name) for t in topics):
                self._deliver(subscriber, event)

    def _deliver(self, target: Subscriber, event: Event) -> None:
        try:
            target(event)
        except Exception as exc:
            self.errors.append((repr(target), exc))
            del self.errors[:-_ERROR_KEEP]
            key = id(target)
            if key not in self._warned:
                self._warned.add(key)
                warnings.warn(
                    f"event bus subscriber {target!r} raised "
                    f"{type(exc).__name__} on {event.name!r}; further "
                    "errors from it will be recorded silently",
                    RuntimeWarning,
                    stacklevel=4,
                )

    def clear(self) -> None:
        """Detach every subscriber and forget recorded delivery errors
        (test isolation helper).  The backend, if any, stays installed:
        remove it explicitly with ``set_backend(None)``."""
        self._subscribers.clear()
        self.errors.clear()
        self._warned.clear()


def _json_default(obj: object) -> object:
    """Serialize numpy scalars / containers without importing numpy."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


class JsonlSink:
    """Bus subscriber writing one JSON object per event to a file.

    Every line round-trips through ``json.loads``.  The sink remembers
    the PID that opened the file and ignores events delivered in forked
    worker processes, so a parallel sweep never interleaves writes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._pid = os.getpid()
        self.n_written = 0

    def __call__(self, event: Event) -> None:
        """Write one event as a JSON line (bus subscriber hook)."""
        if os.getpid() != self._pid or self._fh.closed:
            return
        json.dump(event.to_dict(), self._fh, default=_json_default)
        self._fh.write("\n")
        self.n_written += 1

    def flush(self) -> None:
        """Push buffered lines to disk (worker loops call this between
        chunks so a terminated pool leaves complete span files)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        """Support ``with JsonlSink(path) as sink:`` usage."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the sink on scope exit."""
        self.close()


#: the process-global default bus used by the library code
_BUS = EventBus()


def get_bus() -> EventBus:
    """The process-global event bus."""
    return _BUS
