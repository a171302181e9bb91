"""In-memory spans around program functions, and the arithmetic over them.

The benchmark instruments the program from outside: :class:`Tracer`
replaces a module function or class method with a wrapper that times
every call as a span, so nothing under ``src/`` changes.  A span record
has the shape of the records :mod:`repro.obs.spans` writes (``event``,
``kind``, ``span_id``, ``parent_id``, ``pid``, ``wall0``, ``dur_s`` plus
attributes), so :func:`repro.obs.export.chrome_trace` turns them into a
Chrome trace-event document that Perfetto opens.

Wrappers come in two grades.  *Coarse* ones sit on operations of a
millisecond or more (one replication, one service task) and record in
every run: the end-to-end metrics are computed from them.  *Detail*
ones sit on every layer boundary and record only while
:attr:`Tracer.detail` is on, which is the traced run.

This module imports nothing from the program, so its tests run alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "METRIC_NAME",
    "UNIT",
    "Tracer",
    "exclusive_times",
    "percentile",
    "samples_needed",
]

#: metric and workload names: a letter or digit, then at most 63 more
#: letters, digits, ``_``, ``.`` and ``-``
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: metric units, as in ``ms``, ``1/s`` and ``count``
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

Record = Dict[str, object]
Describe = Callable[[tuple, dict, object], Dict[str, object]]


class Tracer:
    """Span recorder for one process.

    ``attrs`` are stamped on every span that has no parent in this
    process; the service worker uses them to tag its spans with the
    ticket of the job they serve, which links them to the client's job
    span when the two processes' records are merged.  ``detail_fn``,
    when given, decides per call whether detail spans record (the
    worker asks the adopted run context), in place of ``detail``.
    """

    def __init__(self, detail_fn: Optional[Callable[[], bool]] = None) -> None:
        self.records: List[Record] = []
        self.detail = False
        self.detail_fn = detail_fn
        self.attrs: Dict[str, object] = {}
        self._stack: List[Record] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []

    def _recording(self, coarse: bool) -> bool:
        if coarse:
            return True
        return self.detail_fn() if self.detail_fn is not None else self.detail

    def _open(self, kind: str) -> Record:
        parent = self._stack[-1]["span_id"] if self._stack else None
        record: Record = {
            "kind": kind,
            "span_id": f"{self._pid}-{next(self._ids)}",
            "parent_id": parent,
            "wall0": time.time(),
            "_t0": time.perf_counter(),
        }
        self._stack.append(record)
        return record

    def _close(self, record: Record, attrs: Dict[str, object]) -> None:
        dur = time.perf_counter() - record.pop("_t0")
        self._stack.pop()
        record.update(attrs)
        if record["parent_id"] is None:
            for key, value in self.attrs.items():
                record.setdefault(key, value)
        record.update(event="span.end", pid=self._pid, dur_s=dur)
        self.records.append(record)

    @contextmanager
    def span(self, kind: str, **attrs: object) -> Iterator[Record]:
        """Time a block; attributes set on the yielded record are kept."""
        record = self._open(kind)
        record.update(attrs)
        try:
            yield record
        finally:
            self._close(record, {})

    def wrap(
        self,
        owner: object,
        attr: str,
        kind: str,
        describe: Optional[Describe] = None,
        coarse: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``kind`` span.

        ``describe(args, kwargs, result)`` returns attributes for the
        record (the scheduler's name, a batch's lane count, ...).  A
        call that raises is recorded with ``error=True``.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._recording(coarse):
                return original(*args, **kwargs)
            record = self._open(kind)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(record, {"error": True})
                raise
            self._close(record, describe(args, kwargs, result) if describe else {})
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Record]:
        """Hand over the records so far and start a fresh list."""
        records, self.records = self.records, []
        return records


def exclusive_times(records: Iterable[Record]) -> Dict[str, float]:
    """Seconds each span owns: what no deeper span covers.

    A span's parent is the record named by its ``parent_id``; a child is
    clipped to its parent's interval.  At each instant the deepest
    active span owns the time, and among equally deep spans the one that
    started last (children from another process can overlap their
    siblings).  Every instant of a root span is owned by exactly one
    span of its tree, so the owned times of a tree sum to the root's
    duration; for properly nested spans a span's owned time is its
    duration minus the union of its children.
    """
    by_id = {str(r["span_id"]): r for r in records}
    # epoch seconds keep ~0.2 us of precision; offsets from the first
    # start keep the segment arithmetic exact to the nanosecond
    base = min((float(r["wall0"]) for r in by_id.values()), default=0.0)
    placed: Dict[str, Tuple[int, float, float]] = {}

    def place(span_id: str) -> Tuple[int, float, float]:
        if span_id in placed:
            return placed[span_id]
        record = by_id[span_id]
        start = float(record["wall0"]) - base
        end = start + float(record["dur_s"])
        depth = 0
        parent = record.get("parent_id")
        if parent is not None and str(parent) in by_id:
            p_depth, p_start, p_end = place(str(parent))
            depth = p_depth + 1
            start, end = max(start, p_start), min(end, p_end)
        placed[span_id] = (depth, start, max(start, end))
        return placed[span_id]

    events = []
    for seq, span_id in enumerate(by_id):
        depth, start, end = place(span_id)
        if end > start:
            events.append((start, 1, seq, span_id, depth))
            events.append((end, 0, seq, span_id, depth))
    events.sort()
    owned = dict.fromkeys(by_id, 0.0)
    active: Dict[str, Tuple[int, float, int]] = {}
    previous = 0.0
    for at, opening, seq, span_id, depth in events:
        if active and at > previous:
            owner = max(active, key=active.__getitem__)
            owned[owner] += at - previous
        if opening:
            active[span_id] = (depth, at, seq)
        else:
            del active[span_id]
        previous = at
    return owned


def percentile(samples: Iterable[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refused without enough tail.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    above the reported rank: a percentile read off fewer than ten
    samples beyond it is noise.
    """
    ordered = sorted(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if not ordered or beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} beyond "
            f"it; at least {min_beyond} are needed"
        )
    return ordered[rank - 1]


def samples_needed(q: float, min_beyond: int = 10) -> int:
    """Fewest samples for which :func:`percentile` reports ``q``."""
    n = min_beyond + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_beyond:
        n += 1
    return n
