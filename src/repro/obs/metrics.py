"""Metrics registry: counters, gauges and timers.

Names follow a ``scope/metric`` convention (``HDLTS/eft_evaluations``,
``sweep/replication``) so one registry can hold every scheduler's
figures side by side.  A registry serializes to a plain-dict
:meth:`~MetricsRegistry.snapshot` and folds snapshots back in with
:meth:`~MetricsRegistry.merge`, which is how the process-parallel sweep
runner combines per-worker measurements: counts merge by addition, so
counter totals are bit-identical to a serial run regardless of how the
work was chunked.

Registries stack: :func:`scoped` pushes a fresh registry that the
measured code writes into, and (by default) merges its content into
the parent when it pops -- so a sweep can own its delta while an outer
CLI session still sees the totals.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "get_metrics",
    "scoped",
    "merge_snapshots",
    "format_metrics",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` to the counter."""
        self.value += n


class Gauge:
    """A point-in-time value; merges keep the maximum observed."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Timer:
    """Accumulated wall-clock time: count, total and extrema in seconds."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, seconds: float) -> None:
        """Fold one measured duration into the accumulator."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Average seconds per observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges and timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- accessors (create on first use) --------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge()
            return g

    def timer(self, name: str) -> Timer:
        """The timer registered under ``name`` (created on first use)."""
        try:
            return self._timers[name]
        except KeyError:
            t = self._timers[name] = Timer()
            return t

    def __bool__(self) -> bool:
        """True once anything has been registered."""
        return bool(self._counters or self._gauges or self._timers)

    # -- serialization ---------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict form: picklable, JSON-able, mergeable."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "timers": {
                k: {
                    "count": t.count,
                    "total": t.total,
                    "min": t.min if t.count else 0.0,
                    "max": t.max if t.count else 0.0,
                }
                for k, t in sorted(self._timers.items())
            },
        }

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and timer counts add; extrema combine; gauges keep the
        maximum (the only order-independent choice).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, float(value))
        for name, data in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            if not data["count"]:
                continue
            timer.count += int(data["count"])
            timer.total += float(data["total"])
            timer.min = min(timer.min, float(data["min"]))
            timer.max = max(timer.max, float(data["max"]))

    def clear(self) -> None:
        """Drop every registered metric."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


def merge_snapshots(*snapshots: Dict[str, Dict[str, object]]) -> Dict:
    """Pure merge of snapshot dicts (used by the parallel sweep runner)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()


# -- the registry stack -------------------------------------------------
_STACK: List[MetricsRegistry] = [MetricsRegistry()]


def get_metrics() -> MetricsRegistry:
    """The registry measured code currently writes into."""
    return _STACK[-1]


@contextmanager
def scoped(merge_up: bool = True) -> Iterator[MetricsRegistry]:
    """Push a fresh registry for the duration of the block.

    With ``merge_up`` (the default) the scoped registry's content is
    folded into the enclosing registry on exit, so outer observers still
    see the totals while the block owns its own delta.
    """
    registry = MetricsRegistry()
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.pop()
        if merge_up:
            _STACK[-1].merge(registry.snapshot())


# -- rendering ----------------------------------------------------------
def format_metrics(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Human-readable rendering of a snapshot (CLI ``--metrics``)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        width = max(len(k) for k in counters)
        lines.append("counters:")
        lines.extend(f"  {k.ljust(width)}  {v}" for k, v in counters.items())
    gauges = snapshot.get("gauges", {})
    if gauges:
        width = max(len(k) for k in gauges)
        lines.append("gauges:")
        lines.extend(f"  {k.ljust(width)}  {v:g}" for k, v in gauges.items())
    timers = snapshot.get("timers", {})
    if timers:
        width = max(len(k) for k in timers)
        lines.append("timers:")
        for k, t in timers.items():
            count = t["count"]
            mean_ms = (t["total"] / count * 1e3) if count else 0.0
            lines.append(
                f"  {k.ljust(width)}  n={count}  total={t['total'] * 1e3:.2f}ms"
                f"  mean={mean_ms:.3f}ms  max={t['max'] * 1e3:.3f}ms"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
