"""Exporters: Chrome trace-event JSON and Prometheus textfiles.

Two read-only views over the telemetry the library already records:

* :func:`chrome_trace` turns ``span.end`` records (from a
  :class:`~repro.obs.spans.SpanRecorder` or the per-process
  ``spans-<pid>.jsonl`` files under a run's telemetry directory) into a
  Chrome trace-event document that loads directly in Perfetto or
  ``chrome://tracing``.  Spans render as complete (``"ph": "X"``)
  events on one lane per OS process -- the run's main process plus one
  lane per pool worker.  Optionally a computed
  :class:`~repro.schedule.schedule.Schedule` is overlaid as a synthetic
  process whose lanes are the per-CPU Gantt rows
  (:func:`repro.schedule.gantt.gantt_lanes`), so a sim-time schedule
  and the wall-time run that produced it are inspectable in one UI.
* :func:`prometheus_text` renders a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` in the Prometheus
  text exposition format, suitable for the node-exporter textfile
  collector (``<run_dir>/telemetry/metrics.prom``).

Neither exporter imports anything heavier than ``json``; both are pure
functions over plain dicts.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.schedule.gantt import gantt_lanes
from repro.schedule.schedule import Schedule

__all__ = [
    "read_span_records",
    "chrome_trace",
    "write_chrome_trace",
    "schedule_trace_events",
    "prometheus_text",
    "write_prometheus",
]

PathLike = Union[str, pathlib.Path]

#: Chrome pid of the wall-time lanes (one tid per OS process)
WALL_PID = 1
#: Chrome pid of the synthetic sim-time schedule overlay
SCHEDULE_PID = 2

#: span-record keys consumed by the exporter (everything else -> args)
_CONSUMED = ("event", "ts", "kind", "span_id", "parent_id", "pid", "wall0", "dur_s")


def read_span_records(path: PathLike) -> List[Dict[str, object]]:
    """Load span records from a JSONL file of bus events.

    Non-span events are skipped, and reading tolerates a torn tail the
    same way the chunk ledger does: a line that does not parse (a
    process killed mid-write) ends the file.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                break
            if row.get("event") == "span.end":
                records.append(row)
    return records


def schedule_trace_events(
    schedule: Schedule,
    pid: int = SCHEDULE_PID,
    sim_unit_us: float = 1000.0,
    label: str = "schedule (sim time)",
) -> List[Dict[str, object]]:
    """A computed schedule's per-CPU Gantt as synthetic trace lanes.

    Each CPU becomes one thread lane holding a complete event per
    committed task copy; ``sim_unit_us`` maps one sim-time unit to
    microseconds (the default renders one unit as 1 ms in the UI).
    """
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": label},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"sort_index": 1},
        },
    ]
    for lane_index, (lane, slots) in enumerate(gantt_lanes(schedule)):
        tid = lane_index + 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": lane},
            }
        )
        for slot in slots:
            events.append(
                {
                    "name": slot.label,
                    "cat": "schedule",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": slot.start * sim_unit_us,
                    "dur": (slot.end - slot.start) * sim_unit_us,
                    "args": {
                        "start": slot.start,
                        "end": slot.end,
                        "duplicate": slot.duplicate,
                    },
                }
            )
    return events


def chrome_trace(
    records: Iterable[Dict[str, object]],
    schedule: Optional[Schedule] = None,
    sim_unit_us: float = 1000.0,
    run_label: str = "repro (wall time)",
) -> Dict[str, object]:
    """Build a Chrome trace-event document from span records.

    ``records`` are flat ``span.end`` payloads (what a
    :class:`~repro.obs.spans.SpanRecorder` collects, or
    :func:`read_span_records` loads).  Every OS process becomes one
    thread lane under a single "wall time" trace process; timestamps
    are wall-clock microseconds relative to the earliest span start, so
    lanes from different worker processes line up.  Pass ``schedule``
    to additionally overlay its Gantt as a sim-time process.
    """
    records = [dict(r) for r in records]
    events: List[Dict[str, object]] = []
    base = min(
        (float(r["wall0"]) for r in records if "wall0" in r), default=0.0
    )
    pids = sorted({int(r.get("pid", 0)) for r in records})
    mains = {
        int(r.get("pid", 0)) for r in records if r.get("kind") == "sweep.run"
    }
    if not mains and pids:
        mains = {pids[0]}

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": WALL_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": run_label},
        }
    )
    for sort_index, pid in enumerate(sorted(pids, key=lambda p: (p not in mains, p))):
        role = "main" if pid in mains else "worker"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": pid,
                "ts": 0,
                "args": {"name": f"{role} {pid}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": WALL_PID,
                "tid": pid,
                "ts": 0,
                "args": {"sort_index": sort_index},
            }
        )
    for record in records:
        kind = str(record.get("kind", "span"))
        args = {
            k: v for k, v in record.items() if k not in _CONSUMED
        }
        args["span_id"] = record.get("span_id")
        args["parent_id"] = record.get("parent_id")
        events.append(
            {
                "name": str(record.get("name") or kind),
                "cat": kind,
                "ph": "X",
                "pid": WALL_PID,
                "tid": int(record.get("pid", 0)),
                "ts": (float(record.get("wall0", base)) - base) * 1e6,
                "dur": float(record.get("dur_s", 0.0)) * 1e6,
                "args": args,
            }
        )
    if schedule is not None:
        events.extend(
            schedule_trace_events(schedule, sim_unit_us=sim_unit_us)
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: PathLike,
    records: Iterable[Dict[str, object]],
    schedule: Optional[Schedule] = None,
    sim_unit_us: float = 1000.0,
) -> Dict[str, object]:
    """Write :func:`chrome_trace` output as JSON; returns the document."""
    doc = chrome_trace(records, schedule=schedule, sim_unit_us=sim_unit_us)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


# -- Prometheus text exposition -----------------------------------------
def _metric_name(name: str, prefix: str) -> str:
    """``scope/metric`` -> a legal Prometheus metric name."""
    return f"{prefix}_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    """Prometheus sample value (repr-exact floats, bare ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(
    snapshot: Dict[str, Dict[str, object]], prefix: str = "repro"
) -> str:
    """Render a metrics snapshot in the Prometheus text format.

    Counters become ``<prefix>_<name>_total``, gauges stay plain, and
    timers expose a summary (``_seconds_count`` / ``_seconds_sum``) plus
    min/max gauges.  The output ends with a newline as the textfile
    collector requires.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(int(value))}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(float(value))}")
    for name, data in snapshot.get("timers", {}).items():
        metric = _metric_name(name, prefix) + "_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_fmt(int(data['count']))}")
        lines.append(f"{metric}_sum {_fmt(float(data['total']))}")
        for bound in ("min", "max"):
            lines.append(f"# TYPE {metric}_{bound} gauge")
            lines.append(f"{metric}_{bound} {_fmt(float(data[bound]))}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: PathLike,
    snapshot: Dict[str, Dict[str, object]],
    prefix: str = "repro",
) -> None:
    """Write :func:`prometheus_text` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(snapshot, prefix=prefix))
