"""The golden schedule corpus: JSONL reproducers replayed by pytest.

Every failure the fuzz campaign catches is shrunk and appended here as a
concrete graph (stored via :mod:`repro.io.json_io`, *not* as a generator
seed, so a numpy upgrade cannot silently change the instance).  The
normal test suite replays every entry on every run, which turns each
caught bug into a permanent regression test.

Three entry kinds:

* ``violation`` -- a (graph, scheduler, combo) that once violated an
  invariant; replay re-runs the full invariant registry and must come
  back clean;
* ``golden`` -- a graph with pinned expected makespans per scheduler;
  replay rebuilds each schedule and compares makespans to 1e-9 relative
  tolerance (plus the invariant registry);
* ``online_offline`` -- a graph on which the online executor's realized
  makespan must equal offline HDLTS's analytic one (the PR 1
  entry-duplication regression family);
* ``stream`` -- a fully materialized job-stream workload (jobs,
  arrivals, realized durations in ``expected["stream"]``); replay
  re-executes the pinned policy through the arena, runs the stream
  invariant registry, optionally re-asserts the single-job rate->0
  differential against ``OnlineHDLTS``/``replay_static``
  (``expected["differential"]``), and checks a pinned horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.io.json_io import graph_from_dict
from repro.model.task_graph import TaskGraph

__all__ = ["CorpusEntry", "append_entries", "read_corpus", "replay_entry"]

#: relative tolerance for pinned golden makespans -- much tighter than
#: the feasibility epsilon because replays recompute the *same* floats
REL_TOL = 1e-9

KINDS = ("violation", "golden", "online_offline", "stream")


@dataclass
class CorpusEntry:
    """One replayable reproducer."""

    kind: str
    id: str
    graph: Dict
    scheduler: Optional[str] = None
    compiled: Optional[bool] = None
    engine: Optional[str] = None
    source: str = ""
    #: the problems observed when the entry was captured (context only;
    #: replay recomputes from scratch)
    problems: List[str] = field(default_factory=list)
    #: kind-specific expectations, e.g. ``{"makespans": {"HDLTS": 73.0}}``
    expected: Dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}; known: {KINDS}")

    def to_dict(self) -> Dict:
        """JSON-ready form; unset optional fields are omitted."""
        data = {"kind": self.kind, "id": self.id, "graph": self.graph}
        for key in ("scheduler", "compiled", "engine"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        for key in ("source", "note"):
            if getattr(self, key):
                data[key] = getattr(self, key)
        if self.problems:
            data["problems"] = self.problems
        if self.expected:
            data["expected"] = self.expected
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CorpusEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            id=data["id"],
            graph=data["graph"],
            scheduler=data.get("scheduler"),
            compiled=data.get("compiled"),
            engine=data.get("engine"),
            source=data.get("source", ""),
            problems=list(data.get("problems", [])),
            expected=dict(data.get("expected", {})),
            note=data.get("note", ""),
        )

    def load_graph(self) -> TaskGraph:
        """The entry's concrete task graph, rebuilt from JSON data."""
        return graph_from_dict(self.graph)


def append_entries(
    path: Union[str, Path], entries: Iterable[CorpusEntry]
) -> int:
    """Append entries to a JSONL corpus file; returns how many."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_corpus(path: Union[str, Path]) -> List[CorpusEntry]:
    """All entries of one JSONL corpus file (missing file = empty)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(CorpusEntry.from_dict(json.loads(line)))
    return entries


def _build(entry: CorpusEntry, graph: TaskGraph, scheduler_name: str):
    """(prepared graph, schedule) under the entry's recorded combo."""
    from repro.baselines.registry import make_scheduler
    from repro.model.compiled import compiled_enabled
    from repro.runtime.context import activate, current_context

    scheduler = make_scheduler(scheduler_name)
    if entry.engine is not None and hasattr(scheduler, "engine"):
        scheduler.engine = entry.engine
    compiled = entry.compiled if entry.compiled is not None else compiled_enabled()
    with activate(current_context().with_(compiled=compiled)):
        prepared = scheduler.prepare(graph)
        schedule = scheduler.build_schedule(prepared)
    return prepared, schedule


def replay_entry(entry: CorpusEntry) -> List[str]:
    """Re-run the entry's scenario; list every present-day problem.

    An empty list means the corpus entry replays clean (the bug it
    captured stays fixed / the pinned behaviour still holds).
    """
    from repro.qa.invariants import invariants_for, run_invariants

    graph = entry.load_graph()
    problems: List[str] = []

    if entry.kind == "violation":
        scheduler = entry.scheduler or "HDLTS"
        try:
            prepared, schedule = _build(entry, graph, scheduler)
        except Exception as err:
            return [f"{scheduler} failed to build: {err!r}"]
        report = run_invariants(prepared, schedule, invariants_for(scheduler))
        problems.extend(f"{scheduler}: {p}" for p in report.all_problems())

    elif entry.kind == "golden":
        expected = entry.expected.get("makespans", {})
        if not expected:
            return [f"golden entry {entry.id} pins no makespans"]
        for name, want in expected.items():
            try:
                prepared, schedule = _build(entry, graph, name)
            except Exception as err:
                problems.append(f"{name} failed to build: {err!r}")
                continue
            got = schedule.makespan
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
                problems.append(
                    f"{name} makespan {got!r} != pinned {want!r}"
                )
            report = run_invariants(prepared, schedule, invariants_for(name))
            problems.extend(f"{name}: {p}" for p in report.all_problems())

    elif entry.kind == "online_offline":
        from repro.baselines.registry import make_scheduler
        from repro.dynamic.online import OnlineHDLTS

        offline = make_scheduler(entry.scheduler or "HDLTS")
        prepared = offline.prepare(graph)
        schedule = offline.build_schedule(prepared)
        online = OnlineHDLTS().execute(graph)
        if not math.isclose(
            online.makespan, schedule.makespan, rel_tol=REL_TOL, abs_tol=REL_TOL
        ):
            problems.append(
                f"online makespan {online.makespan!r} != offline "
                f"{schedule.makespan!r}"
            )
        pinned = entry.expected.get("makespan")
        if pinned is not None and not math.isclose(
            schedule.makespan, pinned, rel_tol=REL_TOL, abs_tol=REL_TOL
        ):
            problems.append(
                f"offline makespan {schedule.makespan!r} != pinned {pinned!r}"
            )
        report = run_invariants(prepared, schedule)
        problems.extend(report.all_problems())

    elif entry.kind == "stream":
        problems.extend(_replay_stream(entry))

    return problems


def _replay_stream(entry: CorpusEntry) -> List[str]:
    """Replay a pinned job-stream workload through the arena."""
    from repro.qa.invariants import run_stream_invariants
    from repro.stream.arena import run_stream
    from repro.stream.spec import instance_from_dict

    data = entry.expected.get("stream")
    if not data:
        return [f"stream entry {entry.id} pins no instance"]
    instance = instance_from_dict(data)
    policy = entry.scheduler or "OnlineHDLTS"
    problems: List[str] = []
    try:
        result = run_stream(instance, policy)
    except Exception as err:
        return [f"{policy} stream replay failed: {err!r}"]
    report = run_stream_invariants(instance, result)
    problems.extend(f"{policy}: {p}" for p in report.all_problems())

    pinned = entry.expected.get("horizon")
    if pinned is not None and not math.isclose(
        result.horizon, pinned, rel_tol=REL_TOL, abs_tol=REL_TOL
    ):
        problems.append(
            f"{policy} horizon {result.horizon!r} != pinned {pinned!r}"
        )

    # single-job rate->0 differential: the arena must reproduce the
    # offline executors bit-for-bit on a lone job arriving at time zero
    if entry.expected.get("differential") and len(instance.jobs) == 1:
        job = instance.jobs[0]
        if job.arrival != 0.0:
            problems.append(
                "differential pinned but the lone job arrives at "
                f"{job.arrival!r}, not 0.0"
            )
        else:
            problems.extend(
                _stream_differential(instance, policy, result)
            )
    return problems


def _stream_differential(instance, policy: str, result) -> List[str]:
    """Compare a single-job arena run against the offline executors."""
    from repro.baselines.registry import make_scheduler
    from repro.dynamic.online import OnlineHDLTS, OnlineRecord, replay_static
    from repro.stream.arena import STATIC_PREFIX

    job = instance.jobs[0]
    duration_fn = job.duration_fn()
    if policy.startswith(STATIC_PREFIX):
        scheduler = make_scheduler(policy[len(STATIC_PREFIX):])
        schedule = scheduler.run(job.graph).schedule
        reference = replay_static(job.graph, schedule, duration_fn)
    else:
        reference = OnlineHDLTS().execute(job.graph, duration_fn)
    got = [
        OnlineRecord(r.task, r.proc, r.start, r.finish, r.duplicate, r.lost)
        for r in result.records
    ]
    problems: List[str] = []
    if got != reference.records:
        problems.append(
            f"{policy} single-job records diverge from the offline "
            f"executor ({len(got)} vs {len(reference.records)} dispatches)"
        )
    finish = result.jobs[0].finish
    if not math.isclose(
        finish - job.arrival,
        reference.makespan,
        rel_tol=REL_TOL,
        abs_tol=REL_TOL,
    ):
        problems.append(
            f"{policy} single-job makespan {finish!r} != offline "
            f"{reference.makespan!r}"
        )
    return problems
