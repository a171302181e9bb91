"""The program's layers as the benchmark sees them: wrappers and metrics.

Each ``install_*`` function wraps the public functions of one side of
the program (see :class:`tracing.Tracer`); :func:`layer_metrics` turns
the spans of the traced passes into the per-layer metrics named in
``BENCHMARK.json``, and :func:`self_time_table` into the per-layer
self-time table every traced run prints.
"""

from __future__ import annotations

from statistics import fmean
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Record, Tracer, exclusive_times

#: the paper's scheduler set (HDLTS plus the four baselines)
PAPER_SET = ("HDLTS", "HEFT", "PETS", "PEFT", "SDBATS")
#: the members of the paper set the batched kernel runs
BATCHED = ("HDLTS", "HEFT", "PEFT", "SDBATS")
#: the stream sweep's default policies
POLICIES = ("OnlineHDLTS", "Static/HDLTS", "Static/HEFT")
#: CompiledGraph's rank, OCT and critical-path artifacts
RANK_METHODS = ("upward_rank", "downward_rank", "oct_table", "oct_rank", "cp_min_bound")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "replications_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def segment(name: str) -> str:
    """A policy or scheduler name as a metric-name segment."""
    return name.replace("/", "-")


def _per_layer() -> Dict[str, str]:
    units = {
        "generator.busy_s": "s",
        "generator.graphs": "count",
        "model.compile_s": "s",
        "model.rank_s": "s",
    }
    for s in PAPER_SET:
        units.update({
            f"sched.{s}.busy_s": "s",
            f"sched.{s}.runs": "count",
            f"sched.{s}.decisions": "count",
            f"sched.{s}.eft_evaluations": "count",
            f"sched.{s}.decisions_per_s": "1/s",
        })
    units["batch.pack_s"] = "s"
    units.update({f"batch.{s}.busy_s": "s" for s in BATCHED})
    units.update({
        "batch.lanes": "count",
        "batch.lane_fraction": "fraction",
        "harness.self_s": "s",
        "stream.build_s": "s",
        "arena.self_s": "s",
    })
    units.update({f"arena.{segment(p)}.busy_s": "s" for p in POLICIES})
    units.update({
        "arena.jobs_per_s": "1/s",
        "arena.lost_jobs": "count",
        "store.submit_ms": "ms",
        "queue.claim_ms": "ms",
        "queue.commit_ms": "ms",
        "api.job_status_ms": "ms",
        "api.result_ms": "ms",
        "worker.task_ms": "ms",
        "service.wait_ms": "ms",
        "queue.claims": "count",
        "queue.empty_claim_fraction": "fraction",
        "queue.failed": "count",
        "trace.overhead_frac": "fraction",
        "unattributed_s": "s",
    })
    return units


PER_LAYER: Dict[str, str] = _per_layer()


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def install_compute_spans(tracer: Tracer) -> None:
    """Detail spans on generator, model, scheduler, batch and stream."""
    from repro.core import base, batch
    from repro.experiments import graphspec, harness
    from repro.model import compiled
    from repro.stream import spec as stream_spec

    tracer.wrap(graphspec.GraphSpec, "build", "generator")
    tracer.wrap(compiled.CompiledGraph, "__init__", "model.compile")
    for method in RANK_METHODS:
        tracer.wrap(compiled.CompiledGraph, method, "model.rank")
    tracer.wrap(base.Scheduler, "run", "sched", lambda a, k, r: {"name": a[0].name})
    tracer.wrap(
        batch.CompiledBatch, "__init__", "batch.pack",
        lambda a, k, r: {"lanes": len(a[1])},
    )
    tracer.wrap(
        harness, "run_batch", "batch.run",
        lambda a, k, r: {"name": r.scheduler, "lanes": a[0].n_lanes},
    )
    tracer.wrap(stream_spec.StreamSpec, "build", "stream.build")


def install_harness_spans(tracer: Tracer) -> None:
    """Harness spans for the in-process sweeps.

    One replication (scalar) and one batched group are coarse: the
    end-to-end job latency is computed from them in every run.
    """
    from repro.experiments import harness
    from repro.stream import spec as stream_spec

    tracer.wrap(harness, "run_replications", "harness")
    tracer.wrap(harness, "run_replication", "harness.replication", coarse=True)
    tracer.wrap(
        harness, "_run_batched_group", "harness.group",
        lambda a, k, r: {"lanes": a[3].n_lanes}, coarse=True,
    )
    tracer.wrap(
        stream_spec, "run_stream", "arena",
        lambda a, k, r: {
            "name": a[1], "jobs": len(a[0].jobs), "lost": len(r.lost_jobs())
        },
        coarse=True,
    )


def install_client_spans(tracer: Tracer) -> None:
    """Detail spans on the submission API the service client calls."""
    from repro.service import api

    for name in ("submit", "job_status", "result"):
        tracer.wrap(api, name, f"api.{name}")


def install_worker_spans(tracer: Tracer) -> None:
    """Service-worker spans: lease protocol and task execution (coarse).

    A successful claim stamps the lease's ticket on the worker's
    following spans; commit and fail clear it.
    """
    from repro.experiments import harness
    from repro.service.queue import WorkQueue

    def claimed(args, kwargs, lease):
        if lease is None:
            return {"empty": True}
        tracer.attrs["ticket"] = lease.ticket
        return {"empty": False, "ticket": lease.ticket}

    def finished(args, kwargs, result):
        tracer.attrs.pop("ticket", None)
        return {"ticket": args[2].ticket}

    tracer.wrap(WorkQueue, "claim", "queue.claim", claimed, coarse=True)
    tracer.wrap(WorkQueue, "commit", "queue.commit", finished, coarse=True)
    tracer.wrap(WorkQueue, "fail", "queue.fail", finished, coarse=True)
    tracer.wrap(harness, "run_replications", "worker.task", coarse=True)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def link_worker_spans(records: List[Record]) -> None:
    """Parent the worker's per-ticket spans to the client's job spans."""
    jobs = {
        r["ticket"]: r["span_id"]
        for r in records
        if r["kind"] == "service.job" and "ticket" in r
    }
    for r in records:
        if r["parent_id"] is None and r.get("ticket") in jobs and r["kind"] != "service.job":
            r["parent_id"] = jobs[r["ticket"]]


class SpanTree:
    """Records indexed by id, with each span's pass (its root)."""

    def __init__(self, records: List[Record]) -> None:
        self.by_id = {r["span_id"]: r for r in records}
        self._roots: Dict[str, str] = {}

    def root(self, span_id: str) -> str:
        chain = []
        while span_id not in self._roots:
            parent = self.by_id[span_id]["parent_id"]
            chain.append(span_id)
            if parent is None or parent not in self.by_id:
                self._roots[span_id] = span_id
                break
            span_id = parent
        for sid in chain:
            self._roots[sid] = self._roots[span_id]
        return self._roots[span_id]

    def nested_in_kind(self, record: Record) -> bool:
        """Does an ancestor have the same kind (a recursive call)?"""
        parent = record["parent_id"]
        while parent is not None and parent in self.by_id:
            if self.by_id[parent]["kind"] == record["kind"]:
                return True
            parent = self.by_id[parent]["parent_id"]
        return False


def traced_records(records: List[Record]) -> Tuple[List[Record], List[Record], SpanTree]:
    """(traced pass roots, records under them, tree over all records)."""
    tree = SpanTree(records)
    passes = [r for r in records if r["kind"] == "bench.pass" and r.get("traced")]
    roots = {r["span_id"] for r in passes}
    kept = [r for r in records if tree.root(r["span_id"]) in roots]
    return passes, kept, tree


def row_label(record: Record) -> str:
    """The self-time table row a span's owned time goes to."""
    kind = str(record["kind"])
    if kind in ("sched", "batch.run", "arena"):
        return f"{kind.split('.')[0]}.{segment(str(record['name']))}"
    if kind.startswith("harness"):
        return "harness"
    return {"service.job": "service.wait", "bench.pass": "unattributed"}.get(kind, kind)


def self_time_table(records: List[Record]) -> Tuple[Dict[str, float], float]:
    """Owned seconds per row over the traced passes, and their wall time.

    The rows (``unattributed`` included: the passes' own time) sum to
    the wall time.
    """
    passes, kept, _ = traced_records(records)
    owned = exclusive_times(kept)
    rows: Dict[str, float] = {}
    for r in kept:
        label = row_label(r)
        rows[label] = rows.get(label, 0.0) + owned[r["span_id"]]
    return rows, sum(float(r["dur_s"]) for r in passes)


def _per_pass(kept: List[Record], tree: SpanTree, passes: List[Record], fn) -> List[float]:
    """``fn(records of one pass)`` for every traced pass, in pass order."""
    groups: Dict[str, List[Record]] = {r["span_id"]: [] for r in passes}
    for r in kept:
        groups[tree.root(r["span_id"])].append(r)
    return [fn(groups[p["span_id"]]) for p in passes]


def layer_metrics(
    records: List[Record],
    counters: Sequence[Dict[str, int]],
    replications_per_pass: int,
    overhead_frac: float,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics over the traced passes, and unrepeatable counts.

    Times are means per traced pass; counts are per pass and must repeat
    exactly from pass to pass (the names of those that do not are
    returned).  ``counters`` holds each traced pass's observability
    counters (``HDLTS/decisions``, ...).
    """
    passes, kept, tree = traced_records(records)
    n_passes = len(passes)
    owned = exclusive_times(kept)
    outer = [r for r in kept if not tree.nested_in_kind(r)]

    def busy(kind: str, name: Optional[str] = None) -> float:
        return sum(
            float(r["dur_s"]) for r in outer
            if r["kind"] == kind and (name is None or r.get("name") == name)
        ) / n_passes

    def self_s(prefix: str) -> float:
        return sum(
            owned[r["span_id"]] for r in kept if str(r["kind"]).startswith(prefix)
        ) / n_passes

    unrepeatable: List[str] = []

    def count(metric: str, fn) -> int:
        values = _per_pass(kept, tree, passes, fn)
        if len(set(values)) > 1:
            unrepeatable.append(metric)
        return values[0]

    def spans(kind, name=None):
        return lambda rs: sum(
            1 for r in rs if r["kind"] == kind and (name is None or r.get("name") == name)
        )

    def attr_sum(kind, attr):
        return lambda rs: sum(int(r.get(attr, 0)) for r in rs if r["kind"] == kind)

    m: Dict[str, float] = {
        "generator.busy_s": busy("generator"),
        "generator.graphs": count("generator.graphs", spans("generator")),
        "model.compile_s": busy("model.compile"),
        "model.rank_s": busy("model.rank"),
    }
    for metric in ("decisions", "eft_evaluations"):
        for s in PAPER_SET:
            values = [c.get(f"{s}/{metric}", 0) for c in counters]
            if len(set(values)) > 1:
                unrepeatable.append(f"sched.{s}.{metric}")
            m[f"sched.{s}.{metric}"] = values[0] if values else 0
    for s in PAPER_SET:
        sched_busy = busy("sched", s)
        batch_busy = busy("batch.run", s)
        m[f"sched.{s}.busy_s"] = sched_busy
        m[f"sched.{s}.runs"] = count(f"sched.{s}.runs", spans("sched", s))
        total = sched_busy + batch_busy
        m[f"sched.{s}.decisions_per_s"] = (
            m[f"sched.{s}.decisions"] / total if total else 0.0
        )
    m["batch.pack_s"] = busy("batch.pack")
    for s in BATCHED:
        m[f"batch.{s}.busy_s"] = busy("batch.run", s)
    m["batch.lanes"] = count("batch.lanes", attr_sum("batch.pack", "lanes"))
    m["batch.lane_fraction"] = m["batch.lanes"] / replications_per_pass
    m["harness.self_s"] = self_s("harness")
    m["stream.build_s"] = busy("stream.build")
    m["arena.self_s"] = self_s("arena")
    for p in POLICIES:
        m[f"arena.{segment(p)}.busy_s"] = busy("arena", p)
    arena_busy = busy("arena") * n_passes
    jobs = sum(int(r.get("jobs", 0)) for r in outer if r["kind"] == "arena")
    m["arena.jobs_per_s"] = jobs / arena_busy if arena_busy else 0.0
    m["arena.lost_jobs"] = count("arena.lost_jobs", attr_sum("arena", "lost"))
    m.update(_service_metrics(records, passes, kept, owned, n_passes))
    m["queue.failed"] = count("queue.failed", spans("queue.fail"))
    m["trace.overhead_frac"] = overhead_frac
    m["unattributed_s"] = self_s("bench.pass")
    return m, unrepeatable


def _mean_ms(durations: List[float]) -> float:
    return 1000.0 * fmean(durations) if durations else 0.0


def _service_metrics(
    records: List[Record],
    passes: List[Record],
    kept: List[Record],
    owned: Dict[str, float],
    n_passes: int,
) -> Dict[str, float]:
    def durations(kind: str) -> List[float]:
        return [float(r["dur_s"]) for r in kept if r["kind"] == kind]

    jobs = [r for r in kept if r["kind"] == "service.job"]
    task_s: Dict[str, float] = {}
    for r in kept:
        if r["kind"] == "worker.task":
            task_s[r["ticket"]] = task_s.get(r["ticket"], 0.0) + float(r["dur_s"])
    task = [task_s.get(j.get("ticket"), 0.0) for j in jobs]
    # a job's own time is what neither the worker nor the client's API
    # calls cover: polls and leases waiting (API calls overlapping the
    # worker's task count once)
    wait = [owned[j["span_id"]] for j in jobs]
    # idle polls belong to no job; count those inside the traced passes
    windows = [(float(p["wall0"]), float(p["wall0"]) + float(p["dur_s"])) for p in passes]
    claims = [
        r for r in records
        if r["kind"] == "queue.claim"
        and any(lo <= float(r["wall0"]) < hi for lo, hi in windows)
    ]
    empty = sum(1 for r in claims if r.get("empty"))
    return {
        "store.submit_ms": _mean_ms(durations("api.submit")),
        "queue.claim_ms": _mean_ms(durations("queue.claim")),
        "queue.commit_ms": _mean_ms(durations("queue.commit")),
        "api.job_status_ms": _mean_ms(durations("api.job_status")),
        "api.result_ms": _mean_ms(durations("api.result")),
        "worker.task_ms": _mean_ms(task),
        "service.wait_ms": _mean_ms(wait),
        "queue.claims": len(claims) / n_passes,
        "queue.empty_claim_fraction": empty / len(claims) if claims else 0.0,
    }
