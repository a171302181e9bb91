"""The benchmark's four workloads, all on the production path.

Every workload runs with the compiled layer, the fast engine,
``batch="auto"`` and the program's own profiling and tracing off (the
default :class:`~repro.runtime.context.RunContext`); no oracle arm is
timed.  Inputs derive from the ``--seed`` argument only.

* ``fig2-paper`` -- ``repro figure fig2`` as shipped: the paper's
  scheduler set on ``random`` DAGs, 30 replications per CCR point, each
  replication drawing its own shape.  Shapes never repeat, so the
  scalar engines do all the scheduling and the batched kernel runs zero
  lanes.
* ``fig2-fixed-shape`` -- the same axis and scheduler set on the
  ``random-fixed`` factory: a point's replications share one shape, so
  the batched kernel takes HDLTS, HEFT, PEFT and SDBATS (PETS stays
  scalar).  A kernel change shows here and must not move ``fig2-paper``.
* ``stream-rate`` -- ``repro stream sweep --axis rate`` at its defaults
  (rates 0.005-0.05, 10 reps, 10 jobs of v=20 on 4 CPUs, OnlineHDLTS,
  Static/HDLTS and Static/HEFT) with gaussian duration noise of sigma
  0.2, so realized durations differ from the estimates.  The only
  workload that runs the job-stream arena.
* ``service-fig13`` -- a closed loop with one client against one
  long-lived worker process: submit a fig13 job (the 41-task MD graph,
  the paper set, 2 reps, ``chunk_size=1``), poll ``job_status`` until
  it is done, fetch ``result``, submit the next.  The only workload
  that runs the service layer (store, lease queue, result fold).

The sweeps run serially in the benchmark process.  Their unit of work
is one x point: ``run_replications`` over the point's replications, then
the Welford fold, as ``run_single_point`` does.  Successive units cycle
the x axis, each with a seed of its own; a run measures whole passes
over the axis (service: jobs) until ``--seconds`` have passed and the
p90 has ten samples beyond it.  Between units the :mod:`reference`
speedometer times a frozen piece of work, and each unit's timings are
reported at the reference machine speed, which cancels the slowdowns
other tenants cause.

A *job* is what a user of the path waits for.  On the figure sweeps it
is one replication, and its latency is the wall time the path spends on
it: its own scalar run, or its share of the batched group it rode in,
plus an even share of the point's up-front instance build and grouping.
On ``stream-rate`` it is one stream under one policy (one ``run_stream``
call plus its share of the instance build).  On ``service-fig13`` it is
one submitted ticket, timed from ``submit`` until ``result`` returns.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import layers
from reference import Speedometer
from tracing import Record, Tracer, percentile, samples_needed

HERE = Path(__file__).resolve().parent
#: spans, trace files and the service store live here (git-ignored)
OUT = HERE / "out"

#: a run measures past ``--seconds`` until the p90 has ten samples
#: beyond it, but never past MAX_SECONDS
MAX_SECONDS = 150.0
#: fewest jobs for a p90 with ten samples beyond it
MIN_JOBS = samples_needed(90)

#: unit indices of the warm-up and of the traced pass, beyond any timed
#: unit's index
WARM_K = 10**6
PASS_K = WARM_K + 1

FIG2_REPS = 30  # `repro figure --reps` default
STREAM_REPS = 10  # `repro stream sweep --reps` default
STREAM_SIGMA = 0.2

#: service-fig13 job shape: few reps, one replication per task
JOB_REPS = 2
JOB_CHUNK = 1
#: poll intervals of the client (job_status) and of the idle worker
#: (claim).  The CLI defaults (`watch --interval 1`, `serve --poll 0.5`)
#: would make job latency measure the sleep, not the service.
CLIENT_POLL_S = 0.002
WORKER_POLL_S = 0.002
JOBS_PER_PASS = 10


def unit_seed(seed: int, k: int) -> int:
    """Seed of unit (or job) ``k`` of a run with workload seed ``seed``."""
    return seed * 10**7 + k


@dataclasses.dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int
    failed: int = 0
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)
    premises: List[Tuple[str, bool]] = dataclasses.field(default_factory=list)
    table: Optional[Tuple[Dict[str, float], float]] = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _overhead(walls: Dict[bool, List[float]]) -> float:
    return median(walls[True]) / median(walls[False]) - 1.0


def write_trace(name: str, seed: int, records: List[Record]) -> str:
    """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
    from repro.obs.export import write_chrome_trace

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    write_chrome_trace(path, records)
    return str(path.relative_to(HERE.parent))


def job_costs(unit_wall: float, jobs: Sequence[Tuple[float, int]]) -> List[float]:
    """Latency of each job of one unit (see the module docstring).

    ``jobs`` holds ``(seconds, lanes)`` per timed call: a call that ran
    ``lanes`` jobs together costs each of them an equal share, and the
    unit's time outside every call is shared evenly by all its jobs.
    """
    own = [dur / lanes for dur, lanes in jobs for _ in range(lanes)]
    shared = (unit_wall - sum(own)) / len(own)
    return [cost + shared for cost in own]


# ----------------------------------------------------------------------
# in-process sweeps
# ----------------------------------------------------------------------
class SweepWorkload:
    """A figure-style sweep run serially through the sweep harness."""

    #: the coarse spans that time one job each (``lanes`` jobs for a group)
    job_kinds = ("harness.replication", "harness.group")
    #: jobs per replication
    jobs_per_rep = 1

    def __init__(self, name: str, seed: int, reps: int, pass_reps: int) -> None:
        self.name = name
        self.seed = seed
        self.reps = reps
        self.pass_reps = pass_reps
        self.tracer = Tracer()

    def definition(self, k: int):
        raise NotImplementedError

    def premise(self, lane_fraction: float, arena_share: float) -> Tuple[str, bool]:
        raise NotImplementedError

    def setup(self) -> None:
        layers.install_harness_spans(self.tracer)
        defn = self.definition(WARM_K)
        # two replications: the fewest that take the batched path
        self._point(defn, 0, 2, unit_seed(self.seed, WARM_K))
        self.tracer.take()

    def close(self) -> None:
        self.tracer.unwrap_all()

    def _point(self, defn, i: int, reps: int, seed: int) -> List[Dict[str, float]]:
        """One x point: replications, then the fold run_single_point does."""
        from repro.experiments import harness
        from repro.metrics.stats import RunningStats

        values = harness.run_replications(defn, defn.x_values[i], i, 0, reps, seed)
        stats = {name: RunningStats() for name in defn.schedulers}
        for rep_values in values:
            for name, value in rep_values.items():
                stats[name].add(value)
        return values

    def _jobs(self, unit_wall: float, records: List[Record]) -> List[float]:
        timed = [
            (float(r["dur_s"]), int(r.get("lanes", 1)))
            for r in records if r["kind"] in self.job_kinds
        ]
        costs = job_costs(unit_wall, timed)
        if len(costs) != self.reps * self.jobs_per_rep:
            raise RuntimeError(f"timed {len(costs)} jobs of {self.reps} replications")
        return costs

    def timed(self, seconds: float) -> Outcome:
        speed = Speedometer()
        speed.sample()
        costs: List[float] = []
        produced = []
        lanes = arena_s = busy_s = reference_s = 0.0
        started = time.perf_counter()
        for k in itertools.count():
            defn = self.definition(k)
            i = k % len(defn.x_values)
            seed = unit_seed(self.seed, k)
            t0 = time.perf_counter()
            values = self._point(defn, i, self.reps, seed)
            wall = time.perf_counter() - t0
            slowdown = speed.around()
            records = self.tracer.take()
            costs.extend(c / slowdown for c in self._jobs(wall, records))
            busy_s += wall
            reference_s += wall / slowdown
            lanes += sum(r["lanes"] for r in records if r["kind"] == "harness.group")
            arena_s += sum(r["dur_s"] for r in records if r["kind"] == "arena")
            produced.append((defn, i, seed, values, k % self.reps))
            elapsed = time.perf_counter() - started
            # whole passes over the x axis, so every run weighs its points alike
            if i == len(defn.x_values) - 1 and (
                elapsed >= MAX_SECONDS or (elapsed >= seconds and len(costs) >= MIN_JOBS)
            ):
                break
        replications = len(produced) * self.reps
        out = Outcome(attempted=replications)
        out.metrics = {
            "replications_per_s": replications / reference_s,
            "job_latency_p50_ms": 1000.0 * percentile(costs, 50),
            "job_latency_p90_ms": 1000.0 * percentile(costs, 90),
            "peak_rss_mb": _peak_rss_mb(),
        }
        out.notes.append(
            f"{len(produced)} x points of {self.reps} replications in {elapsed:.1f} s; "
            f"latency percentiles over {len(costs)} jobs; mean machine slowdown "
            f"{speed.slowdown():.3f} (raw {replications / busy_s:.4g} replications/s)"
        )
        out.premises.append(self.premise(lanes / replications, arena_s / busy_s))
        self._verify(out, produced)
        return out

    def traced(self, seconds: float) -> Outcome:
        from repro import obs
        from repro.runtime.context import DEFAULT_CONTEXT, activate

        layers.install_compute_spans(self.tracer)
        defn = self.definition(PASS_K)
        seed = unit_seed(self.seed, PASS_K)
        walls: Dict[bool, List[float]] = {False: [], True: []}
        counters: List[Dict[str, int]] = []
        first: Optional[List[List[Dict[str, float]]]] = None
        drift = 0
        started = time.perf_counter()
        traced = True
        while time.perf_counter() - started < seconds or not walls[True]:
            traced = not traced  # untraced first: it pairs with the next
            self.tracer.detail = traced
            with activate(DEFAULT_CONTEXT.with_(metrics=traced)), obs.scoped(
                merge_up=False
            ) as registry, self.tracer.span("bench.pass", traced=traced) as span:
                values = [
                    self._point(defn, i, self.pass_reps, seed)
                    for i in range(len(defn.x_values))
                ]
            self.tracer.detail = False
            walls[traced].append(float(span["dur_s"]))
            if traced:
                counters.append(registry.snapshot()["counters"])
            if first is None:
                first = values
            drift += values != first
        records = self.tracer.take()
        reps = len(defn.x_values) * self.pass_reps
        out = Outcome(attempted=reps * (len(walls[True]) + len(walls[False])), failed=drift)
        out.metrics, unrepeatable = layers.layer_metrics(
            records, counters, reps, _overhead(walls)
        )
        out.table = layers.self_time_table(records)
        out.notes.append(
            f"{len(walls[True])} traced and {len(walls[False])} untraced passes "
            f"of {reps} replications; trace written to "
            f"{write_trace(self.name, self.seed, records)}"
        )
        if drift:
            out.notes.append(f"{drift} passes returned values differing from the first")
        if unrepeatable:
            out.failed += 1
            out.notes.append(f"counts differ between traced passes: {unrepeatable}")
        arena_s = sum(out.metrics[f"arena.{layers.segment(p)}.busy_s"] for p in layers.POLICIES)
        out.premises.append(self.premise(
            out.metrics["batch.lane_fraction"], arena_s * len(walls[True]) / out.table[1]
        ))
        self._verify(out, [(defn, i, seed, v, i % self.pass_reps) for i, v in enumerate(first)])
        return out

    def _verify(self, out: Outcome, produced) -> None:
        """Re-run one replication per point on the scalar path, validated.

        ``run_replication(validate=True)`` checks every schedule with
        ``validate_schedule`` (stream definitions: every execution with
        the stream invariant registry) and must return the production
        path's values exactly.
        """
        from repro.experiments.harness import run_replication

        problems = []
        for defn, i, seed, values, rep in produced:
            try:
                expected = run_replication(defn, defn.x_values[i], i, rep, seed, validate=True)
            except Exception as exc:  # a failed validation is a finding, not a crash
                problems.append(f"x{i} rep {rep}: {type(exc).__name__}: {exc}")
                continue
            if expected != values[rep]:
                problems.append(f"x{i} rep {rep}: production {values[rep]} != scalar {expected}")
        self.tracer.take()
        out.failed += len(problems)
        out.notes.append(
            f"output check: {len(produced) - len(problems)}/{len(produced)} "
            "sampled replications match the validated scalar path"
        )
        out.notes.extend(problems[:5])


class Fig2Paper(SweepWorkload):
    def __init__(self, seed: int) -> None:
        super().__init__("fig2-paper", seed, FIG2_REPS, FIG2_REPS)

    def definition(self, k: int):
        from repro.experiments.figures import get_figure

        return get_figure("fig2")

    def premise(self, lane_fraction, arena_share):
        return (
            f"batch.lane_fraction = {lane_fraction:.3f} (expected 0: shapes never repeat)",
            lane_fraction == 0,
        )


class Fig2FixedShape(SweepWorkload):
    def __init__(self, seed: int) -> None:
        super().__init__("fig2-fixed-shape", seed, FIG2_REPS, FIG2_REPS)

    def definition(self, k: int):
        from repro.experiments.figures import get_figure
        from repro.experiments.graphspec import GraphSpec

        fig2 = get_figure("fig2")
        params = dict(fig2.graph.params, structure_seed=unit_seed(self.seed, k))
        return dataclasses.replace(
            fig2, key="fig2-fixed-shape", graph=GraphSpec("random-fixed", params)
        )

    def premise(self, lane_fraction, arena_share):
        return (
            f"batch.lane_fraction = {lane_fraction:.3f} (expected >= 0.9)",
            lane_fraction >= 0.9,
        )


class StreamRate(SweepWorkload):
    job_kinds = ("arena",)
    jobs_per_rep = len(layers.POLICIES)

    def __init__(self, seed: int) -> None:
        super().__init__("stream-rate", seed, STREAM_REPS, 3)

    def definition(self, k: int):
        from repro.experiments.graphspec import GraphSpec
        from repro.stream import ArrivalSpec, StreamSpec
        from repro.stream.spec import DEFAULT_POLICIES, stream_sweep_definition

        spec = StreamSpec(
            job=GraphSpec("random", {"axis": "v", "n_procs": 4, "ccr": 1.0, "beta": 1.0}),
            arrival=ArrivalSpec("poisson", rate=0.02),
            n_jobs=10,
            axis="rate",
            job_x=20,
            noise={"kind": "gaussian", "sigma": STREAM_SIGMA},
        )
        return stream_sweep_definition(
            "stream-rate", spec, (0.005, 0.01, 0.02, 0.05),
            metric="sojourn", policies=DEFAULT_POLICIES,
        )

    def premise(self, lane_fraction, arena_share):
        return (
            f"arena share of wall = {arena_share:.3f} (expected > 0.5)",
            arena_share > 0.5,
        )


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class ServiceFig13:
    """Closed loop: one client, one long-lived worker process."""

    name = "service-fig13"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = Tracer()
        self.dir = OUT / f"service-{os.getpid()}"
        self.worker_out = self.dir / "worker.json"
        self.worker: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.experiments.figures import get_figure
        from repro.service.store import SqliteStore

        self.fig13 = get_figure("fig13")
        layers.install_client_spans(self.tracer)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        SqliteStore.open(self.dir, create=True).close()
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "service_worker.py"), str(self.dir),
             str(self.worker_out), repr(WORKER_POLL_S)],
            stdout=subprocess.DEVNULL,
        )
        # store, worker imports, first lease
        self.warm_ticket = self._job(unit_seed(self.seed, WARM_K))[1]
        self.tracer.take()

    def close(self) -> Optional[dict]:
        """Stop the worker (SIGINT ends its loop) and load what it wrote."""
        report = None
        if self.worker is not None:
            if self.worker.poll() is None:
                self.worker.send_signal(signal.SIGINT)
            try:
                self.worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self.worker = None
            if self.worker_out.exists():
                report = json.loads(self.worker_out.read_text())
        self.tracer.unwrap_all()
        shutil.rmtree(self.dir, ignore_errors=True)
        return report

    def _job(self, seed: int, traced: bool = False):
        """One job, submit to result; returns (latency_s, ticket, state, results)."""
        from repro.runtime.context import DEFAULT_CONTEXT
        from repro.service import api

        context = DEFAULT_CONTEXT.with_(seed=seed, chunk_size=JOB_CHUNK, metrics=traced)
        deadline = time.perf_counter() + 120.0
        with self.tracer.span("service.job") as span:
            t0 = time.perf_counter()
            ticket = api.submit(self.dir, [self.fig13], JOB_REPS, context).ticket
            span["ticket"] = ticket
            while True:
                state = api.job_status(self.dir, ticket)["state"]
                if state in ("done", "failed", "cancelled"):
                    break
                if self.worker.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"job {ticket} stuck in state {state}")
                time.sleep(CLIENT_POLL_S)
            results = api.result(self.dir, ticket) if state == "done" else None
            latency = time.perf_counter() - t0
        return latency, ticket, state, results

    def _verify(self, out: Outcome, jobs) -> None:
        """Sampled jobs' tables must equal an in-process run_sweep bit for bit."""
        from repro.experiments.harness import run_sweep

        mismatched = 0
        for seed, tables in jobs:
            expected = run_sweep(self.fig13, reps=JOB_REPS, seed=seed)
            mismatched += tables != _tables({self.fig13.key: expected})
        out.failed += mismatched
        out.notes.append(
            f"output check: {len(jobs) - mismatched}/{len(jobs)} sampled jobs "
            "bit-identical to an in-process run_sweep"
        )

    def timed(self, seconds: float) -> Outcome:
        speed = Speedometer()
        speed.sample()
        latencies: List[float] = []
        raw_s = 0.0
        sampled = []
        failed = 0
        started = time.perf_counter()
        for k in itertools.count():
            seed = unit_seed(self.seed, k)
            latency, _, state, results = self._job(seed)
            raw_s += latency
            latencies.append(latency / speed.around())
            failed += state != "done"
            if k % 5 == 0 and state == "done":
                sampled.append((seed, _tables(results)))
            elapsed = time.perf_counter() - started
            if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(latencies) >= MIN_JOBS):
                break
        self.tracer.take()
        worker = self.close() or {}
        out = Outcome(attempted=len(latencies), failed=failed + worker.get("failed", 0))
        task_s = sum(
            float(r["dur_s"]) for r in worker.get("records", [])
            if r["kind"] == "worker.task" and r.get("ticket") != self.warm_ticket
        )
        reps = len(self.fig13.x_values) * JOB_REPS
        out.metrics = {
            "replications_per_s": reps * len(latencies) / sum(latencies),
            "job_latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "job_latency_p90_ms": 1000.0 * percentile(latencies, 90),
            "peak_rss_mb": max(_peak_rss_mb(), worker.get("maxrss_kb", 0) / 1024.0),
        }
        out.notes.append(
            f"{len(latencies)} jobs of {reps} replications in {elapsed:.1f} s; "
            f"mean machine slowdown {speed.slowdown():.3f} "
            f"(raw {reps * len(latencies) / raw_s:.4g} replications/s)"
        )
        # both sides raw: the premise compares two times of the same run
        task_ms = 1000.0 * task_s / len(latencies)
        raw_ms = 1000.0 * raw_s / len(latencies)
        out.premises.append(
            (f"worker.task_ms = {task_ms:.1f} per job, below mean job latency "
             f"{raw_ms:.1f} ms", 0 < task_ms < raw_ms)
        )
        self._verify(out, sampled)
        return out

    def traced(self, seconds: float) -> Outcome:
        walls: Dict[bool, List[float]] = {False: [], True: []}
        first = None
        drift = failed = 0
        started = time.perf_counter()
        traced = True
        while time.perf_counter() - started < seconds or not walls[True]:
            traced = not traced
            self.tracer.detail = traced
            with self.tracer.span("bench.pass", traced=traced) as span:
                jobs = [
                    self._job(unit_seed(self.seed, PASS_K + j), traced)
                    for j in range(JOBS_PER_PASS)
                ]
            self.tracer.detail = False
            walls[traced].append(float(span["dur_s"]))
            failed += sum(state != "done" for _, _, state, _ in jobs)
            tables = [_tables(results) for _, _, _, results in jobs]
            if first is None:
                first = (jobs, tables)
            drift += tables != first[1]
        records = self.tracer.take()
        worker = self.close() or {}
        records.extend(worker.get("records", []))
        layers.link_worker_spans(records)
        n_traced = len(walls[True])
        totals = worker.get("counters", {})
        # the worker's counters cover every traced pass, each the same jobs
        counters = [
            {k: v // n_traced if v % n_traced == 0 else v / n_traced
             for k, v in totals.items()}
        ] * n_traced
        reps = JOBS_PER_PASS * len(self.fig13.x_values) * JOB_REPS
        passes = n_traced + len(walls[False])
        out = Outcome(attempted=JOBS_PER_PASS * passes, failed=failed + drift)
        out.failed += worker.get("failed", 0)
        out.metrics, unrepeatable = layers.layer_metrics(records, counters, reps, _overhead(walls))
        out.table = layers.self_time_table(records)
        out.notes.append(
            f"{n_traced} traced and {len(walls[False])} untraced passes of "
            f"{JOBS_PER_PASS} jobs; trace written to "
            f"{write_trace(self.name, self.seed, records)}"
        )
        if unrepeatable:
            out.failed += 1
            out.notes.append(f"counts differ between traced passes: {unrepeatable}")
        latency = 1000.0 * median(walls[True]) / JOBS_PER_PASS
        out.premises.append(
            (f"worker.task_ms = {out.metrics['worker.task_ms']:.1f}, below mean "
             f"traced job latency {latency:.1f} ms",
             0 < out.metrics["worker.task_ms"] < latency)
        )
        self._verify(out, [(unit_seed(self.seed, PASS_K + j), first[1][j])
                           for j in range(0, JOBS_PER_PASS, 3)])
        return out


def _tables(results) -> Optional[dict]:
    """A job's merged statistics as comparable tuples."""
    if results is None:
        return None
    return {
        key: {
            x: {s: (a.n, a._mean, a._m2, a._min, a._max) for s, a in per_x.items()}
            for x, per_x in sweep.stats.items()
        }
        for key, sweep in results.items()
    }


WORKLOADS = {
    "fig2-paper": Fig2Paper,
    "fig2-fixed-shape": Fig2FixedShape,
    "stream-rate": StreamRate,
    "service-fig13": ServiceFig13,
}
