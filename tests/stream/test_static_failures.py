"""``Static/<Name>`` streams under fail-stops: replay, then re-plan.

A static policy replays every job's frozen queues until the first
dispatch that crosses a fail-stop instant.  That dispatch is lost, its
CPU goes dead, and every admitted job's remaining tasks -- and every
later arrival -- go to the online loop on the survivors, floored at the
failure's detection instant.  These tests pin the contract on loaded
streams: conservation, no completed work on a dead CPU past its
instant, no re-planned dispatch before the detection, and no change at
all while no failure fires.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.dynamic.failures import FailStop
from repro.experiments.graphspec import GraphSpec
from repro.qa.invariants import run_stream_invariants
from repro.stream import ArrivalSpec, StreamSpec, run_stream
from tests.stream.conftest import build_workload, lone_job_instance
from tests.stream.test_arena_golden import realization_digest

POLICIES = ("Static/HDLTS", "Static/DHEFT")

#: (family, seed, n_jobs, n_procs, sigma, rate); random DAGs enter
#: through a zero-cost pseudo task, FFT graphs through a real one that
#: jobs duplicate
WORKLOADS = (
    ("random", 0, 6, 3, 0.0, 0.05),
    ("random", 1, 8, 3, 0.2, 0.05),
    ("random", 2, 10, 4, 0.2, 0.5),
    ("random", 3, 8, 2, 0.0, 0.02),
    ("fft", 4, 8, 3, 0.0, 0.05),
    ("fft", 5, 8, 4, 0.2, 0.2),
)

#: fail-stops as (CPU, fraction of the failure-free horizon)
FAILURES = (
    ((0, 0.3),),
    ((1, 0.5), (0, 0.2)),
)


def _workload(family, seed, n_jobs, n_procs, sigma, rate):
    if family == "random":
        return build_workload(
            seed, x=rate, n_jobs=n_jobs, v=12, n_procs=n_procs,
            sigma=sigma, rate=rate,
        )
    spec = StreamSpec(
        job=GraphSpec("fft", {"axis": "m", "n_procs": n_procs, "ccr": 5.0}),
        arrival=ArrivalSpec("poisson", rate=rate),
        n_jobs=n_jobs,
        axis="rate",
        job_x=4,
        noise={"kind": "gaussian", "sigma": sigma} if sigma else None,
    )
    return spec.build(rate, np.random.default_rng([seed, 0, 0]))


def _case(family, seed, n_jobs, n_procs, sigma, rate, policy, failures):
    instance = _workload(family, seed, n_jobs, n_procs, sigma, rate)
    horizon = run_stream(instance, policy).horizon
    stops = [FailStop(proc, frac * horizon) for proc, frac in failures]
    return instance, stops, run_stream(instance, policy, failures=stops)


def _handoff(result, stops: List[FailStop]) -> Tuple[int, float]:
    """Index of the first lost record and the detection instant."""
    fail_at = {s.proc: s.at_time for s in stops}
    for i, rec in enumerate(result.records):
        if rec.lost:
            return i, fail_at[rec.proc]
    return len(result.records), float("inf")


CASES = [
    (*workload, policy, failures)
    for workload in WORKLOADS
    for policy in POLICIES
    for failures in FAILURES
]


@pytest.mark.parametrize("case", CASES)
def test_static_stream_survives_failures(case):
    instance, stops, result = _case(*case)
    report = run_stream_invariants(instance, result)
    assert report.ok, "\n".join(report.all_problems())
    # conservation: every job finishes or is explicitly lost
    assert all(job.finished != job.lost for job in result.jobs)
    assert len(result.jobs) == len(instance.jobs)
    fail_at = {s.proc: s.at_time for s in stops}
    for rec in result.records:
        if rec.proc in result.dead_procs and not rec.lost:
            assert rec.finish <= fail_at[rec.proc]
    first, detection = _handoff(result, stops)
    for rec in result.records[first + 1:]:
        assert rec.start >= detection


def test_cases_reach_the_handoff():
    """Every case loses a dispatch and re-plans afterwards; some job
    arrives before the detection but runs nothing before the handoff;
    the 2-CPU workload under two fail-stops loses jobs explicitly."""
    late_arrival = lost_jobs = False
    for case in CASES:
        instance, stops, result = _case(*case)
        first, detection = _handoff(result, stops)
        assert first < len(result.records) - 1, case
        assert result.dead_procs
        started = {rec.job for rec in result.records[:first + 1]}
        late_arrival |= any(
            job.index not in started and job.arrival < detection
            for job in instance.jobs
        )
        lost_jobs |= bool(result.lost_jobs())
    assert late_arrival and lost_jobs


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(3))
def test_failure_that_never_fires_changes_nothing(policy, seed):
    instance = build_workload(seed, n_jobs=6, sigma=0.2, rate=0.05, x=0.05)
    plain = run_stream(instance, policy)
    late = run_stream(
        instance, policy, failures=[FailStop(0, plain.horizon + 1.0)]
    )
    assert realization_digest(late) == realization_digest(plain)


def test_lone_job_static_stream_is_repair():
    """A one-job ``Static/HDLTS`` stream under a fail-stop is
    :func:`~repro.dynamic.repair.repair_after_failure` of HDLTS's plan."""
    from repro.core import HDLTS
    from repro.dynamic.repair import repair_after_failure

    instance = lone_job_instance(5, v=30, n_procs=3)
    graph = instance.jobs[0].graph
    plan = HDLTS().run(graph).schedule
    failure = FailStop(1, 0.4 * plan.makespan)
    stream = run_stream(instance, "Static/HDLTS", failures=[failure])
    repaired = repair_after_failure(graph, plan, failure)
    assert [
        (r.task, r.proc, r.start, r.finish, r.duplicate, r.lost)
        for r in stream.records
    ] == [
        (r.task, r.proc, r.start, r.finish, r.duplicate, r.lost)
        for r in repaired.records
    ]
    assert stream.jobs[0].finish == repaired.makespan


def test_arrival_before_detection_never_duplicates_into_the_past():
    """A job arriving between the lost dispatch's start and the
    detection is admitted by the online loop, which must not duplicate
    its entry at the arrival instant: that idle window is in the past."""
    from repro.model.task_graph import TaskGraph
    from repro.stream import StreamInstance, StreamJob

    doomed = TaskGraph(4)
    doomed.add_task([100.0, 100.0, 100.0, 20.0])  # planned on CPU 3
    fan = TaskGraph(4)
    entry, left, right, exit_ = (fan.add_task([1.0] * 4) for _ in range(4))
    for child in (left, right):
        fan.add_edge(entry, child, 50.0)
        fan.add_edge(child, exit_, 0.0)
    instance = StreamInstance(
        (StreamJob(0, 0.0, doomed), StreamJob(1, 1.0, fan)), 4
    )
    result = run_stream(instance, "Static/HDLTS", failures=[FailStop(3, 10.0)])
    assert result.records[0].lost
    assert all(rec.start >= 10.0 for rec in result.records[1:])
    assert not any(rec.duplicate for rec in result.records)
    assert all(job.finished for job in result.jobs)
