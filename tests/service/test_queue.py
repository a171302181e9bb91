"""Work-queue protocol tests: leases, expiry, at-most-once commit.

Time is injected (``now=``) everywhere, so expiry and reclaim are
exercised deterministically without sleeping.
"""

from __future__ import annotations

import dataclasses
import itertools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.context import RunContext
from repro.service.queue import RUN_REPS, WorkQueue
from repro.service.store import SqliteStore
from tests.experiments.test_harness import tiny_sweep

VALUES = [{"HDLTS": 1.0, "HEFT": 2.0}]


@pytest.fixture
def store(tmp_path):
    with SqliteStore.open(tmp_path / "svc") as store:
        yield store


@pytest.fixture
def job(store):
    return store.add_job(
        [tiny_sweep()], 4, RunContext(seed=3, chunk_size=2)
    )


def test_claim_follows_enumeration_order(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    expected = [t.task for t in store.tasks_for(job.id)]
    claimed = []
    while True:
        lease = queue.claim("w1", now=100.0)
        if lease is None:
            break
        claimed.append(lease.task)
    assert claimed == expected
    assert store.job(job.ticket).state == "running"


def test_claim_is_exclusive_until_expiry(store, job):
    queue = WorkQueue(store, lease_s=10.0)
    first = queue.claim("w1", now=100.0)
    assert first is not None and first.attempt == 1
    # the other worker sees the remaining tasks, not w1's lease
    others = set()
    while True:
        lease = queue.claim("w2", now=100.0)
        if lease is None:
            break
        others.add(lease.task)
    assert first.task not in others
    # ... until the lease expires: then the task is reclaimable
    reclaimed = queue.claim("w2", now=111.0)
    assert reclaimed is not None
    assert reclaimed.task == first.task
    assert reclaimed.attempt == 2


def test_extend_renews_only_held_leases(store, job):
    queue = WorkQueue(store, lease_s=10.0)
    lease = queue.claim("w1", now=100.0)
    assert queue.extend("w1", lease, now=105.0)
    # renewed to 115: not claimable at 111
    assert queue.claim("w2", now=111.0).task != lease.task
    assert not queue.extend("w2", lease, now=105.0)


def test_commit_is_at_most_once_after_reclaim(store, job):
    queue = WorkQueue(store, lease_s=10.0)
    stale = queue.claim("w1", now=100.0)
    fresh = queue.claim("w2", now=120.0)  # reclaims the expired lease
    assert fresh.task == stale.task
    assert queue.commit("w2", fresh, VALUES, now=121.0)
    # the presumed-dead worker resurfaces: its result is discarded
    assert not queue.commit("w1", stale, VALUES, now=122.0)
    counts = store.task_counts(job.id)
    assert counts["done"] == 1


def test_last_commit_completes_the_job(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    while True:
        lease = queue.claim("w1", now=100.0)
        if lease is None:
            break
        assert store.job(job.ticket).state == "running"
        assert queue.commit("w1", lease, VALUES, now=100.0)
    assert store.job(job.ticket).state == "done"
    counts = store.task_counts(job.id)
    assert counts["pending"] == counts["leased"] == 0


def test_release_returns_task_to_pending(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    lease = queue.claim("w1", now=100.0)
    assert queue.release("w1", lease)
    assert store.task_counts(job.id)["pending"] == 4
    # an unexpired re-claim picks it straight back up
    assert queue.claim("w2", now=100.0).task == lease.task


def test_fail_marks_job_failed_and_stops_claims(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    lease = queue.claim("w1", now=100.0)
    assert queue.fail("w1", lease, "ValueError: boom", now=100.0)
    failed = store.job(job.ticket)
    assert failed.state == "failed"
    assert "boom" in failed.error
    assert queue.claim("w1", now=100.0) is None


def test_cancelled_job_is_not_claimable(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    held = queue.claim("w1", now=100.0)
    store.cancel(job.ticket)
    assert queue.claim("w2", now=100.0) is None
    # the in-flight task runs to completion; its commit is accepted
    assert queue.commit("w1", held, VALUES, now=101.0)
    assert store.job(job.ticket).state == "cancelled"


def test_outstanding_counts(store, job):
    queue = WorkQueue(store, lease_s=10.0)
    assert queue.outstanding(now=100.0) == {
        "claimable": 4, "leased": 0, "done": 0, "failed": 0
    }
    lease = queue.claim("w1", now=100.0)
    assert queue.outstanding(now=100.0) == {
        "claimable": 3, "leased": 1, "done": 0, "failed": 0
    }
    # an expired lease counts as claimable again
    assert queue.outstanding(now=120.0)["claimable"] == 4
    queue.commit("w1", lease, VALUES, now=105.0)
    assert queue.outstanding(now=105.0)["done"] == 1


def test_lease_must_be_positive(store):
    with pytest.raises(ValueError, match="lease"):
        WorkQueue(store, lease_s=0.0)


# ----------------------------------------------------------------------
# run claims: consecutive tasks of one sweep of one job
# ----------------------------------------------------------------------
def _two_sweeps():
    return [tiny_sweep(), dataclasses.replace(tiny_sweep(), key="other")]


@settings(max_examples=25, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.integers(1, 2), st.integers(1, 40), st.integers(1, 5)),
        min_size=1,
        max_size=3,
    ),
    limits=st.lists(st.integers(1, 80), min_size=1, max_size=8),
)
def test_runs_stay_in_one_sweep_of_one_job(jobs, limits):
    with tempfile.TemporaryDirectory() as tmp, SqliteStore.open(tmp) as store:
        expected = []
        for n_sweeps, reps, chunk in jobs:
            job = store.add_job(
                _two_sweeps()[:n_sweeps], reps,
                RunContext(seed=3, chunk_size=chunk),
            )
            expected += [(job.id, t.task) for t in store.tasks_for(job.id)]
        queue = WorkQueue(store, lease_s=60.0)
        claimed = []
        for k in itertools.count():
            limit = limits[k % len(limits)]
            run = queue.claim_run("w1", limit, now=100.0)
            if not run:
                break
            assert 1 <= len(run) <= limit
            assert len({(t.job_id, t.sweep) for t in run}) == 1
            reps = sum(t.rep_hi - t.rep_lo for t in run)
            assert len(run) == 1 or reps <= RUN_REPS
            claimed += [(t.job_id, t.task) for t in run]
        # every task exactly once, in enumeration order
        assert claimed == expected


def test_limit_one_run_equals_claim(tmp_path):
    runs = []
    for name, one in (("a", True), ("b", False)):
        with SqliteStore.open(tmp_path / name) as store:
            for _ in range(2):
                store.add_job(_two_sweeps(), 4, RunContext(chunk_size=2))
            queue = WorkQueue(store, lease_s=10.0)
            leases = []
            for now in (100.0, 100.0, 100.0, 115.0, 115.0):
                if one:
                    leases.append(queue.claim("w1", now=now))
                else:
                    (lease,) = queue.claim_run("w1", 1, now=now)
                    leases.append(lease)
            runs.append(
                [dataclasses.replace(lease, ticket="") for lease in leases]
            )
    assert runs[0] == runs[1]
    assert runs[0][3].task == runs[0][0].task  # expired, reclaimed
    assert runs[0][3].attempt == 2


def test_run_caps_its_replications(tmp_path):
    with SqliteStore.open(tmp_path / "svc") as store:
        single = dataclasses.replace(tiny_sweep(), x_values=(1.0,))
        store.add_job([single], 100, RunContext(chunk_size=1))
        store.add_job([single], 100, RunContext(chunk_size=30))
        store.add_job([single], 100, RunContext(chunk_size=100))
        queue = WorkQueue(store, lease_s=60.0)
        sizes = []
        while True:
            run = queue.claim_run("w1", now=100.0)
            if not run:
                break
            sizes.append([t.rep_hi - t.rep_lo for t in run])
    assert sizes == [
        [1] * RUN_REPS, [1] * (100 - RUN_REPS),  # chunks of one
        [30, 30], [30, 10],  # a third 30 would pass 64
        [100],  # a task wider than the cap still runs, alone
    ]


def test_cancel_mid_run_behaves_as_for_one_task(store, job):
    queue = WorkQueue(store, lease_s=60.0)
    run = queue.claim_run("w1", 3, now=100.0)
    assert len(run) == 3
    store.cancel(job.ticket)
    assert queue.claim_run("w2", now=100.0) == []
    # the in-flight run completes; its commits are accepted
    assert queue.commit_run(
        "w1", [(lease, VALUES, 0.1) for lease in run], now=101.0
    ) == [True] * 3
    assert store.job(job.ticket).state == "cancelled"
    assert store.task_counts(job.id)["done"] == 3


def test_run_commit_guards_each_task(store, job):
    queue = WorkQueue(store, lease_s=10.0)
    stale = queue.claim_run("w1", now=100.0)
    assert len(stale) == 4
    # the first two expire and are reclaimed; w1 renews what it holds
    fresh = queue.claim_run("w2", 2, now=120.0)
    assert [t.task for t in fresh] == [t.task for t in stale[:2]]
    assert queue.extend_run("w1", stale, now=120.0) == [False] * 2 + [True] * 2
    assert queue.commit_run(
        "w2", [(lease, VALUES, 0.1) for lease in fresh], now=121.0
    ) == [True, True]
    assert queue.commit_run(
        "w1", [(lease, VALUES, 0.1) for lease in stale], now=122.0
    ) == [False, False, True, True]
    assert store.task_counts(job.id)["done"] == 4
    assert store.job(job.ticket).state == "done"
