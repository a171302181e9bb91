"""The rate->0 differential: a lone job must replay the offline paths.

A stream holding exactly one job arriving at time zero is an offline
problem wearing arena clothes.  With exact durations the
``OnlineHDLTS`` policy must reproduce offline :class:`HDLTS` -- every
dispatch record equals a slot of the offline schedule, under both EFT
engines -- and every ``Static/<Name>`` policy must reproduce
``replay_static`` of that scheduler's offline schedule.  These are the
anchor tests that make the multi-job arena trustworthy: everything it
adds (admission, hold-back, cross-job interleaving) must vanish exactly
at rate -> 0.  :class:`~repro.dynamic.online.OnlineHDLTS` *is* that
lone-job run; noisy and fail-stop lone jobs, which have no offline
counterpart, are pinned by digests taken from the retired standalone
loop (``test_arena_golden.py``, the ``r0`` cases).
"""

import math

import pytest

from repro import obs
from repro.baselines.registry import make_scheduler
from repro.core import HDLTS
from repro.dynamic.failures import FailStop
from repro.dynamic.online import OnlineHDLTS, OnlineRecord, replay_static
from repro.stream import run_stream
from tests.stream.conftest import lone_job_instance

SEEDS = range(12)
ENGINES = ("fast", "reference")


def _as_online_records(result):
    return [
        OnlineRecord(r.task, r.proc, r.start, r.finish, r.duplicate, r.lost)
        for r in result.records
    ]


def _assert_identical(stream_result, online_result):
    assert _as_online_records(stream_result) == online_result.records
    job = stream_result.jobs[0]
    assert job.finished
    assert job.finish == online_result.makespan
    assert job.finish_times == online_result.finish_times
    assert job.proc_of == online_result.proc_of


def _slots(schedule):
    """Every copy of an offline schedule, primaries and duplicates, as
    sorted ``(task, proc, start, finish, duplicate)`` tuples."""
    return sorted([*schedule.assignments(), *schedule.duplicates()])


def _keys(result):
    return sorted(
        (r.task, r.proc, r.start, r.finish, r.duplicate)
        for r in result.records
    )


class TestOnlineDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_durations_bit_identical(self, seed):
        """Lone-job records equal offline HDLTS's slots, both engines."""
        instance = lone_job_instance(seed)
        graph = instance.jobs[0].graph
        result = run_stream(instance, "OnlineHDLTS")
        assert not any(r.lost for r in result.records)
        for engine in ENGINES:
            offline = HDLTS(engine=engine).run(graph)
            assert _keys(result) == _slots(offline.schedule), engine
            job = result.jobs[0]
            assert job.finish == offline.makespan
            assert job.proc_of == {
                t: offline.schedule.proc_of(t) for t in graph.tasks()
            }
        _assert_identical(result, OnlineHDLTS().execute(graph))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noisy_durations_bit_identical(self, seed):
        """The adapter, fed the caller's duration function, reproduces
        the arena run on the materialized matrix record for record."""
        instance = lone_job_instance(seed, sigma=0.3)
        job = instance.jobs[0]
        online = OnlineHDLTS().execute(job.graph, job.duration_fn())
        result = run_stream(instance, "OnlineHDLTS")
        _assert_identical(result, online)

    @pytest.mark.parametrize("seed", (0, 3, 7))
    def test_failures_bit_identical(self, seed):
        failures = [FailStop(0, 15.0), FailStop(1, 40.0)]
        instance = lone_job_instance(seed, sigma=0.2)
        job = instance.jobs[0]
        online = OnlineHDLTS().execute(job.graph, job.duration_fn(), failures)
        result = run_stream(instance, "OnlineHDLTS", failures=failures)
        assert _as_online_records(result) == online.records
        assert result.n_lost_dispatches == online.n_lost
        assert result.dead_procs == online.dead_procs
        assert result.jobs[0].finish - 0.0 == online.makespan

    def test_counters_match_offline(self):
        """One stream/dispatches tick per offline slot, whether the lone
        job runs through the arena or through ``OnlineHDLTS``."""
        instance = lone_job_instance(5)
        graph = instance.jobs[0].graph
        n_slots = len(_slots(HDLTS().run(graph).schedule))
        with obs.session(metrics=True) as adapter_sess:
            OnlineHDLTS().execute(graph)
        with obs.session(metrics=True) as stream_sess:
            run_stream(instance, "OnlineHDLTS")
        for sess in (adapter_sess, stream_sess):
            counters = sess.snapshot["counters"]
            assert counters["stream/dispatches"] == n_slots
            assert counters["stream/jobs"] == 1
            assert counters["stream/job_finishes"] == 1
            assert "stream/lost" not in counters
            assert not any(k.startswith("online/") for k in counters)

    def test_nonzero_arrival_is_a_pure_time_shift(self):
        """Arrival at t>0 shifts the whole schedule rigidly (exact case)."""
        base = run_stream(lone_job_instance(2), "OnlineHDLTS")
        shifted = run_stream(
            lone_job_instance(2, arrival=100.0), "OnlineHDLTS"
        )
        assert len(base.records) == len(shifted.records)
        for a, b in zip(base.records, shifted.records):
            assert (a.task, a.proc, a.duplicate) == (b.task, b.proc, b.duplicate)
            assert b.start == pytest.approx(a.start + 100.0)
            assert b.finish == pytest.approx(a.finish + 100.0)
        assert shifted.jobs[0].sojourn == pytest.approx(base.jobs[0].sojourn)


class TestStaticDifferential:
    @pytest.mark.parametrize("name", ("HDLTS", "HEFT", "PETS", "DHEFT"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_matches_replay_static(self, name, seed):
        instance = lone_job_instance(seed, ccr=5.0)
        job = instance.jobs[0]
        schedule = make_scheduler(name).run(job.graph).schedule
        reference = replay_static(job.graph, schedule, job.duration_fn())
        result = run_stream(instance, f"Static/{name}")
        _assert_identical(result, reference)

    @pytest.mark.parametrize("name", ("HDLTS", "HEFT"))
    @pytest.mark.parametrize("seed", (1, 4, 9))
    def test_noisy_matches_replay_static(self, name, seed):
        instance = lone_job_instance(seed, sigma=0.3, ccr=2.0)
        job = instance.jobs[0]
        schedule = make_scheduler(name).run(job.graph).schedule
        reference = replay_static(job.graph, schedule, job.duration_fn())
        result = run_stream(instance, f"Static/{name}")
        _assert_identical(result, reference)

    def test_duplicate_records_carry_their_own_interval(self):
        """Regression: replay_static used to report a duplicated entry
        twice with the primary's times and no flag; the arena compares
        per-copy records, which is what flushed the bug out."""
        import numpy as np

        from repro.generator import GeneratorConfig, generate_random_graph
        from repro.stream import StreamInstance, StreamJob

        graph = generate_random_graph(
            GeneratorConfig(v=10, n_procs=3, ccr=5.0, beta=2.0),
            np.random.default_rng(46),
        )
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        schedule = make_scheduler("HDLTS").run(graph).schedule
        assert schedule.duplicates(), "seed 46 must produce an entry duplicate"
        instance = StreamInstance(
            jobs=(StreamJob(0, 0.0, graph),), n_procs=3
        )
        result = run_stream(instance, "Static/HDLTS")
        reference = replay_static(graph, schedule)
        assert _as_online_records(result) == reference.records
        dups = [r for r in reference.records if r.duplicate]
        assert len(dups) == 1
        # the duplicate's realized interval is its own, not the primary's
        entry = dups[0].task
        primary = [
            r for r in reference.records if r.task == entry and not r.duplicate
        ]
        assert len(primary) == 1
        assert not math.isclose(dups[0].finish, primary[0].finish) or (
            dups[0].proc != primary[0].proc
        )


class TestCounterFlush:
    """The arena sums its ``stream/*`` counters and publishes them once
    per run, also when the run raises."""

    def test_one_obs_call_per_counter_per_run(self, monkeypatch):
        from tests.stream.conftest import build_workload

        instance = build_workload(4, n_jobs=5)
        with obs.session(metrics=True) as sess:
            result = run_stream(instance, "OnlineHDLTS")
        counters = sess.snapshot["counters"]
        assert counters["stream/jobs"] == 5
        assert counters["stream/job_finishes"] == 5
        assert counters["stream/dispatches"] == len(result.records)
        calls = []
        monkeypatch.setattr(obs, "count", lambda *a, **k: calls.append(a))
        run_stream(instance, "OnlineHDLTS")
        assert sorted(key for key, _ in calls) == [
            "stream/dispatches", "stream/job_finishes", "stream/jobs",
        ]

    def test_counts_flush_when_the_run_raises(self, monkeypatch):
        from repro.stream import arena
        from tests.stream.conftest import build_workload

        real = arena.JobStream._finish_job
        finished = []

        def failing(self, state, st):
            if finished:
                raise RuntimeError("boom")
            finished.append(st)
            real(self, state, st)

        monkeypatch.setattr(arena.JobStream, "_finish_job", failing)
        with obs.session(metrics=True) as sess:
            with pytest.raises(RuntimeError, match="boom"):
                run_stream(build_workload(4, n_jobs=5), "Static/HEFT")
        counters = sess.snapshot["counters"]
        assert counters["stream/job_finishes"] == 1
        assert counters["stream/jobs"] >= 2
        assert counters["stream/dispatches"] > 0
