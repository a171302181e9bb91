"""Property suite for the job-stream arena.

Three families:

* **Conservation / feasibility** -- every arrived job finishes (or is
  explicitly lost under failures), no CPU runs two tasks at once across
  jobs, per-job precedence holds with realized data arrivals, CPU
  utilization never exceeds 1.  Checked through the stream invariant
  registry on randomized workloads (fixed seeds plus a Hypothesis sweep
  over the workload knobs).
* **Oracle sharpness** -- tampered executions (overlaps, precedence
  breaks, dropped finishes, over-unity utilization) must be *caught*.
* **Determinism & monotonicity** -- the same RNG key materializes the
  same workload; mean sojourn is non-decreasing as deterministic
  arrivals tighten (FIFO admission), with only endpoint dominance
  asserted for the online policy, whose priority order legitimately
  reshuffles under congestion (a scheduling anomaly, not a bug).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic.failures import FailStop
from repro.qa.invariants import (
    run_stream_invariants,
    stream_invariant_names,
)
from repro.stream import JobStream, normalize_policy, run_stream
from repro.stream.metrics import STREAM_METRICS
from tests.stream.conftest import ALL_POLICIES, build_workload, small_spec

_mean_sojourn = STREAM_METRICS["sojourn"]


# ----------------------------------------------------------------------
# conservation / feasibility over randomized workloads
# ----------------------------------------------------------------------
class TestInvariantsHold:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_poisson_streams_replay_clean(self, policy, seed):
        instance = build_workload(seed, n_jobs=5, sigma=0.2)
        result = run_stream(instance, policy)
        report = run_stream_invariants(instance, result)
        assert report.ok, "\n".join(report.all_problems())
        assert all(job.finished for job in result.jobs)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_burst_arrivals_replay_clean(self, policy):
        # every job arrives at t=0: maximum admission contention
        instance = build_workload(
            1, n_jobs=5, kind="deterministic", interval=0.0,
            axis="interval", x=0.0,
        )
        result = run_stream(instance, policy)
        report = run_stream_invariants(instance, result)
        assert report.ok, "\n".join(report.all_problems())

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_jobs=st.integers(min_value=1, max_value=5),
        v=st.integers(min_value=5, max_value=12),
        n_procs=st.integers(min_value=2, max_value=4),
        sigma=st.sampled_from((0.0, 0.2, 0.5)),
        rate=st.sampled_from((0.005, 0.02, 0.1)),
    )
    def test_hypothesis_workloads_replay_clean(
        self, seed, n_jobs, v, n_procs, sigma, rate
    ):
        instance = build_workload(
            seed, x=rate, n_jobs=n_jobs, v=v, n_procs=n_procs,
            sigma=sigma, rate=rate,
        )
        for policy in ALL_POLICIES:
            result = run_stream(instance, policy)
            report = run_stream_invariants(instance, result)
            assert report.ok, "\n".join(report.all_problems())

    def test_failures_lose_jobs_explicitly_not_silently(self):
        # both CPUs die early: every job must be accounted for as lost
        instance = build_workload(3, n_jobs=3, n_procs=2, v=8)
        failures = [FailStop(0, 1.0), FailStop(1, 1.0)]
        result = run_stream(instance, "OnlineHDLTS", failures=failures)
        assert len(result.lost_jobs()) == 3
        assert not result.finished_jobs()
        assert result.dead_procs == (0, 1)
        report = run_stream_invariants(instance, result)
        assert report.ok, "\n".join(report.all_problems())
        with pytest.raises(ValueError, match="no finished jobs"):
            _mean_sojourn(result)

    def test_partial_failure_keeps_survivors_feasible(self):
        instance = build_workload(4, n_jobs=4, n_procs=3, sigma=0.2)
        failures = [FailStop(0, 30.0)]
        result = run_stream(instance, "OnlineHDLTS", failures=failures)
        report = run_stream_invariants(instance, result)
        assert report.ok, "\n".join(report.all_problems())
        assert result.dead_procs == (0,)
        assert len(result.finished_jobs()) + len(result.lost_jobs()) == 4


# ----------------------------------------------------------------------
# the oracles must catch tampered executions
# ----------------------------------------------------------------------
class TestInvariantsCatchTampering:
    def _clean(self, seed=0):
        instance = build_workload(seed, n_jobs=3)
        return instance, run_stream(instance, "OnlineHDLTS")

    def test_registry_names(self):
        names = stream_invariant_names()
        assert "stream_conservation" in names
        assert "stream_no_overlap" in names
        assert "stream_precedence" in names
        assert "stream_utilization" in names

    def test_overlap_caught(self):
        instance, result = self._clean()
        # drag one record's start into its predecessor on the same CPU
        by_proc = {}
        victim = None
        for i, rec in enumerate(result.records):
            if rec.proc in by_proc:
                victim = i
                break
            by_proc[rec.proc] = rec
        assert victim is not None
        rec = result.records[victim]
        prev = by_proc[rec.proc]
        result.records[victim] = replace(
            rec, start=(prev.start + prev.finish) / 2.0
        )
        report = run_stream_invariants(
            instance, result, ["stream_no_overlap"]
        )
        assert not report.ok

    def test_precedence_break_caught(self):
        instance, result = self._clean(1)
        # pull a record of a data-bound task before time zero relative
        # to its job's arrival
        job = result.jobs[0]
        exit_task = max(job.finish_times, key=job.finish_times.get)
        for i, rec in enumerate(result.records):
            if rec.job == 0 and rec.task == exit_task and not rec.duplicate:
                result.records[i] = replace(
                    rec, start=job.arrival, finish=job.arrival + 1.0
                )
                break
        report = run_stream_invariants(
            instance, result, ["stream_precedence"]
        )
        assert not report.ok

    def test_dropped_finish_caught(self):
        instance, result = self._clean(2)
        job = result.jobs[0]
        task = next(iter(job.finish_times))
        del job.finish_times[task]
        report = run_stream_invariants(
            instance, result, ["stream_conservation"]
        )
        assert not report.ok

    def test_over_unity_utilization_caught(self):
        instance, result = self._clean(3)
        rec = result.records[0]
        result.records[0] = replace(
            rec, finish=result.horizon * 3.0, start=0.0
        )
        # exact results also fail no-overlap; utilization alone sees it
        result.exact = False
        report = run_stream_invariants(
            instance, result, ["stream_utilization"]
        )
        assert not report.ok

    def test_unknown_invariant_name_rejected(self):
        instance, result = self._clean(4)
        with pytest.raises(KeyError):
            run_stream_invariants(instance, result, ["no_such_invariant"])


# ----------------------------------------------------------------------
# determinism & monotonicity
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_rng_key_materializes_identical_workloads(self):
        spec = small_spec(n_jobs=4, sigma=0.3)
        a = spec.build(0.02, np.random.default_rng([7, 0, 0]))
        b = spec.build(0.02, np.random.default_rng([7, 0, 0]))
        assert [j.arrival for j in a.jobs] == [j.arrival for j in b.jobs]
        for ja, jb in zip(a.jobs, b.jobs):
            assert np.array_equal(ja.durations, jb.durations)
            assert ja.graph.cost_matrix().tolist() == (
                jb.graph.cost_matrix().tolist()
            )

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_rerun_is_bit_identical(self, policy):
        instance = build_workload(9, n_jobs=4, sigma=0.2)
        a = run_stream(instance, policy)
        b = run_stream(instance, policy)
        assert a.records == b.records
        assert a.horizon == b.horizon

    def test_one_arena_runs_policies_in_turn_without_carryover(self):
        """A JobStream holds no per-run state: each run reports its own
        policy and matches a fresh arena's run of that policy."""
        instance = build_workload(4, n_jobs=4, sigma=0.2)
        arena = JobStream(instance)
        for policy in ("Static/HEFT", "online", "Static/HDLTS",
                       "OnlineHDLTS", "Static/HEFT"):
            result = arena.run(policy)
            assert result.policy == normalize_policy(policy)
            fresh = JobStream(instance).run(policy)
            assert result.records == fresh.records
            assert result.horizon == fresh.horizon


class TestMonotonicity:
    INTERVALS = (200.0, 80.0, 30.0, 10.0, 0.0)

    def _means(self, policy, seed):
        spec = small_spec(
            n_jobs=6, sigma=0.2, kind="deterministic", axis="interval"
        )
        means = []
        for interval in self.INTERVALS:
            rng = np.random.default_rng([seed, 0, 0])
            instance = spec.build(interval, rng)
            means.append(_mean_sojourn(run_stream(instance, policy)))
        return means

    @pytest.mark.parametrize("policy", ("Static/HDLTS", "Static/HEFT"))
    @pytest.mark.parametrize("seed", range(4))
    def test_fifo_mean_sojourn_nondecreasing_in_load(self, policy, seed):
        """Tighter deterministic arrivals => same jobs wait longer.

        The static policies admit and commit FIFO, so the identical
        realized world under a shorter inter-arrival interval can only
        delay jobs.  (OnlineHDLTS re-prioritizes across admitted jobs,
        so mid-range anomalies are legitimate there -- see below.)
        """
        means = self._means(policy, seed)
        assert all(
            later >= earlier - 1e-9
            for earlier, later in zip(means, means[1:])
        ), means

    @pytest.mark.parametrize("seed", range(4))
    def test_online_saturated_dominates_idle(self, seed):
        means = self._means("OnlineHDLTS", seed)
        assert means[-1] > means[0]
