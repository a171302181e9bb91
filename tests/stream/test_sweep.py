"""Injection-rate sweeps through the ordinary experiment machinery.

A stream-backed :class:`SweepDefinition` must behave exactly like a
graph-backed one everywhere it travels: serial harness, process pools
(any start method), campaign shards with streaming merge, manifests.
The acceptance bar is bit-identity, not approximation -- Welford
accumulation in submission order makes that possible.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments.campaign import Campaign, merge, run_shard
from repro.experiments.harness import SweepDefinition, run_sweep
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.report import format_sweep, winners
from repro.runtime.context import RunContext
from repro.stream.spec import (
    DEFAULT_POLICIES,
    StreamSpec,
    run_stream_replication,
    stream_sweep_definition,
)
from tests.stream.conftest import small_spec


def rate_sweep(metric="sojourn", **spec_kwargs):
    spec = small_spec(n_jobs=4, v=8, sigma=0.2, **spec_kwargs)
    return stream_sweep_definition(
        "stream-rate-test", spec, (0.01, 0.05), metric=metric
    )


def _assert_bit_identical(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            a, b = result.stats[x][name], serial.stats[x][name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            ), (x, name)


# ----------------------------------------------------------------------
# definition plumbing
# ----------------------------------------------------------------------
class TestDefinition:
    def test_round_trips_through_dict(self):
        definition = rate_sweep()
        again = SweepDefinition.from_dict(definition.to_dict())
        assert again.key == definition.key
        assert again.metric == definition.metric
        assert again.schedulers == definition.schedulers
        assert again.stream.to_dict() == definition.stream.to_dict()
        # the rebuilt spec materializes the identical workload
        a = definition.stream.build(0.05, np.random.default_rng([1, 0, 0]))
        b = again.stream.build(0.05, np.random.default_rng([1, 0, 0]))
        assert [j.arrival for j in a.jobs] == [j.arrival for j in b.jobs]
        for ja, jb in zip(a.jobs, b.jobs):
            assert np.array_equal(ja.durations, jb.durations)

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "uniform", "spread": 1.5},
            {"kind": "uniform", "spread": 1.0},
            {"kind": "uniform", "spread": -0.1},
            {"kind": "gaussian", "sigma": -0.1},
            {"kind": "gaussian", "sigma": float("nan")},
            {"kind": "lognormal", "sigma": 0.1},
        ],
    )
    def test_invalid_noise_rejected_when_the_spec_is_built(self, noise):
        """A bad noise level fails at construction (and on a manifest
        round trip), not at the first build in a shard or a worker."""
        spec = small_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(spec, noise=noise)
        with pytest.raises(ValueError):
            StreamSpec.from_dict({**spec.to_dict(), "noise": noise})

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "uniform", "spread": 0.0},
            {"kind": "uniform", "spread": 0.99},
            {"kind": "gaussian", "sigma": 0.0},
            {"kind": "gaussian"},
        ],
    )
    def test_boundary_noise_accepted(self, noise):
        spec = dataclasses.replace(small_spec(n_jobs=2), noise=noise)
        instance = spec.build(0.02, np.random.default_rng(0))
        level = noise.get("spread", noise.get("sigma", 0.0))
        assert instance.exact == (level == 0.0)

    def test_stream_definitions_are_portable(self):
        # pickles for spawn/forkserver workers
        definition = rate_sweep()
        assert pickle.loads(pickle.dumps(definition)) == definition

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            rate_sweep(metric="makespan-ish")

    def test_unknown_policy_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            stream_sweep_definition(
                "bad", small_spec(), (0.01,), policies=("Static/NoSuch",)
            )

    def test_default_policies_cover_online_and_static(self):
        assert "OnlineHDLTS" in DEFAULT_POLICIES
        assert any(p.startswith("Static/") for p in DEFAULT_POLICIES)

    def test_replication_is_a_paired_comparison(self):
        definition = rate_sweep()
        values = run_stream_replication(definition, 0.05, 1, 2, seed=9)
        assert set(values) == set(definition.schedulers)
        again = run_stream_replication(definition, 0.05, 1, 2, seed=9)
        assert values == again


# ----------------------------------------------------------------------
# serial / parallel / campaign bit-identity
# ----------------------------------------------------------------------
class TestExecution:
    def test_serial_sweep_runs_and_orients_correctly(self):
        definition = rate_sweep()
        result = run_sweep(definition, reps=3, seed=2)
        table = format_sweep(result)
        assert "stream-rate-test" in table.splitlines()[0]
        # sojourn is lower-is-better: the winner has the smallest mean
        for x, name in winners(result).items():
            means = {
                n: result.stats[x][n].mean for n in definition.schedulers
            }
            assert means[name] == min(means.values())

    def test_throughput_winner_is_max(self):
        result = run_sweep(rate_sweep(metric="throughput"), reps=2, seed=0)
        for x, name in winners(result).items():
            means = {
                n: result.stats[x][n].mean
                for n in result.definition.schedulers
            }
            assert means[name] == max(means.values())

    def test_parallel_matches_serial_bit_for_bit(self):
        definition = rate_sweep()
        serial = run_sweep(definition, reps=4, seed=5)
        parallel = run_sweep_parallel(
            definition, reps=4, seed=5, workers=2, chunk_size=1
        )
        _assert_bit_identical(parallel, serial)

    def test_validate_runs_stream_invariants(self):
        run_sweep(rate_sweep(), reps=2, seed=1, validate=True)

    def test_campaign_shard_merge_bit_identical_to_serial(self, tmp_path):
        definition = rate_sweep()
        campaign = Campaign.create(
            tmp_path / "camp",
            [definition],
            reps=4,
            n_shards=2,
            context=RunContext(seed=11, chunk_size=1),
        )
        for shard in range(campaign.n_shards):
            report = run_shard(campaign, shard)
            assert report.complete
        merged = merge(Campaign.open(tmp_path / "camp"))[definition.key]
        serial = run_sweep(definition, reps=4, seed=11)
        _assert_bit_identical(merged, serial)
