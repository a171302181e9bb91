"""Checkpoint/resume and start-method parity tests for the sweep runner.

The contract under test: a sweep interrupted after k chunks and resumed
from its run directory -- a one-shard campaign whose shard 0 the pool
streams into -- is *bit-identical* to an uninterrupted serial run, its
shard file is byte-identical to the one :func:`run_shard` writes, and
so is a sweep run under any pool start method (fork, spawn, serial
in-process chunking).
"""

import pytest

from repro.experiments.campaign import Campaign, merge, run_shard
from repro.experiments.harness import run_sweep
from repro.experiments.parallel import run_sweep_parallel
from repro.runtime.context import RunContext
from repro.service.store import ColumnarStore
from tests.experiments.test_harness import tiny_sweep


def _assert_same_stats(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            assert result.stats[x][name].mean == serial.stats[x][name].mean
            assert result.stats[x][name].std == serial.stats[x][name].std
            assert result.stats[x][name].n == serial.stats[x][name].n


def _assert_bit_identical(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            a, b = result.stats[x][name], serial.stats[x][name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            ), (x, name)


class _StopAfter(Exception):
    pass


def _interrupt_after(k):
    """A progress callback raising after ``k`` completed chunks."""
    seen = {"n": 0}

    def progress(done, total):
        seen["n"] += 1
        if seen["n"] >= k:
            raise _StopAfter()

    return progress


def _run_dir(path, definition, reps, **ctx_kwargs):
    return Campaign.create(
        path, [definition], reps=reps, n_shards=1,
        context=RunContext(**ctx_kwargs),
    )


def _shard0(campaign):
    return ColumnarStore(
        campaign.shard_path(0), campaign.groups(), mode="a"
    )


class TestResume:
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, kill_after):
        definition = tiny_sweep()
        campaign = _run_dir(
            tmp_path / "run", definition, 4, seed=3, workers=2, chunk_size=1
        )
        with pytest.raises(_StopAfter), _shard0(campaign) as store:
            run_sweep_parallel(
                definition, reps=4, seed=3, workers=2, chunk_size=1,
                progress=_interrupt_after(kill_after), store=store,
            )
        with ColumnarStore(campaign.shard_path(0)) as store:
            recorded = len(store.completed_ids())
        assert kill_after <= recorded < 8  # partial, durable shard

        live = {"n": 0}

        def count_progress(done, total):
            live["n"] += 1

        with _shard0(Campaign.open(tmp_path / "run")) as store:
            resumed = run_sweep_parallel(
                definition, reps=4, seed=3, workers=2, chunk_size=1,
                progress=count_progress, store=store,
            )
        assert live["n"] == 8  # every chunk reported, replayed or live
        serial = run_sweep(definition, reps=4, seed=3)
        _assert_bit_identical(resumed, serial)
        _assert_bit_identical(merge(campaign)[definition.key], serial)

        # the resumed store is byte-identical to a shard process's
        fresh = _run_dir(
            tmp_path / "fresh", definition, 4, seed=3, workers=2, chunk_size=1
        )
        assert run_shard(fresh, 0).complete
        assert (
            campaign.shard_path(0).read_bytes()
            == fresh.shard_path(0).read_bytes()
        )

    def test_fully_completed_run_replays_without_recompute(self, tmp_path):
        definition = tiny_sweep()
        campaign = _run_dir(tmp_path / "run", definition, 4, seed=1,
                            chunk_size=2)
        with _shard0(campaign) as store:
            first = run_sweep_parallel(
                definition, reps=4, seed=1, workers=2, chunk_size=2,
                store=store,
            )
        before = campaign.shard_path(0).read_bytes()

        def fail_factory(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replay recomputed a chunk")

        with _shard0(Campaign.open(tmp_path / "run")) as store:
            replayed = run_sweep_parallel(
                SweepDefinitionProxy(definition, fail_factory), reps=4,
                seed=1, workers=1, chunk_size=2, store=store,
            )
        _assert_same_stats(replayed, first)
        assert campaign.shard_path(0).read_bytes() == before

    def test_serial_session_run_matches_parallel(self, tmp_path):
        definition = tiny_sweep()
        campaign = _run_dir(tmp_path / "run", definition, 3, seed=5,
                            chunk_size=2)
        with _shard0(campaign) as store:
            serial = run_sweep_parallel(
                definition, reps=3, seed=5, workers=1, chunk_size=2,
                store=store,
            )
        _assert_same_stats(serial, run_sweep(definition, reps=3, seed=5))
        with ColumnarStore(campaign.shard_path(0)) as store:
            assert len(store.completed_chunks(definition.key)) == 4


class SweepDefinitionProxy:
    """A definition whose graph factory must never be called."""

    def __init__(self, definition, fail_factory):
        self._definition = definition
        self._fail = fail_factory

    def build_graph(self, x, rng):
        return self._fail(x, rng)

    def build_instance(self, x, rng):
        return self._fail(x, rng)

    def __getattr__(self, name):
        return getattr(self._definition, name)


class TestStartMethods:
    def test_spawn_matches_fork_and_serial(self):
        definition = tiny_sweep()
        serial = run_sweep(definition, reps=4, seed=2)
        fork = run_sweep_parallel(
            definition, reps=4, seed=2, workers=2, chunk_size=1,
            start_method="fork",
        )
        spawn = run_sweep_parallel(
            definition, reps=4, seed=2, workers=2, chunk_size=1,
            start_method="spawn",
        )
        _assert_same_stats(fork, serial)
        _assert_same_stats(spawn, serial)

    def test_spawn_workers_inherit_enabled_scope(self):
        """Workers adopt the active context as-is: metrics scoped on in
        the parent reach spawn-started workers, and their merged
        counters equal the serial run's."""
        from repro import obs

        definition = tiny_sweep()
        with obs.enabled_scope(True):
            with obs.scoped(merge_up=False):
                serial = run_sweep(definition, reps=4, seed=2)
            with obs.scoped(merge_up=False):
                spawn = run_sweep_parallel(
                    definition, reps=4, seed=2, workers=2, chunk_size=1,
                    start_method="spawn",
                )
        assert serial.metrics["counters"]
        assert spawn.metrics["counters"] == serial.metrics["counters"]

    def test_serial_start_method_never_pools(self, monkeypatch):
        import multiprocessing

        def no_pools(method):
            raise AssertionError("a pool was created under 'serial'")

        monkeypatch.setattr(multiprocessing, "get_context", no_pools)
        definition = tiny_sweep()
        result = run_sweep_parallel(
            definition, reps=2, seed=0, workers=4, start_method="serial",
        )
        _assert_same_stats(result, run_sweep(definition, reps=2, seed=0))

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            run_sweep_parallel(
                tiny_sweep(), reps=2, workers=2, start_method="thread"
            )

    def test_context_start_method_drives_resolution(self):
        from repro.experiments.parallel import _resolve_start_method
        from repro.runtime.context import DEFAULT_CONTEXT

        assert (
            _resolve_start_method(None, DEFAULT_CONTEXT.with_(start_method="serial"))
            == "serial"
        )
        assert (
            _resolve_start_method("fork", DEFAULT_CONTEXT.with_(start_method="serial"))
            == "fork"
        )
