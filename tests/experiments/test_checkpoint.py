"""Checkpoint/resume and start-method parity tests for the sweep runner.

The contract under test: a sweep interrupted after k chunks and resumed
from its ledger is *bit-identical* to an uninterrupted serial run, and
so is a sweep run under any pool start method (fork, spawn, serial
in-process chunking).
"""

import pytest

from repro.experiments import get_figure
from repro.experiments.harness import run_sweep
from repro.experiments.parallel import run_sweep_parallel, sweep_pool
from repro.runtime.context import RunContext
from repro.runtime.session import ExperimentSession
from tests.experiments.test_harness import tiny_closure_sweep, tiny_sweep


def _assert_same_stats(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            assert result.stats[x][name].mean == serial.stats[x][name].mean
            assert result.stats[x][name].std == serial.stats[x][name].std
            assert result.stats[x][name].n == serial.stats[x][name].n


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


class TestResume:
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, kill_after):
        definition = tiny_sweep()
        context = RunContext(seed=3, workers=2, chunk_size=1)
        session = ExperimentSession.create(
            tmp_path / "run", context, [definition], reps=4
        )
        with pytest.raises(_StopAfter):
            run_sweep_parallel(
                definition, reps=4, seed=3, workers=2, chunk_size=1,
                progress=_interrupt_after(kill_after), session=session,
            )
        session.close()
        recorded = len(session.completed_chunks(definition.key))
        assert kill_after <= recorded < 8  # partial, durable ledger

        resumed_session = ExperimentSession.open(tmp_path / "run")
        live = {"n": 0}

        def count_progress(done, total):
            live["n"] += 1

        with resumed_session:
            resumed = run_sweep_parallel(
                definition, reps=4, seed=3, workers=2, chunk_size=1,
                progress=count_progress, session=resumed_session,
            )
        assert live["n"] == 8  # every chunk reported, replayed or live
        _assert_same_stats(resumed, run_sweep(definition, reps=4, seed=3))

    def test_fully_completed_run_replays_without_recompute(self, tmp_path):
        definition = tiny_sweep()
        context = RunContext(seed=1, chunk_size=2)
        session = ExperimentSession.create(
            tmp_path / "run", context, [definition], reps=4
        )
        with session:
            first = run_sweep_parallel(
                definition, reps=4, seed=1, workers=2, chunk_size=2,
                session=session,
            )
        replay_session = ExperimentSession.open(tmp_path / "run")

        def fail_factory(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replay recomputed a chunk")

        with replay_session:
            replayed = run_sweep_parallel(
                SweepDefinitionProxy(definition, fail_factory), reps=4,
                seed=1, workers=1, chunk_size=2, session=replay_session,
            )
        _assert_same_stats(replayed, first)

    def test_serial_session_run_matches_parallel(self, tmp_path):
        definition = tiny_sweep()
        context = RunContext(seed=5)
        session = ExperimentSession.create(
            tmp_path / "run", context, [definition], reps=3
        )
        with session:
            serial = run_sweep_parallel(
                definition, reps=3, seed=5, workers=1, chunk_size=2,
                session=session,
            )
        _assert_same_stats(serial, run_sweep(definition, reps=3, seed=5))
        assert len(session.completed_chunks(definition.key)) == 4


class SweepDefinitionProxy:
    """A definition whose graph factory must never be called."""

    def __init__(self, definition, fail_factory):
        self._definition = definition
        self._fail = fail_factory

    def build_graph(self, x, rng):
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

    def test_closure_definitions_rejected_off_fork(self):
        with pytest.raises(ValueError, match="closure"):
            with sweep_pool(
                [tiny_closure_sweep()], workers=2, start_method="spawn"
            ):
                pass  # pragma: no cover

    def test_closure_definitions_still_work_under_fork(self):
        definition = tiny_closure_sweep()
        result = run_sweep_parallel(
            definition, reps=2, seed=0, workers=2, start_method="fork"
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
