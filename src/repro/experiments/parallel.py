"""Process-parallel sweep execution.

Replications are embarrassingly parallel: each draws its own graph from
an independent ``(seed, x_index, rep)`` RNG stream, so chunking them
across worker processes reproduces the serial result *bit for bit* --
the property the test suite asserts.

Workers are configured explicitly, not by fork inheritance: the pool
initializer ships the active :class:`~repro.runtime.context.RunContext`
(with the parent's *effective* observability state folded in) plus the
sweep definitions to every worker, which :func:`~repro.runtime.context
.adopt`\\ s the context as its own.  Definitions built from declarative
:class:`~repro.experiments.graphspec.GraphSpec`\\ s pickle, so the pool
runs under any start method -- ``fork``, ``spawn`` or ``forkserver`` --
with bit-identical results.  Legacy closure-based definitions still
work, but only under ``fork`` (the initializer arguments then travel
through inherited memory instead of pickling).

The pool runs the tasks of :func:`~repro.service.store.enumerate_tasks`
and ``imap`` yields them home in submission order, so the parent folds
each chunk into the sweep's :class:`~repro.experiments.harness
.ExactWelford` the moment it arrives, under the fold contract stated in
``docs/architecture.md`` -- without first materializing every chunk.

Checkpoint/resume: pass a :class:`~repro.service.store.ColumnarStore`
opened for append (shard 0 of a ``repro run`` directory, which is a
one-shard campaign) and every completed chunk is appended durably to it
in submission order; on a later run the stored chunks are *replayed*
from disk in submission order, interleaved with freshly computed ones,
so a killed sweep resumes bit-identically (the store holds raw IEEE-754
doubles), and the resumed store is byte-identical to one written
without interruption.

:func:`sweep_pool` creates one worker pool usable across *several*
sweeps (``repro all-figures --workers N`` runs every figure through a
single pool instead of spawning per figure).  All definitions must be
passed at pool creation so the initializer can ship them.

Observability: when profiling is enabled each worker records into its
own scoped registry and ships the snapshot home with its chunk; the
parent merges them in submission order, so every counter total is
bit-identical to the serial runner.  The parent additionally times each
chunk and publishes the balance of the decomposition as
``sweep/chunk_wall`` (per-chunk seconds) and ``sweep/chunk_imbalance``
(max/mean chunk wall -- 1.0 is a perfectly balanced pool), alongside
the ``sweep/workers`` and ``sweep/chunk_size`` gauges describing the
decomposition itself.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.experiments.harness import (
    ExactWelford,
    SweepDefinition,
    SweepResult,
    run_replications,
    run_sweep,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.context import (
    START_METHODS,
    RunContext,
    adopt,
    current_context,
)
from repro.runtime.telemetry import HeartbeatWriter
from repro.service.store import (
    ColumnarStore,
    TaskSpec,
    enumerate_tasks,
    values_matrix,
)

__all__ = ["run_sweep_parallel", "sweep_pool"]

# worker-process state, installed by the pool initializer (never by
# fork inheritance): the adopted context, the definition registry, and
# (when the context names a telemetry directory) this worker's
# heartbeat writer and span sink.
_WORKER_STATE: Dict[str, object] = {}

#: what a worker sends home: (values, metrics snapshot, wall)
ChunkResult = Tuple[List[Dict[str, float]], Dict, float]

#: progress callback: (completed chunks, total chunks)
ProgressFn = Callable[[int, int], None]


def _init_worker(
    context: RunContext, definitions: List[SweepDefinition]
) -> None:
    """Pool initializer: adopt the shipped context, register definitions.

    Under ``fork`` the arguments arrive through inherited memory (so
    closure-based definitions still work); under ``spawn``/
    ``forkserver`` they are pickled, which is why portable definitions
    carry a :class:`~repro.experiments.graphspec.GraphSpec`.

    When the context names a telemetry directory the worker writes a
    heartbeat file there after every chunk, and -- when tracing is on --
    streams its ``span.end`` events into ``spans-<pid>.jsonl`` in the
    same directory (flushed per chunk: ``Pool.terminate`` must not cost
    more than the chunk in flight).  Trace lanes derive from span pids,
    so the worker also records one ``worker.start`` span up front: a
    worker that never wins a chunk still gets its lane.
    """
    adopt(context)
    _WORKER_STATE["definitions"] = {d.key: d for d in definitions}
    _WORKER_STATE.pop("heartbeat", None)
    _WORKER_STATE.pop("span_sink", None)
    if context.telemetry:
        heartbeat = HeartbeatWriter(context.telemetry, role="worker")
        heartbeat.beat(force=True)
        _WORKER_STATE["heartbeat"] = heartbeat
        if context.trace:
            sink = obs.JsonlSink(
                os.path.join(
                    context.telemetry, f"spans-{os.getpid()}.jsonl"
                )
            )
            obs.get_bus().subscribe(sink, topics=[obs.SPAN_TOPIC])
            _WORKER_STATE["span_sink"] = sink
            with obs.span("worker.start"):
                pass
            sink.flush()


def _execute_chunk(
    definition: SweepDefinition, task: TaskSpec, seed: int, validate: bool
) -> ChunkResult:
    """Run the task's replications [rep_lo, rep_hi) of its x point."""
    started = time.perf_counter()
    with obs.scoped(merge_up=False) as registry, obs.span(
        "sweep.chunk", figure=task.sweep, x=task.x, rep_lo=task.rep_lo,
        rep_hi=task.rep_hi,
    ):
        values = run_replications(
            definition, task.x, task.x_index, task.rep_lo, task.rep_hi,
            seed, validate,
        )
        snapshot = registry.snapshot() if registry else {}
    return values, snapshot, time.perf_counter() - started


def _run_chunk(task: TaskSpec, seed: int, validate: bool) -> ChunkResult:
    """Worker entry point: resolve the definition, run the task."""
    definitions: Dict[str, SweepDefinition] = _WORKER_STATE["definitions"]  # type: ignore[assignment]
    result = _execute_chunk(definitions[task.sweep], task, seed, validate)
    heartbeat = _WORKER_STATE.get("heartbeat")
    if heartbeat is not None:
        heartbeat.bump(last_event_ts=time.time())
    sink = _WORKER_STATE.get("span_sink")
    if sink is not None:
        sink.flush()
    return result


def _resolve_start_method(
    start_method: Optional[str], context: RunContext
) -> str:
    """Pick the pool start method: explicit > context > fork > spawn > serial.

    An *explicit* ``start_method`` argument is strict: unknown names and
    platform-unsupported methods raise.  The context's ``start_method``
    is a default: if the platform lacks it, resolution falls through the
    auto chain (fork, then spawn, then serial in-process execution).
    """
    if start_method is not None:
        if start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS}, "
                f"got {start_method!r}"
            )
        if start_method != "serial":
            multiprocessing.get_context(start_method)  # raises if unsupported
        return start_method
    if context.start_method is not None:
        if context.start_method == "serial":
            return "serial"
        try:
            multiprocessing.get_context(context.start_method)
            return context.start_method
        except ValueError:
            pass  # fall through to the auto chain
    for candidate in ("fork", "spawn"):
        try:
            multiprocessing.get_context(candidate)
        except ValueError:  # pragma: no cover - platform dependent
            continue
        return candidate
    return "serial"


def _default_workers(workers: Optional[int], context: RunContext) -> int:
    """Explicit ``workers`` > a parallel context > the CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    if context.workers > 1:
        return context.workers
    return os.cpu_count() or 1


@contextmanager
def sweep_pool(
    definitions: Iterable[SweepDefinition],
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    context: Optional[RunContext] = None,
) -> Iterator[multiprocessing.pool.Pool]:
    """One worker pool shared by several :func:`run_sweep_parallel` calls.

    Every definition that will run on the pool must be passed here: the
    pool initializer ships them to the workers, so definitions appearing
    after the pool exists are invisible to it.  ``start_method`` (or
    ``context.start_method``) picks how workers start; under anything
    but ``fork`` every definition must be portable (declarative
    ``graph`` spec, not a closure).  Workers adopt the active context
    (observability flags included) with the pool's worker count and
    start method filled in.
    """
    definitions = list(definitions)
    registry: Dict[str, SweepDefinition] = {
        d.key: d for d in definitions
    }
    ctx = context if context is not None else current_context()
    method = _resolve_start_method(start_method, ctx)
    if method == "serial":
        raise ValueError(
            "start method resolved to 'serial'; a worker pool cannot be "
            "created (run the sweeps through run_sweep_parallel instead)"
        )
    if method != "fork":
        closures = sorted(d.key for d in definitions if not d.portable)
        if closures:
            raise ValueError(
                f"definitions {closures} use make_graph closures, which "
                f"cannot be shipped to {method!r} workers; give them a "
                "GraphSpec or use start_method='fork'"
            )
    n_workers = _default_workers(workers, ctx)
    effective = ctx.with_(workers=n_workers, start_method=method)
    mp_context = multiprocessing.get_context(method)
    with mp_context.Pool(
        processes=n_workers,
        initializer=_init_worker,
        initargs=(effective, definitions),
    ) as pool:
        pool._repro_definitions = registry  # type: ignore[attr-defined]
        yield pool
        # a clean exit lets a worker that is still starting up finish its
        # initializer (and record its ``worker.start`` span) before the
        # pool goes away; an error still takes the terminate() of the
        # with statement
        pool.close()
        pool.join()


def run_sweep_parallel(
    definition: SweepDefinition,
    reps: int = 30,
    seed: int = 0,
    validate: bool = False,
    workers: Optional[int] = None,
    chunk_size: int = 5,
    pool: Optional[multiprocessing.pool.Pool] = None,
    start_method: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    store: Optional[ColumnarStore] = None,
) -> SweepResult:
    """Parallel :func:`~repro.experiments.harness.run_sweep`.

    Identical output to the serial runner for the same ``seed`` --
    including the metrics snapshot: counter totals merge by addition, so
    they match a serial run bit for bit.  ``workers`` defaults to the
    active context's worker count (the CPU count when the context says
    serial); ``chunk_size`` balances task granularity against dispatch
    overhead.  Pass a ``pool`` from :func:`sweep_pool` to reuse one set
    of workers across several sweeps (the definition must have been
    registered with that pool).

    ``progress`` is called as ``progress(done, total)`` after every
    completed chunk.  ``store`` (a columnar store opened in mode
    ``"a"``) makes the run resumable: completed chunks are appended
    durably to it, and chunks already present in it are replayed from
    disk instead of recomputed -- in submission order, so the resumed
    result is bit-identical to an uninterrupted run.  Replayed chunks
    carry no metrics snapshot or wall time, so metrics cover only the
    chunks computed in this call.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if pool is not None:
        registered = getattr(pool, "_repro_definitions", {})
        if definition.key not in registered:
            raise ValueError(
                f"definition {definition.key!r} is not registered with the "
                "shared pool; pass it to sweep_pool()"
            )
        n_workers = getattr(pool, "_processes", None) or os.cpu_count() or 1
        return _collect(
            definition, pool, n_workers, reps, seed, validate, chunk_size,
            progress=progress, store=store,
        )
    ctx = current_context()
    n_workers = _default_workers(workers, ctx)
    method = _resolve_start_method(start_method, ctx)
    if method == "serial" or n_workers == 1:
        if store is None and progress is None:
            return run_sweep(definition, reps, seed, validate)
        # in-process chunk execution: same chunk decomposition (so the
        # stored task ids line up with any parallel run) without a pool
        return _collect(
            definition, None, 1, reps, seed, validate, chunk_size,
            progress=progress, store=store,
        )
    with sweep_pool(
        [definition], n_workers, start_method=method
    ) as own_pool:
        return _collect(
            definition, own_pool, n_workers, reps, seed, validate, chunk_size,
            progress=progress, store=store,
        )


def _collect(
    definition: SweepDefinition,
    pool,
    n_workers: int,
    reps: int,
    seed: int,
    validate: bool,
    chunk_size: int,
    progress: Optional[ProgressFn] = None,
    store: Optional[ColumnarStore] = None,
) -> SweepResult:
    """Fold chunk results (live or store-replayed) in submission order."""
    tasks = enumerate_tasks([definition], reps, chunk_size)
    completed = (
        store.completed_chunks(definition.key) if store is not None else {}
    )
    live = [
        t for t in tasks
        if (t.x_index, t.rep_lo, t.rep_hi) not in completed
    ]
    columns = list(definition.schedulers)
    fold = ExactWelford(len(definition.x_values), len(columns))
    merged = MetricsRegistry()
    bus = obs.get_bus()
    ctx = current_context()
    # the collector owns shard 0 of the run directory: its beat carries
    # the shard and counts live chunks only, so chunks_done / (ts -
    # started) is the rate `repro status` derives the ETA from
    heartbeat = (
        HeartbeatWriter(ctx.telemetry, role="main", extra={"shard": 0})
        if ctx.telemetry else None
    )
    if pool is not None:
        live_iter = pool.imap(
            partial(_run_chunk, seed=seed, validate=validate), live
        )
    else:
        live_iter = (
            _execute_chunk(definition, t, seed, validate) for t in live
        )
    # imap yields live chunks in submission order and replayed chunks
    # sit at their submission position, so each lane folds in
    # replication order, live and replayed runs alike
    done, total = 0, len(tasks)
    with obs.span(
        "sweep.run", figure=definition.key, reps=reps, workers=n_workers
    ):
        for task in tasks:
            matrix = completed.get((task.x_index, task.rep_lo, task.rep_hi))
            replayed = matrix is not None
            if replayed:
                wall = 0.0
            else:
                values, snapshot, wall = next(live_iter)
                matrix = values_matrix(values, columns)
                if snapshot:
                    merged.merge(snapshot)
                if obs.enabled():
                    merged.timer("sweep/chunk_wall").observe(wall)
            fold.add_rows(matrix, task.x_index)
            recorded = store is not None and not replayed
            if recorded:
                store.append_chunk(
                    definition.key, task.x_index, task.x, task.rep_lo,
                    task.rep_hi, values,
                )
            if bus.active:
                bus.emit(
                    "sweep.chunk",
                    figure=definition.key,
                    x=task.x,
                    rep_lo=task.rep_lo,
                    rep_hi=task.rep_hi,
                    wall_s=wall,
                    replayed=replayed,
                    recorded=recorded,
                )
            done += 1
            if heartbeat is not None and not replayed:
                heartbeat.bump(last_event_ts=time.time())
            if progress is not None:
                progress(done, total)
    if heartbeat is not None:
        heartbeat.beat(force=True)

    sweep = SweepResult.from_fold(definition, reps, seed, fold)
    if obs.enabled():
        chunk_timer = merged.timer("sweep/chunk_wall")
        if chunk_timer.count and chunk_timer.mean > 0.0:
            merged.gauge("sweep/chunk_imbalance").set(
                chunk_timer.max / chunk_timer.mean
            )
        merged.gauge("sweep/workers").set(n_workers)
        merged.gauge("sweep/chunk_size").set(chunk_size)
    if merged:
        sweep.metrics = merged.snapshot()
        # keep an enclosing observability session in the loop, exactly
        # like the serial runner's scoped registry merging up
        obs.get_metrics().merge(sweep.metrics)
    return sweep
