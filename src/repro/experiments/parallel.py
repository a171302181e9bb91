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

Results stream home through ``imap``: chunks are submitted in ``(x,
rep)`` order and ``imap`` yields them in submission order, so the
parent folds each chunk into the Welford accumulators the moment it
arrives -- identical accumulation order to the serial runner (hence
bit-identical means/stds), without first materializing every chunk
result like ``pool.map`` did.

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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.experiments.harness import (
    SweepDefinition,
    SweepResult,
    run_replications,
    run_sweep,
)
from repro.metrics.stats import RunningStats
from repro.obs.metrics import MetricsRegistry
from repro.runtime.context import (
    START_METHODS,
    RunContext,
    adopt,
    current_context,
)
from repro.runtime.telemetry import HeartbeatWriter
from repro.service.store import ColumnarStore

__all__ = ["chunk_plan", "run_sweep_parallel", "sweep_pool"]

# worker-process state, installed by the pool initializer (never by
# fork inheritance): the adopted context, the definition registry, and
# (when the context names a telemetry directory) this worker's
# heartbeat writer and span sink.
_WORKER_STATE: Dict[str, object] = {}

#: one worker chunk:
#: (definition key, x_index, x, rep_lo, rep_hi, seed, validate)
Chunk = Tuple[str, int, object, int, int, int, bool]
#: what a worker sends home: (x_index, values, metrics snapshot, wall)
ChunkResult = Tuple[int, List[Dict[str, float]], Dict, float]

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


def _execute_chunk(definition: SweepDefinition, chunk: Chunk) -> ChunkResult:
    """Run replications [rep_lo, rep_hi) of x point ``x_index``."""
    _key, x_index, x, rep_lo, rep_hi, seed, validate = chunk
    started = time.perf_counter()
    with obs.scoped(merge_up=False) as registry, obs.span(
        "sweep.chunk", figure=_key, x=x, rep_lo=rep_lo, rep_hi=rep_hi
    ):
        values = run_replications(
            definition, x, x_index, rep_lo, rep_hi, seed, validate
        )
        snapshot = registry.snapshot() if registry else {}
    return x_index, values, snapshot, time.perf_counter() - started


def _run_chunk(chunk: Chunk) -> ChunkResult:
    """Worker entry point: resolve the definition, run the chunk."""
    definitions: Dict[str, SweepDefinition] = _WORKER_STATE["definitions"]  # type: ignore[assignment]
    result = _execute_chunk(definitions[chunk[0]], chunk)
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


def chunk_plan(
    definition: SweepDefinition, reps: int, seed: int, validate: bool,
    chunk_size: int,
) -> List[Chunk]:
    """The sweep's chunk decomposition, in submission (= serial) order.

    This is the unit of scheduling everywhere: worker pools submit these
    chunks, run directories key completed work by them, and
    :mod:`repro.experiments.campaign` enumerates its shardable task ids
    from them -- one shared decomposition, so a campaign's tasks line up
    one-to-one with the chunks a checkpointed run would execute.
    """
    chunks: List[Chunk] = []
    for i, x in enumerate(definition.x_values):
        for lo in range(0, reps, chunk_size):
            chunks.append(
                (definition.key, i, x, lo, min(lo + chunk_size, reps), seed, validate)
            )
    return chunks


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
    """Stream-accumulate chunk results (live or store-replayed) in order."""
    chunks = chunk_plan(definition, reps, seed, validate, chunk_size)
    completed = (
        store.completed_chunks(definition.key) if store is not None else {}
    )
    live = [c for c in chunks if (c[1], c[3], c[4]) not in completed]

    sweep = SweepResult(definition=definition, reps=reps, seed=seed)
    for x in definition.x_values:
        sweep.stats[x] = {
            name: RunningStats() for name in definition.schedulers
        }
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
        live_iter = pool.imap(_run_chunk, live)
    else:
        live_iter = (_execute_chunk(definition, c) for c in live)
    # chunks are submitted in (x, rep) order and imap yields them in
    # submission order; store-replayed chunks interleave at exactly the
    # position they were originally submitted.  Accumulating in this
    # order therefore feeds the Welford accumulators in exactly the
    # serial order, live and replayed runs alike.
    done, total = 0, len(chunks)
    with obs.span(
        "sweep.run", figure=definition.key, reps=reps, workers=n_workers
    ):
        for chunk in chunks:
            key = (chunk[1], chunk[3], chunk[4])
            row = completed.get(key)
            replayed = row is not None
            if replayed:
                values, wall = row["values"], 0.0
            else:
                _x_index, values, snapshot, wall = next(live_iter)
                if snapshot:
                    merged.merge(snapshot)
                if obs.enabled():
                    merged.timer("sweep/chunk_wall").observe(wall)
            accumulators = sweep.stats[chunk[2]]
            for rep_values in values:
                for name, value in rep_values.items():
                    accumulators[name].add(value)
            recorded = store is not None and not replayed
            if recorded:
                store.append_chunk(
                    definition.key, chunk[1], chunk[2], chunk[3], chunk[4],
                    values,
                )
            if bus.active:
                bus.emit(
                    "sweep.chunk",
                    figure=definition.key,
                    x=chunk[2],
                    rep_lo=chunk[3],
                    rep_hi=chunk[4],
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
