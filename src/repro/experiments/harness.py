"""Generic sweep runner.

A sweep walks one x-axis (CCR, task count, CPU count, FFT points, ...).
At every point it draws ``reps`` random problem instances and runs the
whole scheduler set on *the same* instance (paired comparison -- the
variance-reduction the paper's 1000-run averages rely on), accumulating
the chosen metric per scheduler with :class:`ExactWelford`, the one
fold every route from replications to statistics shares.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.registry import PAPER_SET, make_scheduler
from repro.core.batch import (
    BATCHABLE_STATIC,
    CompiledBatch,
    batch_groups,
    lane_gates,
    run_batch,
    run_static_set,
)
from repro.experiments.graphspec import GraphSpec
from repro.metrics.metrics import efficiency, slr
from repro.metrics.stats import RunningStats
from repro.model.compiled import CompiledGraph, compile_instance
from repro.model.task_graph import TaskGraph
from repro.runtime.context import current_context
from repro.schedule.validation import validate_schedule
from repro.service.store import values_matrix

__all__ = [
    "SweepDefinition",
    "SweepResult",
    "ExactWelford",
    "run_sweep",
    "run_points",
    "run_replication",
    "run_replications",
]

GraphFactory = Callable[[object, np.random.Generator], TaskGraph]
OptionalFactory = Optional[GraphFactory]
#: replications ``[rep_lo, rep_hi)`` of x point ``x`` (index ``x_index``)
PointSlice = Tuple[object, int, int, int]

#: metric of one schedule, read from the compiled instance
_METRICS: Dict[str, Callable[[CompiledGraph, float], float]] = {
    "slr": slr,
    "efficiency": efficiency,
    "makespan": lambda instance, makespan: makespan,
}


@dataclass(frozen=True)
class SweepDefinition:
    """A reproducible experiment: one figure of the paper.

    The graph factory comes in one of two forms: the declarative
    ``graph`` spec (a :class:`~repro.experiments.graphspec.GraphSpec`,
    the preferred form -- the definition then pickles, ships to any
    worker start method, and serializes into run manifests) or a legacy
    ``make_graph`` closure (fork-only, unserializable; kept for ad-hoc
    local sweeps).

    A third form sweeps a *job stream* instead of a single graph: give
    ``stream`` (a :class:`~repro.stream.spec.StreamSpec`) and the x-axis
    drives its injection knob (arrival rate/interval/job count), the
    ``schedulers`` tuple names stream policies, and ``metric`` comes
    from the stream-metric registry (sojourn, throughput, utilization,
    ...).  Everything downstream -- parallel chunking, campaign
    shard/merge, resume ledgers -- is shared.
    """

    key: str
    title: str
    x_label: str
    x_values: Tuple
    metric: str
    make_graph: OptionalFactory = None
    schedulers: Tuple[str, ...] = PAPER_SET
    description: str = ""
    graph: Optional[GraphSpec] = None
    stream: Optional[object] = None  # StreamSpec (lazily imported)

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ValueError("sweep needs at least one x value")
        if self.stream is not None:
            if self.make_graph is not None or self.graph is not None:
                raise ValueError(
                    "a stream definition cannot also carry a graph factory"
                )
            from repro.stream.metrics import STREAM_METRICS

            if self.metric not in STREAM_METRICS:
                raise ValueError(
                    f"stream metric must be one of "
                    f"{sorted(STREAM_METRICS)}, got {self.metric!r}"
                )
            from repro.stream.arena import normalize_policy

            for name in self.schedulers:
                normalize_policy(name)
            return
        if self.metric not in _METRICS:
            raise ValueError(
                f"metric must be one of {sorted(_METRICS)}, got {self.metric!r}"
            )
        if (self.make_graph is None) == (self.graph is None):
            raise ValueError(
                "exactly one of make_graph (closure) or graph (GraphSpec) "
                "must be given"
            )

    def build_graph(self, x, rng: np.random.Generator) -> TaskGraph:
        """Materialize the graph for x point ``x`` from ``rng``."""
        if self.graph is not None:
            return self.graph.build(x, rng)
        return self.make_graph(x, rng)

    def build_instance(self, x, rng: np.random.Generator) -> CompiledGraph:
        """The normalized, compiled instance for x point ``x``: the
        draws of :meth:`build_graph`, and for array-producing factories
        no ``TaskGraph`` until a scalar scheduler asks for one."""
        if self.graph is not None:
            return self.graph.instance(x, rng)
        return compile_instance(self.make_graph(x, rng))

    @property
    def portable(self) -> bool:
        """True when the definition can be pickled/serialized (spec form)."""
        return self.graph is not None or self.stream is not None

    def to_dict(self) -> Dict[str, object]:
        """Manifest form; requires a declarative spec (graph or stream)."""
        if self.graph is None and self.stream is None:
            raise ValueError(
                f"definition {self.key!r} uses a make_graph closure and "
                "cannot be serialized; give it a GraphSpec instead"
            )
        data = {
            "key": self.key,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "metric": self.metric,
            "schedulers": list(self.schedulers),
            "description": self.description,
        }
        if self.stream is not None:
            data["stream"] = self.stream.to_dict()
        else:
            data["graph"] = self.graph.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepDefinition":
        """Rebuild a definition from :meth:`to_dict` output."""
        stream = None
        graph = None
        if data.get("stream") is not None:
            from repro.stream.spec import StreamSpec

            stream = StreamSpec.from_dict(data["stream"])
        else:
            graph = GraphSpec.from_dict(data["graph"])
        return cls(
            key=str(data["key"]),
            title=str(data["title"]),
            x_label=str(data["x_label"]),
            x_values=tuple(data["x_values"]),
            metric=str(data["metric"]),
            schedulers=tuple(data["schedulers"]),
            description=str(data.get("description", "")),
            graph=graph,
            stream=stream,
        )


@dataclass
class SweepResult:
    """Accumulated sweep output: ``stats[x][scheduler] -> RunningStats``.

    ``metrics`` holds the observability snapshot of the run (counters,
    timers, ... -- see :mod:`repro.obs.metrics`) when profiling was
    enabled; empty otherwise.  The parallel runner fills it by merging
    per-worker snapshots, so counter totals match a serial run exactly.
    """

    definition: SweepDefinition
    reps: int
    seed: int
    stats: Dict[object, Dict[str, RunningStats]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def mean(self, x, scheduler: str) -> float:
        """Mean metric of ``scheduler`` at x point ``x``."""
        return self.stats[x][scheduler].mean

    def series(self, scheduler: str) -> List[float]:
        """Metric means across the x-axis for one scheduler."""
        return [self.stats[x][scheduler].mean for x in self.definition.x_values]

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat self-describing records for serialization.

        Each row carries the axis name (``x_label``) and the metric next
        to the values, so a row dropped into a CSV/JSON file needs no
        side channel back to the definition.
        """
        rows: List[Dict[str, object]] = []
        for x in self.definition.x_values:
            for name, acc in self.stats[x].items():
                rows.append(
                    {
                        "x": x,
                        "x_label": self.definition.x_label,
                        "metric": self.definition.metric,
                        "scheduler": name,
                        # zero-sample lanes (partial merges) carry NaN
                        "mean": acc.mean if acc.n else math.nan,
                        "std": acc.std if acc.n else math.nan,
                        "n": acc.n,
                    }
                )
        return rows

    @classmethod
    def from_fold(
        cls,
        definition: SweepDefinition,
        reps: int,
        seed: int,
        fold: "ExactWelford",
    ) -> "SweepResult":
        """Name a fold's lanes: point ``i`` is ``x_values[i]``, column
        ``j`` is ``schedulers[j]``."""
        result = cls(definition=definition, reps=reps, seed=seed)
        for i, x in enumerate(definition.x_values):
            result.stats[x] = {
                name: fold.stats_at(i, j)
                for j, name in enumerate(definition.schedulers)
            }
        return result


class ExactWelford:
    """The one fold from per-replication values to statistics.

    Welford's recurrence over ``(x point, scheduler)`` lanes, vectorized
    across lanes and sequential along each: every lane executes exactly
    the IEEE-754 operation sequence of
    :meth:`~repro.metrics.stats.RunningStats.add` over its samples in
    fold order, so :meth:`stats_at` is bit-identical to a
    ``RunningStats`` fed the same samples one by one.  Each point keeps
    its own sample count, so a point can fold fewer rows than another
    (a partial merge) without a second code path.  The contract every
    caller keeps -- fold each lane in replication order over the task
    decomposition -- is stated in ``docs/architecture.md``.
    """

    def __init__(self, n_points: int, n_cols: int) -> None:
        shape = (n_points, n_cols)
        self.count = np.zeros((n_points, 1))
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)
        self.min = np.full(shape, math.inf)
        self.max = np.full(shape, -math.inf)

    def add_rows(self, rows: np.ndarray, points) -> None:
        """Fold ``rows[0]``, ``rows[1]``, ... into the lanes of ``points``.

        ``points`` is an x-point index or a boolean mask over the
        points, and each row holds one sample per selected lane: shape
        ``(n_cols,)`` for an index (one replication of that point),
        ``(n_selected, n_cols)`` for a mask (one replication stripe
        across the selected points).  Unselected lanes stay untouched.
        Non-finite samples raise :class:`ValueError`.
        """
        if not np.isfinite(rows).all():
            raise ValueError("non-finite sample in the folded values")
        # the selected lanes, gathered (a view for an index, a copy for
        # a mask), folded and scattered back
        mean, m2, count = self.mean[points], self.m2[points], self.count[points]
        low, high = self.min[points], self.max[points]
        # row r's divisor: the selected points' counts after row r
        counts = count + np.arange(1, len(rows) + 1).reshape(
            (-1,) + (1,) * count.ndim
        )
        delta, tmp = np.empty_like(mean), np.empty_like(mean)
        # values past 1e154 overflow m2 to inf (and on to nan) exactly
        # as the scalar recurrence does; numpy would also warn
        with np.errstate(over="ignore", invalid="ignore"):
            for value, divisor in zip(rows, counts):
                np.subtract(value, mean, out=delta)
                np.divide(delta, divisor, out=tmp)
                np.add(mean, tmp, out=mean)
                np.subtract(value, mean, out=tmp)
                np.multiply(delta, tmp, out=tmp)
                np.add(m2, tmp, out=m2)
                # the sample first: on a tie (0.0 vs -0.0) numpy returns
                # its second argument, Python's min/max their first
                np.minimum(value, low, out=low)
                np.maximum(value, high, out=high)
        self.mean[points], self.m2[points] = mean, m2
        self.min[points], self.max[points] = low, high
        self.count[points] = counts[-1]

    def stats_at(self, point: int, col: int) -> RunningStats:
        """One lane as a :class:`~repro.metrics.stats.RunningStats`."""
        acc = RunningStats()
        acc.n = int(self.count[point, 0])
        acc._mean = float(self.mean[point, col])
        acc._m2 = float(self.m2[point, col])
        acc._min = float(self.min[point, col])
        acc._max = float(self.max[point, col])
        return acc


def _build_instance(
    definition: SweepDefinition, x, x_index: int, rep: int, seed: int
) -> CompiledGraph:
    """Draw, normalize and compile one instance.

    The compiled instance is what the harness carries: its CSR arrays
    and artifact cache (ranks, OCT, CP bound, ...) are shared by every
    scheduler in the set and by the metric functions, and the batched
    kernel reads nothing else.
    """
    rng = np.random.default_rng([seed, x_index, rep])
    return definition.build_instance(x, rng)


def run_replication(
    definition: SweepDefinition,
    x,
    x_index: int,
    rep: int,
    seed: int,
    validate: bool = False,
    instance: Optional[object] = None,
    queues: Optional[Dict[str, list]] = None,
) -> Dict[str, float]:
    """One replication of one x point: every scheduler on one instance.

    The RNG stream is keyed by ``(seed, x_index, rep)`` so replications
    are independent and the work can be chunked across processes without
    changing any result.  ``instance`` short-circuits the instance build
    when the caller already materialized it from the same stream (the
    batched dispatcher's scalar fallback): a compiled graph, whose
    ``TaskGraph`` the scalar schedulers run on.

    Stream definitions take the same protocol: the workload instance (a
    :class:`~repro.stream.arena.StreamInstance`) is materialized from
    the identical RNG key and every *policy* executes the same
    realization (with ``validate`` running the stream invariants
    instead of the schedule validator).  ``queues`` carries the
    instance's precomputed admission queues per ``Static/<Name>``
    policy (see :func:`run_replications`).
    """
    bus = obs.get_bus()
    observing = obs.enabled() or bus.active
    started = time.perf_counter() if observing else 0.0
    with obs.span(
        "sweep.replication", figure=definition.key, x=x, rep=rep
    ):
        if definition.stream is not None:
            from repro.stream.spec import run_stream_replication

            values = run_stream_replication(
                definition, x, x_index, rep, seed, validate=validate,
                instance=instance, queues=queues,
            )
        else:
            metric_fn = _METRICS[definition.metric]
            compiled = instance
            if compiled is None:
                compiled = _build_instance(definition, x, x_index, rep, seed)
            graph = compiled.graph
            values = {}
            # keyed by *registry* name so ablation variants of one class
            # coexist
            for name in definition.schedulers:
                result = make_scheduler(name).run(graph)
                if validate:
                    validate_schedule(graph, result.schedule)
                values[name] = metric_fn(compiled, result.makespan)
    if observing:
        elapsed = time.perf_counter() - started
        if obs.enabled():
            registry = obs.get_metrics()
            registry.counter("sweep/replications").inc()
            registry.timer("sweep/replication").observe(elapsed)
        if bus.active:
            bus.emit(
                "sweep.replication",
                figure=definition.key,
                x=x,
                rep=rep,
                wall_s=elapsed,
                values=values,
            )
    return values


def _run_batched_group(
    definition: SweepDefinition,
    x,
    members: List[int],
    batch: CompiledBatch,
    results: List[Optional[Dict[str, float]]],
) -> None:
    """One ``(n_tasks, n_procs, entry)`` group through the batched kernel.

    The lanes may come from several x points (``x`` is then the list of
    their points, for the span and the event only): the kernel reads
    nothing but the compiled instances.  Batchable schedulers -- the
    whole paper set -- run once over the whole group when it is as wide
    as their :func:`~repro.core.batch.lane_gates` entry: the static
    lists together in one fused call
    (:func:`repro.core.batch.run_static_set`), each HDLTS variant on its
    own (:func:`repro.core.batch.run_batch`); anything
    else in the set (``PETS-rpt``, CPOP, reference-only ablations,
    statics in a narrow group, ...) runs scalar per instance.  For the
    ``slr`` metric the group's Eq. 10 denominators come from one
    :meth:`~repro.core.batch.CompiledBatch.cp_min_bounds` pass, cached
    on each lane's compiled graph before :func:`~repro.metrics.slr`
    reads them.  Lane ``i``'s metric values land in ``results`` at
    ``members[i]``, the caller's replication position, bit-identical to
    the scalar path.
    A lane's ``TaskGraph`` is built only if a scalar scheduler runs.
    """
    metric_fn = _METRICS[definition.metric]
    gates = lane_gates(definition.schedulers)
    bus = obs.get_bus()
    with obs.span(
        "sweep.batch",
        figure=definition.key,
        x=x,
        size=batch.n_lanes,
        key=batch.label,
    ):
        if bus.active:
            bus.emit(
                "sweep.batch",
                figure=definition.key,
                x=x,
                size=batch.n_lanes,
                key=batch.label,
            )
        wide = [
            name
            for name in definition.schedulers
            if name in gates and batch.n_lanes >= gates[name]
        ]
        statics = [name for name in wide if name in BATCHABLE_STATIC]
        batched = run_static_set(batch, statics) if statics else {}
        makespans: Dict[str, np.ndarray] = {}
        for name in wide:
            if name not in batched:
                batched[name] = run_batch(batch, name)
            makespans[name] = batched[name].makespans
            # the same per-scheduler counter totals the scalar runs
            # would have recorded (no-ops while profiling is off)
            for key, total in batched[name].counters.items():
                obs.count(key, total)
        if definition.metric == "slr":
            bounds = batch.cp_min_bounds().tolist()
            for instance, bound in zip(batch.instances, bounds):
                instance.prime_cp_min_bound(bound)
        if obs.enabled():
            obs.get_metrics().counter("sweep/replications").inc(batch.n_lanes)
        for lane, (idx, instance) in enumerate(zip(members, batch.instances)):
            values: Dict[str, float] = {}
            graph = None
            for name in definition.schedulers:
                if name in makespans:
                    makespan = float(makespans[name][lane])
                else:
                    if graph is None:
                        graph = instance.graph
                    makespan = make_scheduler(name).run(graph).makespan
                values[name] = metric_fn(instance, makespan)
            results[idx] = values


def _stream_replications(
    definition: SweepDefinition,
    x,
    x_index: int,
    reps: range,
    seed: int,
    validate: bool,
) -> List[Dict[str, float]]:
    """Stream replications with the admission schedules precomputed."""
    from repro.stream.arena import (
        STATIC_PREFIX,
        admission_queues,
        normalize_policy,
    )

    if validate:
        return [
            run_replication(definition, x, x_index, rep, seed, validate)
            for rep in reps
        ]
    instances = [
        definition.stream.build(x, np.random.default_rng([seed, x_index, rep]))
        for rep in reps
    ]
    graphs = [job.graph for instance in instances for job in instance.jobs]
    point_queues = {}
    for name in definition.schedulers:
        policy = normalize_policy(name)
        if policy.startswith(STATIC_PREFIX):
            point_queues[name] = admission_queues(
                graphs, policy[len(STATIC_PREFIX):]
            )
    results = []
    lo = 0
    for rep, instance in zip(reps, instances):
        hi = lo + len(instance.jobs)
        results.append(
            run_replication(
                definition, x, x_index, rep, seed,
                instance=instance,
                queues={name: q[lo:hi] for name, q in point_queues.items()},
            )
        )
        lo = hi
    return results


def run_points(
    definition: SweepDefinition,
    points: Sequence[PointSlice],
    seed: int,
    validate: bool = False,
    tick: Optional[Callable[[], None]] = None,
) -> List[List[Dict[str, float]]]:
    """Replications of several x points in one pass: the cross-point runner.

    ``points`` lists ``(x, x_index, rep_lo, rep_hi)`` slices; the result
    holds each slice's values in rep order, bit-identical to calling
    :func:`run_replication` per rep.  When the active context allows it
    (``batch="auto"``, fast engine, no validation) the instances of
    every slice are built first and grouped by
    ``(n_tasks, n_procs, entry)`` across points -- their structures and
    x points may differ -- and each group runs through the batched
    multi-DAG kernel (:mod:`repro.core.batch`), which covers the
    paper's whole scheduler set and, for SLR sweeps, the Eq. 10
    denominators; groups too narrow to pay for the kernel
    (:func:`~repro.core.batch.lane_gates`), non-batchable schedulers
    and instances outside the kernel's duplication-window gate fall
    back to the scalar path.  The caller folds each slice on its own.

    Stream definitions run point by point: each slice builds its
    replications' workloads and computes the admission queues of each
    ``Static/<Name>`` policy once over all their jobs
    (:func:`~repro.stream.arena.admission_queues`, which batches under
    the same context rules); each replication then only replays its
    jobs' frozen queues.  ``batch="off"`` and validation keep every
    admission schedule scalar.

    ``tick`` (if given) is called after every kernel group, scalar
    replication and stream slice: a service worker renews its leases
    there.
    """
    tick = tick or (lambda: None)
    if definition.stream is not None:
        out = []
        for x, x_index, rep_lo, rep_hi in points:
            out.append(
                _stream_replications(
                    definition, x, x_index, range(rep_lo, rep_hi), seed,
                    validate,
                )
            )
            tick()
        return out
    keys = [
        (x, x_index, rep)
        for x, x_index, rep_lo, rep_hi in points
        for rep in range(rep_lo, rep_hi)
    ]
    ctx = current_context()
    gates = lane_gates(definition.schedulers)
    fewest = min(gates.values(), default=0)
    compiled: List[Optional[CompiledGraph]] = [None] * len(keys)
    results: List[Optional[Dict[str, float]]] = [None] * len(keys)
    if (
        ctx.batch == "auto"
        and not validate
        and ctx.engine == "fast"
        and gates
        and len(keys) >= fewest
    ):
        # materialize every instance up front: replication RNG streams
        # are keyed independently, so build order cannot change a draw
        compiled = [
            _build_instance(definition, x, x_index, rep, seed)
            for x, x_index, rep in keys
        ]
        for sub in batch_groups(compiled, list(gates), fewest):
            batch = CompiledBatch([compiled[i] for i in sub])
            xs = {keys[i][1]: keys[i][0] for i in sub}
            x = next(iter(xs.values())) if len(xs) == 1 else list(xs.values())
            _run_batched_group(definition, x, sub, batch, results)
            tick()
    for idx, (x, x_index, rep) in enumerate(keys):
        if results[idx] is None:
            results[idx] = run_replication(
                definition, x, x_index, rep, seed, validate,
                instance=compiled[idx],
            )
            tick()
    out, lo = [], 0
    for _, _, rep_lo, rep_hi in points:
        out.append(results[lo:lo + rep_hi - rep_lo])
        lo += rep_hi - rep_lo
    return out


def run_replications(
    definition: SweepDefinition,
    x,
    x_index: int,
    rep_lo: int,
    rep_hi: int,
    seed: int,
    validate: bool = False,
) -> List[Dict[str, float]]:
    """Replications ``[rep_lo, rep_hi)`` of one x point, in rep order:
    the one-point case of :func:`run_points`."""
    points = [(x, x_index, rep_lo, rep_hi)]
    return run_points(definition, points, seed, validate)[0]


def run_sweep(
    definition: SweepDefinition,
    reps: int = 30,
    seed: int = 0,
    validate: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run a full sweep; deterministic for a given ``seed``.

    With profiling enabled (:func:`repro.obs.enable`) the run's metrics
    land in ``result.metrics`` -- and also merge up into the enclosing
    registry, so a surrounding observability session sees the totals.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    columns = list(definition.schedulers)
    fold = ExactWelford(len(definition.x_values), len(columns))
    bus = obs.get_bus()
    with obs.scoped() as registry, obs.span(
        "sweep.run", figure=definition.key, reps=reps
    ):
        for i, x in enumerate(definition.x_values):
            if progress:
                progress(f"{definition.key}: {definition.x_label}={x} ({reps} reps)")
            if bus.active:
                bus.emit(
                    "sweep.point",
                    figure=definition.key,
                    x_label=definition.x_label,
                    x=x,
                    reps=reps,
                )
            with obs.span(
                "sweep.point", figure=definition.key, x=x, reps=reps
            ):
                values = run_replications(
                    definition, x, i, 0, reps, seed, validate
                )
                fold.add_rows(values_matrix(values, columns), i)
        result = SweepResult.from_fold(definition, reps, seed, fold)
        if registry:
            result.metrics = registry.snapshot()
    return result
