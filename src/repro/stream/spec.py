"""Declarative stream specs: whole workloads as data.

A :class:`StreamSpec` is to the job-stream arena what
:class:`~repro.experiments.graphspec.GraphSpec` is to a single graph:
the name-and-parameters form of a workload.  It holds the job factory
(a GraphSpec), the arrival process, the duration-noise model, and the
energy powers -- everything needed to materialize a
:class:`~repro.stream.arena.StreamInstance` from one RNG stream,
bit-identically on any worker start method.

``build(x, rng)`` drives one knob with the sweep's x value (``axis``:
the arrival ``rate``, the deterministic ``interval``, or ``n_jobs``)
and draws, in a fixed order, (1) every arrival instant, then (2) each
job's graph followed by its realized duration matrix.  Realizations are
materialized eagerly -- via the memoized duration models of
:mod:`repro.dynamic.noise`, warmed in task-major order -- so every
policy executes the *same* world regardless of dispatch order, which is
what makes rate sweeps paired comparisons.

``stream_sweep_definition`` wraps a spec into an ordinary
:class:`~repro.experiments.harness.SweepDefinition`, so injection-rate
sweeps shard, merge, resume and parallelize like any other figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dynamic.noise import gaussian_noise, uniform_noise
from repro.experiments.graphspec import GraphSpec
from repro.runtime.context import activate, current_context
from repro.stream.arena import Queues, StreamInstance, StreamJob, run_stream
from repro.stream.arrivals import ArrivalSpec

__all__ = [
    "DEFAULT_POLICIES",
    "StreamSpec",
    "instance_from_dict",
    "instance_to_dict",
    "run_stream_replication",
    "stream_sweep_definition",
]

#: default policy set for stream sweeps (the online scheduler vs the
#: strongest static baselines replayed per job)
DEFAULT_POLICIES = ("OnlineHDLTS", "Static/HDLTS", "Static/HEFT")

_AXES = ("rate", "interval", "n_jobs")
_NOISE_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class StreamSpec:
    """A job-stream workload as data: factory + arrivals + noise."""

    job: GraphSpec
    arrival: ArrivalSpec
    n_jobs: int = 20
    #: which knob the sweep's x value drives
    axis: str = "rate"
    #: x value forwarded to the job GraphSpec factory
    job_x: object = 1.0
    #: duration noise: None (exact) or {"kind": "gaussian", "sigma": s}
    #: / {"kind": "uniform", "spread": s}
    noise: Optional[Dict[str, object]] = None
    busy_power: float = 10.0
    idle_power: float = 1.0

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ValueError(
                f"stream axis must be one of {_AXES}, got {self.axis!r}"
            )
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.noise is not None:
            object.__setattr__(self, "noise", dict(self.noise))
            kind = self.noise.get("kind")
            if kind not in _NOISE_KINDS:
                raise ValueError(
                    f"noise kind must be one of {_NOISE_KINDS}, got {kind!r}"
                )
        if self.axis in ("rate", "interval"):
            # fail fast on an axis/arrival-kind mismatch
            self.arrival.with_x(self.axis, 1.0)

    # ------------------------------------------------------------------
    def build(self, x, rng: np.random.Generator) -> StreamInstance:
        """Materialize the workload for x-axis value ``x``."""
        n_jobs = self.n_jobs
        arrival = self.arrival
        if self.axis == "n_jobs":
            n_jobs = int(x)
            if n_jobs < 1:
                raise ValueError(f"n_jobs axis needs x >= 1, got {x!r}")
        else:
            arrival = arrival.with_x(self.axis, x)
        times = arrival.times(n_jobs, rng)
        jobs: List[StreamJob] = []
        n_procs: Optional[int] = None
        for index in range(n_jobs):
            graph = self.job.build(self.job_x, rng)
            if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
                graph = graph.normalized()
            if n_procs is None:
                n_procs = graph.n_procs
            jobs.append(
                StreamJob(
                    index=index,
                    arrival=float(times[index]),
                    graph=graph,
                    durations=self._realize(graph, rng),
                )
            )
        return StreamInstance(
            jobs=tuple(jobs),
            n_procs=int(n_procs),
            busy_power=(float(self.busy_power),) * int(n_procs),
            idle_power=(float(self.idle_power),) * int(n_procs),
        )

    def _realize(
        self, graph, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """Realized duration matrix, or None for exact execution.

        The memoized noise models draw lazily in call order; warming
        them here in task-major order fixes the RNG consumption per job
        no matter how the arena later interleaves dispatches.
        """
        if self.noise is None:
            return None
        kind = self.noise["kind"]
        if kind == "gaussian":
            sigma = float(self.noise.get("sigma", 0.0))
            if sigma == 0.0:
                return None
            fn = gaussian_noise(graph, sigma, rng)
        else:
            spread = float(self.noise.get("spread", 0.0))
            if spread == 0.0:
                return None
            fn = uniform_noise(graph, spread, rng)
        return np.array(
            [
                [fn(task, proc) for proc in range(graph.n_procs)]
                for task in range(graph.n_tasks)
            ]
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Manifest form (JSON-able, round-trips via :meth:`from_dict`)."""
        data: Dict[str, object] = {
            "job": self.job.to_dict(),
            "arrival": self.arrival.to_dict(),
            "n_jobs": self.n_jobs,
            "axis": self.axis,
            "job_x": self.job_x,
            "busy_power": self.busy_power,
            "idle_power": self.idle_power,
        }
        if self.noise is not None:
            data["noise"] = dict(self.noise)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            job=GraphSpec.from_dict(data["job"]),
            arrival=ArrivalSpec.from_dict(data["arrival"]),
            n_jobs=int(data.get("n_jobs", 20)),
            axis=str(data.get("axis", "rate")),
            job_x=data.get("job_x", 1.0),
            noise=data.get("noise"),
            busy_power=float(data.get("busy_power", 10.0)),
            idle_power=float(data.get("idle_power", 1.0)),
        )


# ----------------------------------------------------------------------
def run_stream_replication(
    definition,
    x,
    x_index: int,
    rep: int,
    seed: int,
    validate: bool = False,
    instance: Optional[StreamInstance] = None,
    queues: Optional[Dict[str, List[Queues]]] = None,
) -> Dict[str, float]:
    """One paired stream replication for the sweep harness.

    Same RNG-key protocol as graph replications
    (``default_rng([seed, x_index, rep])``): the workload is
    materialized once, then every policy executes the identical
    realization -- a paired comparison, bit-identical across serial,
    fork, spawn and campaign shards.  ``instance`` skips the build when
    the caller already materialized it from the same key, and
    ``queues`` maps a ``Static/<Name>`` policy to the instance's
    precomputed :func:`~repro.stream.arena.admission_queues`.

    ``validate`` runs the stream invariant registry on every execution
    (the stream analogue of the schedule validator) and computes every
    admission schedule with the scalar schedulers, so a validated run
    stays an independent check of the batched kernel.
    """
    from repro.stream.metrics import STREAM_METRICS

    if instance is None:
        spec: StreamSpec = definition.stream
        instance = spec.build(x, np.random.default_rng([seed, x_index, rep]))
    metric_fn = STREAM_METRICS[definition.metric]
    values: Dict[str, float] = {}
    if validate:
        from repro.qa.invariants import run_stream_invariants

        with activate(current_context().with_(batch="off")):
            for name in definition.schedulers:
                result = run_stream(instance, name)
                run_stream_invariants(instance, result).raise_if_failed()
                values[name] = metric_fn(result)
        return values
    queues = queues or {}
    for name in definition.schedulers:
        result = run_stream(instance, name, queues=queues.get(name))
        values[name] = metric_fn(result)
    return values


def stream_sweep_definition(
    key: str,
    spec: StreamSpec,
    x_values,
    *,
    metric: str = "sojourn",
    policies=DEFAULT_POLICIES,
    title: str = "",
    x_label: str = "",
    description: str = "",
):
    """A :class:`SweepDefinition` sweeping this stream's ``axis``."""
    from repro.experiments.harness import SweepDefinition

    labels = {"rate": "Arrival rate", "interval": "Arrival interval",
              "n_jobs": "Jobs per stream"}
    return SweepDefinition(
        key=key,
        title=title or f"Stream {key}",
        x_label=x_label or labels[spec.axis],
        x_values=tuple(x_values),
        metric=metric,
        schedulers=tuple(policies),
        description=description,
        stream=spec,
    )


# ----------------------------------------------------------------------
# concrete-instance serialization (corpus pinning / reproducers)
# ----------------------------------------------------------------------
def instance_to_dict(instance: StreamInstance) -> Dict[str, object]:
    """A fully materialized workload as JSON (graphs + realizations)."""
    from repro.io.json_io import graph_to_dict

    return {
        "n_procs": instance.n_procs,
        "busy_power": list(instance.busy_power),
        "idle_power": list(instance.idle_power),
        "jobs": [
            {
                "index": job.index,
                "arrival": job.arrival,
                "graph": graph_to_dict(job.graph),
                "durations": (
                    None
                    if job.durations is None
                    else [list(map(float, row)) for row in job.durations]
                ),
            }
            for job in instance.jobs
        ],
    }


def instance_from_dict(data: Dict[str, object]) -> StreamInstance:
    """Inverse of :func:`instance_to_dict`."""
    from repro.io.json_io import graph_from_dict

    jobs = tuple(
        StreamJob(
            index=int(entry["index"]),
            arrival=float(entry["arrival"]),
            graph=graph_from_dict(entry["graph"]),
            durations=(
                None
                if entry.get("durations") is None
                else np.asarray(entry["durations"], dtype=float)
            ),
        )
        for entry in data["jobs"]
    )
    return StreamInstance(
        jobs=jobs,
        n_procs=int(data["n_procs"]),
        busy_power=tuple(float(p) for p in data.get("busy_power", ())),
        idle_power=tuple(float(p) for p in data.get("idle_power", ())),
    )
