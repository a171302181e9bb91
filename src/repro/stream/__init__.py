"""Continuous job-stream arena: online scheduling under load.

DAG instances arrive by a stochastic process and contend for shared
CPUs; online policies dispatch ready tasks across all admitted jobs.
See :mod:`repro.stream.arena` for the execution model,
:mod:`repro.stream.spec` for declarative workloads that plug into the
sweep/campaign machinery, and ``docs/streaming.md`` for the tour.
"""

from repro.stream.arena import (
    JobRecord,
    JobResult,
    JobStream,
    StreamInstance,
    StreamJob,
    StreamResult,
    admission_queues,
    normalize_policy,
    run_stream,
)
from repro.stream.arrivals import ArrivalSpec
from repro.stream.metrics import (
    STREAM_METRICS,
    fleet_energy,
    per_job_busy_energy,
    queue_depth_series,
    register_stream_metric,
)
from repro.stream.spec import (
    DEFAULT_POLICIES,
    StreamSpec,
    instance_from_dict,
    instance_to_dict,
    run_stream_replication,
    stream_sweep_definition,
)

__all__ = [
    "ArrivalSpec",
    "DEFAULT_POLICIES",
    "JobRecord",
    "JobResult",
    "JobStream",
    "STREAM_METRICS",
    "StreamInstance",
    "StreamJob",
    "StreamResult",
    "StreamSpec",
    "admission_queues",
    "fleet_energy",
    "instance_from_dict",
    "instance_to_dict",
    "normalize_policy",
    "per_job_busy_energy",
    "queue_depth_series",
    "register_stream_metric",
    "run_stream",
    "run_stream_replication",
    "stream_sweep_definition",
]
