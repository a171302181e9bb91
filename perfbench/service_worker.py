"""The long-lived service worker of the ``service-fig13`` workload.

Usage::

    python3 perfbench/service_worker.py SERVICE_DIR OUT_JSON POLL_S

Runs one :class:`repro.service.worker.Worker` against ``SERVICE_DIR``
until SIGINT ends its loop, then writes ``OUT_JSON``: the worker's spans
(lease protocol and task execution always; the compute layers while the
served job's run context has ``metrics`` on, which marks a traced pass),
its observability counters and its peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import layers
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    directory, out, poll_s = argv[0], argv[1], float(argv[2])
    sys.path.insert(0, str(SRC))
    from repro import obs
    from repro.runtime.context import current_context
    from repro.service.worker import Worker

    tracer = Tracer(detail_fn=lambda: current_context().metrics)
    layers.install_compute_spans(tracer)
    layers.install_worker_spans(tracer)
    report = Worker(directory, worker_id="bench-worker", poll_s=poll_s).run()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "records": tracer.records,
                "counters": obs.get_metrics().snapshot()["counters"],
                "failed": report.failed,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
