"""The benchmark's wrappers still find every function they wrap.

``perfbench/`` times the program by replacing named functions and
methods with span-recording wrappers.  A method wrapped on a class is
read from that class's own ``__dict__``, so a rename, or moving a rank
method off :class:`~repro.model.compiled.CompiledGraph`, makes the
traced pass raise; a renamed harness entry point makes the timed pass
raise.  Installing every wrapper once here catches both in tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: functions wrapped by install_compute_spans (11), install_harness_spans
#: (4), install_client_spans (3) and install_worker_spans (4)
WRAPS = 22


def test_benchmark_wrappers_install_and_unwrap(monkeypatch):
    # the benchmark's modules import each other by plain name; set then
    # delete each entry so that teardown drops the fresh imports again
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracing"):
        monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, name)
    import layers
    import tracing

    from repro.model.compiled import CompiledGraph

    originals = {
        name: CompiledGraph.__dict__[name] for name in layers.RANK_METHODS
    }
    tracer = tracing.Tracer()
    try:
        layers.install_compute_spans(tracer)
        layers.install_harness_spans(tracer)
        layers.install_client_spans(tracer)
        layers.install_worker_spans(tracer)
        assert len(tracer._patches) == WRAPS
    finally:
        tracer.unwrap_all()
    for name, original in originals.items():
        assert CompiledGraph.__dict__[name] is original, name
