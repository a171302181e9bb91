"""The repository benchmark: production-path workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2-paper --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``fig2-paper``, ``fig2-fixed-shape``,
``stream-rate`` and ``service-fig13`` (see ``workloads.py`` for what
each runs and why).  The run prints a readable report and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics (``BENCHMARK.json``
lists them): set-up time (median of seven cold set-ups, each a fresh
interpreter that imports the program, warms it up and, for the service,
creates the store and starts the worker), replications per second,
job latency p50/p90 and peak resident memory.  Replication rates and
latencies are reported at the reference machine speed (see
``reference.py``); set-up time, mostly interpreter start and imports,
is reported as measured.

``--trace 1`` runs a fixed pass of the workload repeatedly, alternating
untraced and traced passes, with spans around every layer's public
functions (``layers.py``).  It reports the per-layer metrics as means
per traced pass, prints the per-layer self-time table, and writes the
spans as a Chrome trace under ``perfbench/out/``.

Both modes check outputs outside the timed region: sweeps re-run
sampled replications on the validated scalar path and must match
exactly; sampled service jobs must equal an in-process ``run_sweep``
bit for bit.  ``failed`` counts failed or mismatched operations; each
run also prints its workload's premise checks, which flag a workload
that stopped exercising the layer it exists for.

The helpers' tests run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 7


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    started = time.time()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170,
    )
    lines = [ln for ln in probe.stdout.splitlines() if ln.startswith("setup-ready ")]
    if probe.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return float(lines[-1].split()[1]) - started


def _format(value: float) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def report(args, outcome, units) -> List[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    for name, value in outcome.metrics.items():
        lines.append(f"  {name:<34} {_format(value):>14} {units[name]}")
    fraction = outcome.failed / outcome.attempted
    lines.append(f"  {'failed_fraction':<34} {fraction:>14.6g} ({outcome.failed}/{outcome.attempted})")
    for text, ok in outcome.premises:
        lines.append(f"  premise {'ok     ' if ok else 'FLAGGED'} {text}")
    if outcome.table is not None:
        rows, wall = outcome.table
        lines.append(f"  self time per traced wall ({wall:.3f} s over all traced passes):")
        for label, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {label:<24} {seconds:10.4f} s {100 * seconds / wall:6.1f} %")
        lines.append(f"    {'(sum)':<24} {sum(rows.values()):10.4f} s")
    lines.extend(f"  {note}" for note in outcome.notes)
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
            print(f"setup-ready {time.time()!r}", flush=True)
        finally:
            workload.close()
        return 0

    setup = None
    if not args.trace:
        setup = median(measure_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES))
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        outcome = (workload.traced if args.trace else workload.timed)(args.seconds)
    finally:
        workload.close()
    units = layers.PER_LAYER if args.trace else layers.END_TO_END
    if setup is not None:
        outcome.metrics["setup_s"] = setup
    outcome.metrics = {name: outcome.metrics[name] for name in units}
    print("\n".join(report(args, outcome, units)))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
