#!/usr/bin/env python
"""Compare a fresh BENCH_timings.json against the committed baseline.

CI's perf-smoke job reruns the scaling benches and calls this script to
catch regressions early.  A bench in both files fails the check when

* its logical work changed: the recorded ``metrics`` counters (decision
  and EFT-evaluation counts, runs, replications) differ from the
  baseline's in key set or in any value.  The counters are
  deterministic for a given replication count, so a difference means
  the algorithm did different work; the two files must therefore be
  recorded with the same ``reps`` (CI runs ``REPRO_BENCH_REPS=2``, the
  baseline's value).  Benches that time a call with pytest-benchmark
  time it with observability off, so its calibrated rounds add no
  counters; or
* its wall time exceeds ``factor`` times the committed baseline.

Benches present in only one file are reported but never fail the check
(new benches land without a baseline, retired ones drop out).

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_baseline.json \
        --current benchmarks/BENCH_timings.json \
        --factor 2.0

After an *accepted* perf change (new benches, intentional slowdowns),
regenerate the committed baseline from a fresh run in one command::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_baseline.json \
        --current benchmarks/BENCH_timings.json \
        --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path



def load_timings(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != "repro.bench_timings/1":
        raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def work_changes(baseline: dict, current: dict) -> list:
    """Counter keys whose presence or value differs, as readable lines."""
    return [
        f"{key}: {baseline.get(key, 'absent')} -> {current.get(key, 'absent')}"
        for key in sorted(baseline.keys() | current.keys())
        if baseline.get(key) != current.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when current wall time exceeds baseline * factor",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        dest="update_baseline",
        help="overwrite the baseline file with the current timings "
        "(after an accepted perf change) instead of comparing",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        current_doc = json.loads(args.current.read_text())
        if current_doc.get("schema") != "repro.bench_timings/1":
            raise SystemExit(
                f"{args.current}: unexpected schema "
                f"{current_doc.get('schema')!r}"
            )
        names = sorted(current_doc.get("benchmarks", {}))
        if not names:
            print("current run recorded no benchmarks; baseline unchanged")
            return 1
        args.baseline.write_text(
            json.dumps(current_doc, indent=2) + "\n"
        )
        print(f"baseline {args.baseline} updated from {args.current}:")
        for name in names:
            print(f"  {name}")
        return 0

    baseline_doc = load_timings(args.baseline)
    current_doc = load_timings(args.current)
    baseline = baseline_doc["benchmarks"]
    current = current_doc["benchmarks"]

    shared = sorted(baseline.keys() & current.keys())
    if not current:
        print("current run recorded no benchmarks")
        return 1
    if not shared:
        # nothing to compare, but the run did produce benches: they are
        # all new (no baseline yet) -- informational, not a failure, so
        # a bench added mid-PR cannot break perf-smoke before the
        # baseline is regenerated
        for name in sorted(current.keys()):
            print(f"{'new':>10}  (no baseline yet)   {name}")
        print("\nno overlapping benchmarks; nothing to compare")
        return 0

    if baseline_doc.get("reps") != current_doc.get("reps"):
        print(
            f"the current run used reps={current_doc.get('reps')}, the "
            f"baseline reps={baseline_doc.get('reps')}: logical work is "
            "only comparable at equal reps (rerun with "
            f"REPRO_BENCH_REPS={baseline_doc.get('reps')})"
        )
        return 1

    regressions = []
    changed = {}
    for name in shared:
        before, after = baseline[name]["wall_s"], current[name]["wall_s"]
        ratio = after / before if before > 0 else 0.0
        status = "ok"
        changes = work_changes(
            baseline[name].get("metrics", {}),
            current[name].get("metrics", {}),
        )
        if changes:
            status = "WORK"
            changed[name] = changes
        if ratio > args.factor:
            status = "REGRESSION"
            regressions.append(name)
        print(
            f"{status:>10}  {before:8.2f}s -> {after:8.2f}s "
            f"({ratio:4.2f}x)  {name}"
        )
        for line in changed.get(name, ()):
            print(f"{'':>12}{line}")
    for name in sorted(baseline.keys() - current.keys()):
        print(f"{'missing':>10}  (in baseline only)  {name}")
    for name in sorted(current.keys() - baseline.keys()):
        print(f"{'new':>10}  (no baseline yet)   {name}")

    if changed:
        print(
            f"\n{len(changed)} bench(es) did different logical work; "
            "update benchmarks/BENCH_baseline.json if the algorithm change "
            "is intentional"
        )
    if regressions:
        print(
            f"\n{len(regressions)} bench(es) regressed more than "
            f"{args.factor}x; update benchmarks/BENCH_baseline.json if the "
            "slowdown is intentional"
        )
    if changed or regressions:
        return 1
    print(
        f"\nall {len(shared)} shared benches within {args.factor}x, "
        "logical work unchanged"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
