"""Text rendering of experiment results.

The benches tee these tables into ``bench_output.txt`` /
``EXPERIMENTS.md``; the CLI prints them directly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.harness import SweepResult

__all__ = [
    "format_sweep",
    "format_makespans",
    "winners",
    "format_table",
    "profile_document",
    "format_profile",
]

#: schema tag of the ``repro profile --json`` document; bump on any
#: backwards-incompatible change to the layout below
PROFILE_SCHEMA = "repro.profile/1"

#: the headline counters of the profile summary table, in print order
_PROFILE_COUNTERS = (
    ("decisions", "decisions"),
    ("eft_evaluations", "EFT evals"),
    ("insertion_scans", "insertion scans"),
    ("duplication_accepted", "dup accept"),
    ("duplication_rejected", "dup reject"),
)


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Plain fixed-width table."""
    widths = [
        max(len(str(header[c])), max((len(str(r[c])) for r in rows), default=0))
        for c in range(len(header))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def format_sweep(result: SweepResult, precision: int = 4) -> str:
    """Render a sweep as x-axis rows against scheduler columns."""
    definition = result.definition
    header = [definition.x_label] + list(definition.schedulers) + ["best"]
    rows: List[List[str]] = []
    lower = _lower_is_better(definition)
    for x in definition.x_values:
        stats = result.stats[x]
        means = {name: stats[name].mean for name in definition.schedulers}
        best = (
            min(means, key=means.get) if lower else max(means, key=means.get)
        )
        rows.append(
            [str(x)]
            + [f"{means[name]:.{precision}f}" for name in definition.schedulers]
            + [best]
        )
    title = f"{definition.title}  [{definition.metric}, reps={result.reps}]"
    note = f"  ({definition.description})" if definition.description else ""
    return f"{title}{note}\n" + format_table(header, rows)


def _lower_is_better(definition) -> bool:
    """Is a smaller mean the better one for this definition's metric?

    Scheduler sweeps: SLR and makespan shrink toward better; efficiency
    and speedup grow.  Stream sweeps: everything except throughput and
    utilization (sojourns, queue depth, energy, losses) shrinks.
    """
    if getattr(definition, "stream", None) is not None:
        from repro.stream.metrics import STREAM_HIGHER_IS_BETTER

        return definition.metric not in STREAM_HIGHER_IS_BETTER
    return definition.metric in ("slr", "makespan")


def winners(result: SweepResult) -> Dict[object, str]:
    """Per-x-point winning scheduler (lowest SLR / highest efficiency)."""
    out: Dict[object, str] = {}
    lower_is_better = _lower_is_better(result.definition)
    for x in result.definition.x_values:
        stats = result.stats[x]
        pick = min if lower_is_better else max
        out[x] = pick(stats, key=lambda name: stats[name].mean)
    return out


def profile_document(args, graph, runs: List[Dict]) -> Dict:
    """The schema-stable document behind ``repro profile``.

    ``runs`` carries one entry per requested scheduler with the raw
    metrics snapshot of its profiled session; this function reduces
    each to the headline counters and the per-phase timing rows.
    """
    doc: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "workflow": {
            "name": args.workflow,
            "n_tasks": graph.n_tasks,
            "n_edges": graph.n_edges,
            "n_procs": graph.n_procs,
            "params": {
                "size": args.size,
                "ccr": args.ccr,
                "beta": args.beta,
                "seed": args.seed,
            },
        },
        "repeat": args.repeat,
        "runs": [],
    }
    for run in runs:
        algorithm = run["algorithm"]
        snapshot = run["metrics"]
        counters = snapshot.get("counters", {})
        timers = snapshot.get("timers", {})
        root = timers.get(algorithm, {"count": 0, "total": 0.0})
        root_total = root["total"] or 0.0
        phases = []
        prefix = f"{algorithm}/"
        for key in sorted(timers):
            if key != algorithm and not key.startswith(prefix):
                continue
            timer = timers[key]
            count = timer["count"]
            phases.append(
                {
                    "phase": key,
                    "calls": count,
                    "total_s": timer["total"],
                    "mean_s": timer["total"] / count if count else 0.0,
                    "share": timer["total"] / root_total if root_total else 0.0,
                }
            )
        doc["runs"].append(
            {
                "scheduler": run["scheduler"],
                "algorithm": algorithm,
                "makespan": run["makespan"],
                "runs_timed": root["count"],
                "wall_s_total": root_total,
                "wall_s_mean": root_total / root["count"] if root["count"] else 0.0,
                "counters": {
                    key: counters.get(f"{algorithm}/{key}", 0)
                    for key, _ in _PROFILE_COUNTERS
                },
                "phases": phases,
            }
        )
    return doc


def format_profile(doc: Dict) -> str:
    """Human rendering of a :func:`profile_document`."""
    workflow = doc["workflow"]
    lines = [
        f"profile: {workflow['name']} workflow -- {workflow['n_tasks']} tasks, "
        f"{workflow['n_edges']} edges, {workflow['n_procs']} CPUs "
        f"({doc['repeat']} profiled run(s) per scheduler)",
        "",
    ]
    header = ["scheduler", "makespan", "wall ms"] + [
        label for _, label in _PROFILE_COUNTERS
    ]
    rows = []
    for run in doc["runs"]:
        rows.append(
            [
                run["scheduler"],
                f"{run['makespan']:.2f}",
                f"{run['wall_s_mean'] * 1e3:.2f}",
            ]
            + [str(run["counters"][key]) for key, _ in _PROFILE_COUNTERS]
        )
    lines.append(format_table(header, rows))
    for run in doc["runs"]:
        if not run["phases"]:
            continue
        lines += ["", f"{run['scheduler']} phase breakdown:"]
        phase_rows = [
            [
                p["phase"],
                str(p["calls"]),
                f"{p['total_s'] * 1e3:.3f}",
                f"{p['mean_s'] * 1e6:.1f}",
                f"{p['share'] * 100:.1f}%",
            ]
            for p in run["phases"]
        ]
        lines.append(
            format_table(
                ["phase", "calls", "total ms", "mean us", "share"], phase_rows
            )
        )
    return "\n".join(lines)


def format_makespans(
    measured: Dict[str, float], published: Dict[str, float]
) -> str:
    """The in-text Fig. 1 makespan comparison, measured vs paper."""
    header = ["algorithm", "measured", "paper", "delta"]
    rows = []
    for name, value in measured.items():
        paper = published.get(name)
        delta = "" if paper is None else f"{value - paper:+g}"
        rows.append([name, f"{value:g}", "" if paper is None else f"{paper:g}", delta])
    return format_table(header, rows)
