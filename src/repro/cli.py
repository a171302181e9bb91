"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
table1        reproduce Table I and the Fig. 1 makespan comparison
figure KEY    run one evaluation figure (fig2..fig14) and print the table
all-figures   run every figure (EXPERIMENTS.md is generated from this)
run KEY       run a figure inside a resumable run directory (checkpointed)
resume DIR    resume an interrupted ``run`` from its chunk ledger
top DIR       live terminal view of a run or campaign directory
status DIR    one-shot progress report over a run or campaign directory
campaign      sharded parameter campaigns: init / tasks / run-shard /
              merge / status (columnar shard stores, streaming merge)
submit DIR    enqueue a sweep job into a service directory, get a ticket
serve DIR     run daemon workers draining the service queue
ps DIR        list a service directory's jobs and workers
watch DIR T   follow ticket T; print its merged tables when done
cancel DIR T  cancel a queued or running ticket
schedule      schedule one workflow instance and show the Gantt chart
generate      draw a random task graph and print its shape statistics
dynamic       online-HDLTS vs static-schedule comparison under noise/failures
profile       run schedulers under full instrumentation, print the breakdown

Every invocation builds one :class:`~repro.runtime.context.RunContext`
from its flags and activates it for the whole command -- no process
globals are flipped; see docs/architecture.md.

The ``schedule``, ``figure`` and ``dynamic`` commands accept
``--events FILE`` (stream every observability event as JSONL) and
``--metrics`` (record and print counters/timers); ``profile`` is the
dedicated deep-dive.  ``run``/``resume`` default their sinks into
``<run_dir>/telemetry/`` and add ``--trace`` (hierarchical spans merged
into a Chrome trace); ``schedule --trace-json`` records a phase-level
trace with the computed schedule's Gantt overlaid.  See
docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

#: workflow choices shared by schedule/export/diagnose/profile
#: (``fig1`` is an alias for the paper's worked example)
_WORKFLOWS = ["paper", "fig1", "fft", "montage", "molecular", "gaussian", "random"]


def _add_workflow_args(parser: argparse.ArgumentParser) -> None:
    """The common workflow-instance knobs."""
    parser.add_argument("--workflow", default="paper", choices=_WORKFLOWS)
    parser.add_argument("--scheduler", default="HDLTS")
    parser.add_argument(
        "--size", type=int, default=8,
        help="fft points / montage nodes / gaussian matrix size / random tasks",
    )
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--ccr", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    """Worker-pool knobs shared by figure/all-figures/run."""
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=5,
        help="replications per worker chunk (parallel runs)",
    )
    parser.add_argument(
        "--start-method",
        default=None,
        dest="start_method",
        choices=["fork", "spawn", "forkserver", "serial"],
        help="worker pool start method (default: fork where available, "
        "then spawn, else serial)",
    )
    parser.add_argument(
        "--batch",
        default="auto",
        choices=["auto", "off"],
        help="batched multi-DAG kernel: 'auto' batches each x point's "
        "replications of one task/CPU count (stream sweeps: the point's "
        "Static/<Name> admission schedules), 'off' forces the scalar "
        "path (bit-identical results either way)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by schedule/figure/dynamic."""
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="write every observability event as JSONL to FILE",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="record counters/timers and print them after the run",
    )


def _add_stream_workload_args(
    parser: argparse.ArgumentParser, seed: bool = True
) -> None:
    """The job-stream workload knobs shared by stream run/sweep.

    ``seed=False`` skips ``--seed`` for parsers that define their own
    (``repro submit`` shares one seed across figure and stream sweeps).
    """
    parser.add_argument("--jobs", type=int, default=10, help="jobs per stream")
    parser.add_argument("--v", type=int, default=20, help="tasks per job DAG")
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--ccr", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument(
        "--sigma", type=float, default=0.0,
        help="relative duration noise (0 = exact execution)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="Poisson arrival rate in jobs per time unit (default 0.02)",
    )
    parser.add_argument(
        "--interval", type=float, default=None,
        help="deterministic inter-arrival interval (excludes --rate)",
    )
    if seed:
        parser.add_argument("--seed", type=int, default=0)


def _add_run_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags of run/resume (sinks default into telemetry/)."""
    parser.add_argument(
        "--events", nargs="?", const="", default=None, metavar="FILE",
        help="stream every observability event as JSONL to FILE "
        "(default: <run_dir>/telemetry/events.jsonl)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="record counters/timers; print them and write a Prometheus "
        "textfile snapshot to <run_dir>/telemetry/metrics.prom",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record hierarchical spans in every process and merge them "
        "into a Chrome trace at <run_dir>/telemetry/trace.json",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HDLTS (IPPS 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="reproduce Table I on the Fig. 1 graph")

    p_fig = sub.add_parser("figure", help="run one evaluation figure")
    p_fig.add_argument("key", help="fig2, fig3, fig4, fig6, fig7, fig8, fig10, fig11, fig13, fig14")
    p_fig.add_argument("--reps", type=int, default=30, help="replications per point")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--full", action="store_true", help="fig3: include 5000/10000 tasks")
    p_fig.add_argument("--validate", action="store_true", help="feasibility-check every schedule")
    _add_parallel_args(p_fig)
    p_fig.add_argument("--chart", action="store_true", help="also render an ASCII line chart")
    p_fig.add_argument("--csv", default=None, metavar="FILE", help="also write tidy CSV to FILE")
    _add_obs_args(p_fig)

    p_all = sub.add_parser("all-figures", help="run every figure")
    p_all.add_argument("--reps", type=int, default=30)
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--full", action="store_true")
    _add_parallel_args(p_all)

    p_run = sub.add_parser(
        "run", help="run one figure checkpointed into a resumable run directory"
    )
    p_run.add_argument("key", help="figure key (fig2 .. fig14)")
    p_run.add_argument("--reps", type=int, default=30, help="replications per point")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--full", action="store_true", help="fig3: include 5000/10000 tasks")
    p_run.add_argument("--validate", action="store_true", help="feasibility-check every schedule")
    _add_parallel_args(p_run)
    p_run.add_argument(
        "--run-dir", default=None, dest="run_dir", metavar="DIR",
        help="run directory holding manifest + chunk ledger (default runs/KEY)",
    )
    p_run.add_argument("--csv", default=None, metavar="FILE", help="also write tidy CSV to FILE")
    _add_run_obs_args(p_run)

    p_res = sub.add_parser(
        "resume", help="resume an interrupted run from its chunk ledger"
    )
    p_res.add_argument("run_dir", metavar="RUN_DIR", help="directory written by 'repro run'")
    p_res.add_argument("--csv", default=None, metavar="FILE", help="also write tidy CSV to FILE")
    _add_run_obs_args(p_res)

    p_top = sub.add_parser(
        "top", help="live terminal view of a run or campaign directory"
    )
    p_top.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="directory written by 'repro run' or 'repro campaign init'",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between repaints (live mode)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (CI / scripting)",
    )

    p_status = sub.add_parser(
        "status", help="one-shot progress report over a run or campaign directory"
    )
    p_status.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="directory written by 'repro run' or 'repro campaign init'",
    )
    p_status.add_argument(
        "--json", action="store_true", dest="json_out",
        help="emit the machine-readable status document "
        "(repro.status/1 or repro.campaign-status/1)",
    )

    p_camp = sub.add_parser(
        "campaign",
        help="sharded parameter campaigns with columnar result stores",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    c_init = camp_sub.add_parser(
        "init", help="write a campaign spec and empty shard layout"
    )
    c_init.add_argument("dir", metavar="DIR", help="campaign directory to create")
    c_init.add_argument(
        "--figures", default=None, metavar="KEY,KEY,...",
        help="comma-separated figure keys to sweep (fig2 .. fig14)",
    )
    c_init.add_argument(
        "--grid", type=int, default=None, metavar="N",
        help="also sweep N sampled Table II configurations "
        "(the factorial protocol, shardable)",
    )
    c_init.add_argument("--full", action="store_true", help="fig3: include 5000/10000 tasks")
    c_init.add_argument("--reps", type=int, default=30, help="replications per point")
    c_init.add_argument("--shards", type=int, default=2, help="independently runnable shards")
    c_init.add_argument("--seed", type=int, default=0)
    c_init.add_argument(
        "--chunk-size", type=int, default=5, dest="chunk_size",
        help="replications per task (the unit of kill/resume granularity)",
    )
    c_init.add_argument("--validate", action="store_true", help="feasibility-check every schedule")
    c_init.add_argument("--batch", default="auto", choices=["auto", "off"])

    c_tasks = camp_sub.add_parser(
        "tasks", help="list the campaign's deterministic task ids"
    )
    c_tasks.add_argument("dir", metavar="DIR")
    c_tasks.add_argument("--shard", type=int, default=None, help="only this shard's tasks")
    c_tasks.add_argument("--limit", type=int, default=None, help="print at most N tasks")

    c_shard = camp_sub.add_parser(
        "run-shard", help="run (or resume) one shard to completion"
    )
    c_shard.add_argument("dir", metavar="DIR")
    c_shard.add_argument("shard", type=int, help="shard index (0-based)")
    c_shard.add_argument(
        "--max-tasks", type=int, default=None, dest="max_tasks",
        help="stop after N new tasks (testing / draining)",
    )

    c_merge = camp_sub.add_parser(
        "merge", help="streaming-merge every shard store into final stats"
    )
    c_merge.add_argument("dir", metavar="DIR")
    c_merge.add_argument(
        "--partial", action="store_true",
        help="merge whatever tasks have completed (live preview) "
        "instead of requiring a complete campaign",
    )
    c_merge.add_argument(
        "--out", default=None, metavar="FILE",
        help="merged columnar table (.npz, or .parquet with pyarrow "
        "installed); default DIR/merged.npz",
    )
    c_merge.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write tidy CSV (single-sweep campaigns)",
    )

    c_status = camp_sub.add_parser(
        "status", help="one-shot progress report over a campaign directory"
    )
    c_status.add_argument("dir", metavar="DIR")
    c_status.add_argument(
        "--json", action="store_true", dest="json_out",
        help="emit the machine-readable repro.campaign-status/1 document",
    )

    p_submit = sub.add_parser(
        "submit",
        help="enqueue a sweep job into a service directory, print the ticket",
    )
    p_submit.add_argument(
        "dir", metavar="DIR",
        help="service directory (created, with its store, on first use)",
    )
    p_submit.add_argument(
        "--figures", default=None, metavar="KEY,KEY,...",
        help="comma-separated figure keys to sweep (fig2 .. fig14)",
    )
    p_submit.add_argument(
        "--grid", type=int, default=None, metavar="N",
        help="also sweep N sampled Table II configurations",
    )
    p_submit.add_argument(
        "--full", action="store_true", help="fig3: include 5000/10000 tasks"
    )
    p_submit.add_argument(
        "--stream", default=None, metavar="AXIS", dest="stream",
        choices=["rate", "interval", "n_jobs"],
        help="also submit a job-stream sweep over AXIS "
        "(workload knobs below apply)",
    )
    _add_stream_workload_args(p_submit, seed=False)
    p_submit.add_argument(
        "--x", default=None, metavar="X1,X2,...",
        help="x values for the swept stream axis (defaults per axis)",
    )
    p_submit.add_argument(
        "--metric", default="sojourn",
        help="stream metric per replication (sojourn, p95_sojourn, ...)",
    )
    p_submit.add_argument(
        "--policies", default=None, metavar="A,B,...",
        help="stream policies (default: OnlineHDLTS + static baselines)",
    )
    p_submit.add_argument("--reps", type=int, default=30,
                          help="replications per point")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument(
        "--chunk-size", type=int, default=5, dest="chunk_size",
        help="replications per task (the unit of lease/reclaim granularity)",
    )
    p_submit.add_argument("--validate", action="store_true",
                          help="feasibility-check every schedule")
    p_submit.add_argument("--batch", default="auto", choices=["auto", "off"])
    p_submit.add_argument("--title", default="", help="free-form job label")
    p_submit.add_argument(
        "--json", action="store_true", dest="json_out",
        help="emit the machine-readable repro.submit/1 document",
    )

    p_serve = sub.add_parser(
        "serve", help="run daemon workers draining a service directory"
    )
    p_serve.add_argument("dir", metavar="DIR", help="service directory")
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="daemon worker count (>1 spawns one OS process each)",
    )
    p_serve.add_argument(
        "--lease", type=float, default=60.0, dest="lease_s",
        help="task lease duration in seconds (crash-reclaim horizon)",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.5, dest="poll_s",
        help="idle sleep between claim attempts, seconds",
    )
    p_serve.add_argument(
        "--drain", action="store_true",
        help="exit once nothing is claimable or leased, instead of idling",
    )
    p_serve.add_argument(
        "--max-tasks", type=int, default=None, dest="max_tasks",
        help="stop each worker after N committed tasks (testing)",
    )

    p_ps = sub.add_parser(
        "ps", help="list a service directory's jobs and workers"
    )
    p_ps.add_argument("dir", metavar="DIR", help="service directory")
    p_ps.add_argument(
        "--json", action="store_true", dest="json_out",
        help="emit the machine-readable repro.ps/1 document",
    )

    p_watch = sub.add_parser(
        "watch",
        help="follow one ticket; print its merged sweep tables when done",
    )
    p_watch.add_argument("dir", metavar="DIR", help="service directory")
    p_watch.add_argument("ticket", metavar="TICKET",
                         help="ticket printed by 'repro submit'")
    p_watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between status polls",
    )
    p_watch.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write tidy CSV to FILE (single-sweep jobs)",
    )

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running ticket"
    )
    p_cancel.add_argument("dir", metavar="DIR", help="service directory")
    p_cancel.add_argument("ticket", metavar="TICKET")

    p_sched = sub.add_parser("schedule", help="schedule one workflow instance")
    _add_workflow_args(p_sched)
    p_sched.add_argument("--trace", action="store_true", help="print the step trace (HDLTS only)")
    p_sched.add_argument(
        "--trace-json", default=None, metavar="FILE", dest="trace_json",
        help="record phase-level spans and write a Chrome trace "
        "(with the schedule's Gantt overlaid) to FILE",
    )
    _add_obs_args(p_sched)

    p_gen = sub.add_parser("generate", help="generate a random DAG, print stats")
    p_gen.add_argument("--v", type=int, default=100)
    p_gen.add_argument("--alpha", type=float, default=1.0)
    p_gen.add_argument("--density", type=int, default=3)
    p_gen.add_argument("--ccr", type=float, default=1.0)
    p_gen.add_argument("--procs", type=int, default=4)
    p_gen.add_argument("--wdag", type=float, default=50.0)
    p_gen.add_argument("--beta", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("export", help="schedule a workflow, export graph + schedule")
    _add_workflow_args(p_exp)
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.add_argument("--format", default="all", choices=["json", "dot", "all"])

    p_diag = sub.add_parser("diagnose", help="schedule a workflow, print diagnostics")
    _add_workflow_args(p_diag)

    p_prof = sub.add_parser(
        "profile",
        help="run schedulers fully instrumented, print the phase breakdown",
    )
    _add_workflow_args(p_prof)
    p_prof.add_argument(
        "--repeat", type=int, default=1,
        help="instrumented runs per scheduler (timings accumulate)",
    )
    p_prof.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="also write the machine-readable profile document to FILE",
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="invariant fuzz campaign over every scheduler and engine combo",
    )
    p_fuzz.add_argument("--instances", type=int, default=100,
                        help="random DAG instances to draw")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (instance i uses seed [seed, i])")
    p_fuzz.add_argument(
        "--schedulers", default=None, metavar="A,B,...",
        help="comma-separated registry names (default: every scheduler)",
    )
    p_fuzz.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="append shrunk reproducers to this JSONL corpus file",
    )
    p_fuzz.add_argument(
        "--emit-golden", default=None, metavar="FILE", dest="emit_golden",
        help="pin every instance's makespans as golden corpus entries",
    )
    p_fuzz.add_argument(
        "--inject", default=None, choices=["wrong-duration", "early-start"],
        help="corrupt every schedule post-build (oracle smoke test; "
        "violations become the expected outcome)",
    )
    p_fuzz.add_argument(
        "--metamorphic-every", type=int, default=4, dest="metamorphic_every",
        help="run the metamorphic battery every k-th instance (0 = never)",
    )
    p_fuzz.add_argument(
        "--no-exact", action="store_false", dest="exact",
        help="skip the branch-and-bound oracle on tiny instances",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_false", dest="shrink",
        help="report failures without delta-debugging them first",
    )
    p_fuzz.add_argument(
        "--stream", action="store_true",
        help="fuzz the job-stream arena (stream invariants + rate->0 "
        "differential vs the offline executors) instead of schedules",
    )
    p_fuzz.add_argument(
        "--policies", default=None, metavar="A,B,...",
        help="stream policies for --stream (default: OnlineHDLTS plus "
        "the static baselines)",
    )
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-instance progress lines")
    _add_obs_args(p_fuzz)

    p_stream = sub.add_parser(
        "stream",
        help="continuous job-stream arena: online scheduling of "
        "interleaved DAG instances under load",
    )
    stream_sub = p_stream.add_subparsers(dest="stream_command", required=True)

    s_run = stream_sub.add_parser(
        "run", help="run one stream, print per-job and fleet tables"
    )
    _add_stream_workload_args(s_run)
    s_run.add_argument(
        "--policy", default="OnlineHDLTS",
        help='"OnlineHDLTS" or "Static/<RegistryName>" (per-job offline '
        "schedule replayed on the shared fleet)",
    )
    s_run.add_argument(
        "--jobs-csv", default=None, dest="jobs_csv", metavar="FILE",
        help="also write the per-job table as tidy CSV",
    )
    _add_obs_args(s_run)

    s_sweep = stream_sub.add_parser(
        "sweep", help="sweep the injection rate (or interval / jobs)"
    )
    _add_stream_workload_args(s_sweep)
    s_sweep.add_argument(
        "--axis", default="rate", choices=["rate", "interval", "n_jobs"],
        help="which workload knob the x values drive",
    )
    s_sweep.add_argument(
        "--x", default=None, metavar="X1,X2,...",
        help="comma-separated x values for the swept axis "
        "(defaults depend on the axis)",
    )
    s_sweep.add_argument(
        "--metric", default="sojourn",
        help="stream metric per replication (sojourn, p95_sojourn, "
        "throughput, utilization, queue_depth, energy_per_job, ...)",
    )
    s_sweep.add_argument(
        "--policies", default=None, metavar="A,B,...",
        help="comma-separated policies (default: OnlineHDLTS plus the "
        "static baselines)",
    )
    s_sweep.add_argument("--reps", type=int, default=10,
                         help="replications per point")
    s_sweep.add_argument(
        "--validate", action="store_true",
        help="run the stream invariant registry on every replication",
    )
    _add_parallel_args(s_sweep)
    s_sweep.add_argument("--chart", action="store_true",
                         help="also render an ASCII line chart")
    s_sweep.add_argument("--csv", default=None, metavar="FILE",
                         help="also write tidy CSV to FILE")
    _add_obs_args(s_sweep)

    p_dyn = sub.add_parser("dynamic", help="online vs static under uncertainty")
    p_dyn.add_argument("--sigma", type=float, default=0.3, help="relative execution-time noise")
    p_dyn.add_argument("--fail-proc", type=int, default=None)
    p_dyn.add_argument("--fail-at", type=float, default=None)
    p_dyn.add_argument("--reps", type=int, default=20)
    p_dyn.add_argument("--v", type=int, default=100)
    p_dyn.add_argument("--procs", type=int, default=4)
    p_dyn.add_argument("--seed", type=int, default=0)
    _add_obs_args(p_dyn)

    return parser


# ----------------------------------------------------------------------
def _cmd_fuzz(args) -> int:
    from repro.qa.fuzz import FuzzConfig, run_campaign

    config = FuzzConfig(
        instances=args.instances,
        seed=args.seed,
        schedulers=(
            [n.strip() for n in args.schedulers.split(",") if n.strip()]
            if args.schedulers
            else None
        ),
        exact=args.exact,
        metamorphic_every=args.metamorphic_every,
        corpus_path=args.corpus,
        golden_path=args.emit_golden,
        inject=args.inject,
        shrink=args.shrink,
        stream=args.stream,
        stream_policies=(
            [n.strip() for n in args.policies.split(",") if n.strip()]
            if args.policies
            else None
        ),
    )
    progress = None if args.quiet else print
    report = run_campaign(config, progress=progress)
    print(report.format())
    if args.inject is not None:
        # the smoke test *expects* the oracles to catch the corruption
        if report.ok:
            print(
                "error: injected corruption was not caught by any invariant",
                file=sys.stderr,
            )
            return 1
        print(
            f"injection '{args.inject}' caught on "
            f"{len(report.violations)} builds (as expected)"
        )
        return 0
    return 0 if report.ok else 1


def _cmd_table1() -> int:
    from repro.core.trace import format_trace
    from repro.experiments.report import format_makespans
    from repro.experiments.table1 import (
        PAPER_FIG1_MAKESPANS,
        fig1_makespans,
        table1_trace,
    )

    print("Table I: HDLTS schedule produced at each step (Fig. 1 graph)\n")
    print(format_trace(table1_trace()))
    print("\nFig. 1 makespans, measured vs published:\n")
    print(format_makespans(fig1_makespans(), PAPER_FIG1_MAKESPANS))
    return 0


def _chunk_progress(key: str):
    """A chunk-completion callback printing sweep progress to stderr."""

    def progress(done: int, total: int) -> None:
        print(f"  .. {key}: chunk {done}/{total}", file=sys.stderr)

    return progress


def _cmd_figure(
    key: str,
    reps: int,
    seed: int,
    full: bool,
    validate: bool,
    workers: int = 1,
    chart: bool = False,
    csv_path=None,
    chunk_size: int = 5,
    pool=None,
    definition=None,
    start_method=None,
) -> int:
    from repro.experiments import format_sweep, get_figure, run_sweep
    from repro.experiments.parallel import run_sweep_parallel

    if definition is None:
        definition = (
            get_figure(key, full=full) if key == "fig3" else get_figure(key)
        )
    if pool is not None or workers > 1:
        result = run_sweep_parallel(
            definition,
            reps=reps,
            seed=seed,
            validate=validate,
            workers=workers,
            chunk_size=chunk_size,
            pool=pool,
            start_method=start_method,
            progress=_chunk_progress(definition.key),
        )
    else:
        result = run_sweep(
            definition,
            reps=reps,
            seed=seed,
            validate=validate,
            progress=lambda msg: print(f"  .. {msg}", file=sys.stderr),
        )
    print(format_sweep(result))
    if chart:
        from repro.experiments.chart import ascii_chart

        print()
        print(ascii_chart(result))
    if csv_path:
        from repro.experiments.export import sweep_to_csv

        sweep_to_csv(result, csv_path)
        print(f"(csv written to {csv_path})", file=sys.stderr)
    return 0


def _cmd_all_figures(
    reps: int,
    seed: int,
    full: bool,
    workers: int = 1,
    chunk_size: int = 5,
    start_method=None,
) -> int:
    from repro.experiments import get_figure, list_figures
    from repro.experiments.parallel import _resolve_start_method
    from repro.runtime.context import current_context

    _cmd_table1()
    keys = list_figures()
    definitions = {
        key: (get_figure(key, full=full) if key == "fig3" else get_figure(key))
        for key in keys
    }

    def run_all(pool=None) -> int:
        for key in keys:
            print()
            _cmd_figure(
                key,
                reps,
                seed,
                full and key == "fig3",
                validate=False,
                workers=workers,
                chunk_size=chunk_size,
                pool=pool,
                definition=definitions[key],
            )
        return 0

    method = _resolve_start_method(start_method, current_context())
    if workers > 1 and method != "serial":
        # one pool created up front and reused by every figure, instead
        # of paying a pool start/teardown per figure
        from repro.experiments.parallel import sweep_pool

        with sweep_pool(
            definitions.values(), workers, start_method=method
        ) as pool:
            return run_all(pool)
    return run_all()


def _default_run_dir(key: str) -> str:
    import os

    return os.path.join("runs", key)


def _finish_run(session, definition, result, csv_path=None) -> int:
    """Print the sweep table (and optional CSV) for a completed run."""
    from repro.experiments import format_sweep

    print(format_sweep(result))
    if csv_path:
        from repro.experiments.export import sweep_to_csv

        sweep_to_csv(result, csv_path)
        print(f"(csv written to {csv_path})", file=sys.stderr)
    print(f"(run directory: {session.path})", file=sys.stderr)
    return 0


def _run_dir_context(context, args, run_dir):
    """Fold the run-directory observability flags into ``context``.

    The telemetry directory is always named (heartbeats are cheap and
    make ``repro top`` work on every run); event streaming, metric
    snapshots and span tracing stay opt-in.  ``--events`` without a FILE
    resolves to the conventional ``telemetry/events.jsonl``.
    """
    from repro.runtime.telemetry import telemetry_dir

    tdir = telemetry_dir(run_dir)
    events = getattr(args, "events", None)
    if events == "":
        events = str(tdir / "events.jsonl")
    return context.with_(
        telemetry=str(tdir),
        trace=bool(getattr(args, "trace", False)) or context.trace,
        metrics=bool(getattr(args, "metrics", False)) or context.metrics,
        events=events or context.events,
    )


def _run_with_telemetry(context, run_dir, command) -> int:
    """Run ``command()`` with the run directory's sinks attached.

    ``context.events`` streams the bus as JSONL; ``context.metrics``
    scopes a registry, prints it afterwards and writes a Prometheus
    textfile snapshot; ``context.trace`` subscribes this process's span
    sink (workers subscribe their own in the pool initializer) and
    merges every per-process span file into one Chrome trace.
    """
    import os

    from repro import obs
    from repro.runtime.telemetry import telemetry_dir

    tdir = telemetry_dir(run_dir)
    tdir.mkdir(parents=True, exist_ok=True)
    span_sink = None
    unsubscribe = None
    if context.trace:
        span_sink = obs.JsonlSink(str(tdir / f"spans-{os.getpid()}.jsonl"))
        unsubscribe = obs.subscribe(span_sink, topics=[obs.SPAN_TOPIC])
    try:
        with obs.session(
            events_path=context.events, metrics=context.metrics
        ) as sess:
            code = command()
    finally:
        if unsubscribe is not None:
            unsubscribe()
        if span_sink is not None:
            span_sink.close()
    if context.metrics:
        from repro.obs.export import write_prometheus

        prom_path = tdir / "metrics.prom"
        write_prometheus(prom_path, sess.snapshot)
        print()
        print("observability metrics:")
        print(obs.format_metrics(sess.snapshot))
        print(f"(metrics snapshot written to {prom_path})", file=sys.stderr)
    if context.events:
        print(
            f"({sess.n_events} events written to {context.events})",
            file=sys.stderr,
        )
    if context.trace:
        from repro.obs.export import read_span_records, write_chrome_trace

        records = []
        for path in sorted(tdir.glob("spans-*.jsonl")):
            records.extend(read_span_records(path))
        trace_path = tdir / "trace.json"
        write_chrome_trace(trace_path, records)
        print(
            f"({len(records)} spans merged into {trace_path})",
            file=sys.stderr,
        )
    return code


def _cmd_run(args) -> int:
    from repro.experiments import get_figure
    from repro.experiments.parallel import run_sweep_parallel
    from repro.runtime.context import activate, current_context
    from repro.runtime.session import ExperimentSession

    definition = (
        get_figure(args.key, full=args.full)
        if args.key == "fig3"
        else get_figure(args.key)
    )
    run_dir = args.run_dir or _default_run_dir(args.key)
    context = _run_dir_context(current_context(), args, run_dir)
    session = ExperimentSession.create(
        run_dir, context, [definition], reps=args.reps
    )

    def execute() -> int:
        result = run_sweep_parallel(
            definition,
            reps=args.reps,
            seed=args.seed,
            validate=args.validate,
            workers=args.workers,
            chunk_size=args.chunk_size,
            start_method=args.start_method,
            progress=_chunk_progress(definition.key),
            session=session,
        )
        return _finish_run(session, definition, result, csv_path=args.csv)

    with activate(context), session:
        return _run_with_telemetry(context, run_dir, execute)


def _cmd_resume(args) -> int:
    from repro.experiments.parallel import run_sweep_parallel
    from repro.runtime.context import activate
    from repro.runtime.session import ExperimentSession

    session = ExperimentSession.open(args.run_dir)
    context = _run_dir_context(session.context, args, args.run_dir)

    def execute() -> int:
        code = 0
        for definition in session.definitions:
            result = run_sweep_parallel(
                definition,
                reps=session.reps,
                seed=context.seed,
                validate=context.validate,
                workers=context.workers,
                chunk_size=context.chunk_size,
                start_method=context.start_method,
                progress=_chunk_progress(definition.key),
                session=session,
            )
            code = _finish_run(
                session, definition, result, csv_path=args.csv
            ) or code
        return code

    with activate(context), session:
        return _run_with_telemetry(context, args.run_dir, execute)


def _cmd_top(args) -> int:
    from repro.runtime.telemetry import watch

    return watch(args.run_dir, interval_s=args.interval, once=args.once)


def _cmd_status(args) -> int:
    import json

    from repro.runtime.telemetry import format_status, status_document

    status = status_document(args.run_dir)
    if args.json_out:
        print(json.dumps(status, indent=2))
    else:
        print(format_status(status))
    return 0


def _campaign_definitions(args):
    """Resolve the sweep definitions an `init` invocation asks for."""
    from repro.experiments import get_figure

    definitions = []
    if args.figures:
        for key in [k.strip() for k in args.figures.split(",") if k.strip()]:
            definitions.append(
                get_figure(key, full=args.full) if key == "fig3"
                else get_figure(key)
            )
    if args.grid is not None:
        from repro.experiments.grid import grid_sweep_definition

        definitions.append(
            grid_sweep_definition(sample=args.grid, seed=args.seed)
        )
    if not definitions:
        raise ValueError(
            "campaign init needs at least one sweep: --figures KEY,... "
            "and/or --grid N"
        )
    return definitions


def _cmd_campaign_init(args) -> int:
    from repro.experiments.campaign import Campaign
    from repro.runtime.context import current_context

    campaign = Campaign.create(
        args.dir,
        _campaign_definitions(args),
        reps=args.reps,
        n_shards=args.shards,
        context=current_context(),
    )
    tasks = campaign.tasks()
    rows = sum(t.reps for t in tasks)
    print(
        f"campaign {campaign.path}: {len(campaign.definitions)} sweep(s), "
        f"{len(tasks)} tasks ({rows} replications) across "
        f"{campaign.n_shards} shard(s)"
    )
    print(
        f"run each shard (any process, any machine, any order) with:\n"
        f"  repro campaign run-shard {campaign.path} <0.."
        f"{campaign.n_shards - 1}>",
        file=sys.stderr,
    )
    return 0


def _cmd_campaign_tasks(args) -> int:
    from repro.experiments.campaign import Campaign

    campaign = Campaign.open(args.dir)
    tasks = (
        campaign.shard_tasks(args.shard) if args.shard is not None
        else campaign.tasks()
    )
    shown = tasks if args.limit is None else tasks[: args.limit]
    for task in shown:
        print(
            f"{task.task_id}  shard={campaign.shard_of(task)}  "
            f"x={task.x}  reps={task.reps}"
        )
    if len(shown) < len(tasks):
        print(f"... ({len(tasks) - len(shown)} more)", file=sys.stderr)
    return 0


def _cmd_campaign_run_shard(args) -> int:
    from repro.experiments.campaign import Campaign, run_shard

    campaign = Campaign.open(args.dir)

    def progress(done: int, total: int) -> None:
        print(f"  .. shard {args.shard}: task {done}/{total}", file=sys.stderr)

    report = run_shard(
        campaign, args.shard, progress=progress, max_tasks=args.max_tasks
    )
    state = "complete" if report.complete else "paused"
    print(
        f"shard {report.shard}: {report.executed} executed, "
        f"{report.replayed} resumed, {report.total} total ({state})"
    )
    return 0


def _cmd_campaign_merge(args) -> int:
    from repro.experiments.campaign import Campaign, merge, write_merged

    campaign = Campaign.open(args.dir)
    results = merge(campaign, strict=not args.partial)
    if args.partial:
        # zero-sample points make sweep tables unrenderable; report
        # coverage and land the (NaN-padded) merged table instead
        for definition in campaign.definitions:
            result = results[definition.key]
            rows = sum(
                result.stats[x][definition.schedulers[0]].n
                for x in definition.x_values
            )
            total = len(definition.x_values) * campaign.reps
            print(
                f"{definition.key}: partial merge, "
                f"{rows}/{total} replications folded"
            )
    else:
        from repro.experiments import format_sweep

        blocks = [
            format_sweep(results[d.key]) for d in campaign.definitions
        ]
        print("\n\n".join(blocks))
    path = write_merged(campaign, results, args.out)
    print(f"(merged table written to {path})", file=sys.stderr)
    if args.csv:
        if len(campaign.definitions) != 1:
            raise ValueError(
                "--csv supports single-sweep campaigns; this one has "
                f"{len(campaign.definitions)} sweeps"
            )
        from repro.experiments.export import sweep_to_csv

        sweep_to_csv(results[campaign.definitions[0].key], args.csv)
        print(f"(csv written to {args.csv})", file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    if args.campaign_command == "init":
        return _cmd_campaign_init(args)
    if args.campaign_command == "tasks":
        return _cmd_campaign_tasks(args)
    if args.campaign_command == "run-shard":
        return _cmd_campaign_run_shard(args)
    if args.campaign_command == "merge":
        return _cmd_campaign_merge(args)
    if args.campaign_command == "status":
        args.run_dir = args.dir
        return _cmd_status(args)
    raise AssertionError(
        f"unhandled campaign command {args.campaign_command}"
    )  # pragma: no cover


def _submit_definitions(args):
    """Resolve the sweep definitions one ``submit`` invocation asks for."""
    definitions = []
    if args.figures or args.grid is not None:
        definitions.extend(_campaign_definitions(args))
    if args.stream:
        args.axis = args.stream
        definitions.append(_stream_sweep_definition_from_args(args))
    if not definitions:
        raise ValueError(
            "submit needs at least one sweep: --figures KEY,..., "
            "--grid N and/or --stream AXIS"
        )
    return definitions


def _cmd_submit(args) -> int:
    import json

    from repro.runtime.context import current_context
    from repro.service import api

    definitions = _submit_definitions(args)
    job = api.submit(
        args.dir, definitions, args.reps, current_context(), title=args.title
    )
    doc = api.job_status(args.dir, job.ticket)
    if args.json_out:
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"submitted {job.ticket}: {len(definitions)} sweep(s), "
        f"{doc['tasks_total']} tasks x {args.reps} replications total"
    )
    print(
        f"drain it with:  repro serve {args.dir} --drain\n"
        f"follow it with: repro watch {args.dir} {job.ticket}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service.worker import serve

    mode = "drain the queue" if args.drain else "serve until interrupted"
    print(
        f"repro serve {args.dir}: {args.workers} worker(s), "
        f"lease {args.lease_s:g}s, {mode}",
        file=sys.stderr,
    )
    reports = serve(
        args.dir,
        workers=args.workers,
        lease_s=args.lease_s,
        poll_s=args.poll_s,
        drain=args.drain,
        max_tasks=args.max_tasks,
    )
    for report in reports:
        extra = (
            f", {report.replayed_discards} discarded (lease reclaimed)"
            if report.replayed_discards else ""
        )
        print(
            f"worker {report.worker}: {report.executed} executed, "
            f"{report.failed} failed{extra}"
        )
    return 0


def _cmd_ps(args) -> int:
    import json

    from repro.service import api

    doc = api.ps_document(args.dir)
    if args.json_out:
        print(json.dumps(doc, indent=2))
    else:
        print(api.format_ps(doc))
    return 0


def _cmd_watch(args) -> int:
    import time

    from repro.experiments import format_sweep
    from repro.service import api

    last = None
    while True:
        doc = api.job_status(args.dir, args.ticket)
        line = (
            f"{doc['ticket']}: {doc['state']}, "
            f"{doc['tasks_done']}/{doc['tasks_total']} tasks"
        )
        if line != last:
            print(line, file=sys.stderr)
            last = line
        if doc["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(args.interval)
    if doc["state"] != "done":
        detail = f": {doc['error']}" if doc.get("error") else ""
        print(f"job {args.ticket} {doc['state']}{detail}", file=sys.stderr)
        return 1
    results = api.result(args.dir, args.ticket)
    print("\n\n".join(format_sweep(results[key]) for key in doc["sweeps"]))
    if args.csv:
        if len(results) != 1:
            raise ValueError(
                f"--csv supports single-sweep jobs; this one has "
                f"{len(results)} sweeps"
            )
        from repro.experiments.export import sweep_to_csv

        sweep_to_csv(next(iter(results.values())), args.csv)
        print(f"(csv written to {args.csv})", file=sys.stderr)
    return 0


def _cmd_cancel(args) -> int:
    from repro.service import api

    if api.cancel(args.dir, args.ticket):
        print(f"cancelled {args.ticket}")
        return 0
    state = api.job_status(args.dir, args.ticket)["state"]
    print(
        f"job {args.ticket} is already {state}; nothing to cancel",
        file=sys.stderr,
    )
    return 1


def _make_workflow(args) -> "object":
    from repro.generator import GeneratorConfig, generate_random_graph
    from repro.workflows import (
        fft_workflow,
        gaussian_elimination_workflow,
        molecular_dynamics_workflow,
        montage_workflow,
        paper_example_graph,
    )

    rng = np.random.default_rng(args.seed)
    if args.workflow in ("paper", "fig1"):
        return paper_example_graph()
    if args.workflow == "fft":
        return fft_workflow(args.size, args.procs, rng=rng, ccr=args.ccr, beta=args.beta)
    if args.workflow == "montage":
        return montage_workflow(args.size, args.procs, rng=rng, ccr=args.ccr, beta=args.beta)
    if args.workflow == "molecular":
        return molecular_dynamics_workflow(args.procs, rng=rng, ccr=args.ccr, beta=args.beta)
    if args.workflow == "gaussian":
        return gaussian_elimination_workflow(args.size, args.procs, rng=rng, ccr=args.ccr, beta=args.beta)
    config = GeneratorConfig(
        v=args.size, ccr=args.ccr, n_procs=args.procs, beta=args.beta
    )
    return generate_random_graph(config, rng)


def _cmd_schedule(args) -> int:
    from repro.baselines.registry import make_scheduler
    from repro.core.trace import format_trace
    from repro.metrics import evaluate
    from repro.schedule import render_gantt, validate_schedule

    graph = _make_workflow(args)
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    scheduler = make_scheduler(args.scheduler)
    if args.trace and hasattr(scheduler, "record_trace"):
        scheduler.record_trace = True
    if args.trace_json:
        # phase-level deep dive: every obs.phase() inside the run
        # becomes a span, and the computed schedule's Gantt is overlaid
        # as a synthetic sim-time process
        from repro import obs

        recorder = obs.SpanRecorder()
        unsubscribe = obs.subscribe(recorder, topics=[obs.SPAN_TOPIC])
        try:
            with obs.tracing_scope(True), obs.phase_spans_scope(True):
                result = scheduler.run(graph)
        finally:
            unsubscribe()
    else:
        result = scheduler.run(graph)
    validate_schedule(graph, result.schedule)
    report = evaluate(graph, result.schedule)
    print(
        f"{args.workflow} workflow: {graph.n_tasks} tasks, {graph.n_edges} edges, "
        f"{graph.n_procs} CPUs"
    )
    print(
        f"{scheduler.name}: makespan={report.makespan:.2f} slr={report.slr:.3f} "
        f"speedup={report.speedup:.3f} efficiency={report.efficiency:.3f} "
        f"({result.wall_time * 1e3:.1f} ms)"
    )
    print()
    print(render_gantt(result.schedule))
    if args.trace and result.trace:
        print()
        print(format_trace(result.trace, extended=True))
    if args.trace_json:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(
            args.trace_json, recorder.records, schedule=result.schedule
        )
        print(
            f"({len(recorder.records)} spans written to {args.trace_json}; "
            "open in Perfetto or chrome://tracing)",
            file=sys.stderr,
        )
    return 0


def _cmd_generate(args) -> int:
    from repro.generator import GeneratorConfig, generate_random_graph
    from repro.model.validation import validate_task_graph

    config = GeneratorConfig(
        v=args.v,
        alpha=args.alpha,
        density=args.density,
        ccr=args.ccr,
        n_procs=args.procs,
        w_dag=args.wdag,
        beta=args.beta,
    )
    graph = generate_random_graph(config, np.random.default_rng(args.seed))
    validate_task_graph(graph)
    from repro.model.profile import graph_profile

    print(f"random DAG "
          f"(entries={len(graph.entry_tasks())}, exits={len(graph.exit_tasks())}, "
          f"requested CCR={config.ccr}):")
    print(graph_profile(graph).format())
    return 0


def _cmd_export(args) -> int:
    import pathlib

    from repro.baselines.registry import make_scheduler
    from repro.io import graph_to_dot, save_graph, save_schedule
    from repro.schedule import validate_schedule

    graph = _make_workflow(args)
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    result = make_scheduler(args.scheduler).run(graph)
    validate_schedule(graph, result.schedule)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    stem = f"{args.workflow}_{args.scheduler}".replace("/", "_")
    if args.format in ("json", "all"):
        save_graph(graph, out / f"{stem}.graph.json")
        save_schedule(result.schedule, out / f"{stem}.schedule.json")
        written += [f"{stem}.graph.json", f"{stem}.schedule.json"]
    if args.format in ("dot", "all"):
        (out / f"{stem}.dot").write_text(graph_to_dot(graph, result.schedule))
        written.append(f"{stem}.dot")
    print(f"makespan {result.makespan:.2f}; wrote " + ", ".join(written))
    return 0


def _cmd_diagnose(args) -> int:
    from repro.analysis import diagnose
    from repro.baselines.registry import make_scheduler
    from repro.schedule import validate_schedule

    graph = _make_workflow(args)
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    result = make_scheduler(args.scheduler).run(graph)
    validate_schedule(graph, result.schedule)
    print(f"{args.scheduler} on {args.workflow} "
          f"({graph.n_tasks} tasks, {graph.n_procs} CPUs):")
    print(diagnose(graph, result.schedule).format(graph))
    return 0


def _cmd_dynamic(args) -> int:
    from repro.core import HDLTS
    from repro.dynamic import FailStop, OnlineHDLTS, gaussian_noise, replay_static
    from repro.generator import GeneratorConfig, generate_random_graph
    from repro.metrics.stats import RunningStats

    failures = []
    if args.fail_proc is not None:
        failures = [FailStop(args.fail_proc, args.fail_at or 0.0)]
    static_stats, online_stats = RunningStats(), RunningStats()
    completed_static = 0
    for rep in range(args.reps):
        rng = np.random.default_rng([args.seed, rep])
        graph = generate_random_graph(
            GeneratorConfig(v=args.v, n_procs=args.procs), rng
        ).normalized()
        noise = gaussian_noise(graph, args.sigma, rng)
        online = OnlineHDLTS().execute(graph, noise, failures)
        online_stats.add(online.makespan)
        if not failures:
            static = HDLTS().run(graph).schedule
            static_stats.add(replay_static(graph, static, noise).makespan)
            completed_static += 1
    print(
        f"online HDLTS under sigma={args.sigma} noise"
        + (f" + failure of CPU {args.fail_proc} at t={args.fail_at}" if failures else "")
        + f": mean makespan {online_stats.mean:.2f} (n={online_stats.n})"
    )
    if completed_static:
        print(
            f"static HDLTS schedule replayed under the same noise: "
            f"mean makespan {static_stats.mean:.2f} (n={static_stats.n})"
        )
    else:
        print("static schedules cannot survive CPU failures (no comparison arm)")
    return 0


def _stream_arrival(args):
    """The arrival process a stream command asks for."""
    from repro.stream import ArrivalSpec

    if args.interval is not None:
        if args.rate is not None:
            raise ValueError("--rate and --interval are mutually exclusive")
        return ArrivalSpec("deterministic", interval=args.interval)
    return ArrivalSpec(
        "poisson", rate=args.rate if args.rate is not None else 0.02
    )


def _stream_spec_from_args(args, axis: str = "n_jobs"):
    """One :class:`StreamSpec` from the shared workload flags."""
    from repro.experiments.graphspec import GraphSpec
    from repro.stream import StreamSpec

    job = GraphSpec(
        "random",
        {
            "axis": "v",
            "n_procs": args.procs,
            "ccr": args.ccr,
            "beta": args.beta,
        },
    )
    noise = (
        {"kind": "gaussian", "sigma": args.sigma} if args.sigma else None
    )
    return StreamSpec(
        job=job,
        arrival=_stream_arrival(args),
        n_jobs=args.jobs,
        axis=axis,
        job_x=args.v,
        noise=noise,
    )


def _cmd_stream_run(args) -> int:
    from repro.stream import run_stream
    from repro.stream.metrics import (
        fleet_energy,
        per_job_busy_energy,
        queue_depth_series,
    )

    spec = _stream_spec_from_args(args)
    rng = np.random.default_rng([args.seed, 0, 0])
    instance = spec.build(args.jobs, rng)
    result = run_stream(instance, args.policy)
    energies = per_job_busy_energy(result)

    print(
        f"stream: {len(instance.jobs)} jobs on {instance.n_procs} CPUs, "
        f"policy {result.policy}"
    )
    header = (
        f"{'job':>4} {'arrival':>10} {'tasks':>6} {'status':>9} "
        f"{'start':>10} {'finish':>10} {'sojourn':>10} {'energy':>10}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for job in result.jobs:
        status = "finished" if job.finished else "lost"
        finish = f"{job.finish:.2f}" if job.finished else "-"
        sojourn = f"{job.sojourn:.2f}" if job.finished else "-"
        start = (
            f"{job.first_start:.2f}" if job.first_start == job.first_start
            else "-"
        )
        energy = energies.get(job.job, 0.0)
        print(
            f"{job.job:>4} {job.arrival:>10.2f} {job.n_tasks:>6} "
            f"{status:>9} {start:>10} {finish:>10} {sojourn:>10} "
            f"{energy:>10.1f}"
        )
        rows.append((job, status, energy))

    finished = result.finished_jobs()
    print()
    print(
        f"finished {len(finished)}/{len(result.jobs)} jobs "
        f"({len(result.lost_jobs())} lost), horizon {result.horizon:.2f}"
    )
    if finished:
        sojourns = np.array([j.sojourn for j in finished])
        p50, p95, p99 = np.percentile(sojourns, (50, 95, 99))
        print(
            f"sojourn mean {sojourns.mean():.2f}, "
            f"p50 {p50:.2f}, p95 {p95:.2f}, p99 {p99:.2f}"
        )
        print(
            f"throughput {len(finished) / result.horizon:.4f} jobs/time"
        )
    per_cpu = (
        result.busy_times() / result.horizon
        if result.horizon > 0.0
        else np.zeros(result.n_procs)
    )
    depth = max((d for _, d in queue_depth_series(result)), default=0)
    print(
        f"utilization mean {result.utilization():.3f} "
        f"(per CPU: {', '.join(f'{u:.3f}' for u in per_cpu)}), "
        f"peak queue depth {depth}"
    )
    report = fleet_energy(result)
    print(
        f"energy: busy {report.busy_energy:.1f} + idle "
        f"{report.idle_energy:.1f} + duplication "
        f"{report.duplication_energy:.1f} = {report.total:.1f}"
    )

    if args.jobs_csv:
        import csv

        with open(args.jobs_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["job", "arrival", "n_tasks", "status", "first_start",
                 "finish", "sojourn", "makespan", "busy_energy"]
            )
            for job, status, energy in rows:
                writer.writerow(
                    [job.job, job.arrival, job.n_tasks, status,
                     job.first_start, job.finish, job.sojourn,
                     job.makespan, energy]
                )
        print(f"(per-job csv written to {args.jobs_csv})", file=sys.stderr)
    return 0


#: default x values per stream sweep axis
_STREAM_SWEEP_X = {
    "rate": (0.005, 0.01, 0.02, 0.05),
    "interval": (10.0, 25.0, 50.0, 100.0),
    "n_jobs": (5, 10, 20),
}


def _stream_sweep_definition_from_args(args):
    """One stream-sweep :class:`SweepDefinition` from the shared flags.

    Used by ``stream sweep`` (runs it in-process) and ``submit``
    (ships it to the service) -- the same flags yield the same
    definition, so both paths produce bit-identical sweeps.
    """
    from repro.stream.spec import DEFAULT_POLICIES, stream_sweep_definition

    # the swept axis dictates the arrival kind; the fixed flag (if any)
    # only seeds the non-swept parameter
    if args.axis == "rate":
        if args.interval is not None:
            raise ValueError("--axis rate sweeps Poisson arrivals; "
                             "--interval does not apply")
        args.rate = args.rate if args.rate is not None else 0.02
    elif args.axis == "interval":
        if args.rate is not None:
            raise ValueError("--axis interval sweeps deterministic "
                             "arrivals; --rate does not apply")
        args.interval = args.interval if args.interval is not None else 50.0
    spec = _stream_spec_from_args(args, axis=args.axis)
    if args.x:
        cast = int if args.axis == "n_jobs" else float
        x_values = tuple(
            cast(v.strip()) for v in args.x.split(",") if v.strip()
        )
    else:
        x_values = _STREAM_SWEEP_X[args.axis]
    policies = (
        tuple(n.strip() for n in args.policies.split(",") if n.strip())
        if args.policies
        else DEFAULT_POLICIES
    )
    return stream_sweep_definition(
        f"stream-{args.axis}",
        spec,
        x_values,
        metric=args.metric,
        policies=policies,
    )


def _cmd_stream_sweep(args) -> int:
    definition = _stream_sweep_definition_from_args(args)
    return _cmd_figure(
        definition.key,
        args.reps,
        args.seed,
        False,
        args.validate,
        workers=args.workers,
        chart=args.chart,
        csv_path=args.csv,
        chunk_size=args.chunk_size,
        start_method=args.start_method,
        definition=definition,
    )


def _cmd_stream(args) -> int:
    if args.stream_command == "run":
        return _run_observed(args, lambda: _cmd_stream_run(args))
    if args.stream_command == "sweep":
        return _run_observed(args, lambda: _cmd_stream_sweep(args))
    raise AssertionError(
        f"unhandled stream command {args.stream_command}"
    )  # pragma: no cover


def _cmd_profile(args) -> int:
    import json

    from repro import obs
    from repro.baselines.registry import make_scheduler
    from repro.experiments.report import format_profile, profile_document

    graph = _make_workflow(args)
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    names = [n for n in args.scheduler.split(",") if n]
    if args.repeat < 1:
        raise ValueError("repeat must be >= 1")

    runs = []
    for requested in names:
        makespan = None
        algorithm = requested
        with obs.session(metrics=True) as sess:
            for _ in range(args.repeat):
                scheduler = make_scheduler(requested)
                result = scheduler.run(graph)
            makespan = result.makespan
            algorithm = scheduler.name
        runs.append(
            {
                "scheduler": requested,
                "algorithm": algorithm,
                "makespan": makespan,
                "metrics": sess.snapshot,
            }
        )

    doc = profile_document(args, graph, runs)
    print(format_profile(doc))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"(profile document written to {args.json_out})", file=sys.stderr)
    return 0


def _context_from_args(args):
    """One :class:`~repro.runtime.context.RunContext` from the CLI flags.

    Every command activates this for its whole run; commands without a
    given knob inherit the default.
    """
    from repro.runtime.context import DEFAULT_CONTEXT

    # run/resume use --events as an optional-FILE flag ("" = default
    # path under the run directory); the sentinel is resolved by
    # _run_dir_context once the run directory is known
    events = getattr(args, "events", None) or None
    return DEFAULT_CONTEXT.with_(
        seed=getattr(args, "seed", DEFAULT_CONTEXT.seed),
        validate=bool(getattr(args, "validate", False)),
        metrics=bool(getattr(args, "metrics", False)),
        events=events,
        workers=getattr(args, "workers", DEFAULT_CONTEXT.workers),
        chunk_size=getattr(args, "chunk_size", DEFAULT_CONTEXT.chunk_size),
        start_method=getattr(args, "start_method", None),
        batch=getattr(args, "batch", DEFAULT_CONTEXT.batch),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    from repro.runtime.context import activate

    args = build_parser().parse_args(argv)
    try:
        with activate(_context_from_args(args)):
            return _dispatch(args)
    except KeyboardInterrupt:
        if args.command == "run":
            run_dir = args.run_dir or _default_run_dir(args.key)
            print(
                f"\ninterrupted; completed chunks are checkpointed -- "
                f"resume with: repro resume {run_dir}",
                file=sys.stderr,
            )
        elif args.command == "resume":
            print(
                f"\ninterrupted; resume again with: repro resume {args.run_dir}",
                file=sys.stderr,
            )
        elif (
            args.command == "campaign"
            and getattr(args, "campaign_command", None) == "run-shard"
        ):
            print(
                f"\ninterrupted; completed tasks are durable -- resume "
                f"with: repro campaign run-shard {args.dir} {args.shard}",
                file=sys.stderr,
            )
        elif args.command == "serve":
            print(
                f"\ninterrupted; leases expire and committed tasks are "
                f"durable -- restart with: repro serve {args.dir}",
                file=sys.stderr,
            )
        elif args.command == "watch":
            print(
                f"\ninterrupted; the job keeps running -- follow again "
                f"with: repro watch {args.dir} {args.ticket}",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted", file=sys.stderr)
        return 130
    except KeyError as err:
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        # unwritable --events / --json / --out destinations, clobbered
        # or missing run directories
        print(f"error: {err}", file=sys.stderr)
        return 2


def _run_observed(args, command) -> int:
    """Run ``command()`` inside an observability session when requested.

    ``--events FILE`` streams every bus event as JSONL; ``--metrics``
    records counters/timers for the run and prints them afterwards.
    """
    if not (args.events or args.metrics):
        return command()
    from repro import obs

    with obs.session(events_path=args.events, metrics=args.metrics) as sess:
        code = command()
    if args.metrics:
        print()
        print("observability metrics:")
        print(obs.format_metrics(sess.snapshot))
    if args.events:
        print(
            f"({sess.n_events} events written to {args.events})",
            file=sys.stderr,
        )
    return code


def _dispatch(args) -> int:
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "figure":
        return _run_observed(
            args,
            lambda: _cmd_figure(
                args.key,
                args.reps,
                args.seed,
                args.full,
                args.validate,
                args.workers,
                chart=args.chart,
                csv_path=args.csv,
                chunk_size=args.chunk_size,
                start_method=args.start_method,
            ),
        )
    if args.command == "all-figures":
        return _cmd_all_figures(
            args.reps,
            args.seed,
            args.full,
            args.workers,
            args.chunk_size,
            start_method=args.start_method,
        )
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ps":
        return _cmd_ps(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    if args.command == "schedule":
        return _run_observed(args, lambda: _cmd_schedule(args))
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "fuzz":
        return _run_observed(args, lambda: _cmd_fuzz(args))
    if args.command == "dynamic":
        return _run_observed(args, lambda: _cmd_dynamic(args))
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "profile":
        return _cmd_profile(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
