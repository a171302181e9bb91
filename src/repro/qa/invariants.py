"""The invariant oracle registry: named checks on (graph, schedule) pairs.

Each invariant is a function ``(graph, schedule) -> [problem, ...]``
whose truth does not depend on *how* the schedule was produced, so the
same registry audits every scheduler, engine and graph-representation
combination without a reference twin:

* ``feasibility`` -- the independent validator (completeness, durations,
  overlap, precedence + communication; Definition 5);
* ``cp_lower_bound`` -- a feasible makespan is bounded below by CP_MIN,
  the longest chain of minimum computation costs (Eq. 10 denominator).
  Entry duplication cannot beat it: every task on the chain still
  executes somewhere at >= its minimum cost;
* ``work_lower_bound`` -- ``p`` CPUs cannot do ``sum_i min_p W(i, p)``
  of mandatory work in less than ``1/p`` of it;
* ``work_upper_bound`` -- an eager schedule never exceeds total busy
  time (all copies) plus total communication: walking back from the
  last task, every idle stretch is covered by a distinct comm edge;
* ``duplicate_consistency`` -- a duplicate copy implies a primary copy
  and no CPU ever holds two copies of the same task (true for *any*
  duplication scheme);
* ``entry_duplication`` -- Algorithm 1 specifically: only entry tasks
  are duplicated and every duplicate runs over ``[0, W)``.  DHEFT-style
  schedulers legally duplicate arbitrary parents, so
  :func:`invariants_for` exempts them from this one check;
* ``metrics_consistency`` -- SLR/speedup/efficiency recompute from
  their definitions, SLR >= 1, and the compiled-layer artifacts
  (CP_MIN, sequential time) agree bit-for-bit with the object-graph
  recursions;
* ``simulator_replay`` -- discrete-event re-execution of the schedule's
  own decisions can never finish *later* than the analytic times.

Register further invariants with :func:`register_invariant`; the fuzz
campaign picks them up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.validation import (
    FEASIBILITY_EPS,
    ScheduleError,
    validate_schedule,
)

__all__ = [
    "Invariant",
    "InvariantReport",
    "INVARIANTS",
    "GENERAL_DUPLICATION",
    "STREAM_INVARIANTS",
    "register_invariant",
    "register_stream_invariant",
    "invariant_names",
    "invariants_for",
    "run_invariants",
    "run_stream_invariants",
    "stream_invariant_names",
]

CheckFn = Callable[[TaskGraph, Schedule], List[str]]


@dataclass(frozen=True)
class Invariant:
    """One named oracle: ``check`` returns every violation it finds."""

    name: str
    description: str
    check: CheckFn


#: registry name -> invariant, in registration order
INVARIANTS: Dict[str, Invariant] = {}


def register_invariant(name: str, description: str):
    """Decorator: add a ``(graph, schedule) -> [problems]`` check."""

    def wrap(fn: CheckFn) -> CheckFn:
        if name in INVARIANTS:
            raise ValueError(f"invariant {name!r} already registered")
        INVARIANTS[name] = Invariant(name, description, fn)
        return fn

    return wrap


def invariant_names() -> List[str]:
    """All registered invariant names, in registration order."""
    return list(INVARIANTS)


#: registry-name prefixes of schedulers whose duplication model is not
#: Algorithm 1 (they may copy arbitrary parents at arbitrary times)
GENERAL_DUPLICATION = ("DHEFT",)


def invariants_for(scheduler_name: str) -> List[str]:
    """The invariant subset that applies to one scheduler.

    Everything in the registry applies to every scheduler, except that
    general-duplication schedulers (:data:`GENERAL_DUPLICATION`) are
    exempt from the Algorithm-1-specific ``entry_duplication`` check.
    """
    names = list(INVARIANTS)
    upper = scheduler_name.upper()
    if any(upper.startswith(prefix) for prefix in GENERAL_DUPLICATION):
        names.remove("entry_duplication")
    return names


def _tol(scale: float) -> float:
    """Feasibility tolerance at a given magnitude (absolute + relative)."""
    return FEASIBILITY_EPS * (1.0 + abs(scale))


# ----------------------------------------------------------------------
# built-in invariants
# ----------------------------------------------------------------------
@register_invariant(
    "feasibility",
    "independent validator: completeness, durations, overlap, precedence",
)
def _feasibility(graph: TaskGraph, schedule: Schedule) -> List[str]:
    try:
        validate_schedule(graph, schedule)
    except ScheduleError as err:
        return list(err.problems)
    return []


@register_invariant(
    "cp_lower_bound",
    "makespan >= CP_MIN (longest min-cost chain, duplication-proof)",
)
def _cp_lower_bound(graph: TaskGraph, schedule: Schedule) -> List[str]:
    from repro.metrics.critical_path import cp_min_lower_bound

    if not schedule.is_complete():
        return []  # feasibility already reports the missing tasks
    bound = cp_min_lower_bound(graph)
    makespan = schedule.makespan
    if makespan < bound - _tol(bound):
        return [
            f"makespan {makespan:.6f} beats the CP_MIN lower bound "
            f"{bound:.6f}"
        ]
    return []


@register_invariant(
    "work_lower_bound",
    "makespan >= (sum of min-cost work) / n_procs",
)
def _work_lower_bound(graph: TaskGraph, schedule: Schedule) -> List[str]:
    if not schedule.is_complete() or graph.n_tasks == 0:
        return []
    min_work = float(graph.cost_matrix().min(axis=1).sum())
    bound = min_work / graph.n_procs
    makespan = schedule.makespan
    if makespan < bound - _tol(bound):
        return [
            f"makespan {makespan:.6f} beats the aggregate work bound "
            f"{bound:.6f} ({graph.n_procs} CPUs cannot absorb "
            f"{min_work:.6f} of mandatory work faster)"
        ]
    return []


@register_invariant(
    "work_upper_bound",
    "makespan <= total busy time (all copies) + total communication",
)
def _work_upper_bound(graph: TaskGraph, schedule: Schedule) -> List[str]:
    if not schedule.is_complete():
        return []
    busy = sum(t.busy_time() for t in schedule.timelines)
    comm = sum(e.cost for e in graph.edges())
    bound = busy + comm
    makespan = schedule.makespan
    if makespan > bound + _tol(bound):
        return [
            f"makespan {makespan:.6f} exceeds busy+comm upper bound "
            f"{bound:.6f} (busy {busy:.6f}, comm {comm:.6f}): the "
            "schedule contains idle time covered by neither work nor "
            "a communication delay"
        ]
    return []


@register_invariant(
    "duplicate_consistency",
    "every duplicate has a primary; no CPU holds two copies of one task",
)
def _duplicate_consistency(graph: TaskGraph, schedule: Schedule) -> List[str]:
    problems: List[str] = []
    for dup in schedule.duplicates():
        try:
            schedule.assignment(dup.task)
        except KeyError:
            problems.append(
                f"task {dup.task} has a duplicate on CPU {dup.proc} but "
                "no primary copy"
            )
    for task in graph.tasks():
        copies = schedule.copies(task)
        procs = [c.proc for c in copies]
        if len(set(procs)) != len(procs):
            problems.append(
                f"task {task} has two copies on one CPU "
                f"(procs {sorted(procs)}): a second local copy can never "
                "deliver data earlier"
            )
    return problems


@register_invariant(
    "entry_duplication",
    "Algorithm 1: only entry tasks are duplicated, over [0, W)",
)
def _entry_duplication(graph: TaskGraph, schedule: Schedule) -> List[str]:
    problems: List[str] = []
    for dup in schedule.duplicates():
        if graph.in_degree(dup.task) != 0:
            problems.append(
                f"task {dup.task} has {graph.in_degree(dup.task)} parents "
                "but was duplicated (Algorithm 1 duplicates entry tasks only)"
            )
        if abs(dup.start) > FEASIBILITY_EPS:
            problems.append(
                f"duplicate of task {dup.task} on CPU {dup.proc} starts at "
                f"{dup.start:.6f}, not in Algorithm 1's [0, W) window"
            )
    return problems


@register_invariant(
    "metrics_consistency",
    "SLR/speedup/efficiency match their definitions; compiled == reference",
)
def _metrics_consistency(graph: TaskGraph, schedule: Schedule) -> List[str]:
    from repro.metrics.critical_path import cp_min_lower_bound, critical_path_min
    from repro.metrics.metrics import evaluate, sequential_time
    from repro.runtime.context import activate, current_context

    if not schedule.is_complete():
        return []
    makespan = schedule.makespan
    bound = cp_min_lower_bound(graph)
    if makespan <= 0 or bound <= 0:
        return []  # degenerate all-zero-cost graphs: metrics undefined
    problems: List[str] = []
    seq = sequential_time(graph)
    report = evaluate(graph, schedule)
    if abs(report.slr - makespan / bound) > _tol(report.slr):
        problems.append(
            f"SLR {report.slr:.9f} != makespan/CP_MIN "
            f"{makespan / bound:.9f}"
        )
    if report.slr < 1.0 - _tol(1.0):
        problems.append(f"SLR {report.slr:.9f} < 1: CP_MIN is not a bound")
    if abs(report.speedup - seq / makespan) > _tol(report.speedup):
        problems.append(
            f"speedup {report.speedup:.9f} != sequential/makespan "
            f"{seq / makespan:.9f}"
        )
    if abs(report.efficiency - report.speedup / graph.n_procs) > _tol(
        report.efficiency
    ):
        problems.append(
            f"efficiency {report.efficiency:.9f} != speedup/p "
            f"{report.speedup / graph.n_procs:.9f}"
        )
    # the compiled artifact cache must agree with the object-graph
    # recursions bit for bit (the PR 3 contract)
    with activate(current_context().with_(compiled=False)):
        ref_bound = critical_path_min(graph)[0]
        ref_seq = float(graph.cost_matrix().sum(axis=0).min())
    if ref_bound != bound:
        problems.append(
            f"compiled CP_MIN {bound!r} != reference CP_MIN {ref_bound!r}"
        )
    if ref_seq != seq:
        problems.append(
            f"compiled sequential time {seq!r} != reference {ref_seq!r}"
        )
    return problems


@register_invariant(
    "simulator_replay",
    "discrete-event replay of the schedule's decisions never runs later",
)
def _simulator_replay(graph: TaskGraph, schedule: Schedule) -> List[str]:
    from repro.schedule.simulator import ScheduleSimulator

    if not schedule.is_complete():
        return []
    return ScheduleSimulator(graph).replay_violations(schedule)


# ----------------------------------------------------------------------
# running the registry
# ----------------------------------------------------------------------
@dataclass
class InvariantReport:
    """Outcome of one registry pass over a (graph, schedule) pair."""

    checked: Tuple[str, ...]
    #: invariant name -> its violations (only failing invariants appear)
    violations: Dict[str, List[str]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def all_problems(self) -> List[str]:
        """Every violation, prefixed with its invariant's name."""
        return [
            f"[{name}] {problem}"
            for name, problems in self.violations.items()
            for problem in problems
        ]

    def format(self) -> str:
        """One-line success message, or an indented violation list."""
        if self.ok:
            return f"all {len(self.checked)} invariants hold"
        lines = [
            f"{len(self.violations)}/{len(self.checked)} invariants violated:"
        ]
        lines.extend("  " + p for p in self.all_problems())
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise :class:`ScheduleError` when any invariant was violated."""
        if not self.ok:
            raise ScheduleError(self.all_problems())


def run_invariants(
    graph: TaskGraph,
    schedule: Schedule,
    names: Optional[Iterable[str]] = None,
) -> InvariantReport:
    """Run the registry (or the ``names`` subset) against one pair.

    Checks run independently: a feasibility failure does not stop the
    bound checks from reporting their own violations.  Emits
    ``qa/invariant_checks`` / ``qa/invariant_violations`` counters and a
    ``qa.invariant_violation`` event per failing invariant.
    """
    selected = list(names) if names is not None else list(INVARIANTS)
    unknown = [n for n in selected if n not in INVARIANTS]
    if unknown:
        known = ", ".join(INVARIANTS)
        raise KeyError(f"unknown invariants {unknown}; known: {known}")
    violations: Dict[str, List[str]] = {}
    bus = obs.get_bus()
    for name in selected:
        problems = INVARIANTS[name].check(graph, schedule)
        if problems:
            violations[name] = problems
            if bus.active:
                bus.emit(
                    "qa.invariant_violation",
                    invariant=name,
                    n_problems=len(problems),
                    first=problems[0],
                )
    obs.count("qa/invariant_checks", len(selected))
    if violations:
        obs.count(
            "qa/invariant_violations",
            sum(len(p) for p in violations.values()),
        )
    return InvariantReport(checked=tuple(selected), violations=violations)


# ----------------------------------------------------------------------
# stream invariants: checks on (StreamInstance, StreamResult) pairs
# ----------------------------------------------------------------------
#: registry name -> invariant over a realized job stream
STREAM_INVARIANTS: Dict[str, Invariant] = {}


def register_stream_invariant(name: str, description: str):
    """Decorator: add an ``(instance, result) -> [problems]`` check."""

    def wrap(fn):
        if name in STREAM_INVARIANTS:
            raise ValueError(f"stream invariant {name!r} already registered")
        STREAM_INVARIANTS[name] = Invariant(name, description, fn)
        return fn

    return wrap


def stream_invariant_names() -> List[str]:
    """All registered stream invariant names, in registration order."""
    return list(STREAM_INVARIANTS)


@register_stream_invariant(
    "stream_conservation",
    "every arrived job finishes completely or is explicitly lost",
)
def _stream_conservation(instance, result) -> List[str]:
    problems: List[str] = []
    if len(result.jobs) != len(instance.jobs):
        problems.append(
            f"{len(instance.jobs)} jobs arrived but {len(result.jobs)} "
            "were accounted for"
        )
        return problems
    for job, outcome in zip(instance.jobs, result.jobs):
        if outcome.finished == outcome.lost:
            problems.append(
                f"job {outcome.job} is neither finished nor lost "
                f"(finished={outcome.finished}, lost={outcome.lost})"
            )
        if outcome.finished:
            missing = [
                t for t in job.graph.tasks()
                if t not in outcome.finish_times
            ]
            if missing:
                problems.append(
                    f"job {outcome.job} reported finished but tasks "
                    f"{missing[:10]} never ran"
                )
            if not np.isfinite(outcome.finish):
                problems.append(
                    f"job {outcome.job} finished with non-finite "
                    f"completion time {outcome.finish!r}"
                )
            elif outcome.finish < job.arrival - FEASIBILITY_EPS:
                problems.append(
                    f"job {outcome.job} finished at {outcome.finish:.6f}, "
                    f"before its arrival {job.arrival:.6f}"
                )
    # a finished job has exactly one successful primary copy per task
    primary: Dict[Tuple[int, int], int] = {}
    for rec in result.records:
        if not rec.duplicate and not rec.lost:
            key = (rec.job, rec.task)
            primary[key] = primary.get(key, 0) + 1
    for job, outcome in zip(instance.jobs, result.jobs):
        if not outcome.finished:
            continue
        for task in job.graph.tasks():
            n = primary.get((outcome.job, task), 0)
            if n != 1:
                problems.append(
                    f"job {outcome.job} task {task} has {n} successful "
                    "primary dispatches (expected exactly 1)"
                )
    return problems


@register_stream_invariant(
    "stream_no_overlap",
    "no CPU executes two dispatches at once across jobs",
)
def _stream_no_overlap(instance, result) -> List[str]:
    problems: List[str] = []
    per_proc: Dict[int, List] = {}
    for rec in result.records:
        if rec.finish < rec.start - FEASIBILITY_EPS:
            problems.append(
                f"job {rec.job} task {rec.task} on CPU {rec.proc} runs "
                f"backwards: [{rec.start:.6f}, {rec.finish:.6f})"
            )
        per_proc.setdefault(rec.proc, []).append(rec)
    # primaries may never overlap; duplicates join the check under
    # exact durations (noisy entry duplicates are admitted on the
    # estimated window, inherited from OnlineHDLTS, and may overrun)
    for proc, recs in sorted(per_proc.items()):
        checked = [
            r for r in recs if result.exact or not r.duplicate
        ]
        checked.sort(key=lambda r: (r.start, r.finish))
        for prev, cur in zip(checked, checked[1:]):
            if cur.start < prev.finish - FEASIBILITY_EPS:
                problems.append(
                    f"CPU {proc} overlap: job {prev.job} task {prev.task} "
                    f"[{prev.start:.6f}, {prev.finish:.6f}) vs job "
                    f"{cur.job} task {cur.task} "
                    f"[{cur.start:.6f}, {cur.finish:.6f})"
                )
    return problems


@register_stream_invariant(
    "stream_precedence",
    "per-job precedence + communication hold under interleaving",
)
def _stream_precedence(instance, result) -> List[str]:
    problems: List[str] = []
    jobs = {job.index: job for job in instance.jobs}
    # successful copies per (job, task): data sources for successors
    copies: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    for rec in result.records:
        if not rec.lost:
            copies.setdefault((rec.job, rec.task), []).append(
                (rec.proc, rec.finish)
            )
    for rec in result.records:
        if rec.duplicate or rec.lost:
            continue
        job = jobs[rec.job]
        graph = job.graph
        if rec.start < job.arrival - FEASIBILITY_EPS:
            problems.append(
                f"job {rec.job} task {rec.task} starts at "
                f"{rec.start:.6f}, before the job arrived at "
                f"{job.arrival:.6f}"
            )
        for parent in graph.predecessors(rec.task):
            sources = copies.get((rec.job, parent), [])
            if not sources:
                problems.append(
                    f"job {rec.job} task {rec.task} ran with no copy of "
                    f"parent {parent}"
                )
                continue
            comm = graph.comm_cost(parent, rec.task)
            arrival = min(
                fin + (0.0 if cproc == rec.proc else comm)
                for cproc, fin in sources
            )
            if rec.start < arrival - _tol(arrival):
                problems.append(
                    f"job {rec.job} task {rec.task} starts at "
                    f"{rec.start:.6f} on CPU {rec.proc}, before parent "
                    f"{parent}'s data arrives at {arrival:.6f}"
                )
    return problems


@register_stream_invariant(
    "stream_utilization",
    "per-CPU occupied time never exceeds the horizon (utilization <= 1)",
)
def _stream_utilization(instance, result) -> List[str]:
    problems: List[str] = []
    if result.horizon <= 0.0:
        return problems
    busy = result.busy_times()
    for proc in range(result.n_procs):
        util = busy[proc] / result.horizon
        if util > 1.0 + FEASIBILITY_EPS:
            problems.append(
                f"CPU {proc} utilization {util:.9f} > 1 "
                f"(busy {busy[proc]:.6f} over horizon "
                f"{result.horizon:.6f})"
            )
    return problems


def run_stream_invariants(
    instance,
    result,
    names: Optional[Iterable[str]] = None,
) -> InvariantReport:
    """Run the stream registry against one realized stream.

    Same contract as :func:`run_invariants`: checks run independently,
    counters ``qa/stream_invariant_checks`` /
    ``qa/stream_invariant_violations`` are emitted, and each failing
    invariant raises a ``qa.invariant_violation`` bus event.
    """
    selected = (
        list(names) if names is not None else list(STREAM_INVARIANTS)
    )
    unknown = [n for n in selected if n not in STREAM_INVARIANTS]
    if unknown:
        known = ", ".join(STREAM_INVARIANTS)
        raise KeyError(f"unknown stream invariants {unknown}; known: {known}")
    violations: Dict[str, List[str]] = {}
    bus = obs.get_bus()
    for name in selected:
        problems = STREAM_INVARIANTS[name].check(instance, result)
        if problems:
            violations[name] = problems
            if bus.active:
                bus.emit(
                    "qa.invariant_violation",
                    invariant=name,
                    n_problems=len(problems),
                    first=problems[0],
                )
    obs.count("qa/stream_invariant_checks", len(selected))
    if violations:
        obs.count(
            "qa/stream_invariant_violations",
            sum(len(p) for p in violations.values()),
        )
    return InvariantReport(checked=tuple(selected), violations=violations)
