"""EFT machinery shared by the static-list baselines.

Every baseline maps the next task in its priority order to the CPU
minimizing an EFT-derived objective.  These helpers compute EST/EFT
against the live schedule (Definitions 5-7) with optional HEFT-style
insertion, and commit the placement.

When an engine is passed, the ready-time computation runs from the
engine's incremental per-task arrival state instead of the per-CPU
Python loops -- bit-identical results (the engine maintains exactly the
quantities the loops recompute), one pass per task instead of one
parent x copy scan per CPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.model.task_graph import TaskGraph
from repro.runtime.context import ENGINE_CHOICES, resolve_engine
from repro.schedule.schedule import Assignment, Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.engine import StaticEFTEngine

__all__ = [
    "ENGINE_CHOICES",
    "est_eft",
    "eft_vector",
    "make_engine",
    "place_min_eft",
    "precedence_safe_order",
]


def make_engine(schedule: Schedule, engine: Optional[str] = None):
    """Resolve a baseline's ``engine=`` parameter to an engine (or None).

    ``None`` defers to the active run context.  ``"fast"`` builds the
    scalar :class:`~repro.core.engine.StaticEFTEngine` over the compiled
    graph of the (possibly pre-populated) schedule; ``"reference"``
    selects the original scalar code path (the bit-identity oracle).
    """
    if resolve_engine(engine) == "reference":
        return None
    from repro.core.engine import StaticEFTEngine

    return StaticEFTEngine(schedule)


def est_eft(
    schedule: Schedule, task: int, proc: int, insertion: bool = True
) -> Tuple[float, float]:
    """(EST, EFT) of ``task`` on ``proc`` against the current schedule."""
    ready = schedule.ready_time(task, proc)
    duration = schedule.graph.cost(task, proc)
    start = schedule.timelines[proc].earliest_start(ready, duration, insertion)
    return start, start + duration


def eft_vector(
    schedule: Schedule, task: int, insertion: bool = True
) -> np.ndarray:
    """EFT of ``task`` on every CPU."""
    graph = schedule.graph
    out = np.empty(graph.n_procs)
    for proc in graph.procs():
        out[proc] = est_eft(schedule, task, proc, insertion)[1]
    # attributed to whichever scheduler's run phase we execute inside
    obs.scoped_count("eft_evaluations", graph.n_procs)
    return out


def place_min_eft(
    schedule: Schedule,
    task: int,
    insertion: bool = True,
    procs: Optional[Iterable[int]] = None,
    objective: Optional[Callable[[int, float], float]] = None,
    engine: Optional["StaticEFTEngine"] = None,
) -> Assignment:
    """Commit ``task`` to the CPU minimizing EFT (or a custom objective).

    ``objective(proc, eft) -> score`` lets PEFT minimize ``EFT + OCT``
    while still *starting* the task at its true EST.  Ties break toward
    the lowest CPU index.  With ``engine`` the EST/EFT vectors come from
    the incremental arrays; the selection loop is unchanged so the
    tie-break semantics (strict 1e-12 improvement) stay bit-identical.
    """
    if procs is None and engine is not None:
        place_best = getattr(engine, "place_best", None)
        if place_best is not None:
            # the scalar engine fuses EST/EFT, the identical selection
            # loop and the commit into one call frame
            try:
                return place_best(task, insertion, objective)
            finally:
                engine.flush_counts()
    graph = schedule.graph
    candidates = list(procs) if procs is not None else graph.procs()
    if not len(candidates):
        raise ValueError("no candidate CPUs")
    if engine is not None:
        starts, finishes = engine.est_eft(task, insertion)
    best_proc = -1
    best_score = float("inf")
    best_start = 0.0
    for proc in candidates:
        if engine is not None:
            start, finish = float(starts[proc]), float(finishes[proc])
        else:
            start, finish = est_eft(schedule, task, proc, insertion)
        score = objective(proc, finish) if objective else finish
        if score < best_score - 1e-12:
            best_score = score
            best_proc = proc
            best_start = start
    obs.scoped_count("eft_evaluations", len(candidates))
    obs.scoped_count("decisions")
    assignment = schedule.place(task, best_proc, best_start)
    if engine is not None:
        engine.notify(assignment)
    return assignment


def precedence_safe_order(
    graph: TaskGraph, priority: Sequence[float], descending: bool = True
) -> List[int]:
    """Tasks sorted by priority with topological position as tie-break.

    A static list scheduler must never attempt a child before a parent.
    For well-formed rank functions priority alone guarantees that, but
    zero-cost pseudo tasks can produce exact ties; breaking ties by
    topological position makes the order always precedence-safe without
    altering genuinely ranked decisions.  Topological position is a
    unique secondary key, so the (priority, position) order is total.
    """
    from repro.model.compiled import compile_graph

    keys = np.asarray(priority, dtype=float)
    if descending:
        keys = -keys
    order = np.lexsort((compile_graph(graph).topo_position, keys))
    return order.tolist()
