"""Metamorphic relations: transform the graph, predict the schedule.

Each transform derives a second graph from the first such that *some*
relation between the two schedules is provable without knowing anything
about the scheduler beyond determinism:

* **uniform scaling** -- multiply every computation and communication
  cost by a power of two.  Scaling by a power of two is exact in binary
  floating point and distributes exactly over the sums/maxes every
  list scheduler computes, so the decisions are identical and the
  makespan scales exactly (checked to 1e-9 relative, leaving room for
  the engine's absolute tie-break epsilon);
* **task relabeling** -- permute task ids, carrying rows/edges along.
  Priorities, EFTs and therefore the makespan are label-independent as
  long as priorities are tie-free: continuous random costs make ties
  measure-zero *except* on multi-exit graphs, where OCT-style ranks tie
  at 0 structurally, so the transform only applies to single-exit
  graphs;
* **CPU permutation** -- permute the columns of ``W``.  The EFT vectors
  permute with it, so each task lands on the *mapped* CPU and the
  makespan is unchanged;
* **zero-cost transitive edge** -- add an edge ``u -> v`` with cost 0
  where ``v`` is already a strict descendant of ``u`` at distance >= 2
  and ``u`` is not an entry task (entry status feeds Algorithm 1's
  duplication).  The constraint is implied and the data arrives free no
  later than any existing path delivers it, so ranks, levels, OCTs,
  EFTs -- and the makespan -- are unchanged;
* **CCR rescaling** -- multiply every communication cost by ``k >= 1``
  and *replay the first schedule's queues* on the dearer graph: with
  placements and per-CPU orders fixed, start times are monotone in
  communication delays, so the simulated makespan can only grow.

``run_metamorphic`` schedules the base graph once, then applies each
transform and checks its relation; any violated relation is a real bug
in the scheduler, an engine fast path, or the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule

__all__ = [
    "MetamorphicResult",
    "DEFAULT_TRANSFORMS",
    "run_metamorphic",
    "schedule_signature",
    "UniformScaling",
    "TaskRelabeling",
    "CpuPermutation",
    "ZeroCostEdgeInsertion",
    "CcrRescale",
]

#: relation tolerance: relative, far above float noise, far below any
#: real scheduling difference
REL_TOL = 1e-9

Derived = Optional[Tuple[TaskGraph, Any]]


def schedule_signature(schedule: Schedule):
    """Every committed copy of every task, exact floats."""
    sig = {}
    for task in schedule.graph.tasks():
        copies = schedule.copies(task)
        if copies:
            sig[task] = tuple(
                sorted((c.proc, c.start, c.finish, c.duplicate) for c in copies)
            )
    return sig


def _arrays(graph: TaskGraph):
    return (
        graph.cost_matrix().copy(),
        [(e.src, e.dst, e.cost) for e in graph.edges()],
    )


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


class UniformScaling:
    """Scale all costs by a power of two; decisions must not move."""

    def __init__(self, factor: float = 2.0) -> None:
        mantissa, _ = math.frexp(factor)
        if mantissa != 0.5:
            raise ValueError(
                f"factor must be a power of two for exact float scaling, "
                f"got {factor}"
            )
        self.factor = factor
        self.name = f"scale_x{factor:g}"

    def derive(self, graph: TaskGraph, rng: np.random.Generator) -> Derived:
        """Both cost arrays times the (power-of-two) factor."""
        costs, edges = _arrays(graph)
        scaled = [(u, v, c * self.factor) for u, v, c in edges]
        return TaskGraph.from_arrays(costs * self.factor, scaled), None

    def check(
        self,
        graph: TaskGraph,
        schedule: Schedule,
        graph2: TaskGraph,
        schedule2: Schedule,
        aux: Any,
    ) -> List[str]:
        """Makespan scales exactly; no task changes CPU."""
        problems = []
        want = schedule.makespan * self.factor
        if not _isclose(schedule2.makespan, want):
            problems.append(
                f"makespan {schedule2.makespan!r} != scaled makespan {want!r}"
            )
        moved = [
            t
            for t in graph.tasks()
            if schedule.proc_of(t) != schedule2.proc_of(t)
        ]
        if moved:
            problems.append(
                f"{len(moved)} tasks changed CPU under pure cost scaling "
                f"(first: task {moved[0]})"
            )
        return problems


class TaskRelabeling:
    """Permute task ids; the makespan is label-independent.

    Only sound for schedulers whose priorities are tie-free on
    continuous random costs.  Two registry families tie *structurally*
    and are excluded: CPOP (every critical-path task has priority
    ``rank_u + rank_d`` = the critical-path length, exactly), and
    OCT-driven PEFT (when the same-CPU term dominates the OCT
    minimization -- e.g. high CCR -- co-parents of a single-successor
    child get bit-identical OCT rows).  Their id-order tie-breaks are
    documented algorithm behaviour, not bugs.
    """

    name = "task_relabeling"

    #: registry-name prefixes whose priorities tie structurally
    TIE_PRONE = ("PEFT", "CPOP")

    def applies_to(self, scheduler_name: str) -> bool:
        """False for schedulers whose priorities tie structurally."""
        upper = scheduler_name.upper()
        return not any(upper.startswith(p) for p in self.TIE_PRONE)

    def derive(self, graph: TaskGraph, rng: np.random.Generator) -> Derived:
        """A random id permutation (skipped when ties are possible)."""
        n = graph.n_tasks
        if n < 3:
            return None
        # the relation is only sound when priorities are tie-free.  With
        # continuous random costs ties are measure-zero EXCEPT the
        # structural ones: every task whose paths to the exit are all
        # zero-cost (the exits themselves, and real tasks feeding only a
        # normalization pseudo exit) has an all-zero OCT row, so
        # OCT-style ranks tie at 0 and selection order among them is
        # id-dependent by design.  Skip graphs with two or more such
        # tasks.
        from repro.model.ranking import optimistic_cost_table

        table = optimistic_cost_table(graph)
        zero_rows = sum(
            1 for t in graph.tasks() if not np.any(np.asarray(table[t]))
        )
        if zero_rows > 1:
            return None
        perm = rng.permutation(n)  # perm[old_id] = new_id
        costs, edges = _arrays(graph)
        new_costs = np.empty_like(costs)
        new_costs[perm] = costs
        new_edges = [(int(perm[u]), int(perm[v]), c) for u, v, c in edges]
        return TaskGraph.from_arrays(new_costs, new_edges), perm

    def check(self, graph, schedule, graph2, schedule2, aux) -> List[str]:
        """Makespan must be identical under relabeling."""
        if _isclose(schedule.makespan, schedule2.makespan):
            return []
        return [
            f"relabeled makespan {schedule2.makespan!r} != original "
            f"{schedule.makespan!r}"
        ]


class CpuPermutation:
    """Permute the CPU columns; each task follows its column.

    Assumes continuous (tie-free) costs, like every relation here: on
    integer-cost graphs two CPUs can offer bit-equal EFTs, the argmin
    tie-breaks by processor index, and the permuted run may legitimately
    diverge.  The fuzz generator draws continuous costs, where cross-CPU
    EFT ties are measure-zero.
    """

    name = "cpu_permutation"

    def derive(self, graph: TaskGraph, rng: np.random.Generator) -> Derived:
        """A random column permutation of the cost matrix."""
        p = graph.n_procs
        if p < 2:
            return None
        perm = rng.permutation(p)  # perm[old_proc] = new_proc
        costs, edges = _arrays(graph)
        new_costs = np.empty_like(costs)
        new_costs[:, perm] = costs
        return TaskGraph.from_arrays(new_costs, edges), perm

    def check(self, graph, schedule, graph2, schedule2, aux) -> List[str]:
        """Same makespan; tie-free tasks follow their column."""
        perm = aux
        problems = []
        if not _isclose(schedule.makespan, schedule2.makespan):
            problems.append(
                f"CPU-permuted makespan {schedule2.makespan!r} != original "
                f"{schedule.makespan!r}"
            )
        # only tasks whose cost row is tie-free must follow their column:
        # a tied row (e.g. the zero-cost pseudo entry/exit from
        # normalization) leaves the argmin to index order, which the
        # permutation legitimately reshuffles
        costs = graph.cost_matrix()
        strays = [
            t
            for t in graph.tasks()
            if len(set(costs[t])) == graph.n_procs
            and schedule2.proc_of(t) != int(perm[schedule.proc_of(t)])
        ]
        if strays:
            problems.append(
                f"{len(strays)} tasks did not follow their permuted CPU "
                f"(first: task {strays[0]})"
            )
        return problems


class ZeroCostEdgeInsertion:
    """Add an implied zero-cost edge; nothing may change."""

    name = "zero_cost_edge"

    def derive(self, graph: TaskGraph, rng: np.random.Generator) -> Derived:
        """One implied (distance >= 2) edge added at zero cost."""
        # v strictly beyond u's direct successors (path length >= 2)
        candidates: List[Tuple[int, int]] = []
        for u in graph.tasks():
            if graph.in_degree(u) == 0:
                continue  # entry status feeds Algorithm 1 duplication
            beyond: set = set()
            frontier = list(graph.successors(u))
            while frontier:
                node = frontier.pop()
                for nxt in graph.successors(node):
                    if nxt not in beyond:
                        beyond.add(nxt)
                        frontier.append(nxt)
            for v in beyond:
                if not graph.has_edge(u, v):
                    candidates.append((u, v))
        if not candidates:
            return None
        u, v = candidates[int(rng.integers(len(candidates)))]
        costs, edges = _arrays(graph)
        edges.append((u, v, 0.0))
        return TaskGraph.from_arrays(costs, edges), (u, v)

    def check(self, graph, schedule, graph2, schedule2, aux) -> List[str]:
        """Makespan must be untouched by the implied edge."""
        if _isclose(schedule.makespan, schedule2.makespan):
            return []
        u, v = aux
        return [
            f"implied zero-cost edge {u}->{v} moved the makespan: "
            f"{schedule2.makespan!r} != {schedule.makespan!r}"
        ]


class CcrRescale:
    """Scale communication up; replaying fixed queues can only slow down."""

    def __init__(self, factor: float = 2.0) -> None:
        if factor < 1.0:
            raise ValueError("monotonicity needs factor >= 1")
        self.factor = factor
        self.name = f"ccr_x{factor:g}"

    def derive(self, graph: TaskGraph, rng: np.random.Generator) -> Derived:
        """Every communication cost scaled up by the factor."""
        if graph.n_edges == 0:
            return None
        return graph.scaled_comm(self.factor), None

    def check(self, graph, schedule, graph2, schedule2, aux) -> List[str]:
        """Replaying schedule1's queues on graph2 cannot speed up."""
        from repro.schedule.simulator import ScheduleSimulator, schedule_queues

        base_sim = ScheduleSimulator(graph)
        queues = schedule_queues(schedule)
        before = base_sim.run_queues(queues).makespan
        after = ScheduleSimulator(graph2).run_queues(queues).makespan
        if after < before - REL_TOL * (1.0 + abs(before)):
            return [
                f"replaying the same queues with comm x{self.factor:g} "
                f"*improved* the makespan: {after!r} < {before!r}"
            ]
        return []


def _default_transforms() -> Tuple:
    return (
        UniformScaling(2.0),
        UniformScaling(0.5),
        TaskRelabeling(),
        CpuPermutation(),
        ZeroCostEdgeInsertion(),
        CcrRescale(2.0),
    )


#: the standard battery applied by the fuzz campaign
DEFAULT_TRANSFORMS: Tuple = _default_transforms()


@dataclass
class MetamorphicResult:
    """One transform applied (or skipped) against one scheduler run."""

    transform: str
    applied: bool
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def run_metamorphic(
    scheduler_factory: Callable[[], Any],
    graph: TaskGraph,
    rng: np.random.Generator,
    transforms: Optional[Sequence] = None,
    scheduler_name: Optional[str] = None,
) -> List[MetamorphicResult]:
    """Apply every transform to ``graph`` under one scheduler.

    ``scheduler_factory`` must return a *fresh* scheduler per call
    (schedulers may keep per-run state).  Transforms that do not apply
    to this graph (no eligible edge, single CPU, ...) or to this
    scheduler (pass ``scheduler_name`` to let tie-sensitive transforms
    exempt structurally tie-prone algorithms) are reported with
    ``applied=False`` rather than skipped silently.
    """
    battery = DEFAULT_TRANSFORMS if transforms is None else transforms
    base = scheduler_factory()
    prepared = base.prepare(graph)
    schedule = base.build_schedule(prepared)
    results: List[MetamorphicResult] = []
    for transform in battery:
        applies = getattr(transform, "applies_to", None)
        if (
            scheduler_name is not None
            and applies is not None
            and not applies(scheduler_name)
        ):
            results.append(MetamorphicResult(transform.name, False, []))
            continue
        derived = transform.derive(prepared, rng)
        if derived is None:
            results.append(MetamorphicResult(transform.name, False, []))
            continue
        graph2, aux = derived
        follower = scheduler_factory()
        schedule2 = follower.build_schedule(follower.prepare(graph2))
        problems = transform.check(prepared, schedule, graph2, schedule2, aux)
        results.append(MetamorphicResult(transform.name, True, problems))
    obs.count("qa/metamorphic_runs")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        obs.count("qa/metamorphic_violations", failed)
    return results
