"""Property-based tests (hypothesis) on core invariants.

Strategy: generate arbitrary layered DAGs with random costs and check
that every scheduler in the registry produces feasible schedules whose
metrics satisfy the theory-level invariants:

* feasibility (validator passes),
* makespan >= CP_MIN lower bound (SLR >= 1),
* makespan <= best sequential time (speedup >= 1 is NOT guaranteed for
  adversarial comm costs, but makespan <= serial-on-one-CPU *with the
  same placement freedom* is -- we check the weaker sane bound),
* simulator replay never exceeds the analytic makespan,
* the timeline invariants (no overlap) hold by construction.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.registry import PAPER_SET, make_scheduler
from repro.core import HDLTS
from repro.core.itq import IndependentTaskQueue
from repro.metrics.critical_path import cp_min_lower_bound
from repro.metrics.metrics import slr
from repro.model.task_graph import TaskGraph
from repro.schedule.simulator import ScheduleSimulator
from repro.schedule.timeline import ProcessorTimeline
from repro.schedule.validation import validate_schedule

# long-running property suite: marked slow (still in the default run,
# deselect explicitly with -m 'not slow' for a quick loop)
pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# graph strategy: layered DAGs, 1-4 CPUs, arbitrary non-negative costs
# ----------------------------------------------------------------------
@st.composite
def task_graphs(draw) -> TaskGraph:
    n_procs = draw(st.integers(min_value=1, max_value=4))
    n_levels = draw(st.integers(min_value=1, max_value=4))
    widths = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_levels)]
    cost = st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    comm = st.floats(
        min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
    )
    graph = TaskGraph(n_procs)
    levels = []
    for width in widths:
        level = [
            graph.add_task([draw(cost) for _ in range(n_procs)])
            for _ in range(width)
        ]
        levels.append(level)
    for upper, lower in zip(levels, levels[1:]):
        for child in lower:
            # every child gets at least one parent: connected layers
            n_parents = draw(st.integers(min_value=1, max_value=len(upper)))
            parents = draw(
                st.permutations(upper).map(lambda p: p[:n_parents])
            )
            for parent in parents:
                graph.add_edge(parent, child, draw(comm))
    return graph.normalized()


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(graph=task_graphs(), name=st.sampled_from(PAPER_SET))
@_SETTINGS
def test_every_scheduler_is_feasible_on_arbitrary_dags(graph, name):
    result = make_scheduler(name).run(graph)
    assert result.schedule.is_complete()
    validate_schedule(graph, result.schedule)


@given(graph=task_graphs(), name=st.sampled_from(PAPER_SET))
@_SETTINGS
def test_makespan_dominates_cp_lower_bound(graph, name):
    makespan = make_scheduler(name).run(graph).makespan
    assert makespan >= cp_min_lower_bound(graph) - 1e-6


@given(graph=task_graphs())
@_SETTINGS
def test_slr_at_least_one_when_defined(graph):
    makespan = HDLTS().run(graph).makespan
    if cp_min_lower_bound(graph) > 0:
        assert slr(graph, makespan) >= 1.0 - 1e-9


@given(graph=task_graphs(), name=st.sampled_from(PAPER_SET))
@_SETTINGS
def test_simulator_replay_never_exceeds_analytic(graph, name):
    schedule = make_scheduler(name).run(graph).schedule
    sim = ScheduleSimulator(graph).run(schedule)
    assert sim.makespan <= schedule.makespan + 1e-6


@given(graph=task_graphs())
@_SETTINGS
def test_hdlts_simulator_replay_is_exact(graph):
    """Append-based HDLTS: analytic times ARE the realized times."""
    schedule = HDLTS().run(graph).schedule
    sim = ScheduleSimulator(graph).run(schedule)
    assert sim.makespan == pytest.approx(schedule.makespan)


@given(graph=task_graphs())
@_SETTINGS
def test_itq_drains_in_topological_order(graph):
    itq = IndependentTaskQueue(graph)
    done = set()
    while itq:
        task = itq.ready_tasks()[0]
        assert all(p in done for p in graph.predecessors(task))
        itq.complete(task)
        done.add(task)
    assert len(done) == graph.n_tasks


# ----------------------------------------------------------------------
# timeline property: arbitrary reservations never overlap
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=0, max_value=50, allow_nan=False),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_timeline_reservations_never_overlap(intervals):
    timeline = ProcessorTimeline(0)
    placed = []
    for i, (start, duration) in enumerate(intervals):
        if timeline.fits(start, start + duration):
            timeline.reserve(i, start, duration)
            placed.append((start, start + duration))
    # empty intervals occupy nothing; overlap applies to real ones only
    ordered = sorted(
        (s for s in timeline.slots() if s.end - s.start > 1e-9),
        key=lambda s: s.start,
    )
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start + 1e-9
    assert len(timeline.slots()) == len(placed)


@given(
    ready=st.floats(min_value=0, max_value=100, allow_nan=False),
    duration=st.floats(min_value=0, max_value=20, allow_nan=False),
    existing=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=200, allow_nan=False),
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
        ),
        max_size=10,
    ),
)
@settings(max_examples=100, deadline=None)
def test_earliest_start_results_are_reservable(ready, duration, existing):
    """Whatever earliest_start returns must actually fit (both modes)."""
    timeline = ProcessorTimeline(0)
    for i, (start, dur) in enumerate(existing):
        if timeline.fits(start, start + dur):
            timeline.reserve(i, start, dur)
    for insertion in (False, True):
        start = timeline.earliest_start(ready, duration, insertion)
        assert start >= ready
        assert timeline.fits(start, start + duration)




# ----------------------------------------------------------------------
# io round trip: serialization is lossless for arbitrary graphs
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@_SETTINGS
def test_json_round_trip_preserves_everything(graph):
    from repro.io.json_io import graph_from_dict, graph_to_dict

    restored = graph_from_dict(graph_to_dict(graph))
    assert restored.n_tasks == graph.n_tasks
    assert restored.n_procs == graph.n_procs
    assert sorted(map(tuple, restored.edges())) == sorted(
        map(tuple, graph.edges())
    )
    # schedules of the round-tripped graph are identical
    assert HDLTS().run(restored).makespan == pytest.approx(
        HDLTS().run(graph).makespan
    )


# ----------------------------------------------------------------------
# energy invariants on arbitrary graphs
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@_SETTINGS
def test_slack_reclamation_preserves_makespan_and_saves_energy(graph):
    from repro.energy.model import EnergyModel
    from repro.energy.slack import reclaim_slack

    schedule = HDLTS().run(graph).schedule
    if schedule.makespan <= 0:
        return  # all-zero-cost degenerate graphs have nothing to reclaim
    model = EnergyModel(graph.n_procs)
    baseline = model.energy(schedule)
    stretched, scales = reclaim_slack(graph, schedule)
    assert stretched.makespan == pytest.approx(schedule.makespan)
    saved = model.energy_with_frequencies(stretched, scales)
    assert saved.total <= baseline.total + 1e-6


# ----------------------------------------------------------------------
# online mode with exact durations reproduces offline HDLTS
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@_SETTINGS
def test_online_exact_matches_offline(graph):
    """Record for record: every online dispatch is an offline slot."""
    from repro.dynamic.online import OnlineHDLTS

    offline = HDLTS().run(graph)
    online = OnlineHDLTS().execute(graph)
    schedule = offline.schedule
    assert sorted(
        (r.task, r.proc, r.start, r.finish, r.duplicate)
        for r in online.records
    ) == sorted([*schedule.assignments(), *schedule.duplicates()])
    assert online.makespan == offline.makespan


# ----------------------------------------------------------------------
# GA chromosomes decode to feasible schedules on arbitrary graphs
# ----------------------------------------------------------------------
@given(graph=task_graphs(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ga_random_chromosomes_always_feasible(graph, seed):
    import numpy as np

    from repro.genetic.ga import GeneticScheduler

    rng = np.random.default_rng(seed)
    scheduler = GeneticScheduler()
    order = scheduler._random_topological_order(graph, rng)
    order = scheduler._order_mutation(graph, order, rng)
    mapping = tuple(
        int(x) for x in rng.integers(0, graph.n_procs, size=graph.n_tasks)
    )
    schedule = scheduler.decode(graph, (order, mapping))
    validate_schedule(graph, schedule)


# ----------------------------------------------------------------------
# exact solver dominates heuristics on tiny instances
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bnb_lower_bounds_heft_on_tiny_graphs(graph):
    from repro.exact.branch_and_bound import SearchBudgetExceeded, optimal_makespan

    if graph.n_tasks > 8:
        return
    try:
        opt = optimal_makespan(graph, max_states=500_000)
    except SearchBudgetExceeded:
        return
    heft = make_scheduler("HEFT").run(graph).makespan
    assert heft >= opt - 1e-6


# ----------------------------------------------------------------------
# contention replay: inflation is non-negative, everything completes
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@_SETTINGS
def test_contention_never_beats_contention_free(graph):
    from repro.schedule.contention import ContentionSimulator

    schedule = HDLTS().run(graph).schedule
    free = ScheduleSimulator(graph).run(schedule).makespan
    contended = ContentionSimulator(graph).run(schedule)
    assert contended.makespan >= free - 1e-6
    assert set(contended.finish_times) == set(graph.tasks())


# ----------------------------------------------------------------------
# transitive reduction: never adds edges, preserves schedulability
# ----------------------------------------------------------------------
@given(graph=task_graphs())
@_SETTINGS
def test_transitive_reduction_sound(graph):
    from repro.model.reduction import transitive_reduction

    reduced = transitive_reduction(graph)
    assert reduced.n_edges <= graph.n_edges
    assert reduced.n_tasks == graph.n_tasks
    result = HDLTS().run(reduced)
    validate_schedule(reduced, result.schedule)
