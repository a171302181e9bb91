"""Unit tests for the scalar EFT engine and the timeline batch scan.

The engine's contract is *bit-identity* with the reference scalar
queries against any live schedule, so every test here compares engine
output to the corresponding :class:`Schedule` /
:func:`entry_duplication_plan` / :meth:`ProcessorTimeline.earliest_start`
answer on randomized partial schedules.
"""

import numpy as np
import pytest

from repro.core.duplication import entry_duplication_plan
from repro.core.engine import StaticEFTEngine
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import ProcessorTimeline
from tests.conftest import make_random_graph


def _partial_schedule(graph, rng, fraction=0.6, entry_dups=0):
    """Schedule a topological prefix of the graph with random placements."""
    schedule = Schedule(graph)
    order = graph.topological_order()
    n = max(1, int(len(order) * fraction))
    entry = order[0]
    for task in order[:n]:
        proc = int(rng.integers(graph.n_procs))
        ready = schedule.ready_time(task, proc)
        start = schedule.timelines[proc].earliest_start(
            ready, graph.cost(task, proc)
        )
        schedule.place(task, proc, start)
    dup_procs = [
        p for p in graph.procs() if p != schedule.proc_of(entry)
    ][:entry_dups]
    for proc in dup_procs:
        if schedule.timelines[proc].fits(0.0, graph.cost(entry, proc)):
            schedule.place(entry, proc, 0.0, duplicate=True)
    return schedule, order[:n]


class TestReadyVector:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_schedule_ready_time(self, seed):
        rng = np.random.default_rng(seed)
        graph = make_random_graph(seed=seed, v=40, n_procs=3)
        schedule, placed = _partial_schedule(graph, rng)
        engine = StaticEFTEngine(schedule)
        placed_set = set(placed)
        for task in graph.tasks():
            if not all(p in placed_set for p in graph.predecessors(task)):
                continue
            vec = engine.ready_vector(task)
            for proc in graph.procs():
                assert vec[proc] == schedule.ready_time(task, proc)

    def test_unscheduled_parent_raises(self):
        graph = make_random_graph(seed=1, v=20)
        schedule = Schedule(graph)
        engine = StaticEFTEngine(schedule)
        child = next(
            t for t in graph.tasks() if graph.in_degree(t) > 0
        )
        with pytest.raises(ValueError, match="not scheduled"):
            engine.ready_vector(child)

    def test_ingests_preexisting_placements(self):
        graph = make_random_graph(seed=2, v=30, n_procs=3)
        rng = np.random.default_rng(0)
        schedule, placed = _partial_schedule(graph, rng, entry_dups=2)
        engine = StaticEFTEngine(schedule)  # built *after* the placements
        for task in placed:
            copies = schedule.copies(task)
            assert engine.best_finish[task] == min(c.finish for c in copies)
            for proc in graph.procs():
                local = [c.finish for c in copies if c.proc == proc]
                expected = min(local) if local else np.inf
                assert engine.local_finish[task][proc] == expected


class TestEntryPlan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("allow", [True, False])
    def test_matches_algorithm_one(self, seed, allow):
        rng = np.random.default_rng(seed)
        graph = make_random_graph(seed=seed, v=40, n_procs=3, single_entry=True)
        entry = graph.entry_task
        schedule, placed = _partial_schedule(
            graph, rng, entry_dups=seed % graph.n_procs
        )
        engine = StaticEFTEngine(
            schedule, entry=entry, hypothetical_entry_dup=allow
        )
        placed_set = set(placed)
        for child in graph.successors(entry):
            for proc in graph.procs():
                plan = entry_duplication_plan(
                    schedule, entry, child, proc, allow
                )
                duplicate, arrival = engine.entry_plan(child, proc)
                assert duplicate == plan.duplicate, (child, proc)
                assert arrival == plan.arrival, (child, proc)
            if all(p in placed_set for p in graph.predecessors(child)):
                # the non-entry component HDLTS recombines with the plan
                sans_entry = engine.ready_vector(child, exclude_entry=True)
                for proc in graph.procs():
                    expected = max(
                        [0.0]
                        + [
                            schedule.arrival_time(parent, child, proc)
                            for parent in graph.predecessors(child)
                            if parent != entry
                        ]
                    )
                    assert sans_entry[proc] == expected

    def test_memo_invalidated_by_commits(self):
        graph = make_random_graph(seed=7, v=30, n_procs=3, single_entry=True)
        entry = graph.entry_task
        schedule = Schedule(graph)
        schedule.place(entry, 0, 0.0)
        engine = StaticEFTEngine(
            schedule, entry=entry, hypothetical_entry_dup=True
        )
        child = graph.successors(entry)[0]
        before = engine.entry_plan(child, 1)
        # block CPU 1's duplication window, then re-query: the memo must
        # notice the timeline change through notify()
        blocker = schedule.place(child, 1, 0.0)
        engine.notify(blocker)
        after = engine.entry_plan(child, 1)
        plan = entry_duplication_plan(schedule, entry, child, 1, True)
        assert after == (plan.duplicate, plan.arrival)
        if before[0]:  # the window was usable before the blocker
            assert not after[0]


class TestEstEft:
    @pytest.mark.parametrize("insertion", [True, False])
    def test_matches_common_est_eft(self, insertion):
        from repro.baselines.common import est_eft

        rng = np.random.default_rng(3)
        graph = make_random_graph(seed=3, v=40, n_procs=4)
        schedule, placed = _partial_schedule(graph, rng)
        engine = StaticEFTEngine(schedule)
        placed_set = set(placed)
        for task in graph.tasks():
            if task in placed_set or not all(
                p in placed_set for p in graph.predecessors(task)
            ):
                continue
            starts, finishes = engine.est_eft(task, insertion)
            for proc in graph.procs():
                s, f = est_eft(schedule, task, proc, insertion)
                assert starts[proc] == s
                assert finishes[proc] == f


class TestBatchEarliestStart:
    def _random_timeline(self, rng, n_slots=12, with_points=True):
        timeline = ProcessorTimeline(0)
        cursor = 0.0
        for i in range(n_slots):
            cursor += float(rng.uniform(0.0, 3.0))
            duration = float(rng.uniform(0.5, 4.0))
            timeline.reserve(100 + i, cursor, duration)
            if with_points and rng.random() < 0.4:
                # zero-duration pseudo-task slot at a boundary
                timeline.reserve(200 + i, cursor + duration, 0.0)
            cursor += duration
        return timeline

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("insertion", [True, False])
    def test_matches_scalar(self, seed, insertion):
        rng = np.random.default_rng(seed)
        timeline = self._random_timeline(rng)
        ready = rng.uniform(0.0, 40.0, size=64)
        durations = rng.uniform(0.0, 6.0, size=64)
        durations[::7] = 0.0  # exercise the point-task fallback
        # boundary-aligned queries: exactly at slot ends/starts
        for i, slot in enumerate(timeline.slots()):
            if i < len(ready) - 2:
                ready[i] = slot.end
                ready[i + 1] = slot.start
        batch = timeline.earliest_start_batch(ready, durations, insertion)
        for i in range(len(ready)):
            scalar = timeline.earliest_start(
                float(ready[i]), float(durations[i]), insertion
            )
            assert batch[i] == scalar, (i, ready[i], durations[i])

    def test_empty_timeline(self):
        timeline = ProcessorTimeline(0)
        ready = np.array([0.0, 3.5, 10.0])
        durations = np.array([1.0, 0.0, 2.0])
        batch = timeline.earliest_start_batch(ready, durations, True)
        assert batch.tolist() == ready.tolist()

    def test_negative_inputs_raise(self):
        timeline = ProcessorTimeline(0)
        timeline.reserve(1, 0.0, 2.0)
        with pytest.raises(ValueError):
            timeline.earliest_start_batch(
                np.array([-1.0]), np.array([1.0]), True
            )
        with pytest.raises(ValueError):
            timeline.earliest_start_batch(
                np.array([1.0]), np.array([-1.0]), True
            )


class TestBusyTimeAccumulator:
    def test_tracks_reserve_and_remove(self):
        timeline = ProcessorTimeline(0)
        assert timeline.busy_time() == 0.0
        timeline.reserve(1, 0.0, 2.0)
        timeline.reserve(2, 5.0, 3.0)
        timeline.reserve(3, 2.0, 0.0)  # point slot adds nothing
        assert timeline.busy_time() == 5.0
        timeline.remove(1)
        assert timeline.busy_time() == 3.0
        timeline.remove(3)
        assert timeline.busy_time() == 3.0

    def test_matches_slot_sum_on_random_timelines(self):
        rng = np.random.default_rng(11)
        timeline = ProcessorTimeline(0)
        cursor = 0.0
        for i in range(40):
            cursor += float(rng.uniform(0.0, 1.0))
            duration = float(rng.uniform(0.0, 2.0))
            timeline.reserve(i, cursor, duration)
            cursor += duration
        expected = sum(s.end - s.start for s in timeline.slots())
        assert timeline.busy_time() == pytest.approx(expected, rel=1e-12)


class TestCounterFlush:
    """``place_best`` sums its counters and publishes them once per run."""

    STATICS = ("HEFT", "PEFT", "PETS", "SDBATS")

    @pytest.mark.parametrize("name", STATICS)
    def test_counters_match_the_reference_engine(self, name):
        from repro import obs
        from repro.baselines.registry import make_scheduler

        from repro.runtime.context import activate, current_context

        graph = make_random_graph(3, v=30, n_procs=4)
        observed = {}
        for engine in ("fast", "reference"):
            with activate(current_context().with_(engine=engine)):
                with obs.session(metrics=True) as sess:
                    make_scheduler(name).run(graph)
            observed[engine] = sess.snapshot["counters"]
        assert observed["fast"] == observed["reference"]
        placed = observed["fast"][f"{name}/decisions"]
        assert observed["fast"][f"{name}/eft_evaluations"] == 4 * placed

    @pytest.mark.parametrize("name", STATICS)
    def test_quiet_run_makes_no_per_placement_obs_call(self, name, monkeypatch):
        from repro import obs
        from repro.baselines.registry import make_scheduler

        calls = []
        real = obs.scoped_count
        monkeypatch.setattr(
            obs, "scoped_count", lambda *a, **k: (calls.append(a), real(*a, **k))
        )
        for v in (10, 40):
            calls.clear()
            make_scheduler(name).run(make_random_graph(1, v=v))
            assert len(calls) == 2  # one flush: decisions + evaluations

    def test_counts_flush_when_the_run_raises(self, fig1, monkeypatch):
        from repro import obs
        from repro.baselines.registry import make_scheduler

        committed = []
        real = StaticEFTEngine.notify

        def failing(self, assignment):
            if len(committed) == 3:
                raise RuntimeError("boom")
            committed.append(assignment)
            real(self, assignment)

        monkeypatch.setattr(StaticEFTEngine, "notify", failing)
        with obs.session(metrics=True) as sess:
            with pytest.raises(RuntimeError, match="boom"):
                make_scheduler("HEFT").run(fig1)
        counters = sess.snapshot["counters"]
        # the three commits plus the placement whose commit raised
        assert counters["HEFT/decisions"] == 4
        assert counters["HEFT/eft_evaluations"] == 4 * fig1.n_procs
