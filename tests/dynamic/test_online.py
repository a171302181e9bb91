"""Unit tests for OnlineHDLTS (the dynamic extension)."""

import numpy as np
import pytest

from repro.core import HDLTS
from repro.dynamic.failures import FailStop
from repro.dynamic.noise import gaussian_noise
from repro.dynamic.online import (
    AllProcessorsFailed,
    OnlineHDLTS,
    replay_static,
)
from tests.conftest import make_random_graph


class TestExactDurations:
    def test_matches_offline_hdlts_on_fig1(self, fig1):
        result = OnlineHDLTS().execute(fig1)
        assert result.makespan == pytest.approx(73.0)
        assert result.n_lost == 0
        assert result.dead_procs == ()

    def test_all_tasks_complete(self, fig1):
        result = OnlineHDLTS().execute(fig1)
        assert set(result.finish_times) == set(fig1.tasks())

    def test_precedence_respected_in_realized_times(self):
        graph = make_random_graph(seed=3, v=60, ccr=2.0)
        result = OnlineHDLTS().execute(graph)
        for edge in graph.edges():
            src_finish = result.finish_times[edge.src]
            dst_start = result.finish_times[edge.dst] - graph.cost(
                edge.dst, result.proc_of[edge.dst]
            )
            comm = (
                0.0
                if result.proc_of[edge.src] == result.proc_of[edge.dst]
                else edge.cost
            )
            # the dst may read a *duplicate* of an entry parent, which
            # can legally beat src_finish + comm
            if edge.src != graph.entry_task:
                assert dst_start >= src_finish + comm - 1e-6

    def test_multi_entry_normalized(self):
        from repro.model.task_graph import TaskGraph

        graph = TaskGraph(2)
        a, b = graph.add_task([1, 2]), graph.add_task([2, 1])
        c = graph.add_task([1, 1])
        graph.add_edge(a, c, 1.0)
        graph.add_edge(b, c, 1.0)
        result = OnlineHDLTS().execute(graph)
        assert len(result.finish_times) == 4  # + pseudo entry


class TestNoise:
    def test_realized_makespan_differs_from_estimate(self, fig1):
        noise = gaussian_noise(fig1, 0.4, np.random.default_rng(3))
        result = OnlineHDLTS().execute(fig1, noise)
        assert result.makespan != pytest.approx(73.0)
        assert result.makespan > 0

    def test_replay_static_exact_equals_offline(self, fig1):
        schedule = HDLTS().run(fig1).schedule
        replayed = replay_static(fig1, schedule)
        assert replayed.makespan == pytest.approx(73.0)

    def test_replay_and_online_use_same_realizations(self, fig1):
        """Memoized noise: both arms see identical (task, proc) draws."""
        rng = np.random.default_rng(5)
        noise = gaussian_noise(fig1, 0.3, rng)
        a = OnlineHDLTS().execute(fig1, noise).makespan
        b = OnlineHDLTS().execute(fig1, noise).makespan
        assert a == pytest.approx(b)


class TestFailures:
    def test_survives_single_failure(self, fig1):
        result = OnlineHDLTS().execute(
            fig1, failures=[FailStop(proc=2, at_time=20.0)]
        )
        assert set(result.finish_times) == set(fig1.tasks())
        assert 2 in result.dead_procs
        # nothing may finish on the dead CPU after its failure
        for record in result.records:
            if record.proc == 2 and not record.lost:
                assert record.finish <= 20.0 + 1e-9

    def test_lost_work_is_counted(self, fig1):
        result = OnlineHDLTS().execute(
            fig1, failures=[FailStop(proc=2, at_time=5.0)]
        )
        assert result.n_lost >= 1

    def test_failure_at_zero_excludes_cpu_entirely(self, fig1):
        result = OnlineHDLTS().execute(
            fig1, failures=[FailStop(proc=0, at_time=0.0)]
        )
        assert all(proc != 0 for proc in result.proc_of.values())

    def test_nan_failure_instant_rejected(self):
        """A NaN instant compares false with every finish, so the
        failure would silently never fire."""
        with pytest.raises(ValueError, match="at_time"):
            FailStop(proc=0, at_time=float("nan"))

    def test_all_failures_raise(self, fig1):
        failures = [FailStop(p, 1.0) for p in range(3)]
        with pytest.raises(AllProcessorsFailed):
            OnlineHDLTS().execute(fig1, failures=failures)

    def test_makespan_degrades_gracefully(self):
        graph = make_random_graph(seed=9, v=80, n_procs=4)
        healthy = OnlineHDLTS().execute(graph).makespan
        crashed = OnlineHDLTS().execute(
            graph, failures=[FailStop(proc=0, at_time=healthy * 0.2)]
        )
        assert crashed.makespan < 4 * healthy  # bounded degradation
        assert set(crashed.finish_times) == set(graph.tasks())


class TestRobustness:
    def test_reports_are_consistent(self):
        from repro.dynamic.robustness import robustness_report
        from repro.generator import GeneratorConfig, generate_random_graph

        def make(rng):
            return generate_random_graph(GeneratorConfig(v=40, n_procs=3), rng)

        static, online = robustness_report(make, sigma=0.4, reps=8, seed=1)
        for report in (static, online):
            assert report.n == 8
            assert report.mean <= report.p95 <= report.worst + 1e-9
            assert 0 < report.robustness <= 1.0 + 1e-9
        assert static.arm == "static" and online.arm == "online"

    def test_zero_noise_arms_agree(self):
        from repro.dynamic.robustness import robustness_report
        from repro.generator import GeneratorConfig, generate_random_graph

        def make(rng):
            return generate_random_graph(GeneratorConfig(v=30, n_procs=3), rng)

        static, online = robustness_report(make, sigma=0.0, reps=4, seed=2)
        assert static.mean == pytest.approx(online.mean)
        assert static.std == pytest.approx(online.std)

    #: ``robustness_report`` at sigma=0.4 (v=30, 3 CPUs, 4 reps) as the
    #: retired standalone online loop computed it: seed ->
    #: (static mean, std, p95, worst), (online mean, std, p95, worst)
    PINNED = {
        0: (
            (708.6142742601494, 155.8224711425311, 859.5012932856164,
             869.8508570226492),
            (766.4834837412682, 92.31619961361754, 830.9426652223268,
             831.7930438180435),
        ),
        1: (
            (619.6282642295607, 81.23144555764746, 700.4206416489226,
             705.3230996895893),
            (644.4773593944955, 135.0467788602612, 775.2951250562874,
             782.3842517034325),
        ),
        7: (
            (682.7236452722861, 32.02700811257755, 714.4179786558865,
             716.425865726075),
            (645.1838485567563, 23.15773995726968, 670.9239800271016,
             673.9157521858081),
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_lazy_draw_order_pinned(self, seed):
        """Memoized noise hands each draw to the (task, proc) pair that
        asks first, so the online arm's floats pin *when* it consults the
        duration function: lazily, in dispatch order.  Materializing the
        durations up front (or in any other order) changes them."""
        from repro.dynamic.robustness import robustness_report
        from repro.generator import GeneratorConfig, generate_random_graph

        def make(rng):
            return generate_random_graph(GeneratorConfig(v=30, n_procs=3), rng)

        static, online = robustness_report(make, sigma=0.4, reps=4, seed=seed)
        got = tuple(
            (r.mean, r.std, r.p95, r.worst) for r in (static, online)
        )
        assert got == self.PINNED[seed]

    def test_invalid_args(self):
        from repro.dynamic.robustness import robustness_report

        with pytest.raises(ValueError):
            robustness_report(lambda rng: None, sigma=0.1, reps=1)
        with pytest.raises(ValueError):
            robustness_report(lambda rng: None, sigma=-1.0, reps=5)


class TestDuplicationWindowRegression:
    """Online entry duplication mirrors offline Algorithm 1's [0, W) window.

    Both graphs below are shrunk hypothesis counterexamples from
    ``test_online_exact_matches_offline``: the online executor used to
    append duplicates at Avail(k) instead of inserting them into the
    still-idle window at time zero, so it either missed a profitable
    duplicate or (with sub-epsilon slot starts) materialized one that
    offline correctly rejects.
    """

    @staticmethod
    def _build(n_procs, costs, edges):
        from repro.model.task_graph import TaskGraph

        graph = TaskGraph(n_procs)
        for row in costs:
            graph.add_task(row)
        for u, v, c in edges:
            graph.add_edge(u, v, c)
        return graph

    def test_missed_duplicate_in_idle_window(self):
        """Entry dup must run [0, W) on a CPU whose queue starts later."""
        from repro.dynamic.online import OnlineHDLTS

        graph = self._build(
            3,
            [
                [1.0, 1.0, 1.0],
                [1.0, 1.0, 0.0],
                [1.0, 2.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ],
            [
                (0, 1, 1.0),
                (0, 2, 0.0),
                (0, 3, 0.0),
                (0, 4, 0.0),
                (1, 5, 0.0),
                (2, 5, 0.0),
                (3, 5, 0.0),
                (4, 5, 0.0),
            ],
        )
        offline = HDLTS().run(graph).makespan
        online = OnlineHDLTS().execute(graph).makespan
        assert offline == online == 1.0

    def test_duplicate_record_pinned_in_idle_window(self):
        """Pin the fix's mechanism, not just the makespan: the online
        run must materialize an entry duplicate over exactly [0, W) on a
        CPU other than the entry's primary CPU."""
        from repro.dynamic.online import OnlineHDLTS

        graph = self._build(
            3,
            [
                [1.0, 1.0, 1.0],
                [1.0, 1.0, 0.0],
                [1.0, 2.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ],
            [
                (0, 1, 1.0),
                (0, 2, 0.0),
                (0, 3, 0.0),
                (0, 4, 0.0),
                (1, 5, 0.0),
                (2, 5, 0.0),
                (3, 5, 0.0),
                (4, 5, 0.0),
            ],
        )
        result = OnlineHDLTS().execute(graph)
        dups = [r for r in result.records if r.duplicate and not r.lost]
        assert dups, "the fixed executor must duplicate the entry task"
        assert {d.task for d in dups} == {0}
        primary_proc = result.proc_of[0]
        for dup in dups:
            assert dup.proc != primary_proc
            assert dup.start == 0.0
            assert dup.finish == pytest.approx(graph.cost(0, dup.proc))

    def test_regression_graphs_are_in_the_golden_corpus(self):
        """The same three shrunk graphs replay from tests/corpus/ too,
        as ``online_offline`` entries -- keep both in sync."""
        from pathlib import Path

        from repro.qa.corpus import read_corpus

        path = Path(__file__).parent.parent / "corpus" / "regressions.jsonl"
        ids = {e.id for e in read_corpus(path) if e.kind == "online_offline"}
        assert {
            "online-dup-window-1",
            "online-dup-window-2",
            "online-dup-window-3",
        } <= ids

    def test_zero_duration_slot_does_not_block_duplicate(self):
        """A zero-cost task at t=0 leaves the duplication window idle."""
        from repro.dynamic.online import OnlineHDLTS

        graph = self._build(
            2,
            [[0.5, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
            [(0, 1, 0.0), (0, 2, 1.0), (1, 3, 0.0), (2, 3, 0.0)],
        )
        offline = HDLTS().run(graph).makespan
        online = OnlineHDLTS().execute(graph).makespan
        assert offline == online == 0.5

    def test_tiny_positive_slot_start_blocks_duplicate(self):
        """Slot starts below epsilon still gate the window exactly like
        the offline timeline's fits(0, duration)."""
        from repro.dynamic.online import OnlineHDLTS

        tiny = 1.386169986005746e-295
        graph = self._build(
            2,
            [
                [tiny, 1.0],
                [0.0, 0.0],
                [0.0, 0.0],
                [0.0, 0.0],
                [1.0, 0.0],
                [1.0, 0.0],
                [0.0, 0.0],
            ],
            [
                (0, 1, 0.0),
                (0, 2, 0.0),
                (0, 3, 0.0),
                (0, 4, 2.0),
                (1, 5, 2.0),
                (2, 6, 0.0),
                (3, 6, 0.0),
                (4, 6, 0.0),
                (5, 6, 0.0),
            ],
        )
        offline = HDLTS().run(graph).makespan
        online = OnlineHDLTS().execute(graph).makespan
        assert online == pytest.approx(offline)
