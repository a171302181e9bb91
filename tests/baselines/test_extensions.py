"""Unit tests for the extension baselines: DLS, Lookahead HEFT, DHEFT."""

import numpy as np
import pytest

from repro.baselines import DHEFT, DLS, HEFT, LookaheadHEFT
from repro.model.attributes import mean_execution_times
from repro.model.ranking import upward_rank_reference
from repro.schedule.validation import validate_schedule
from tests.conftest import make_random_graph


class TestDLS:
    def test_fig1_feasible(self, fig1):
        result = DLS().run(fig1)
        validate_schedule(fig1, result.schedule)
        assert result.schedule.is_complete()

    def test_static_levels_exclude_communication(self, fig1):
        levels = DLS().static_levels(fig1)
        # SL(T10) = mean_w(T10); SL(T8) = mean_w(T8) + SL(T10) (no comm)
        mean_w = mean_execution_times(fig1)
        assert levels[9] == pytest.approx(mean_w[9])
        assert levels[7] == pytest.approx(mean_w[7] + mean_w[9])
        # the upward-rank recursion on the same graph with free edges
        free = fig1.arrays()._replace(cost=np.zeros(fig1.n_edges)).to_graph()
        assert np.array_equal(levels, upward_rank_reference(free))

    def test_static_levels_monotone(self, fig1):
        levels = DLS().static_levels(fig1)
        for edge in fig1.edges():
            assert levels[edge.src] > levels[edge.dst] or (
                fig1.cost_row(edge.src).mean() == 0
            )

    def test_random_graphs_feasible(self):
        for seed in range(4):
            graph = make_random_graph(seed=seed, v=50, ccr=2.0)
            validate_schedule(graph, DLS().run(graph).schedule)

    def test_single_task(self, single_task):
        assert DLS().run(single_task).makespan == 3.0

    def test_delta_prefers_affine_cpu(self):
        """On independent equal tasks, DLS spreads load (Delta pulls
        each task toward its fast CPU)."""
        from repro.model.task_graph import TaskGraph

        graph = TaskGraph(2)
        graph.add_task([1, 10])
        graph.add_task([10, 1])
        schedule = DLS().run(graph.normalized()).schedule
        assert schedule.proc_of(0) == 0
        assert schedule.proc_of(1) == 1


class TestLookaheadHEFT:
    def test_fig1_feasible_and_competitive(self, fig1):
        result = LookaheadHEFT().run(fig1)
        validate_schedule(fig1, result.schedule)
        assert result.makespan <= 90  # sanity: in HEFT's neighbourhood

    def test_beats_heft_somewhere(self):
        wins = 0
        for seed in range(12):
            graph = make_random_graph(seed=seed, v=50, ccr=3.0)
            if (
                LookaheadHEFT().run(graph).makespan
                < HEFT().run(graph).makespan - 1e-9
            ):
                wins += 1
        assert wins > 0

    def test_random_graphs_feasible(self):
        for seed in range(3):
            graph = make_random_graph(seed=seed, v=40, ccr=2.0)
            validate_schedule(graph, LookaheadHEFT().run(graph).schedule)

    def test_exit_task_scored_by_own_eft(self, single_task):
        assert LookaheadHEFT().run(single_task).makespan == 3.0


class TestDHEFT:
    def test_fig1_duplication_reduces_makespan(self, fig1):
        heft = HEFT().run(fig1)
        dheft = DHEFT().run(fig1)
        validate_schedule(fig1, dheft.schedule)
        assert dheft.makespan <= heft.makespan
        assert dheft.n_duplicates > 0

    def test_duplicates_may_copy_non_entry_tasks(self, fig1):
        schedule = DHEFT().run(fig1).schedule
        copied = {a.task for a in schedule.duplicates()}
        assert copied  # some parent was copied
        # unlike HDLTS, DHEFT is allowed to copy beyond the entry
        # (on Fig 1 it does copy the entry too -- both are legal)

    def test_duplicates_respect_own_parents(self):
        """The validator enforces that every copy has its inputs."""
        for seed in range(5):
            graph = make_random_graph(seed=seed, v=50, ccr=4.0)
            schedule = DHEFT().run(graph).schedule
            validate_schedule(graph, schedule)

    def test_never_catastrophically_worse_than_heft(self):
        for seed in range(8):
            graph = make_random_graph(seed=seed, v=50, ccr=3.0)
            dheft = DHEFT().run(graph).makespan
            heft = HEFT().run(graph).makespan
            assert dheft <= 1.25 * heft

    def test_single_task(self, single_task):
        result = DHEFT().run(single_task)
        assert result.makespan == 3.0
        assert result.n_duplicates == 0


def test_registry_exposes_extensions(fig1):
    from repro.baselines.registry import make_scheduler

    for name in ("DLS", "LA-HEFT", "DHEFT"):
        result = make_scheduler(name).run(fig1)
        assert result.schedule.is_complete()
