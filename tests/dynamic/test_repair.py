"""Unit tests for checkpoint-and-replan failure recovery."""

import numpy as np
import pytest

from repro.core import HDLTS
from repro.dynamic.failures import FailStop
from repro.dynamic.noise import gaussian_noise
from repro.dynamic.online import replay_static
from repro.dynamic.repair import repair_after_failure
from repro.model.task_graph import TaskGraph
from tests.conftest import make_random_graph


def _build(n_procs, costs, edges):
    graph = TaskGraph(n_procs)
    for row in costs:
        graph.add_task([float(c) for c in row])
    for u, v, c in edges:
        graph.add_edge(u, v, float(c))
    return graph


@pytest.fixture
def plan(fig1):
    return HDLTS().run(fig1).schedule


class TestBasics:
    def test_all_tasks_complete(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=20))
        assert set(result.finish_times) == set(fig1.tasks())
        assert result.dead_procs == (2,)

    def test_nothing_finishes_on_dead_cpu_after_failure(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=20))
        for record in result.records:
            if record.proc == 2 and not record.lost:
                assert record.finish <= 20 + 1e-9

    def test_precedence_respected(self):
        graph = make_random_graph(seed=5, v=60, ccr=2.0, n_procs=4)
        plan = HDLTS().run(graph).schedule
        result = repair_after_failure(
            graph, plan, FailStop(proc=1, at_time=plan.makespan * 0.3)
        )
        entry = graph.entry_task
        for edge in graph.edges():
            if edge.src == entry:
                continue  # duplicates of the entry may serve locally
            src_fin = result.finish_times[edge.src]
            dst_start = result.finish_times[edge.dst] - graph.cost(
                edge.dst, result.proc_of[edge.dst]
            )
            comm = (
                0.0
                if result.proc_of[edge.src] == result.proc_of[edge.dst]
                else edge.cost
            )
            assert dst_start >= src_fin + comm - 1e-6

    def test_failure_after_completion_changes_nothing(self, fig1, plan):
        """A failure after the last finish replays the plan exactly as
        ``replay_static`` does.  The second graph has zero-cost tasks
        committed at one instant out of topological order: a
        topological tie-break in the repair's queue extraction once
        started task 3 at 1.0 instead of its planned 2.0."""
        tied = _build(
            3,
            [[0, 2, 0], [1, 2, 1], [2, 0, 0], [0, 0, 1], [0, 2, 2],
             [0, 2, 0], [0, 0, 0], [0, 0, 0]],
            [(0, 1, 0), (0, 2, 0), (1, 2, 1), (0, 3, 0), (1, 3, 0),
             (2, 5, 0), (6, 0, 0), (6, 4, 0), (3, 7, 0), (4, 7, 0),
             (5, 7, 0)],
        )
        for graph, schedule in (
            (fig1, plan),
            (tied, HDLTS().run(tied).schedule),
        ):
            result = repair_after_failure(
                graph, schedule, FailStop(proc=2, at_time=1e9)
            )
            assert result.records == replay_static(graph, schedule).records
            assert result.makespan == schedule.makespan
            assert result.n_lost == 0

    def test_failure_at_zero_replans_everything(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=0.0))
        assert all(
            result.proc_of[t] != 2 for t in fig1.tasks()
        )

    def test_single_cpu_platform_rejected(self):
        graph = make_random_graph(seed=2, v=10, n_procs=1)
        plan = HDLTS().run(graph).schedule
        with pytest.raises(ValueError, match="survivor"):
            repair_after_failure(graph, plan, FailStop(proc=0, at_time=1.0))

    def test_out_of_range_cpu_rejected(self, fig1, plan):
        with pytest.raises(ValueError, match="outside"):
            repair_after_failure(fig1, plan, FailStop(proc=9, at_time=1.0))


class TestComparison:
    def test_repair_close_to_online(self):
        """Repair and online trade wins but stay within 2x of each
        other (both handle the failure gracefully)."""
        from repro.dynamic.online import OnlineHDLTS

        for seed in range(4):
            rng = np.random.default_rng(seed)
            graph = make_random_graph(seed=seed, v=60, n_procs=4, ccr=2.0)
            noise = gaussian_noise(graph, 0.2, rng)
            plan = HDLTS().run(graph).schedule
            failure = FailStop(proc=0, at_time=plan.makespan * 0.3)
            repaired = repair_after_failure(graph, plan, failure, noise)
            online = OnlineHDLTS().execute(graph, noise, [failure])
            ratio = repaired.makespan / online.makespan
            assert 0.5 < ratio < 2.0
