"""Unit tests for Definitions 1-2 and 8 primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attributes import (
    communication_cost,
    mean_execution_time,
    mean_execution_times,
    penalty_value,
    penalty_values,
    sample_std,
    std_execution_times,
)
from repro.model.task_graph import TaskGraph


class TestMeanExecution:
    def test_eq1_on_fig1_entry(self, fig1):
        assert mean_execution_time(fig1, 0) == pytest.approx((14 + 16 + 9) / 3)

    def test_vector_matches_scalar(self, fig1):
        vec = mean_execution_times(fig1)
        for task in fig1.tasks():
            assert vec[task] == pytest.approx(mean_execution_time(fig1, task))

    def test_empty_graph(self):
        assert mean_execution_times(TaskGraph(3)).shape == (0,)


class TestStdExecution:
    def test_sample_std_convention(self, fig1):
        # entry task costs (14, 16, 9): sample std = sqrt(13)
        vec = std_execution_times(fig1)
        assert vec[0] == pytest.approx(np.sqrt(13.0))

    def test_single_cpu_gives_zero(self):
        graph = TaskGraph(1)
        graph.add_task([5])
        assert std_execution_times(graph)[0] == 0.0


class TestCommunicationCost:
    def test_same_proc_is_free(self, fig1):
        assert communication_cost(fig1, 0, 1, src_proc=2, dst_proc=2) == 0.0

    def test_cross_proc_pays_edge_cost(self, fig1):
        assert communication_cost(fig1, 0, 1, src_proc=0, dst_proc=2) == 18.0

    def test_unknown_placement_is_pessimistic(self, fig1):
        assert communication_cost(fig1, 0, 1) == 18.0

    def test_unknown_src_known_dst(self, fig1):
        assert communication_cost(fig1, 0, 1, dst_proc=1) == 18.0


class TestSampleStd:
    def test_matches_table1_pv(self):
        """PVs from the paper's Table I step 2 (see DESIGN.md)."""
        assert sample_std(np.array([27, 35, 27])) == pytest.approx(4.6, abs=0.05)
        assert sample_std(np.array([25, 29, 28])) == pytest.approx(2.0, abs=0.1)
        assert sample_std(np.array([27, 24, 26])) == pytest.approx(1.5, abs=0.05)
        assert sample_std(np.array([26, 29, 19])) == pytest.approx(5.1, abs=0.05)
        assert sample_std(np.array([27, 32, 18])) == pytest.approx(7.0, abs=0.1)

    def test_population_std_would_not_match(self):
        """Sanity check of the ddof=1 decision: ddof=0 misses Table I."""
        pop = float(np.array([27, 35, 27]).std(ddof=0))
        assert abs(pop - 4.6) > 0.5

    def test_single_value_is_zero(self):
        assert sample_std(np.array([42.0])) == 0.0

    def test_empty_is_zero(self):
        assert sample_std(np.array([])) == 0.0

    def test_constant_vector_is_zero(self):
        assert sample_std(np.array([3.0, 3.0, 3.0])) == 0.0


@st.composite
def eft_matrices(draw):
    """EFT-like matrices: 1-40 CPUs (both sides of numpy's 8-term
    pairwise block), adversarial magnitudes and exact ties."""
    n_procs = draw(st.integers(min_value=1, max_value=40))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=50).map(float),
        st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    )
    cells = draw(
        st.lists(value, min_size=n_rows * n_procs, max_size=n_rows * n_procs)
    )
    return np.array(cells, dtype=float).reshape(n_rows, n_procs)


class TestPenaltyValueKernel:
    """The Python PV kernel replays numpy's summation order exactly."""

    @settings(max_examples=300, deadline=None)
    @given(eft=eft_matrices())
    def test_bit_identical_to_numpy_std(self, eft):
        n_rows, n_procs = eft.shape
        if n_procs == 1:
            expected = np.zeros(n_rows)
        else:
            expected = eft.std(axis=1, ddof=1)
        scalar = [penalty_value(row) for row in eft.tolist()]
        assert scalar == expected.tolist()
        assert penalty_values(eft).tolist() == expected.tolist()

    @pytest.mark.parametrize("n_procs", [7, 8, 9, 15, 16, 17, 128, 129, 300])
    def test_pairwise_block_boundaries(self, n_procs):
        rng = np.random.default_rng(n_procs)
        eft = rng.uniform(0.0, 1e4, size=(5, n_procs))
        expected = eft.std(axis=1, ddof=1).tolist()
        assert [penalty_value(row) for row in eft.tolist()] == expected

    def test_single_cpu_is_zero(self):
        assert penalty_value([5.0]) == 0.0
        assert penalty_values(np.array([[5.0], [7.0]])).tolist() == [0.0, 0.0]

    def test_table1_step2(self):
        row = [27.0, 35.0, 27.0]
        assert penalty_value(row) == float(np.std(row, ddof=1))
        assert penalty_value(row) == pytest.approx(4.6, abs=0.05)
