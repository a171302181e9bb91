"""Unit tests for the random DAG generator's structure and cost model."""

import numpy as np
import pytest

from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import RandomDAGGenerator, generate_random_graph
from repro.model.levels import graph_height, graph_width
from repro.model.validation import validate_task_graph


class TestStructure:
    @pytest.mark.parametrize("v", [1, 2, 5, 50, 500])
    def test_exact_task_count(self, v, rng):
        graph = generate_random_graph(GeneratorConfig(v=v), rng)
        assert graph.n_tasks == v

    def test_always_acyclic_and_connected(self, rng):
        for seed in range(10):
            graph = generate_random_graph(
                GeneratorConfig(v=80), np.random.default_rng(seed)
            )
            validate_task_graph(graph)

    def test_alpha_controls_shape(self):
        """Small alpha -> tall thin graphs; large alpha -> short fat."""
        heights = {}
        widths = {}
        for alpha in (0.5, 2.5):
            hs, ws = [], []
            for seed in range(10):
                graph = generate_random_graph(
                    GeneratorConfig(v=400, alpha=alpha),
                    np.random.default_rng(seed),
                )
                hs.append(graph_height(graph))
                ws.append(graph_width(graph))
            heights[alpha] = np.mean(hs)
            widths[alpha] = np.mean(ws)
        assert heights[0.5] > heights[2.5]
        assert widths[0.5] < widths[2.5]

    def test_density_controls_edge_count(self):
        counts = {}
        for density in (1, 5):
            totals = [
                generate_random_graph(
                    GeneratorConfig(v=200, density=density),
                    np.random.default_rng(seed),
                ).n_edges
                for seed in range(5)
            ]
            counts[density] = np.mean(totals)
        assert counts[5] > 2 * counts[1]

    def test_level_sizes_sum_to_v(self, rng):
        generator = RandomDAGGenerator(GeneratorConfig(v=137, alpha=1.5))
        for _ in range(20):
            sizes = generator.level_sizes(rng)
            assert sum(sizes) == 137
            assert all(s >= 1 for s in sizes)

    def test_every_non_first_level_task_has_parent(self, rng):
        graph = generate_random_graph(GeneratorConfig(v=150), rng)
        from repro.model.levels import task_levels

        levels = task_levels(graph)
        for task in graph.tasks():
            if levels[task] > 0:
                assert graph.in_degree(task) >= 1

    def test_single_task_graph(self, rng):
        graph = generate_random_graph(GeneratorConfig(v=1), rng)
        assert graph.n_tasks == 1 and graph.n_edges == 0


class TestCosts:
    def test_eq13_bounds(self, rng):
        """Per-CPU costs stay within w_i * (1 -+ beta/2) of the draw's
        mean -- verified through the realized spread."""
        config = GeneratorConfig(v=300, beta=0.4, w_dag=50)
        graph = generate_random_graph(config, rng)
        w = graph.cost_matrix()
        means = w.mean(axis=1)
        nonzero = means > 1e-9
        spread = (w.max(axis=1) - w.min(axis=1))[nonzero] / means[nonzero]
        # beta = 0.4: total width of the uniform support is 0.4 * w_i;
        # realized mean differs from w_i, allow slack
        assert spread.max() <= 0.55

    def test_beta_zero_is_homogeneous(self, rng):
        graph = generate_random_graph(GeneratorConfig(v=50, beta=0.0), rng)
        w = graph.cost_matrix()
        assert np.allclose(w, w[:, :1])

    def test_w_dag_scales_mean_cost(self):
        means = {}
        for w_dag in (50, 100):
            graph = generate_random_graph(
                GeneratorConfig(v=500, w_dag=w_dag), np.random.default_rng(0)
            )
            means[w_dag] = graph.cost_matrix().mean()
        assert means[100] > 1.5 * means[50]

    def test_eq14_comm_cost_proportional_to_source_mean(self, rng):
        """All out-edges of one task carry the same cost: w_i * CCR."""
        graph = generate_random_graph(GeneratorConfig(v=100, ccr=3.0), rng)
        for task in graph.tasks():
            succs = graph.successors(task)
            if len(succs) >= 2:
                costs = {graph.comm_cost(task, s) for s in succs}
                assert len(costs) == 1

    def test_realized_ccr_approximates_requested(self):
        for ccr in (1.0, 5.0):
            graph = generate_random_graph(
                GeneratorConfig(v=1000, ccr=ccr), np.random.default_rng(1)
            )
            comp = graph.cost_matrix().mean()
            comm = np.mean([e.cost for e in graph.edges()])
            assert comm / comp == pytest.approx(ccr, rel=0.25)

    def test_ccr_zero_means_free_communication(self, rng):
        graph = generate_random_graph(GeneratorConfig(v=50, ccr=0.0), rng)
        assert all(e.cost == 0.0 for e in graph.edges())


class TestDeterminism:
    def test_same_seed_same_graph(self):
        config = GeneratorConfig(v=80, ccr=2.0)
        a = generate_random_graph(config, np.random.default_rng(7))
        b = generate_random_graph(config, np.random.default_rng(7))
        assert a.n_edges == b.n_edges
        assert np.allclose(a.cost_matrix(), b.cost_matrix())
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        config = GeneratorConfig(v=80)
        a = generate_random_graph(config, np.random.default_rng(1))
        b = generate_random_graph(config, np.random.default_rng(2))
        assert not np.allclose(a.cost_matrix(), b.cost_matrix())


class TestSingleEntry:
    def test_single_entry_flag_forces_one_entry(self):
        for seed in range(8):
            graph = generate_random_graph(
                GeneratorConfig(v=60, alpha=1.5, single_entry=True),
                np.random.default_rng(seed),
            )
            assert len(graph.entry_tasks()) == 1
            validate_task_graph(graph, require_single_entry=True)

    def test_single_entry_preserves_task_count(self, rng):
        graph = generate_random_graph(
            GeneratorConfig(v=77, single_entry=True), rng
        )
        assert graph.n_tasks == 77

    def test_default_allows_multiple_entries(self):
        counts = [
            len(
                generate_random_graph(
                    GeneratorConfig(v=100, alpha=2.0),
                    np.random.default_rng(seed),
                ).entry_tasks()
            )
            for seed in range(6)
        ]
        assert max(counts) > 1

    def test_entry_has_real_costs(self, rng):
        graph = generate_random_graph(
            GeneratorConfig(v=60, single_entry=True), rng
        )
        # drawn from U(0, 2 W_dag): almost surely positive
        assert graph.cost_row(graph.entry_task).max() > 0


class TestWeightedSampler:
    """Oracle tests for the hoisted-CDF weighted sampler.

    ``_weighted_sample_noreplace`` re-implements
    ``Generator.choice(n, size=k, replace=False, p=w)`` so the per-source
    CDF can be shared across calls; it must consume the *exact* same
    random stream and return the *exact* same indices as the numpy
    original, or every downstream sweep result shifts.  It reads its
    uniforms from a :class:`_BufferedUniforms` block, which must leave
    the generator where ``choice`` leaves it once closed.
    """

    @staticmethod
    def _sample(rng, k, cdf, weights, block=None):
        """One buffered draw, closed: indices as a list."""
        from repro.generator.random_dag import (
            _BufferedUniforms,
            _weighted_sample_noreplace,
        )

        uniforms = _BufferedUniforms(rng, k if block is None else block)
        got = _weighted_sample_noreplace(
            uniforms, k, np.asarray(cdf).tolist(), np.asarray(weights).tolist()
        )
        uniforms.close()
        return got

    @staticmethod
    def _paired_rngs(state):
        a = np.random.default_rng()
        a.bit_generator.state = state
        b = np.random.default_rng()
        b.bit_generator.state = state
        return a, b

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_generator_choice_draw_exact(self, seed):
        outer = np.random.default_rng(seed)
        for _ in range(60):
            n = int(outer.integers(1, 12))
            k = int(outer.integers(1, n + 1))
            # cubed uniforms: heavily skewed weights force the
            # collision-retry branch of the rejection loop
            raw = outer.random(n) ** 3 + 1e-9
            weights = raw / raw.sum()
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            a, b = self._paired_rngs(outer.bit_generator.state)
            expected = a.choice(n, size=k, replace=False, p=weights)
            got = self._sample(b, k, cdf, weights)
            assert got == expected.tolist()
            # the streams must also END in the same place, else the
            # next draw in the generator diverges silently
            assert a.bit_generator.state == b.bit_generator.state
            outer = a

    def test_exhaustive_draw_with_near_degenerate_weights(self):
        """k == n with one dominant weight maximizes retry rounds."""
        n = 6
        weights = np.array([0.95, 0.01, 0.01, 0.01, 0.01, 0.01])
        weights /= weights.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for seed in range(30):
            state = np.random.default_rng(seed).bit_generator.state
            a, b = self._paired_rngs(state)
            expected = a.choice(n, size=n, replace=False, p=weights)
            got = self._sample(b, n, cdf, weights)
            assert got == expected.tolist()
            assert a.bit_generator.state == b.bit_generator.state

    def test_single_item_universe(self):
        weights = np.array([1.0])
        cdf = np.cumsum(weights)
        state = np.random.default_rng(3).bit_generator.state
        a, b = self._paired_rngs(state)
        expected = a.choice(1, size=1, replace=False, p=weights)
        got = self._sample(b, 1, cdf, weights)
        assert got == expected.tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_forced_retries_and_exhaustive_k_across_block_sizes(self, block):
        """Skewed weights force collision retries; ``k == len(pool)``
        takes every index; a block smaller than one draw tops up."""
        outer = np.random.default_rng(block)
        retried = 0
        for _ in range(200):
            n = int(outer.integers(2, 9))
            k = n if outer.random() < 0.5 else int(outer.integers(2, n + 1))
            raw = outer.random(n) ** 4 + 1e-12
            raw[int(outer.integers(n))] += 5.0  # one dominant weight
            weights = raw / raw.sum()
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            a, b = self._paired_rngs(outer.bit_generator.state)
            expected = a.choice(n, size=k, replace=False, p=weights)
            probe = np.random.default_rng()
            probe.bit_generator.state = outer.bit_generator.state
            first = np.searchsorted(cdf, probe.random(k), side="right")
            retried += len(set(first.tolist())) < k
            got = self._sample(b, k, cdf, weights, block=block)
            assert got == expected.tolist()
            assert a.bit_generator.state == b.bit_generator.state
            outer = a
        assert retried > 50  # the retry branch really ran

    def test_block_leaves_the_stream_for_later_draws(self):
        """An over-drawn block is given back: the next draw matches."""
        weights = np.full(4, 0.25)
        cdf = np.cumsum(weights)
        a, b = self._paired_rngs(np.random.default_rng(8).bit_generator.state)
        a.choice(4, size=2, replace=False, p=weights)
        self._sample(b, 2, cdf, weights, block=500)
        assert a.random() == b.random()


class TestHeterogeneityModels:
    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="heterogeneity"):
            GeneratorConfig(heterogeneity="weird")

    def test_consistent_matrix_is_rank_one(self, rng):
        graph = generate_random_graph(
            GeneratorConfig(v=50, heterogeneity="consistent"), rng
        )
        w = graph.cost_matrix()
        # every row is the same CPU-speed profile scaled by the task mean
        nonzero = w[:, 0] > 1e-12
        ratios = w[nonzero] / w[nonzero, :1]
        assert np.allclose(ratios, ratios[0])

    def test_consistent_cpus_are_totally_ordered(self, rng):
        graph = generate_random_graph(
            GeneratorConfig(v=40, heterogeneity="consistent", beta=1.6), rng
        )
        w = graph.cost_matrix()
        order = np.argsort(w[0])
        for row in w:
            assert list(np.argsort(row, kind="stable")) == list(order)

    def test_inconsistent_matrix_is_not_rank_one(self, rng):
        graph = generate_random_graph(
            GeneratorConfig(v=50, heterogeneity="inconsistent", beta=1.6), rng
        )
        w = graph.cost_matrix()
        nonzero = w[:, 0] > 1e-12
        ratios = w[nonzero] / w[nonzero, :1]
        assert not np.allclose(ratios, ratios[0])

    def test_consistent_graphs_schedule_fine(self, rng):
        from repro.core import HDLTS
        from repro.schedule.validation import validate_schedule

        graph = generate_random_graph(
            GeneratorConfig(v=40, heterogeneity="consistent"), rng
        ).normalized()
        validate_schedule(graph, HDLTS().run(graph).schedule)
