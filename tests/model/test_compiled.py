"""Unit tests for the compiled CSR graph view and its artifact cache."""

import gc
import weakref

import numpy as np
import pytest

from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.model.compiled import CompiledGraph, compile_graph
from repro.model.ranking import (
    downward_rank_reference,
    optimistic_cost_table_reference,
    upward_rank_reference,
)
from repro.model.task_graph import TaskGraph


def random_graph(seed, v=60, ccr=2.0, **kw):
    return generate_random_graph(
        GeneratorConfig(v=v, ccr=ccr, **kw), np.random.default_rng(seed)
    )


class TestStructure:
    def test_w_matches_cost_matrix_and_is_readonly(self, fig1):
        compiled = compile_graph(fig1)
        assert np.array_equal(compiled.w, fig1.cost_matrix())
        assert not compiled.w.flags.writeable
        assert compiled.w_rows == fig1.cost_matrix().tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_csr_mirrors_adjacency_in_insertion_order(self, seed):
        graph = random_graph(seed)
        compiled = compile_graph(graph)
        for task in graph.tasks():
            ids, costs = compiled.succ_slice(task)
            assert tuple(ids.tolist()) == graph.successors(task)
            assert costs.tolist() == [
                graph.comm_cost(task, s) for s in graph.successors(task)
            ]
            pids, pcosts = compiled.pred_slice(task)
            assert tuple(pids.tolist()) == graph.predecessors(task)
            assert pcosts.tolist() == [
                graph.comm_cost(p, task) for p in graph.predecessors(task)
            ]

    def test_pred_lists_mirror_csr(self, fig1):
        compiled = compile_graph(fig1)
        for task in fig1.tasks():
            ids, costs = compiled.pred_slice(task)
            mids, mcosts = compiled.pred_lists[task]
            assert mids == ids.tolist()
            assert mcosts == costs.tolist()

    def test_topo_and_terminals(self, fig1):
        compiled = compile_graph(fig1)
        assert tuple(compiled.topo.tolist()) == fig1.topological_order()
        assert tuple(compiled.entry_ids.tolist()) == fig1.entry_tasks()
        assert tuple(compiled.exit_ids.tolist()) == fig1.exit_tasks()
        pos = compiled.topo_position
        for rank_pos, task in enumerate(fig1.topological_order()):
            assert pos[task] == rank_pos

    def test_arrays_are_readonly(self, fig1):
        compiled = compile_graph(fig1)
        for arr in (
            compiled.succ_indptr,
            compiled.succ_ids,
            compiled.succ_costs,
            compiled.pred_indptr,
            compiled.pred_ids,
            compiled.pred_costs,
            compiled.topo,
            compiled.topo_position,
            compiled.entry_ids,
            compiled.exit_ids,
        ):
            assert not arr.flags.writeable

    def test_single_task_graph(self):
        graph = TaskGraph(3)
        graph.add_task([1, 2, 3])
        compiled = compile_graph(graph)
        assert compiled.n_tasks == 1
        assert compiled.succ_ids.size == 0
        assert compiled.upward_rank().tolist() == [2.0]
        assert compiled.downward_rank().tolist() == [0.0]
        assert compiled.oct_table().tolist() == [[0.0, 0.0, 0.0]]
        assert compiled.sequential_time() == 1.0


class TestArtifactCache:
    def test_compile_graph_is_cached_per_instance(self, fig1):
        assert compile_graph(fig1) is compile_graph(fig1)

    def test_mutation_invalidates_compiled_view(self, fig1):
        before = compile_graph(fig1)
        task = fig1.add_task([1.0, 1.0, 1.0])
        fig1.add_edge(9, task, 0.5)
        after = compile_graph(fig1)
        assert after is not before
        assert after.n_tasks == before.n_tasks + 1

    def test_artifacts_are_shared_objects(self, fig1):
        compiled = compile_graph(fig1)
        assert compiled.upward_rank() is compiled.upward_rank()
        assert compiled.downward_rank() is compiled.downward_rank()
        assert compiled.oct_table() is compiled.oct_table()
        assert compiled.oct_rank() is compiled.oct_rank()
        assert compiled.mean_costs() is compiled.mean_costs()
        assert compiled.std_costs() is compiled.std_costs()

    def test_explicit_weights_bypass_cache(self, fig1):
        compiled = compile_graph(fig1)
        weights = compiled.std_costs()
        a = compiled.upward_rank(weights)
        b = compiled.upward_rank(weights)
        assert a is not b
        assert np.array_equal(a, b)

    def test_mean_and_std_match_matrix(self, fig1):
        compiled = compile_graph(fig1)
        w = fig1.cost_matrix()
        assert np.array_equal(compiled.mean_costs(), w.mean(axis=1))
        assert np.array_equal(compiled.std_costs(), w.std(axis=1, ddof=1))

    def test_std_collapses_with_single_cpu(self):
        graph = TaskGraph(1)
        graph.add_task([5.0])
        graph.add_task([7.0])
        assert compile_graph(graph).std_costs().tolist() == [0.0, 0.0]

    def test_sequential_time_is_best_column(self, fig1):
        compiled = compile_graph(fig1)
        assert compiled.sequential_time() == float(
            fig1.cost_matrix().sum(axis=0).min()
        )

    def test_cp_min_matches_reference(self):
        from repro.metrics.critical_path import critical_path_min

        for seed in range(4):
            graph = random_graph(seed, v=40)
            reference = critical_path_min(graph)[0]
            assert compile_graph(graph).cp_min_bound() == reference


class TestKernelsBitIdentical:
    """The level-batched kernels against the per-node recursions."""

    def graphs(self):
        yield "fig1", __import__(
            "repro.workflows.paper_example", fromlist=["paper_example_graph"]
        ).paper_example_graph()
        for seed in range(6):
            # alternate shape / ccr / heterogeneity; include multi-entry
            yield f"random-{seed}", random_graph(
                seed,
                v=30 + 25 * seed,
                ccr=(0.5, 3.0)[seed % 2],
                alpha=(0.8, 2.0)[seed % 2],
            )

    def test_upward_rank(self):
        for label, graph in self.graphs():
            compiled = compile_graph(graph)
            expected = upward_rank_reference(graph)
            assert np.array_equal(compiled.upward_rank(), expected), label

    def test_upward_rank_custom_weights(self):
        for label, graph in self.graphs():
            compiled = compile_graph(graph)
            weights = np.asarray(compiled.std_costs())
            expected = upward_rank_reference(graph, weights)
            assert np.array_equal(
                compiled.upward_rank(weights), expected
            ), label

    def test_downward_rank(self):
        for label, graph in self.graphs():
            compiled = compile_graph(graph)
            expected = downward_rank_reference(graph)
            assert np.array_equal(compiled.downward_rank(), expected), label

    def test_oct_table(self):
        for label, graph in self.graphs():
            compiled = compile_graph(graph)
            expected = optimistic_cost_table_reference(graph)
            assert np.array_equal(compiled.oct_table(), expected), label

    def test_oct_rank_is_row_mean(self, fig1):
        compiled = compile_graph(fig1)
        assert np.array_equal(
            compiled.oct_rank(), compiled.oct_table().mean(axis=1)
        )


class TestLifetime:
    """The compiled view holds its graph weakly: no reference cycle."""

    def test_dropping_the_graph_frees_it_without_the_cyclic_gc(self):
        graph = random_graph(3, v=30)
        compiled = compile_graph(graph)
        compiled.upward_rank()  # populate the artifact cache too
        graph_ref = weakref.ref(graph)
        compiled_ref = weakref.ref(compiled)
        del compiled
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert graph_ref() is None
            assert compiled_ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_graph_property_rebuilds_once_the_graph_is_freed(self, fig1):
        graph = fig1.normalized()
        compiled = CompiledGraph(graph)
        assert compiled.graph is graph
        names = [graph.name(t) for t in graph.tasks()]
        edges = list(graph.edges())
        rows = graph.cost_matrix()
        del graph
        gc.collect()
        rebuilt = compiled.graph
        assert compile_graph(rebuilt) is compiled
        assert [rebuilt.name(t) for t in rebuilt.tasks()] == names
        assert list(rebuilt.edges()) == edges
        assert np.array_equal(rebuilt.cost_matrix(), rows)
        assert compiled.graph is rebuilt  # held while the caller holds it

    def test_array_built_graph_is_lazy_shared_and_acyclic(self):
        compiled = CompiledGraph(random_graph(5, v=20).arrays())
        assert compiled._graph is None  # no TaskGraph until asked
        compiled.prime_cp_min_bound(1.5)
        graph = compiled.graph
        assert compile_graph(graph) is compiled
        assert graph.topological_order() == tuple(compiled.topo.tolist())
        assert compile_graph(graph).cp_min_bound() == 1.5
        graph_ref = weakref.ref(graph)
        compiled_ref = weakref.ref(compiled)
        del compiled
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert graph_ref() is None
            assert compiled_ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestConstructionPaths:
    @pytest.mark.parametrize("seed", range(6))
    def test_array_constructor_matches_graph_constructor(self, seed):
        graph = random_graph(seed, v=40, density=4).normalized()
        a, b = CompiledGraph(graph), CompiledGraph(graph.arrays())
        for name in (
            "w", "succ_indptr", "succ_ids", "succ_costs", "pred_indptr",
            "pred_ids", "pred_costs", "topo", "topo_position", "entry_ids",
            "exit_ids",
        ):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.w_rows == b.w_rows
        assert a.pred_lists == b.pred_lists

    def test_scalar_mirrors_are_built_on_first_use(self):
        compiled = CompiledGraph(random_graph(2, v=15).arrays())
        assert "w_rows" not in vars(compiled)
        assert "pred_lists" not in vars(compiled)
        assert compiled.w_rows == compiled.w.tolist()
        assert "w_rows" in vars(compiled)

    def test_array_constructor_rejects_a_cycle(self):
        from repro.model.task_graph import GraphArrays

        cyclic = GraphArrays(
            np.ones((2, 1)), np.array([0, 1]), np.array([1, 0]), np.ones(2)
        )
        with pytest.raises(ValueError, match="cycle"):
            CompiledGraph(cyclic)

    def test_compiled_instance_compiles_to_itself(self, fig1):
        compiled = compile_graph(fig1)
        assert compile_graph(compiled) is compiled

    def test_direct_constructor_matches_cached_view(self, fig1):
        direct = CompiledGraph(fig1)
        cached = compile_graph(fig1)
        assert np.array_equal(direct.w, cached.w)
        assert np.array_equal(direct.succ_ids, cached.succ_ids)
        assert np.array_equal(direct.succ_costs, cached.succ_costs)

    def test_bulk_built_graph(self):
        """Graphs assembled through ``TaskGraph._bulk`` (the generator
        path) compile identically to incrementally-built ones."""
        bulk = random_graph(11, v=25)
        manual = TaskGraph(bulk.n_procs)
        for task in bulk.tasks():
            manual.add_task(list(bulk.cost_row(task)))
        for edge in bulk.edges():
            manual.add_edge(edge.src, edge.dst, edge.cost)
        a, b = compile_graph(bulk), compile_graph(manual)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.succ_indptr, b.succ_indptr)
        assert np.array_equal(a.succ_ids, b.succ_ids)
        assert np.array_equal(a.succ_costs, b.succ_costs)
        assert np.array_equal(a.upward_rank(), b.upward_rank())
