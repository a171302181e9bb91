"""The random generator's array route against the object route it replaced.

The generator emits ``W`` and the edge arrays
(:meth:`RandomDAGGenerator.arrays`), normalization appends the pseudo
tasks as arrays (:meth:`GraphArrays.normalized`) and
:class:`CompiledGraph` compiles them with stable sorts and a port of
the LIFO Kahn walk.  The helpers below copy the route
the sweep harness took before: per-source ``Generator.choice``-exact
sampling on numpy arrays, a ``TaskGraph`` per draw, object-form
normalization, and CSR walked out of the adjacency lists.  For every
configuration and every random factory, the compiled arrays must be
byte-identical and the bit generator must end in the same state.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.graphspec import GraphSpec
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import RandomDAGGenerator
from repro.model.task_graph import TaskGraph

# ----------------------------------------------------------------------
# the object route, as it was
# ----------------------------------------------------------------------


def _sample_noreplace(rng, k, cdf, weights):
    found = np.zeros(k, dtype=np.int64)
    n_uniq = 0
    p = None
    while n_uniq < k:
        x = rng.random((k - n_uniq,))
        if n_uniq > 0:
            if p is None:
                p = weights.copy()
            p[found[0:n_uniq]] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
        new = cdf.searchsorted(x, side="right")
        lst = new.tolist()
        if len(set(lst)) != len(lst):
            seen: set = set()
            kept = [v for v in lst if not (v in seen or seen.add(v))]
            new = np.array(kept, dtype=np.int64)
        found[n_uniq:n_uniq + new.size] = new
        n_uniq += new.size
    return found


def _edges(levels, density, rng) -> List[Tuple[int, int]]:
    edges: List[Tuple[int, int]] = []
    seen = set()
    for li in range(len(levels) - 1):
        pool = list(levels[li + 1])
        for deeper in levels[li + 2 : li + 4]:
            pool.extend(deeper)
        k = min(density, len(pool))
        if k == 0:
            continue
        next_n = len(levels[li + 1])
        weights = np.full(len(pool), 0.2 / max(1, len(pool) - next_n))
        weights[:next_n] = 0.8 / next_n
        weights /= weights.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for src in levels[li]:
            for t in _sample_noreplace(rng, k, cdf, weights).tolist():
                key = (src, pool[t])
                if key not in seen:
                    seen.add(key)
                    edges.append(key)
    has_parent = {dst for _, dst in seen}
    for li in range(1, len(levels)):
        for dst in levels[li]:
            if dst not in has_parent:
                key = (int(rng.choice(levels[li - 1])), dst)
                if key not in seen:
                    seen.add(key)
                    edges.append(key)
                has_parent.add(dst)
    return edges


def _object_graph(cfg: GeneratorConfig, rng, structure_rng=None) -> TaskGraph:
    structure_rng = rng if structure_rng is None else structure_rng
    sizes = RandomDAGGenerator(cfg).level_sizes(structure_rng)
    levels, next_id = [], 0
    for width in sizes:
        levels.append(list(range(next_id, next_id + width)))
        next_id += width
    edge_list = _edges(levels, cfg.density, structure_rng)
    mean_costs = rng.uniform(0.0, 2.0 * cfg.w_dag, size=cfg.v)
    if cfg.heterogeneity == "consistent":
        factors = rng.uniform(
            1.0 - cfg.beta / 2.0, 1.0 + cfg.beta / 2.0, size=cfg.n_procs
        )
        w = mean_costs[:, None] * factors[None, :]
    else:
        low = mean_costs * (1.0 - cfg.beta / 2.0)
        high = mean_costs * (1.0 + cfg.beta / 2.0)
        w = rng.uniform(low[:, None], high[:, None], size=(cfg.v, cfg.n_procs))
    graph = TaskGraph(cfg.n_procs)
    for row in w:
        graph.add_task(row)
    for src, dst in edge_list:
        graph.add_edge(src, dst, float(mean_costs[src] * cfg.ccr))
    return graph


def _object_normalized(graph: TaskGraph) -> TaskGraph:
    entries, exits = graph.entry_tasks(), graph.exit_tasks()
    if len(entries) == 1 and len(exits) == 1:
        return graph
    out = TaskGraph(graph.n_procs)
    for t in graph.tasks():
        out.add_task(graph.cost_row(t), name=graph.name(t))
    for edge in graph.edges():
        out.add_edge(edge.src, edge.dst, edge.cost)
    if len(entries) > 1:
        pseudo = out.add_task(np.zeros(graph.n_procs), name="pseudo_entry")
        for t in entries:
            out.add_edge(pseudo, t, 0.0)
    if len(exits) > 1:
        pseudo = out.add_task(np.zeros(graph.n_procs), name="pseudo_exit")
        for t in exits:
            out.add_edge(t, pseudo, 0.0)
    return out


def _object_csr(graph: TaskGraph, forward: bool):
    rows = [graph.successors(t) if forward else graph.predecessors(t)
            for t in graph.tasks()]
    indptr = np.zeros(graph.n_tasks + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    ids = [o for r in rows for o in r]
    costs = [
        graph.comm_cost(t, o) if forward else graph.comm_cost(o, t)
        for t, r in enumerate(rows)
        for o in r
    ]
    return indptr, np.asarray(ids, dtype=np.intp), np.asarray(costs, dtype=float)


def _object_arrays(graph: TaskGraph):
    """The compiled arrays, walked out of the object graph."""
    succ = _object_csr(graph, forward=True)
    pred = _object_csr(graph, forward=False)
    topo = np.asarray(graph.topological_order(), dtype=np.intp)
    return {
        "w": graph.cost_matrix() if graph.n_tasks else np.zeros((0, graph.n_procs)),
        "succ_indptr": succ[0], "succ_ids": succ[1], "succ_costs": succ[2],
        "pred_indptr": pred[0], "pred_ids": pred[1], "pred_costs": pred[2],
        "topo": topo,
        "entry_ids": np.asarray(graph.entry_tasks(), dtype=np.intp),
        "exit_ids": np.asarray(graph.exit_tasks(), dtype=np.intp),
    }


def _assert_same_instance(compiled, graph: TaskGraph) -> None:
    for name, expected in _object_arrays(graph).items():
        got = getattr(compiled, name)
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    rebuilt = compiled.graph
    assert [rebuilt.name(t) for t in rebuilt.tasks()] == [
        graph.name(t) for t in graph.tasks()
    ]
    assert list(rebuilt.edges()) == list(graph.edges())


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------

configs = st.builds(
    GeneratorConfig,
    v=st.integers(1, 60),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]),
    # up to 12 out-edges: often more than a level's whole candidate pool
    density=st.integers(1, 12),
    ccr=st.sampled_from([0.1, 1.0, 5.0]),
    n_procs=st.integers(1, 6),
    beta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    single_entry=st.booleans(),
    heterogeneity=st.sampled_from(["inconsistent", "consistent"]),
)
seeds = st.integers(0, 2**32 - 1)


def _params(cfg: GeneratorConfig, axis: str):
    params = asdict(cfg)
    x = params.pop(axis)
    return x, params


@settings(max_examples=60, deadline=None)
@given(cfg=configs, seed=seeds)
def test_random_factory_matches_the_object_route(cfg, seed):
    x, params = _params(cfg, "ccr")
    spec = GraphSpec("random", {"axis": "ccr", **params})
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    compiled = spec.instance(x, rng)
    graph = _object_normalized(_object_graph(cfg, oracle_rng))
    _assert_same_instance(compiled, graph)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(cfg=configs, seed=seeds, structure_seed=st.integers(0, 1000))
def test_fixed_shape_factory_matches_the_object_route(cfg, seed, structure_seed):
    x, params = _params(cfg, "v")
    spec = GraphSpec(
        "random-fixed",
        {"axis": "v", "structure_seed": structure_seed, **params},
    )
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    compiled = spec.instance(x, rng)
    graph = _object_normalized(
        _object_graph(cfg, oracle_rng, np.random.default_rng(structure_seed))
    )
    _assert_same_instance(compiled, graph)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(cfgs=st.lists(configs, min_size=1, max_size=3), seed=seeds, data=st.data())
def test_table2_factory_matches_the_object_route(cfgs, seed, data):
    index = data.draw(st.integers(0, len(cfgs) - 1))
    spec = GraphSpec("table2", {"configs": [asdict(c) for c in cfgs]})
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    compiled = spec.instance(index, rng)
    graph = _object_normalized(_object_graph(cfgs[index], oracle_rng))
    _assert_same_instance(compiled, graph)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("factory", ["random", "random-fixed", "table2"])
def test_build_returns_the_graph_of_the_same_draws(factory):
    """``GraphSpec.build`` (the public ``TaskGraph`` route) derives its
    graph from the same arrays the instance compiles."""
    cfg = GeneratorConfig(v=30, density=4)
    if factory == "table2":
        spec, x = GraphSpec("table2", {"configs": [asdict(cfg)]}), 0
    else:
        x, params = _params(cfg, "ccr")
        spec = GraphSpec(factory, {"axis": "ccr", **params})
    graph = spec.build(x, np.random.default_rng(4))
    expected = _object_graph(
        cfg,
        np.random.default_rng(4),
        np.random.default_rng(0) if factory == "random-fixed" else None,
    )
    assert list(graph.edges()) == list(expected.edges())
    assert np.array_equal(graph.cost_matrix(), expected.cost_matrix())
