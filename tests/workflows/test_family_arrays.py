"""The FFT, Montage and MD factories draw the instances of a per-draw
``TaskGraph`` build, bit for bit.

The oracle is the build the factories replaced: a fresh topology,
realized task by task with ``add_task`` and edge by edge with
``add_edge`` (one scalar uniform draw per edge under
``randomize_comm``).  Every case compares ``w``, ``src``, ``dst``,
``cost`` and ``names`` byte for byte, raw and normalized, and the bit
generator's state after the draw.  The cache tests pin that the
factories share only frozen arrays: the public topology builders still
return fresh, mutable objects.
"""

import numpy as np
import pytest

from repro.experiments import graphspec
from repro.experiments.graphspec import GraphSpec
from repro.model.compiled import compile_instance
from repro.model.task_graph import GraphArrays, TaskGraph
from repro.workflows.fft import fft_topology
from repro.workflows.molecular import molecular_dynamics_topology
from repro.workflows.montage import montage_topology
from repro.workflows.topology import (
    Topology,
    draw_costs,
    realize_arrays,
    realize_topology,
)

SEEDS = (0, 1, 7)


def _oracle(
    topology: Topology,
    n_procs: int,
    rng: np.random.Generator,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
    randomize_comm: bool = False,
) -> TaskGraph:
    mean_costs, w = draw_costs(topology.n_tasks, n_procs, rng, w_dag, beta)
    graph = TaskGraph(n_procs)
    for tid in range(topology.n_tasks):
        name = topology.names[tid] if topology.names else None
        graph.add_task(w[tid], name=name)
    for src, dst in topology.edges:
        if randomize_comm:
            cost = float(rng.uniform(0.0, 2.0 * ccr * mean_costs[src]))
        else:
            cost = float(ccr * mean_costs[src])
        graph.add_edge(src, dst, cost)
    return graph


def _oracle_draw(factory: str, params: dict, x, rng) -> TaskGraph:
    """The factory's draw, built the way the factories used to."""
    p = dict(params)
    axis = p.pop("axis")
    p[axis] = int(x) if axis in ("m", "n_procs") else float(x)
    if factory == "fft":
        topology = fft_topology(p.get("m", 16))
    elif factory == "montage":
        sizes = p.get("sizes", (50, 100))
        topology = montage_topology(int(sizes[int(rng.integers(len(sizes)))]))
    else:
        topology = molecular_dynamics_topology()
    default_procs = 5 if factory == "montage" else 4
    return _oracle(
        topology, p.get("n_procs", default_procs), rng, ccr=p.get("ccr", 1.0)
    )


def _names(graph: TaskGraph):
    return tuple(graph.name(t) for t in graph.tasks())


def _assert_identical(drawn: GraphArrays, graph: TaskGraph) -> None:
    expected = graph.arrays()
    assert drawn.w.shape == expected.w.shape
    for field in ("w", "src", "dst", "cost"):
        got, want = getattr(drawn, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field
    # ``names`` holds the trailing names; the rest are ``T<id + 1>``
    trailing = drawn.names or ()
    lead = len(drawn.w) - len(trailing)
    full = tuple(f"T{i + 1}" for i in range(lead)) + trailing
    assert full == _names(graph)


FFT_CASES = (
    [({"axis": "m", "n_procs": 4, "ccr": 1.0}, m) for m in (4, 8, 16, 32)]
    + [({"axis": "ccr", "m": 16, "n_procs": 4}, c) for c in (0.0, 1.0, 2.5, 5.0)]
    + [({"axis": "n_procs", "m": 16, "ccr": 3.0}, p) for p in (2, 4, 10)]
)
MONTAGE_CASES = [
    ({"axis": "ccr", "sizes": [50], "n_procs": 5}, 2.0),
    ({"axis": "ccr", "sizes": [100], "n_procs": 5}, 4.0),
    ({"axis": "ccr", "sizes": [50, 100], "n_procs": 5}, 1.0),
    ({"axis": "n_procs", "sizes": [50, 100], "ccr": 3.0}, 8),
]
MOLECULAR_CASES = [
    ({"axis": "ccr", "n_procs": 4}, c) for c in (1.0, 5.0)
] + [({"axis": "n_procs", "ccr": 3.0}, p) for p in (2, 10)]

CASES = (
    [("fft", params, x) for params, x in FFT_CASES]
    + [("montage", params, x) for params, x in MONTAGE_CASES]
    + [("molecular", params, x) for params, x in MOLECULAR_CASES]
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "factory,params,x", CASES,
    ids=[f"{f}-{p['axis']}-{x}" for f, p, x in CASES],
)
def test_factory_draw_matches_task_graph_oracle(factory, params, x, seed):
    spec = GraphSpec(factory, params)
    rng = np.random.default_rng([seed, 3, 1])
    oracle_rng = np.random.default_rng([seed, 3, 1])
    drawn = spec._draw(x, rng)
    graph = _oracle_draw(factory, params, x, oracle_rng)
    assert isinstance(drawn, GraphArrays)
    _assert_identical(drawn, graph)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    # normalized: the pseudo entry/exit rows and edges of the object form
    normalized = graph.normalized()
    _assert_identical(drawn.normalized(), normalized)
    # compiled: the instance the harness carries, from either source
    instance = spec.instance(x, np.random.default_rng([seed, 3, 1]))
    reference = compile_instance(graph)
    for name in (
        "w", "succ_indptr", "succ_ids", "succ_costs", "pred_indptr",
        "pred_ids", "pred_costs", "topo", "entry_ids", "exit_ids",
    ):
        got, want = getattr(instance, name), getattr(reference, name)
        assert got.tobytes() == want.tobytes(), name


TOPOLOGIES = {
    "fft4": lambda: fft_topology(4),
    "fft32": lambda: fft_topology(32),
    "montage50": lambda: montage_topology(50),
    "montage100": lambda: montage_topology(100),
    "molecular": molecular_dynamics_topology,
    "unnamed": lambda: Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
}


@pytest.mark.parametrize("randomize_comm", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("which", sorted(TOPOLOGIES))
def test_realization_matches_oracle(which, seed, randomize_comm):
    topology = TOPOLOGIES[which]()
    kwargs = dict(ccr=2.5, beta=0.5, w_dag=20.0, randomize_comm=randomize_comm)
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    drawn = realize_arrays(topology.arrays(), 3, rng=rng, **kwargs)
    graph = _oracle(topology, 3, oracle_rng, **kwargs)
    _assert_identical(drawn, graph)
    _assert_identical(drawn.normalized(), graph.normalized())
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # the TaskGraph form is the same draw
    again = realize_topology(
        topology, 3, rng=np.random.default_rng(seed), **kwargs
    )
    _assert_identical(again.arrays(), graph)


def test_realization_keeps_validation():
    topology = fft_topology(4)
    with pytest.raises(ValueError, match="ccr"):
        realize_arrays(topology.arrays(), 2, np.random.default_rng(0), ccr=-1.0)
    with pytest.raises(ValueError, match="finite"):
        realize_arrays(
            topology.arrays(), 2, np.random.default_rng(0), ccr=float("nan")
        )
    with pytest.raises(ValueError, match="n_procs"):
        realize_arrays(topology.arrays(), 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="beta"):
        realize_arrays(topology.arrays(), 2, np.random.default_rng(0), beta=3.0)
    with pytest.raises(ValueError, match="w_dag"):
        realize_arrays(topology.arrays(), 2, np.random.default_rng(0), w_dag=0)


# ----------------------------------------------------------------------
# the structure cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "family,args", [("fft", (16,)), ("montage", (50,)), ("molecular", ())]
)
def test_cached_structure_is_read_only(family, args):
    structure = graphspec._structure(family, *args)
    assert graphspec._structure(family, *args) is structure
    for array in (structure.src, structure.dst):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert isinstance(structure.names, tuple)


@pytest.mark.parametrize(
    "build", [lambda: fft_topology(16), lambda: montage_topology(50),
              molecular_dynamics_topology],
    ids=["fft", "montage", "molecular"],
)
def test_builders_still_return_fresh_topologies(build):
    first, second = build(), build()
    assert first is not second
    assert first.edges is not second.edges
    assert first.edges == second.edges


@pytest.mark.parametrize(
    "spec,x,build",
    [
        (GraphSpec("fft", {"axis": "ccr", "m": 16}), 2.0,
         lambda: fft_topology(16)),
        (GraphSpec("montage", {"axis": "ccr", "sizes": [50]}), 2.0,
         lambda: montage_topology(50)),
        (GraphSpec("molecular", {"axis": "ccr"}), 2.0,
         molecular_dynamics_topology),
    ],
    ids=["fft", "montage", "molecular"],
)
def test_mutating_a_returned_topology_leaves_draws_alone(spec, x, build):
    before = spec.instance(x, np.random.default_rng(5))
    topology = build()
    topology.edges.reverse()
    topology.edges.pop()
    topology.names[0] = "mutated"
    after = spec.instance(x, np.random.default_rng(5))
    for name in ("w", "succ_ids", "succ_costs", "pred_ids", "topo"):
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes()
    assert after.graph.name(0) == before.graph.name(0) != "mutated"
    drawn = spec._draw(x, np.random.default_rng(5))
    assert not drawn.src.flags.writeable and not drawn.dst.flags.writeable
