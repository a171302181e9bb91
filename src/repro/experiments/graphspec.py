"""Declarative graph specs: the one graph factory a sweep carries.

A :class:`GraphSpec` is a graph factory as *data*: the name of a
registered factory plus its keyword parameters.  Specs pickle,
serialize to JSON, ship to ``spawn``/``forkserver`` workers, and
rebuild bit-identical graphs anywhere, so every
:class:`~repro.experiments.harness.SweepDefinition` can run in a
worker pool, a campaign shard or the service.

Factories receive ``(x, rng, **params)`` where ``x`` is the sweep's
current x-axis value; the ``axis`` parameter names which knob ``x``
drives (``"ccr"``, ``"v"``, ``"n_procs"``, ``"m"``, ...).  A factory
returns the array form of a task graph
(:class:`~repro.model.task_graph.GraphArrays`).
:meth:`GraphSpec.build` turns the arrays into a graph, while
:meth:`GraphSpec.instance` compiles them straight into the normalized
:class:`~repro.model.compiled.CompiledGraph` the sweep harness
carries, without a ``TaskGraph``.  The factories with a fixed
structure -- ``random-fixed`` (one per structure seed and shape
parameters) and the workflow families (``fft``, ``montage``,
``molecular``, one per parameter set) -- draw, normalize and compile
it once per process into a read-only
:class:`~repro.model.compiled.GraphStructure` and hand it back with
each draw (``GraphArrays.structure``): each replication draws only its
costs, and every instance and batch lane shares the structure.  Axis
values are cast to ``int`` for counts and ``float`` otherwise, so a
``"random"`` spec makes the same draws as
``generate_random_graph(config.with_(axis=float(x)), rng)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import RandomDAGGenerator
from repro.model.compiled import CompiledGraph, GraphStructure, compile_instance
from repro.model.task_graph import GraphArrays, TaskGraph
from repro.workflows.fft import fft_topology
from repro.workflows.molecular import molecular_dynamics_topology
from repro.workflows.montage import montage_topology
from repro.workflows.topology import TopologyArrays, realize_arrays

__all__ = [
    "GraphSpec",
    "register_graph_factory",
    "graph_factory_names",
]

GraphFactoryFn = Callable[..., GraphArrays]

_FACTORIES: Dict[str, GraphFactoryFn] = {}

#: axes cast to int (counts); every other axis is cast to float
_INT_AXES = frozenset({"v", "n_procs", "density", "m"})


def _cast_axis(axis: str, x) -> object:
    """Cast an x-axis value: ``int`` for counts, ``float`` otherwise."""
    return int(x) if axis in _INT_AXES else float(x)


def register_graph_factory(name: str) -> Callable[[GraphFactoryFn], GraphFactoryFn]:
    """Register ``fn(x, rng, **params)`` under ``name``; it returns a
    :class:`GraphArrays`."""

    def decorate(fn: GraphFactoryFn) -> GraphFactoryFn:
        if name in _FACTORIES:
            raise ValueError(f"graph factory {name!r} already registered")
        _FACTORIES[name] = fn
        return fn

    return decorate


def graph_factory_names() -> Tuple[str, ...]:
    """Names of every registered graph factory."""
    return tuple(_FACTORIES)


@dataclass(frozen=True)
class GraphSpec:
    """A graph factory as data: registered name + JSON-able parameters."""

    factory: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # copy defensively; specs are treated as immutable values
        object.__setattr__(self, "params", dict(self.params))

    def _draw(self, x, rng: np.random.Generator) -> GraphArrays:
        try:
            fn = _FACTORIES[self.factory]
        except KeyError:
            known = ", ".join(_FACTORIES) or "(none)"
            raise KeyError(
                f"unknown graph factory {self.factory!r}; known: {known}"
            ) from None
        return fn(x, rng, **self.params)

    def build(self, x, rng: np.random.Generator) -> TaskGraph:
        """Materialize the graph for x-axis value ``x``."""
        return self._draw(x, rng).to_graph()

    def instance(self, x, rng: np.random.Generator) -> CompiledGraph:
        """The normalized, compiled instance for ``x`` (the same draws
        as :meth:`build`)."""
        return compile_instance(self._draw(x, rng))

    def to_dict(self) -> Dict[str, object]:
        """Manifest form: ``{"factory": ..., "params": {...}}``."""
        return {"factory": self.factory, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GraphSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            factory=str(data["factory"]), params=dict(data.get("params", {}))
        )


# ----------------------------------------------------------------------
# the built-in factories (everything the paper's figures need)
# ----------------------------------------------------------------------
@register_graph_factory("random")
def _random_graph(x, rng, *, axis: str, **config) -> GraphArrays:
    """Table II random DAG with ``axis`` driven by the x value.

    ``config`` holds :class:`GeneratorConfig` field overrides (the
    figure's fixed parameters); the swept axis is applied on top.
    """
    base = GeneratorConfig(**config)
    return RandomDAGGenerator(base.with_(**{axis: _cast_axis(axis, x)})).arrays(
        rng
    )


@lru_cache(maxsize=16)
def _random_structure(
    v: int, alpha: float, density: int, single_entry: bool, structure_seed: int
) -> GraphStructure:
    """The read-only structure ``random-fixed`` draws from
    ``default_rng(structure_seed)``, drawn and compiled once per key in
    a process.  The key holds every generator field the structure draw
    reads."""
    config = GeneratorConfig(
        v=v, alpha=alpha, density=density, single_entry=single_entry
    )
    src, dst = RandomDAGGenerator(config).structure(
        np.random.default_rng(structure_seed)
    )
    return GraphStructure(v, src, dst)


@register_graph_factory("random-fixed")
def _random_fixed_graph(
    x, rng, *, axis: str, structure_seed: int = 0, **config
) -> GraphArrays:
    """Table II random DAG with a *fixed* structure per x point.

    Like ``"random"``, but level shape and edge wiring come from a
    dedicated generator seeded with ``structure_seed``, so every
    replication of one x point shares one DAG shape while the cost
    draws stay independent streams of ``rng``: a fig2-style sweep whose
    batched-kernel lanes all share one structure.  The structure is
    drawn and compiled once (:func:`_random_structure`); each
    replication draws only its costs.
    """
    cfg = GeneratorConfig(**config).with_(**{axis: _cast_axis(axis, x)})
    shape = _random_structure(
        cfg.v, cfg.alpha, cfg.density, cfg.single_entry, structure_seed
    )
    w, cost = RandomDAGGenerator(cfg).costs(rng, shape.src)
    return GraphArrays(w, shape.src, shape.dst, cost, None, shape)


@register_graph_factory("table2")
def _table2_graph(x, rng, *, configs) -> GraphArrays:
    """One sampled Table II configuration per x value.

    ``configs`` is a list of :class:`GeneratorConfig` field dicts (as
    produced by :func:`repro.experiments.grid.sample_configs` +
    ``dataclasses.asdict``) and ``x`` indexes into it -- which turns
    the paper's factorial protocol into an ordinary sweep definition
    that serializes into run manifests and campaign specs.
    """
    config = GeneratorConfig(**configs[int(x)])
    return RandomDAGGenerator(config).arrays(rng)


def _topology_params(x, axis: str, fixed: Dict[str, object]) -> Dict[str, object]:
    params = dict(fixed)
    params[axis] = _cast_axis(axis, x)
    return params


@lru_cache(maxsize=64)
def _structure(family: str, *args) -> TopologyArrays:
    """The read-only edge arrays of one workflow structure, built (and
    validated) once per ``(family, args)`` in a process, with the
    compiled :class:`GraphStructure` every draw on it shares.

    The public builders return a fresh, mutable :class:`Topology` per
    call; only their frozen arrays are cached, so mutating a returned
    topology cannot leak into a later draw.
    """
    build = {
        "fft": fft_topology,
        "montage": montage_topology,
        "molecular": molecular_dynamics_topology,
    }[family]
    topology = build(*args).arrays()
    return topology._replace(
        compiled=GraphStructure(topology.n_tasks, topology.src, topology.dst)
    )


@register_graph_factory("fft")
def _fft_graph(
    x,
    rng,
    *,
    axis: str,
    m: int = 16,
    n_procs: int = 4,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
) -> GraphArrays:
    """FFT butterfly workflow as :class:`GraphArrays`: the ``m``-point
    structure (built once) with freshly drawn costs; ``axis`` in
    {"m", "n_procs", "ccr"}."""
    p = _topology_params(
        x, axis, {"m": m, "n_procs": n_procs, "ccr": ccr}
    )
    return realize_arrays(
        _structure("fft", p["m"]), p["n_procs"], rng=rng,
        ccr=p["ccr"], beta=beta, w_dag=w_dag,
    )


@register_graph_factory("montage")
def _montage_graph(
    x,
    rng,
    *,
    axis: str,
    sizes=(50, 100),
    n_procs: int = 5,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
) -> GraphArrays:
    """Montage mosaic workflow as :class:`GraphArrays`, drawing the
    structure size per instance.

    The size draw comes *before* the cost draws (then the same draws as
    ``montage_workflow(size, ...)``); each size's structure is built
    once.
    """
    p = _topology_params(x, axis, {"n_procs": n_procs, "ccr": ccr})
    size = sizes[int(rng.integers(len(sizes)))]
    return realize_arrays(
        _structure("montage", int(size)), p["n_procs"], rng=rng,
        ccr=p["ccr"], beta=beta, w_dag=w_dag,
    )


@register_graph_factory("molecular")
def _molecular_graph(
    x,
    rng,
    *,
    axis: str,
    n_procs: int = 4,
    ccr: float = 1.0,
    beta: float = 1.0,
    w_dag: float = 50.0,
) -> GraphArrays:
    """The fixed 41-task molecular-dynamics workflow as
    :class:`GraphArrays`: the structure (built once) with freshly drawn
    costs."""
    p = _topology_params(x, axis, {"n_procs": n_procs, "ccr": ccr})
    return realize_arrays(
        _structure("molecular"), p["n_procs"], rng=rng,
        ccr=p["ccr"], beta=beta, w_dag=w_dag,
    )
