"""Unit tests for the sweep harness."""

import json

import numpy as np
import pytest

from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import (
    SweepDefinition,
    run_points,
    run_replications,
    run_sweep,
)
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.model.compiled import compile_instance


def tiny_sweep(metric="slr", schedulers=("HDLTS", "HEFT")) -> SweepDefinition:
    """Two-point, two-scheduler sweep used across the experiment tests."""
    return SweepDefinition(
        key="tiny",
        title="tiny test sweep",
        x_label="CCR",
        x_values=(1.0, 3.0),
        metric=metric,
        graph=GraphSpec("random", {"axis": "ccr", "v": 20, "n_procs": 3}),
        schedulers=schedulers,
    )


#: the generator choices of the ablation and heterogeneity benches:
#: (swept axis, fixed GeneratorConfig fields, x values)
ABLATION_CONFIGS = [
    pytest.param(
        "ccr", {"v": 100, "density": 4}, (1.0, 3.0, 5.0), id="insertion"
    ),
    pytest.param(
        "ccr", {"alpha": 0.5, "v": 100, "single_entry": True},
        (1.0, 2.0, 3.0, 4.0, 5.0), id="duplication",
    ),
    pytest.param(
        "ccr", {"v": 100, "beta": 1.6}, (1.0, 2.0, 3.0, 4.0, 5.0),
        id="priority",
    ),
] + [
    pytest.param(
        "beta",
        {"v": 100, "ccr": 2.0, "single_entry": True, "heterogeneity": kind},
        (0.4, 0.8, 1.2, 1.6, 2.0),
        id=f"heterogeneity-{kind}",
    )
    for kind in ("inconsistent", "consistent")
]


class TestDefinition:
    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            tiny_sweep(metric="bogus")

    def test_empty_x_rejected(self):
        with pytest.raises(ValueError, match="x value"):
            SweepDefinition(
                key="x",
                title="x",
                x_label="x",
                x_values=(),
                metric="slr",
                graph=GraphSpec("random", {"axis": "ccr"}),
            )


class TestRun:
    def test_deterministic_for_seed(self):
        a = run_sweep(tiny_sweep(), reps=3, seed=42)
        b = run_sweep(tiny_sweep(), reps=3, seed=42)
        assert a.series("HDLTS") == b.series("HDLTS")

    def test_different_seeds_differ(self):
        a = run_sweep(tiny_sweep(), reps=3, seed=1)
        b = run_sweep(tiny_sweep(), reps=3, seed=2)
        assert a.series("HDLTS") != b.series("HDLTS")

    def test_counts_and_keys(self):
        result = run_sweep(tiny_sweep(), reps=4, seed=0)
        assert set(result.stats) == {1.0, 3.0}
        for x in (1.0, 3.0):
            assert set(result.stats[x]) == {"HDLTS", "HEFT"}
            assert all(acc.n == 4 for acc in result.stats[x].values())

    def test_validate_flag(self):
        run_sweep(tiny_sweep(), reps=2, seed=0, validate=True)

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep(), reps=0)

    def test_progress_callback_called(self):
        messages = []
        run_sweep(tiny_sweep(), reps=1, seed=0, progress=messages.append)
        assert len(messages) == 2  # one per x point

    def test_as_rows_flat_records(self):
        result = run_sweep(tiny_sweep(), reps=2, seed=0)
        rows = result.as_rows()
        assert len(rows) == 4  # 2 x-values * 2 schedulers
        assert {"x", "x_label", "metric", "scheduler", "mean", "std", "n"} <= set(
            rows[0]
        )
        assert all(row["x_label"] == "CCR" for row in rows)
        assert all(row["metric"] == "slr" for row in rows)

    @pytest.mark.parametrize("axis, config, x_values", ABLATION_CONFIGS)
    def test_random_spec_matches_the_generator_oracle(
        self, axis, config, x_values
    ):
        """A ``random`` spec makes exactly the draws of
        ``generate_random_graph(cfg.with_(axis=float(x)), rng)``."""
        spec = GraphSpec("random", {"axis": axis, **config})
        base = GeneratorConfig(**config)
        for i, x in enumerate(x_values):
            rng_a = np.random.default_rng([11, i, 0])
            rng_b = np.random.default_rng([11, i, 0])
            a = spec.instance(x, rng_a)
            b = compile_instance(
                generate_random_graph(base.with_(**{axis: float(x)}), rng_b)
            )
            assert np.array_equal(a.w, b.w)
            for name in ("succ_indptr", "succ_ids", "succ_costs",
                         "pred_indptr", "pred_ids", "pred_costs", "topo"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("axis, config, x_values", ABLATION_CONFIGS)
    def test_ablation_definitions_round_trip(self, axis, config, x_values):
        definition = SweepDefinition(
            key="ablation", title="ablation", x_label=axis,
            x_values=x_values, metric="slr",
            graph=GraphSpec("random", {"axis": axis, **config}),
            schedulers=("HDLTS", "HDLTS-nodup", "HEFT-noinsertion"),
        )
        rebuilt = SweepDefinition.from_dict(
            json.loads(json.dumps(definition.to_dict()))
        )
        assert rebuilt == definition
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        a = definition.build_instance(x_values[-1], rng_a)
        b = rebuilt.build_instance(x_values[-1], rng_b)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.succ_costs, b.succ_costs)

    def test_exactly_one_factory_form_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepDefinition(
                key="x", title="x", x_label="x", x_values=(1,), metric="slr"
            )

    def test_ablation_variant_names_coexist(self):
        """Registry names keep HDLTS ablation variants distinct."""
        sweep = tiny_sweep(schedulers=("HDLTS", "HDLTS-nodup"))
        result = run_sweep(sweep, reps=2, seed=0)
        assert set(result.stats[1.0]) == {"HDLTS", "HDLTS-nodup"}

    def test_single_point_runs_standalone(self):
        values = run_replications(tiny_sweep(), 1.0, 0, 0, 2, seed=0)
        assert len(values) == 2
        assert all(set(v) == {"HDLTS", "HEFT"} for v in values)

    def test_single_point_matches_sweep(self):
        """The sweep's fold equals a scalar RunningStats fold of the
        point's replications, field for field."""
        from repro.metrics.stats import RunningStats

        sweep = run_sweep(tiny_sweep(), reps=3, seed=9)
        values = run_replications(tiny_sweep(), 3.0, 1, 0, 3, seed=9)
        for name in ("HDLTS", "HEFT"):
            oracle = RunningStats()
            oracle.extend(v[name] for v in values)
            acc = sweep.stats[3.0][name]
            assert (acc.n, acc._mean, acc._m2, acc._min, acc._max) == (
                oracle.n, oracle._mean, oracle._m2, oracle._min, oracle._max
            )

    def test_slr_values_at_least_one(self):
        result = run_sweep(tiny_sweep(), reps=3, seed=0)
        for x in result.definition.x_values:
            for acc in result.stats[x].values():
                assert acc.min >= 1.0 - 1e-9

    def test_efficiency_values_in_unit_interval(self):
        result = run_sweep(tiny_sweep(metric="efficiency"), reps=3, seed=0)
        for x in result.definition.x_values:
            for acc in result.stats[x].values():
                assert 0.0 < acc.max <= 1.0 + 1e-9


class TestInstanceRoute:
    """The harness carries compiled instances; the batched path never
    builds a ``TaskGraph``."""

    @staticmethod
    def _count_graphs(monkeypatch):
        from repro.model.task_graph import TaskGraph

        built = []
        init = TaskGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TaskGraph, "__init__", counting)
        return built

    def test_batched_fig2_point_builds_no_task_graph(self, monkeypatch):
        from repro.experiments.figures import get_figure

        definition = get_figure("fig2")
        built = self._count_graphs(monkeypatch)
        values = run_replications(definition, 2.0, 1, 0, 16, seed=0)
        assert len(values) == 16
        assert built == []

    @pytest.mark.parametrize("key", ["fig7", "fig10", "fig13", "fig14"])
    def test_batched_workflow_sweep_builds_no_task_graph(
        self, key, monkeypatch
    ):
        """FFT, Montage and MD sweeps redraw only costs: no ``TaskGraph``,
        and each structure is built once however many replications."""
        from collections import Counter

        from repro.experiments import graphspec
        from repro.experiments.figures import get_figure

        structures = Counter()
        for name in (
            "fft_topology", "montage_topology", "molecular_dynamics_topology"
        ):
            def counting(*args, _build=getattr(graphspec, name), _name=name):
                structures[(_name, args)] += 1
                return _build(*args)

            monkeypatch.setattr(graphspec, name, counting)
        graphspec._structure.cache_clear()
        definition = get_figure(key)
        points = [(x, i, 0, 8) for i, x in enumerate(definition.x_values)]
        built = self._count_graphs(monkeypatch)
        try:
            out = run_points(definition, points, seed=0)
        finally:
            graphspec._structure.cache_clear()
        assert [len(values) for values in out] == [8] * len(points)
        assert built == []
        assert structures and max(structures.values()) == 1

    def test_fixed_structure_is_drawn_and_compiled_once(self, monkeypatch):
        """A 16-rep ``random-fixed`` fig2 point draws its structure once
        and compiles it once; each replication draws only its costs,
        exactly as the generator's full draw on a re-seeded structure
        generator would, leaving ``rng`` in the same state."""
        import dataclasses

        from repro.experiments import graphspec
        from repro.experiments.figures import get_figure
        from repro.generator.random_dag import RandomDAGGenerator
        from repro.model.compiled import GraphStructure
        from repro.runtime.context import current_context

        assert current_context().batch == "auto"
        fig2 = get_figure("fig2")
        params = dict(fig2.graph.params, structure_seed=11)
        definition = dataclasses.replace(
            fig2, graph=GraphSpec("random-fixed", params)
        )
        calls = {"edges": 0, "compile": 0}
        edges, compile_ = RandomDAGGenerator._edges, GraphStructure._compile

        def counting_edges(self, *args):
            calls["edges"] += 1
            return edges(self, *args)

        def counting_compile(self):
            calls["compile"] += 1
            return compile_(self)

        monkeypatch.setattr(RandomDAGGenerator, "_edges", counting_edges)
        monkeypatch.setattr(GraphStructure, "_compile", counting_compile)
        drawn = []
        factory = graphspec._FACTORIES["random-fixed"]

        def recording(x, rng, **kwargs):
            before = rng.bit_generator.state
            arrays = factory(x, rng, **kwargs)
            drawn.append((x, before, rng.bit_generator.state, arrays))
            return arrays

        monkeypatch.setitem(graphspec._FACTORIES, "random-fixed", recording)
        graphspec._random_structure.cache_clear()
        try:
            values = run_replications(definition, 3.0, 2, 0, 16, seed=0)
        finally:
            graphspec._random_structure.cache_clear()
        assert len(values) == 16 and len(drawn) == 16
        assert calls == {"edges": 1, "compile": 1}
        monkeypatch.undo()

        config = {
            k: v for k, v in params.items() if k not in ("axis", "structure_seed")
        }
        generator = RandomDAGGenerator(GeneratorConfig(**config, ccr=3.0))
        for x, before, after, arrays in drawn:
            assert x == 3.0
            oracle = np.random.default_rng()
            oracle.bit_generator.state = before
            want = generator.arrays(oracle, np.random.default_rng(11))
            for field in ("w", "src", "dst", "cost"):
                assert np.array_equal(
                    getattr(arrays, field), getattr(want, field)
                ), field
            assert arrays.names == want.names
            rng = np.random.default_rng()
            rng.bit_generator.state = after
            assert rng.random() == oracle.random()

    def test_scalar_path_derives_the_graph(self, monkeypatch):
        from repro.experiments.figures import get_figure
        from repro.runtime.context import activate, current_context

        definition = get_figure("fig2")
        built = self._count_graphs(monkeypatch)
        with activate(current_context().with_(batch="off")):
            off = run_replications(definition, 2.0, 1, 0, 16, seed=0)
        assert len(built) == 16  # one graph per instance, none copied
        monkeypatch.undo()
        assert off == run_replications(definition, 2.0, 1, 0, 16, seed=0)

    @staticmethod
    def _stream_rate(noise):
        """The stream-rate workload: 10 jobs of 20-task random DAGs on
        4 CPUs per replication."""
        from repro.stream import ArrivalSpec, StreamSpec
        from repro.stream.spec import stream_sweep_definition

        spec = StreamSpec(
            job=GraphSpec(
                "random",
                {"axis": "v", "n_procs": 4, "ccr": 1.0, "beta": 1.0},
            ),
            arrival=ArrivalSpec("poisson", rate=0.02),
            n_jobs=10,
            axis="rate",
            job_x=20,
            noise=noise,
        )
        return stream_sweep_definition(
            "stream-rate", spec, (0.005, 0.01, 0.02, 0.05)
        )

    def test_batched_stream_rate_point_builds_no_task_graph(
        self, monkeypatch
    ):
        """Jobs are drawn and compiled as arrays, admission queues come
        off the batch arrays and the arena reads compiled fields."""
        definition = self._stream_rate({"kind": "gaussian", "sigma": 0.2})
        built = self._count_graphs(monkeypatch)
        values = run_replications(definition, 0.02, 2, 0, 10, seed=0)
        assert len(values) == 10
        assert built == []

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "gaussian", "sigma": 0.2},
            {"kind": "gaussian", "sigma": 3.0},
            {"kind": "uniform", "spread": 0.3},
            None,
        ],
    )
    def test_stream_build_draws_like_the_graph_route(self, noise):
        """The stream build equals drawing each job as a ``TaskGraph``
        and warming a memoized noise model in task-major order: the same
        arrivals, instances and durations, and the generator ends in the
        same state."""
        from repro.dynamic.noise import gaussian_noise, uniform_noise
        from repro.model.compiled import compile_graph

        spec = self._stream_rate(noise).stream
        for seed in range(3):
            rng = np.random.default_rng([seed, 2, 0])
            built = spec.build(0.02, rng)
            oracle = np.random.default_rng([seed, 2, 0])
            times = spec.arrival.with_x("rate", 0.02).times(
                spec.n_jobs, oracle
            )
            for job, arrival in zip(built.jobs, times):
                graph = spec.job.build(spec.job_x, oracle).normalized()
                want = compile_graph(graph)
                got = job.compiled
                assert job.arrival == arrival
                for field in (
                    "w", "succ_indptr", "succ_ids", "succ_costs", "topo"
                ):
                    assert np.array_equal(
                        getattr(got, field), getattr(want, field)
                    ), field
                if noise is None:
                    assert job.durations is None
                    continue
                if noise["kind"] == "gaussian":
                    fn = gaussian_noise(graph, noise["sigma"], oracle)
                else:
                    fn = uniform_noise(graph, noise["spread"], oracle)
                warmed = [
                    [fn(task, proc) for proc in range(graph.n_procs)]
                    for task in range(graph.n_tasks)
                ]
                assert np.array_equal(job.durations, np.array(warmed))
            assert rng.random() == oracle.random()
