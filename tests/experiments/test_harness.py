"""Unit tests for the sweep harness."""

import numpy as np
import pytest

from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import (
    SweepDefinition,
    run_replications,
    run_sweep,
)
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph


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


def tiny_closure_sweep() -> SweepDefinition:
    """The legacy closure form of :func:`tiny_sweep` (fork-only)."""
    def make(ccr, rng):
        return generate_random_graph(
            GeneratorConfig(v=20, ccr=float(ccr), n_procs=3), rng
        )

    return SweepDefinition(
        key="tiny",
        title="tiny test sweep",
        x_label="CCR",
        x_values=(1.0, 3.0),
        metric="slr",
        make_graph=make,
        schedulers=("HDLTS", "HEFT"),
    )


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
                make_graph=lambda x, rng: None,
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

    def test_closure_and_spec_forms_build_identical_graphs(self):
        """GraphSpec-built instances match the legacy closure's bit for bit."""
        spec, closure = tiny_sweep(), tiny_closure_sweep()
        for x in spec.x_values:
            a = spec.build_graph(x, np.random.default_rng([7, 0]))
            b = closure.build_graph(x, np.random.default_rng([7, 0]))
            assert np.array_equal(a.cost_matrix(), b.cost_matrix())
            assert list(a.edges()) == list(b.edges())

    def test_exactly_one_factory_form_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepDefinition(
                key="x", title="x", x_label="x", x_values=(1,), metric="slr"
            )
        with pytest.raises(ValueError, match="exactly one"):
            SweepDefinition(
                key="x", title="x", x_label="x", x_values=(1,), metric="slr",
                make_graph=lambda x, rng: None,
                graph=GraphSpec("random", {"axis": "ccr"}),
            )

    def test_closure_definition_refuses_serialization(self):
        closure = tiny_closure_sweep()
        assert not closure.portable
        with pytest.raises(ValueError, match="closure"):
            closure.to_dict()

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
