"""Unit tests for the Table II factorial grid runner."""

import numpy as np
import pytest

from repro.experiments.grid import (
    format_marginals,
    grid_sweep_definition,
    marginals_from_sweep,
    run_grid,
)
from repro.experiments.harness import SweepDefinition, run_sweep

_SMALL_GRID = {
    "v": (20, 40),
    "alpha": (1.0,),
    "density": (2,),
    "ccr": (1.0, 3.0),
    "n_procs": (3,),
    "w_dag": (50,),
    "beta": (1.0,),
}


def _scalar_grid(definition, reps, seed):
    """In-test oracle for a ``table2`` sweep: the scalar loop
    ``run_grid`` used to run, one sample at a time."""
    from repro.baselines.registry import make_scheduler
    from repro.experiments.grid import GridResult
    from repro.generator.parameters import GeneratorConfig
    from repro.generator.random_dag import generate_random_graph
    from repro.metrics.metrics import slr
    from repro.metrics.stats import RunningStats

    schedulers = definition.schedulers
    configs = [
        GeneratorConfig(**c) for c in definition.graph.params["configs"]
    ]
    result = GridResult(
        metric="slr", schedulers=schedulers, n_configs=len(configs),
        reps=reps,
    )
    result.overall = {name: RunningStats() for name in schedulers}
    for ci, config in enumerate(configs):
        for rep in range(reps):
            graph = generate_random_graph(
                config, np.random.default_rng([seed, ci, rep])
            )
            if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
                graph = graph.normalized()
            for name in schedulers:
                value = slr(graph, make_scheduler(name).run(graph).makespan)
                result.overall[name].add(value)
                for axis in _SMALL_GRID:
                    bucket = result.marginals.setdefault(axis, {}).setdefault(
                        getattr(config, axis),
                        {n: RunningStats() for n in schedulers},
                    )
                    bucket[name].add(value)
    return result


class TestRunGrid:
    def test_full_small_grid(self):
        result = run_grid(
            grid=_SMALL_GRID, sample=None, reps=2, schedulers=("HDLTS", "HEFT")
        )
        assert result.n_configs == 4  # 2 x 2
        # each config x 2 reps lands in overall
        assert result.overall["HDLTS"].n == 8
        # marginals partition: v=20 bucket holds half the samples
        assert result.marginals["v"][20]["HDLTS"].n == 4

    def test_sampling_caps_config_count(self):
        result = run_grid(grid=_SMALL_GRID, sample=2, reps=1, schedulers=("HEFT",))
        assert result.n_configs == 2

    def test_deterministic(self):
        a = run_grid(grid=_SMALL_GRID, sample=3, reps=1, seed=5, schedulers=("HEFT",))
        b = run_grid(grid=_SMALL_GRID, sample=3, reps=1, seed=5, schedulers=("HEFT",))
        assert a.overall["HEFT"].mean == b.overall["HEFT"].mean

    def test_max_tasks_filters_sizes(self):
        result = run_grid(
            grid=dict(_SMALL_GRID, v=(20, 40, 100_000)),
            sample=None,
            reps=1,
            schedulers=("HEFT",),
            max_tasks=50,
        )
        assert set(result.marginals["v"]) == {20, 40}

    def test_max_tasks_too_small_rejected(self):
        with pytest.raises(ValueError, match="max_tasks"):
            run_grid(grid=_SMALL_GRID, max_tasks=5)

    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            run_grid(metric="bogus", grid=_SMALL_GRID)

    def test_invalid_reps_rejected(self):
        with pytest.raises(ValueError):
            run_grid(grid=_SMALL_GRID, reps=0)

    def test_winner_is_lowest_slr(self):
        result = run_grid(
            grid=_SMALL_GRID, sample=None, reps=1, schedulers=("HDLTS", "HEFT")
        )
        winner = result.winner()
        loser = "HEFT" if winner == "HDLTS" else "HDLTS"
        assert result.overall[winner].mean <= result.overall[loser].mean

    def test_efficiency_metric(self):
        result = run_grid(
            metric="efficiency",
            grid=_SMALL_GRID,
            sample=2,
            reps=1,
            schedulers=("HEFT",),
        )
        assert 0 < result.overall["HEFT"].mean <= 1.0 + 1e-9


class TestFormat:
    def test_marginal_tables_render(self):
        result = run_grid(
            grid=_SMALL_GRID, sample=None, reps=1, schedulers=("HDLTS", "HEFT")
        )
        text = format_marginals(result, axes=["ccr", "v"])
        assert "overall winner" in text
        assert "ccr" in text and "3.0" in text
        assert "HDLTS" in text

    def test_all_axes_by_default(self):
        result = run_grid(grid=_SMALL_GRID, sample=2, reps=1, schedulers=("HEFT",))
        text = format_marginals(result)
        for axis in _SMALL_GRID:
            assert axis in text


class TestGridAsSweep:
    """The shardable form: grid_sweep_definition + marginals_from_sweep."""

    def test_definition_is_portable_and_samples_like_run_grid(self):
        definition = grid_sweep_definition(
            grid=_SMALL_GRID, sample=None, schedulers=("HDLTS", "HEFT")
        )
        # serializes into campaign manifests
        assert SweepDefinition.from_dict(definition.to_dict()) == definition
        assert definition.graph.factory == "table2"
        assert definition.x_values == (0, 1, 2, 3)  # 2 x 2 configs
        configs = definition.graph.params["configs"]
        # the same sampling pass as run_grid: same seed, same configs
        assert sorted((c["v"], c["ccr"]) for c in configs) == [
            (20, 1.0), (20, 3.0), (40, 1.0), (40, 3.0)
        ]

    def test_roundtrip_matches_run_grid(self):
        """Sweep the definition, fold back: the same marginals as a
        scalar oracle -- one ``make_scheduler(...).run`` per instance,
        folded sample by sample into ``RunningStats`` (same n
        everywhere, means to ~1 ulp: pairwise combination rounds
        differently than one-by-one folding)."""
        schedulers = ("HDLTS", "HEFT")
        definition = grid_sweep_definition(
            grid=_SMALL_GRID, sample=None, schedulers=schedulers
        )
        direct = _scalar_grid(definition, reps=2, seed=0)
        folded = marginals_from_sweep(run_sweep(definition, reps=2, seed=0))
        grid = run_grid(
            grid=_SMALL_GRID, sample=None, reps=2, schedulers=schedulers
        )
        for name in schedulers:
            a, b = grid.overall[name], folded.overall[name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            )

        assert folded.n_configs == direct.n_configs == 4
        for name in schedulers:
            a, b = direct.overall[name], folded.overall[name]
            assert a.n == b.n == 8
            assert b.mean == pytest.approx(a.mean, rel=1e-12)
            assert b.std == pytest.approx(a.std, rel=1e-9)
            assert (b.min, b.max) == (a.min, a.max)
        for axis, buckets in direct.marginals.items():
            assert set(folded.marginals[axis]) == set(buckets)
            for value, bucket in buckets.items():
                for name in schedulers:
                    other = folded.marginals[axis][value][name]
                    assert other.n == bucket[name].n
                    assert other.mean == pytest.approx(
                        bucket[name].mean, rel=1e-12
                    )

    def test_rejects_foreign_sweeps(self):
        from tests.experiments.test_harness import tiny_sweep

        result = run_sweep(tiny_sweep(), reps=1, seed=0)
        with pytest.raises(ValueError, match="table2"):
            marginals_from_sweep(result)
