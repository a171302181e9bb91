"""Table II factorial runs with marginal analysis.

The paper's headline protocol runs *every* parameter combination of
Table II (its literal cross product is 150,000 configurations) many
times and reports per-axis averages.  :func:`grid_sweep_definition`
expresses the full factorial, or a uniform random subsample of it, as
an ordinary :class:`~repro.experiments.harness.SweepDefinition` (one x
value per sampled configuration, a declarative ``"table2"`` graph
spec), so the protocol runs through the sweep harness -- serial,
parallel, or sharded through :mod:`repro.experiments.campaign`.
:func:`marginals_from_sweep` folds the result into

* overall per-scheduler statistics, and
* per-axis *marginals*: for each value of each parameter, the mean
  metric of every scheduler over all sampled combinations having that
  value -- which is exactly what the paper's figures plot.

:func:`run_grid` is both steps in-process.  Deterministic for a given
seed; arbitrarily scalable via ``sample``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.registry import PAPER_SET
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, SweepResult, run_sweep
from repro.generator.parameters import TABLE_II, GeneratorConfig
from repro.metrics.stats import RunningStats

__all__ = [
    "GridResult",
    "run_grid",
    "format_marginals",
    "sample_configs",
    "grid_sweep_definition",
    "marginals_from_sweep",
]

_METRICS = ("efficiency", "slr")


@dataclass
class GridResult:
    """Accumulated factorial-run output."""

    metric: str
    schedulers: Tuple[str, ...]
    n_configs: int
    reps: int
    overall: Dict[str, RunningStats] = field(default_factory=dict)
    #: marginals[axis][value][scheduler] -> RunningStats
    marginals: Dict[str, Dict[object, Dict[str, RunningStats]]] = field(
        default_factory=dict
    )

    def winner(self) -> str:
        """Scheduler with the best overall mean for this metric."""
        pick = min if self.metric == "slr" else max
        return pick(self.overall, key=lambda name: self.overall[name].mean)


def sample_configs(
    grid: Dict[str, Tuple],
    sample: Optional[int],
    rng: np.random.Generator,
    max_tasks: int,
) -> List[GeneratorConfig]:
    """Sample Table II configurations, deterministically for one RNG.

    ``sample=None`` (or >= the grid's cross product) enumerates the
    whole task-size-capped factorial; otherwise a uniform subsample
    without replacement.  :func:`grid_sweep_definition` draws its
    configurations here.
    """
    axes = list(grid)
    usable = dict(grid)
    usable["v"] = tuple(v for v in usable["v"] if v <= max_tasks)
    if not usable["v"]:
        raise ValueError(f"no Table II task size <= max_tasks={max_tasks}")
    sizes = [len(usable[a]) for a in axes]
    total = int(np.prod(sizes))
    if sample is None or sample >= total:
        indices = np.arange(total)
    else:
        indices = rng.choice(total, size=sample, replace=False)
    configs = []
    for flat in indices:
        combo = {}
        remainder = int(flat)
        for axis, size in zip(axes, sizes):
            combo[axis] = usable[axis][remainder % size]
            remainder //= size
        configs.append(GeneratorConfig(**combo, single_entry=True))
    return configs


def run_grid(
    metric: str = "slr",
    schedulers: Sequence[str] = PAPER_SET,
    sample: Optional[int] = 200,
    reps: int = 3,
    seed: int = 0,
    max_tasks: int = 500,
    grid: Optional[Dict[str, Tuple]] = None,
) -> GridResult:
    """Run a (sub)factorial of Table II through the sweep harness.

    ``sample=None`` runs the entire (task-size-capped) grid; ``reps``
    graphs are drawn per configuration.  ``max_tasks`` keeps the default
    laptop-scale (the 5000/10000-task rows multiply runtime by ~50).
    This is :func:`marginals_from_sweep` of :func:`run_sweep` over
    :func:`grid_sweep_definition`.
    """
    definition = grid_sweep_definition(
        metric, schedulers, sample, seed, max_tasks, grid
    )
    return marginals_from_sweep(run_sweep(definition, reps=reps, seed=seed))


def grid_sweep_definition(
    metric: str = "slr",
    schedulers: Sequence[str] = PAPER_SET,
    sample: Optional[int] = 200,
    seed: int = 0,
    max_tasks: int = 500,
    grid: Optional[Dict[str, Tuple]] = None,
    key: str = "table2",
) -> SweepDefinition:
    """The Table II protocol as a shardable sweep definition.

    Samples the factorial (:func:`sample_configs`, seeded by ``seed``),
    then expresses it as one sweep whose x-axis is the configuration
    index and whose graph spec is the declarative ``"table2"`` factory
    carrying the sampled configurations.  The definition serializes
    into run manifests and campaign specs, so a 150,000-configuration
    factorial can be sharded across machines with
    :mod:`repro.experiments.campaign` and merged back into marginals
    with :func:`marginals_from_sweep`.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}")
    rng = np.random.default_rng(seed)
    configs = sample_configs(grid or TABLE_II, sample, rng, max_tasks)
    return SweepDefinition(
        key=key,
        title=f"Table II grid ({len(configs)} sampled configurations)",
        x_label="config",
        x_values=tuple(range(len(configs))),
        metric=metric,
        schedulers=tuple(schedulers),
        description=(
            "Sampled Table II factorial as a sweep: one x value per "
            "configuration; fold with marginals_from_sweep"
        ),
        graph=GraphSpec(
            "table2", {"configs": [asdict(c) for c in configs]}
        ),
    )


def _combine(target: RunningStats, other: RunningStats) -> None:
    """Fold ``other`` into ``target`` (Chan et al. pairwise combine)."""
    if other.n == 0:
        return
    if target.n == 0:
        target.n = other.n
        target._mean = other._mean
        target._m2 = other._m2
        target._min = other._min
        target._max = other._max
        return
    na, nb = target.n, other.n
    n = na + nb
    delta = other._mean - target._mean
    target._mean += delta * nb / n
    target._m2 += other._m2 + delta * delta * na * nb / n
    target._min = min(target._min, other._min)
    target._max = max(target._max, other._max)
    target.n = n


def marginals_from_sweep(result: SweepResult) -> GridResult:
    """Fold a ``"table2"`` sweep back into Table II marginals.

    The inverse of :func:`grid_sweep_definition`: per-configuration
    statistics (one x point each -- e.g. from a merged campaign) are
    combined pairwise into the overall and per-axis marginal
    accumulators.  Statistically identical to folding every sample
    one by one; not bit-identical, because pairwise combination rounds
    differently than sample-by-sample accumulation.
    """
    definition = result.definition
    spec = definition.graph
    if spec is None or spec.factory != "table2":
        raise ValueError(
            "marginals_from_sweep needs a sweep built by "
            "grid_sweep_definition (graph factory 'table2'); got "
            f"{spec.factory if spec else None!r}"
        )
    configs = [GeneratorConfig(**c) for c in spec.params["configs"]]
    grid_result = GridResult(
        metric=definition.metric,
        schedulers=tuple(definition.schedulers),
        n_configs=len(configs),
        reps=result.reps,
    )
    grid_result.overall = {
        name: RunningStats() for name in definition.schedulers
    }
    axes = list(TABLE_II)
    for axis in axes:
        grid_result.marginals[axis] = {}
    for ci, config in enumerate(configs):
        point = result.stats[definition.x_values[ci]]
        for name in definition.schedulers:
            acc = point[name]
            _combine(grid_result.overall[name], acc)
            for axis in axes:
                bucket = grid_result.marginals[axis].setdefault(
                    getattr(config, axis),
                    {n: RunningStats() for n in definition.schedulers},
                )
                _combine(bucket[name], acc)
    return grid_result


def format_marginals(result: GridResult, axes: Optional[Sequence[str]] = None) -> str:
    """Render per-axis marginal tables (the paper's figure protocol)."""
    from repro.experiments.report import format_table

    blocks = [
        f"Table II grid: {result.n_configs} configurations x {result.reps} reps, "
        f"metric={result.metric}, overall winner: {result.winner()}"
    ]
    overall_row = [
        ["(all)"] + [f"{result.overall[n].mean:.4f}" for n in result.schedulers]
    ]
    blocks.append(
        format_table(["overall"] + list(result.schedulers), overall_row)
    )
    for axis in axes or result.marginals:
        rows = []
        for value in sorted(result.marginals[axis]):
            bucket = result.marginals[axis][value]
            rows.append(
                [str(value)]
                + [f"{bucket[n].mean:.4f}" for n in result.schedulers]
            )
        blocks.append(
            format_table([axis] + list(result.schedulers), rows)
        )
    return "\n\n".join(blocks)
