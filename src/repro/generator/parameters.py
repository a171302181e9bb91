"""Generator parameters (the paper's Table II).

``TABLE_II`` reproduces the published grid verbatim; a full cross product
is 150,000 combinations (8 x 5 x 5 x 5 x 5 x 6 x 5; the paper quotes
"125K unique application workflow graphs").  :func:`iter_table_ii` yields
:class:`GeneratorConfig` objects for any sub-grid so the experiment
harness can run the full factorial or a sliced version.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = ["GeneratorConfig", "TABLE_II", "iter_table_ii"]


@dataclass(frozen=True)
class GeneratorConfig:
    """One parameter combination for the random DAG generator.

    Attributes mirror Section V-B:

    * ``v`` -- number of tasks;
    * ``alpha`` -- shape: height ~ sqrt(v)/alpha, width ~ sqrt(v)*alpha;
    * ``density`` -- mean out-degree (edges per task);
    * ``ccr`` -- communication-to-computation ratio (Eq. 14);
    * ``n_procs`` -- CPUs in the platform;
    * ``w_dag`` -- mean computation cost of the DAG's tasks;
    * ``beta`` -- per-CPU heterogeneity of execution time (Eq. 13).
    """

    v: int = 100
    alpha: float = 1.0
    density: int = 3
    ccr: float = 1.0
    n_procs: int = 4
    w_dag: float = 50.0
    beta: float = 1.0
    #: force a single real entry task (level 0 of width 1).  The paper's
    #: generator emits multi-entry graphs and folds them with a zero-cost
    #: pseudo task; a *real* entry is needed to exercise Algorithm 1
    #: (entry duplication), e.g. in the duplication ablation bench.
    single_entry: bool = False
    #: heterogeneity structure of the cost matrix ``W``:
    #: ``"inconsistent"`` -- Eq. (13): each (task, CPU) cost drawn
    #: independently, so a CPU fast for one task may be slow for another
    #: (the paper's model); ``"consistent"`` -- machine-speed model:
    #: one speed factor per CPU (drawn once from the beta band) divides
    #: every task's cost, so CPUs are totally ordered.  Consistent
    #: matrices have zero *relative* heterogeneity, which neutralizes
    #: PV/SDBATS-style priorities -- a key ablation axis.
    heterogeneity: str = "inconsistent"

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.density < 1:
            raise ValueError("density must be >= 1")
        if self.ccr < 0:
            raise ValueError("ccr must be >= 0")
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.w_dag <= 0:
            raise ValueError("w_dag must be positive")
        if not 0 <= self.beta <= 2:
            raise ValueError("beta must lie in [0, 2]")
        if self.heterogeneity not in ("inconsistent", "consistent"):
            raise ValueError(
                "heterogeneity must be 'inconsistent' or 'consistent', "
                f"got {self.heterogeneity!r}"
            )

    def with_(self, **kwargs) -> "GeneratorConfig":
        """Functional update, e.g. ``cfg.with_(ccr=3.0)``."""
        return replace(self, **kwargs)


#: the published parameter grid, verbatim from Table II
TABLE_II: Dict[str, Tuple] = {
    "v": (100, 200, 300, 400, 500, 1000, 5000, 10000),
    "alpha": (0.5, 1.0, 1.5, 2.0, 2.5),
    "density": (1, 2, 3, 4, 5),
    "ccr": (1.0, 2.0, 3.0, 4.0, 5.0),
    "n_procs": (2, 4, 6, 8, 10),
    "w_dag": (50, 60, 70, 80, 90, 100),
    "beta": (0.4, 0.8, 1.2, 1.6, 2.0),
}


def iter_table_ii(
    overrides: Optional[Dict[str, Sequence]] = None,
) -> Iterator[GeneratorConfig]:
    """Iterate configurations over the Table II grid.

    ``overrides`` replaces any axis with a smaller (or single-value)
    sequence -- e.g. ``iter_table_ii({"v": (100,), "ccr": (1, 3, 5)})``
    -- which is how the figure experiments freeze all but one axis.
    """
    grid = {key: tuple(values) for key, values in TABLE_II.items()}
    if overrides:
        unknown = set(overrides) - set(grid)
        if unknown:
            raise KeyError(f"unknown Table II axes: {sorted(unknown)}")
        grid.update({k: tuple(v) for k, v in overrides.items()})
    keys = list(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield GeneratorConfig(**dict(zip(keys, combo)))
