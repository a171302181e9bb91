"""Paired statistical comparison of two schedulers.

The paper (like most of this literature) reports mean SLR differences
without significance testing.  :func:`compare_schedulers` runs two
algorithms on the *same* instances (paired design) through the sweep
harness, and :func:`paired_comparison` reports the mean paired
difference, a normal-approximation confidence interval, and the
Wilcoxon signed-rank p-value (when scipy is importable) -- so "A beats
B" claims can carry a p-value.  Used by the test suite to assert that
the reproduced headline gaps are statistically real, not replication
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition, run_replications

__all__ = ["ComparisonResult", "compare_schedulers", "paired_comparison"]

#: paired differences this close to zero count as ties
_TIE = 1e-12


@dataclass(frozen=True)
class ComparisonResult:
    """Paired comparison of scheduler ``a`` against scheduler ``b``.

    ``mean_diff`` is mean(metric(a) - metric(b)): negative means ``a``
    achieved the lower (better, for SLR) metric.  ``p_value`` is
    ``None`` when scipy is not importable.
    """

    a: str
    b: str
    n: int
    mean_a: float
    mean_b: float
    mean_diff: float
    ci_low: float
    ci_high: float
    p_value: Optional[float]
    wins_a: int
    wins_b: int
    ties: int

    @property
    def significant(self) -> bool:
        """True at the conventional 5% level.

        Without a p-value, true when the 95% confidence interval
        excludes zero.
        """
        if self.p_value is None:
            return self.ci_low > 0.0 or self.ci_high < 0.0
        return self.p_value < 0.05

    def format(self) -> str:
        """One-line human-readable verdict."""
        verdict = (
            f"{self.a} better" if self.mean_diff < 0 else f"{self.b} better"
        )
        strength = "significant" if self.significant else "not significant"
        p = "n/a" if self.p_value is None else f"{self.p_value:.2g}"
        return (
            f"{self.a} vs {self.b} (n={self.n}): "
            f"diff={self.mean_diff:+.4f} "
            f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}], "
            f"p={p} -> {verdict}, {strength}"
        )


def paired_comparison(
    values_a: Sequence[float],
    values_b: Sequence[float],
    a: str = "a",
    b: str = "b",
) -> ComparisonResult:
    """Test the paired differences ``values_a[i] - values_b[i]``.

    Pure: any two equally long columns of per-instance values will do.
    The p-value is the Wilcoxon signed-rank test's over the non-tied
    pairs (1.0 when every pair ties), or ``None`` when scipy is not
    importable.
    """
    arr_a = np.asarray(values_a, dtype=np.float64)
    arr_b = np.asarray(values_b, dtype=np.float64)
    if arr_a.shape != arr_b.shape or arr_a.ndim != 1:
        raise ValueError(
            f"need two equally long columns, got {arr_a.shape} and "
            f"{arr_b.shape}"
        )
    n = len(arr_a)
    if n < 5:
        raise ValueError("need at least 5 replications for a meaningful test")
    diffs = arr_a - arr_b
    mean_diff = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / np.sqrt(n))
    nonzero = diffs[np.abs(diffs) > _TIE]
    p_value: Optional[float] = 1.0
    if nonzero.size:
        try:
            from scipy import stats
        except ImportError:
            p_value = None
        else:
            p_value = float(stats.wilcoxon(nonzero).pvalue)
    return ComparisonResult(
        a=a,
        b=b,
        n=n,
        mean_a=float(arr_a.mean()),
        mean_b=float(arr_b.mean()),
        mean_diff=mean_diff,
        ci_low=mean_diff - 1.96 * stderr,
        ci_high=mean_diff + 1.96 * stderr,
        p_value=p_value,
        wins_a=int((diffs < -_TIE).sum()),
        wins_b=int((diffs > _TIE).sum()),
        ties=n - nonzero.size,
    )


def compare_schedulers(
    graph: GraphSpec,
    x,
    a: str,
    b: str,
    reps: int = 30,
    seed: int = 0,
    metric: str = "slr",
) -> ComparisonResult:
    """Run both schedulers on ``reps`` shared instances and test the
    paired difference (:func:`paired_comparison`).

    The instances are those of x point ``x`` of a one-point sweep over
    ``graph``, drawn by the harness from its ``(seed, 0, rep)`` RNG
    streams; ``metric`` names a harness metric (``"slr"``,
    ``"efficiency"``, ``"makespan"``).
    """
    definition = SweepDefinition(
        key="compare",
        title=f"{a} vs {b}",
        x_label="x",
        x_values=(x,),
        metric=metric,
        schedulers=tuple(dict.fromkeys((a, b))),
        graph=graph,
    )
    values = run_replications(definition, x, 0, 0, reps, seed)
    return paired_comparison(
        [v[a] for v in values], [v[b] for v in values], a, b
    )
