"""Random layered-DAG structure generation (Section V-B).

The generator follows the Topcuoglu method the paper adopts:

1. **Shape.**  The number of levels is drawn around ``sqrt(v) / alpha``
   and each level's width around ``sqrt(v) * alpha`` -- small ``alpha``
   gives tall thin graphs (low parallelism), large ``alpha`` short fat
   ones -- then widths are normalized so the level sizes sum exactly
   to ``v``.
2. **Edges.**  Every task gets ``density`` out-edges on average, aimed at
   tasks in later levels (strongly biased to the next level, as in the
   published examples).  A repair pass guarantees every task outside
   level 0 has at least one parent, so the DAG is connected from its
   entry tasks.
3. **Costs.**  Eq. (13) for computation (``w_i ~ U(0, 2 W_dag)``,
   per-CPU spread ``beta``) and Eq. (14) for communication
   (``comm = w_i * CCR``).

The generator can emit graphs with several entry/exit tasks (the paper's
generator does); the evaluation harness normalizes them with zero-cost
pseudo tasks exactly as Section III prescribes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.generator.parameters import GeneratorConfig
from repro.model.task_graph import TaskGraph

__all__ = ["RandomDAGGenerator", "generate_random_graph"]


def _weighted_sample_noreplace(
    rng: np.random.Generator, k: int, cdf: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``rng.choice(n, size=k, replace=False, p=weights)``, draw-exact.

    Re-implements numpy's weighted no-replacement branch on top of the
    same ``rng.random()`` calls so the bit-generator stream (and with it
    every downstream draw) is untouched, while letting the caller hoist
    the cdf across calls that share one weight vector.  The dedupe is an
    order-preserving set pass -- exactly what numpy's
    ``unique(return_index=True)`` + ``take`` computes.  Guarded by an
    oracle test against ``Generator.choice`` itself
    (``tests/generator/test_random_dag.py``).
    """
    found = np.zeros(k, dtype=np.int64)
    n_uniq = 0
    p = None
    while n_uniq < k:
        x = rng.random((k - n_uniq,))
        if n_uniq > 0:
            # collision retry: zero out what we already took and
            # rebuild the cdf, exactly as numpy does on its p copy
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


class RandomDAGGenerator:
    """Reusable generator bound to one configuration."""

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def level_sizes(self, rng: np.random.Generator) -> List[int]:
        """Partition ``v`` tasks into levels of the configured shape."""
        v, alpha = self.config.v, self.config.alpha
        if v == 1:
            return [1]
        if self.config.single_entry:
            # reserve level 0 for the lone entry, shape the rest normally
            rest = self.config.with_(single_entry=False, v=v - 1)
            return [1] + RandomDAGGenerator(rest).level_sizes(rng)
        mean_height = max(1.0, math.sqrt(v) / alpha)
        height = max(1, int(round(rng.uniform(0.8, 1.2) * mean_height)))
        height = min(height, v)  # can't have more levels than tasks
        mean_width = math.sqrt(v) * alpha
        raw = rng.uniform(0.5 * mean_width, 1.5 * mean_width, size=height)
        sizes = np.maximum(1, np.round(raw * (v / raw.sum()))).astype(int)
        # exact-sum repair: trim/grow greedily (levels keep >= 1 task)
        diff = int(sizes.sum()) - v
        i = 0
        while diff != 0:
            idx = int(np.argmax(sizes)) if diff > 0 else int(np.argmin(sizes))
            if diff > 0 and sizes[idx] > 1:
                sizes[idx] -= 1
                diff -= 1
            elif diff < 0:
                sizes[idx] += 1
                diff += 1
            else:  # all levels at width 1 but still too many: drop a level
                sizes = sizes[:-1]
                diff = int(sizes.sum()) - v
            i += 1
            if i > 10 * len(sizes) + v:  # pragma: no cover - safety net
                raise RuntimeError("level-size repair failed to converge")
        return [int(s) for s in sizes if s > 0]

    def _edges(
        self, levels: List[List[int]], rng: np.random.Generator
    ) -> List[Tuple[int, int]]:
        """Out-degree-driven wiring plus the orphan-repair pass."""
        density = self.config.density
        edges: List[Tuple[int, int]] = []
        seen = set()

        def later_pool(level_index: int) -> List[int]:
            """Candidate targets: mostly next level, some further."""
            pool = list(levels[level_index + 1])
            # small tail from deeper levels lets long edges appear
            for deeper in levels[level_index + 2 : level_index + 4]:
                pool.extend(deeper)
            return pool

        for li in range(len(levels) - 1):
            # the candidate pool and its bias weights depend only on the
            # level, so build them once and share across the level's
            # sources (the rng.choice draw sequence is unchanged)
            pool = later_pool(li)
            k = min(density, len(pool))
            if k == 0:
                continue
            # bias: draw with 80% weight on the immediate next level
            next_n = len(levels[li + 1])
            weights = np.full(len(pool), 0.2 / max(1, len(pool) - next_n))
            weights[:next_n] = 0.8 / next_n
            weights /= weights.sum()
            # every source in the level samples with the same weight
            # vector, so the cdf is hoisted too; the draw-exact sampler
            # keeps the rng.choice bit stream unchanged
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            for src in levels[li]:
                targets = _weighted_sample_noreplace(rng, k, cdf, weights)
                for t in targets.tolist():
                    key = (src, pool[t])
                    if key not in seen:
                        seen.add(key)
                        edges.append(key)

        # repair: every non-entry-level task needs a parent
        has_parent = {dst for _, dst in seen}
        for li in range(1, len(levels)):
            for dst in levels[li]:
                if dst not in has_parent:
                    src = int(rng.choice(levels[li - 1]))
                    key = (src, dst)
                    if key not in seen:
                        seen.add(key)
                        edges.append(key)
                    has_parent.add(dst)
        return edges

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def generate(
        self,
        rng: Optional[np.random.Generator] = None,
        structure_rng: Optional[np.random.Generator] = None,
    ) -> TaskGraph:
        """Draw one random task graph.

        ``structure_rng`` (optional) feeds the *structure* draws -- level
        shape and edge wiring -- while ``rng`` keeps feeding the cost
        draws.  Passing a freshly seeded ``structure_rng`` per instance
        therefore fixes the DAG shape across replications while the
        costs stay independent.  With the default (``None``) every draw
        comes from ``rng``, bit-identical to the historical behaviour.
        """
        if rng is None:
            rng = np.random.default_rng()
        if structure_rng is None:
            structure_rng = rng
        cfg = self.config
        sizes = self.level_sizes(structure_rng)
        levels: List[List[int]] = []
        next_id = 0
        for width in sizes:
            levels.append(list(range(next_id, next_id + width)))
            next_id += width

        edge_list = self._edges(levels, structure_rng)

        mean_costs = rng.uniform(0.0, 2.0 * cfg.w_dag, size=cfg.v)
        if cfg.heterogeneity == "consistent":
            # machine-speed model: one factor per CPU from the beta band
            factors = rng.uniform(
                1.0 - cfg.beta / 2.0, 1.0 + cfg.beta / 2.0, size=cfg.n_procs
            )
            w = mean_costs[:, None] * factors[None, :]
        else:
            low = mean_costs * (1.0 - cfg.beta / 2.0)
            high = mean_costs * (1.0 + cfg.beta / 2.0)
            w = rng.uniform(
                low[:, None], high[:, None], size=(cfg.v, cfg.n_procs)
            )

        # bulk-build the graph: same rows, edges and insertion order the
        # incremental add_task/add_edge path produced, without per-item
        # validation.  No RNG draws happen past this point, so the draw
        # sequence (and with it every sweep result) is unchanged.
        edge_src = [src for src, _ in edge_list]
        edge_dst = [dst for _, dst in edge_list]
        if edge_list:
            src_arr = np.fromiter(edge_src, dtype=np.intp, count=len(edge_src))
            edge_costs = (mean_costs[src_arr] * cfg.ccr).tolist()
        else:
            edge_costs = []
        return TaskGraph._bulk(
            cfg.n_procs, list(w), None, edge_src, edge_dst, edge_costs
        )


def generate_random_graph(
    config: GeneratorConfig,
    rng: Optional[np.random.Generator] = None,
    structure_rng: Optional[np.random.Generator] = None,
) -> TaskGraph:
    """One-shot convenience wrapper around :class:`RandomDAGGenerator`."""
    return RandomDAGGenerator(config).generate(rng, structure_rng)
