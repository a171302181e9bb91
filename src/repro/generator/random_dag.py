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
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

from repro.generator.parameters import GeneratorConfig
from repro.model.attributes import _pairwise_sum
from repro.model.task_graph import GraphArrays, TaskGraph

__all__ = ["RandomDAGGenerator", "generate_random_graph"]


class _BufferedUniforms:
    """``rng.random()`` draws served from one block, draw-exact.

    ``take(m)`` returns the next ``m`` uniforms of ``rng``'s stream as
    Python floats.  The block is drawn up front (``size`` uniforms,
    topped up if it runs dry); :meth:`close` then restores the bit
    generator's saved state and re-draws exactly the uniforms taken, so
    ``rng`` ends where per-call ``rng.random()`` draws would have left
    it and every later draw sees the same stream.
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng = rng
        self._state = rng.bit_generator.state
        self._size = size
        self._block = rng.random(self._size).tolist()
        self._pos = 0

    def take(self, m: int) -> List[float]:
        lo, hi = self._pos, self._pos + m
        while hi > len(self._block):
            self._block.extend(self._rng.random(self._size).tolist())
        self._pos = hi
        return self._block[lo:hi]

    def close(self) -> None:
        if self._pos != len(self._block):
            self._rng.bit_generator.state = self._state
            self._rng.random(self._pos)


def _weighted_sample_noreplace(
    uniforms: _BufferedUniforms,
    k: int,
    cdf: List[float],
    weights: List[float],
) -> List[int]:
    """``rng.choice(n, size=k, replace=False, p=weights)``, draw-exact.

    Re-implements numpy's weighted no-replacement branch in Python
    floats on the same uniforms, so the bit-generator stream (and with
    it every downstream draw) is untouched, while letting the caller
    hoist the cdf across calls that share one weight vector.  Each round
    draws one uniform per missing sample and maps it through the cdf
    with ``bisect_right`` (numpy's ``searchsorted(side="right")``); the
    dedupe keeps first occurrences in draw order -- exactly what numpy's
    ``unique(return_index=True)`` + ``take`` computes.  A collision
    retry zeroes the weights already taken and rebuilds the cdf as
    numpy does on its ``p`` copy: a sequential running sum (``cumsum``
    is an ``add.accumulate``) divided by its last element.  Guarded by
    an oracle test against ``Generator.choice`` itself
    (``tests/generator/test_random_dag.py``).
    """
    found = [bisect_right(cdf, u) for u in uniforms.take(k)]
    taken = set(found)
    if len(taken) == k:  # no collision: the common case
        return found
    found = list(dict.fromkeys(found))
    p = list(weights)
    while len(found) < k:
        for t in found:
            p[t] = 0.0
        running = list(accumulate(p))
        total = running[-1]
        cdf = [c / total for c in running]
        for u in uniforms.take(k - len(found)):
            t = bisect_right(cdf, u)
            if t not in taken:
                taken.add(t)
                found.append(t)
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
    ) -> Tuple[List[int], List[int]]:
        """Out-degree-driven wiring plus the orphan-repair pass.

        Returns the edge list as ``(sources, targets)``.  Every source
        in a level samples its targets from the same pool and weights,
        so each level's cdf is built once; the sampler's uniforms come
        from one buffered block (:class:`_BufferedUniforms`) that
        leaves ``rng`` exactly where per-source ``rng.choice`` calls
        would, before the repair pass draws.
        """
        density = self.config.density
        plans = []
        first_round = 0
        for li in range(len(levels) - 1):
            # candidate targets: mostly the next level, plus a small
            # tail from deeper levels so long edges appear
            pool = list(levels[li + 1])
            for deeper in levels[li + 2 : li + 4]:
                pool.extend(deeper)
            k = min(density, len(pool))
            if k == 0:
                continue
            # bias: draw with 80% weight on the immediate next level;
            # normalized and accumulated in Python floats with numpy's
            # operation order (pairwise ``sum``, sequential ``cumsum``)
            next_n = len(levels[li + 1])
            tail = len(pool) - next_n
            weights = [0.8 / next_n] * next_n + [0.2 / max(1, tail)] * tail
            total = _pairwise_sum(weights, 0, len(weights))
            weights = [w / total for w in weights]
            running = list(accumulate(weights))
            cdf = [c / running[-1] for c in running]
            plans.append((levels[li], pool, k, cdf, weights))
            first_round += k * len(levels[li])

        src: List[int] = []
        dst: List[int] = []
        if plans:
            # collision retries redraw a few more uniforms than the
            # first round; the block is sized with room for them
            uniforms = _BufferedUniforms(rng, first_round + first_round // 2)
            for sources, pool, k, cdf, weights in plans:
                for s in sources:
                    # one source's targets are distinct, and a source
                    # lives in one level, so no edge repeats
                    targets = _weighted_sample_noreplace(uniforms, k, cdf, weights)
                    src.extend([s] * len(targets))
                    dst.extend([pool[t] for t in targets])
            uniforms.close()
        has_parent = set(dst)

        # repair: every non-entry-level task needs a parent
        for li in range(1, len(levels)):
            for d in levels[li]:
                if d not in has_parent:
                    # ``rng.choice(parents)`` draws exactly
                    # ``rng.integers(len(parents))``, without the list
                    # to array conversion
                    parents = levels[li - 1]
                    src.append(parents[int(rng.integers(len(parents)))])
                    dst.append(d)
                    has_parent.add(d)
        return src, dst

    def structure(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one DAG shape: the level sizes, then the edge wiring.

        Returns the edge list ``(src, dst)`` as ``intp`` arrays; task
        ids run level by level.
        """
        levels: List[List[int]] = []
        next_id = 0
        for width in self.level_sizes(rng):
            levels.append(list(range(next_id, next_id + width)))
            next_id += width
        src, dst = self._edges(levels, rng)
        return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def costs(
        self, rng: np.random.Generator, src: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``(W, edge costs)`` for the edges leaving ``src``.

        Eq. (13) for ``W`` (or the consistent machine-speed model) and
        Eq. (14) for the edges: each costs its source task's mean
        computation cost times ``CCR``.
        """
        cfg = self.config
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
        return w, mean_costs[src] * cfg.ccr

    def arrays(
        self,
        rng: Optional[np.random.Generator] = None,
        structure_rng: Optional[np.random.Generator] = None,
    ) -> GraphArrays:
        """Draw one random task graph as arrays: :meth:`structure`, then
        :meth:`costs` on it.

        ``structure_rng`` (optional) feeds the *structure* draws -- level
        shape and edge wiring -- while ``rng`` keeps feeding the cost
        draws.  Passing a freshly seeded ``structure_rng`` per instance
        therefore fixes the DAG shape across replications while the
        costs stay independent.  With the default (``None``) every draw
        comes from ``rng``, bit-identical to the historical behaviour.
        """
        if rng is None:
            rng = np.random.default_rng()
        src, dst = self.structure(rng if structure_rng is None else structure_rng)
        w, cost = self.costs(rng, src)
        return GraphArrays(w, src, dst, cost)

    def generate(
        self,
        rng: Optional[np.random.Generator] = None,
        structure_rng: Optional[np.random.Generator] = None,
    ) -> TaskGraph:
        """Draw one random task graph (:meth:`arrays` as a
        :class:`TaskGraph`; the same draws)."""
        return self.arrays(rng, structure_rng).to_graph()


def generate_random_graph(
    config: GeneratorConfig,
    rng: Optional[np.random.Generator] = None,
    structure_rng: Optional[np.random.Generator] = None,
) -> TaskGraph:
    """One-shot convenience wrapper around :class:`RandomDAGGenerator`."""
    return RandomDAGGenerator(config).generate(rng, structure_rng)
