"""Columnar campaign merge vs the row-wise JSONL ledger path.

The campaign engine's merge (:func:`repro.experiments.campaign.merge`)
streams fixed-dtype record batches out of the shard stores and folds
them into Welford accumulators with the scalar recurrence vectorized
across every ``(x point, scheduler)`` lane at once.  The reference it
is measured against is a row-wise JSONL ledger fold, self-contained in
this file: ``json.loads`` per ledger line, then one Python-level
``RunningStats.add`` per metric value -- the replay path run
directories used before they became one-shard campaigns.

This bench builds a 10^5-replication campaign's worth of synthetic
results -- the *same* values landed both ways: a JSONL ledger in chunk
submission order and columnar shard stores partitioned across four
shards -- and measures end-to-end ingest+aggregate wall time for both
paths, disk to final per-point statistics:

* **correctness first** -- the columnar merge must reproduce the
  row-wise fold bit for bit (n, mean, m2, min, max per lane; JSON
  floats round-trip exactly, and the vectorized fold performs the
  scalar op sequence per lane);
* **throughput second** -- alternating row-wise/columnar rounds so
  cache and frequency drift hit both arms alike; best-of per arm.

Acceptance (the ISSUE 8 perf headline): the columnar merge is >=10x
the row-wise path, and the 10^5-instance demo merges in seconds.
"""

import json
import time

import numpy as np

from conftest import emit
from repro.baselines.registry import PAPER_SET
from repro.experiments.campaign import Campaign, merge
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition
from repro.io.columnar import ColumnarWriter, record_dtype, records_as_matrix
from repro.metrics.stats import RunningStats
from repro.runtime.context import DEFAULT_CONTEXT

#: conservative CI floor for the paired ingest+aggregate measure
SPEEDUP_FLOOR = 10.0

#: the 10^5-instance demo must merge to final stats in seconds
DEMO_WALL_CEILING_S = 10.0

#: alternating row-wise/columnar rounds; min per arm is the measure
ROUNDS = 3

#: campaign shape: N_X x REPS = 100,000 replications, K metric columns
N_X = 50
REPS = 2_000
CHUNK = 100
SHARDS = 4
SCHEDULERS = PAPER_SET  # k = 5 columns per replication


def _definition():
    """A wide sweep: 50 x points, the paper's 5-scheduler set."""
    return SweepDefinition(
        key="mergebench",
        title="campaign merge throughput workload",
        x_label="CCR",
        x_values=tuple(float(i) for i in range(1, N_X + 1)),
        metric="slr",
        schedulers=SCHEDULERS,
        graph=GraphSpec("random", {"axis": "ccr", "single_entry": True}),
    )


def _populate(campaign, ledger_path):
    """Land one synthetic result set both ways: JSONL ledger + shards.

    Values are drawn once per x point and written in the campaign's
    own task order, so both stores hold byte-equal floats in the same
    fold order (JSON round-trips doubles exactly via ``repr``).
    """
    definition = campaign.definitions[0]
    rng = np.random.default_rng(7)
    values = rng.random(
        (len(definition.x_values), campaign.reps, len(SCHEDULERS))
    ) + 1.0
    dtype = record_dtype(list(SCHEDULERS))
    per_shard = {s: [] for s in range(campaign.n_shards)}
    with open(ledger_path, "w", encoding="utf-8") as ledger:
        for task in campaign.tasks():
            block = values[task.x_index, task.rep_lo:task.rep_hi]
            ledger.write(
                json.dumps(
                    {
                        "sweep": task.sweep,
                        "x_index": task.x_index,
                        "x": task.x,
                        "rep_lo": task.rep_lo,
                        "rep_hi": task.rep_hi,
                        "values": [
                            dict(zip(SCHEDULERS, map(float, row)))
                            for row in block
                        ],
                        "metrics": {},
                        "wall": 0.0,
                    }
                )
                + "\n"
            )
            per_shard[campaign.shard_of(task)].append((task, block))
    for shard, items in per_shard.items():
        with ColumnarWriter.create(
            campaign.shard_path(shard), campaign.groups()
        ) as writer:
            for task, block in items:
                records = np.empty(len(block), dtype=dtype)
                records_as_matrix(records)[:] = block
                writer.write_batch(
                    {
                        "group": task.sweep,
                        "task": task.task_id,
                        "x_index": task.x_index,
                        "rep_lo": task.rep_lo,
                        "rep_hi": task.rep_hi,
                    },
                    records,
                )


def _rowwise_merge(ledger_path, definition):
    """The row-wise reference: JSONL replay into per-value Python Welford.

    One ``json.loads`` per chunk line (submission order), then
    ``RunningStats.add`` per metric value.
    """
    stats = {
        x: {name: RunningStats() for name in definition.schedulers}
        for x in definition.x_values
    }
    with open(ledger_path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            accumulators = stats[definition.x_values[row["x_index"]]]
            for rep_values in row["values"]:
                for name, value in rep_values.items():
                    accumulators[name].add(value)
    return stats


def _assert_identical(rowwise, results, definition):
    """Both paths must agree bit for bit on every accumulator field."""
    merged = results[definition.key]
    for x in definition.x_values:
        for name in definition.schedulers:
            a, b = rowwise[x][name], merged.stats[x][name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            ), (x, name)


def test_campaign_merge_throughput(benchmark, tmp_path):
    definition = _definition()
    campaign = Campaign.create(
        tmp_path / "camp",
        [definition],
        reps=REPS,
        n_shards=SHARDS,
        context=DEFAULT_CONTEXT.with_(seed=0, chunk_size=CHUNK),
    )
    ledger_path = tmp_path / "chunks.jsonl"
    _populate(campaign, ledger_path)
    rows = N_X * REPS

    # correctness first: bit-identical statistics from both paths
    _assert_identical(
        _rowwise_merge(ledger_path, definition), merge(campaign), definition
    )

    # throughput: disk -> final stats, alternating arms each round
    timings = []
    t_row, t_col = [], []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        _rowwise_merge(ledger_path, definition)
        mid = time.perf_counter()
        merge(campaign)
        ended = time.perf_counter()
        t_row.append(mid - started)
        t_col.append(ended - mid)
        timings.append((mid - started, ended - mid))

    best_row, best_col = min(t_row), min(t_col)
    speedup = best_row / best_col if best_col > 0 else float("inf")
    lines = [
        "campaign merge throughput, row-wise JSONL vs columnar "
        "(bit-identical statistics):",
        f"  workload             : {rows} replications "
        f"({N_X} x points x {REPS} reps x {len(SCHEDULERS)} schedulers, "
        f"chunk {CHUNK}, {SHARDS} shards)",
    ]
    for i, (r, c) in enumerate(timings):
        lines.append(
            f"  round {i}: row-wise {r * 1e3:7.0f} ms   "
            f"columnar {c * 1e3:7.0f} ms   ratio {r / c:.2f}x"
        )
    lines.append(
        f"  best-of-{ROUNDS}: row-wise {best_row * 1e3:.0f} ms "
        f"({rows / best_row / 1e6:.2f} Mrows/s)   "
        f"columnar {best_col * 1e3:.0f} ms "
        f"({rows / best_col / 1e6:.2f} Mrows/s)   "
        f"speedup {speedup:.2f}x"
    )
    emit("campaign_merge", "\n".join(lines))

    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar merge only {speedup:.2f}x faster than the row-wise "
        f"ledger path; the bar is {SPEEDUP_FLOOR}x"
    )
    assert best_col <= DEMO_WALL_CEILING_S, (
        f"10^5-instance merge took {best_col:.1f}s; "
        f"the bar is {DEMO_WALL_CEILING_S}s"
    )

    # a small campaign for the pytest-benchmark timing series
    small_def = SweepDefinition(
        key="mergebench",
        title="campaign merge (small)",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        schedulers=SCHEDULERS,
        graph=GraphSpec("random", {"axis": "ccr", "single_entry": True}),
    )
    small = Campaign.create(
        tmp_path / "small",
        [small_def],
        reps=200,
        n_shards=2,
        context=DEFAULT_CONTEXT.with_(seed=0, chunk_size=CHUNK),
    )
    _populate(small, tmp_path / "small-chunks.jsonl")
    benchmark(lambda: merge(small))
