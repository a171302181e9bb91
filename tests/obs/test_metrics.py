"""Unit tests for the metrics registry and snapshot merging."""

import math

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    format_metrics,
    get_metrics,
    merge_snapshots,
    scoped,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestPrimitives:
    def test_counter(self, registry):
        registry.counter("a/b").inc()
        registry.counter("a/b").inc(4)
        assert registry.counter("a/b").value == 5

    def test_gauge(self, registry):
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5

    def test_timer_observe(self, registry):
        timer = registry.timer("t")
        timer.observe(0.5)
        timer.observe(1.5)
        assert timer.count == 2
        assert timer.total == 2.0
        assert timer.min == 0.5 and timer.max == 1.5
        assert timer.mean == 1.0

    def test_registry_truthiness(self, registry):
        assert not registry
        registry.counter("x").inc()
        assert registry


class TestSnapshotAndMerge:
    def test_snapshot_shape(self, registry):
        registry.counter("c").inc(2)
        registry.timer("t").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timers"]["t"]["count"] == 1
        assert set(snap) == {"counters", "gauges", "timers"}

    def test_merge_counters_add_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        b.counter("d").inc(1)
        a.merge(b.snapshot())
        assert a.counter("c").value == 7
        assert a.counter("d").value == 1

    def test_merge_timers_combine_extrema(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.timer("t").observe(1.0)
        b.timer("t").observe(3.0)
        a.merge(b.snapshot())
        timer = a.timer("t")
        assert timer.count == 2 and timer.total == 4.0
        assert timer.min == 1.0 and timer.max == 3.0

    def test_merge_gauges_keep_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(2.0)
        b.gauge("g").set(5.0)
        a.merge(b.snapshot())
        assert a.gauge("g").value == 5.0

    def test_merge_snapshots_is_associative_for_counters(self):
        regs = [MetricsRegistry() for _ in range(3)]
        for i, reg in enumerate(regs):
            reg.counter("c").inc(i + 1)
        snaps = [r.snapshot() for r in regs]
        left = merge_snapshots(merge_snapshots(snaps[0], snaps[1]), snaps[2])
        right = merge_snapshots(snaps[0], merge_snapshots(snaps[1], snaps[2]))
        assert left["counters"] == right["counters"] == {"c": 6}

    def test_snapshot_round_trips_through_fresh_registry(self, registry):
        registry.counter("c").inc(2)
        registry.timer("t").observe(0.25)
        fresh = MetricsRegistry()
        fresh.merge(registry.snapshot())
        assert fresh.snapshot() == registry.snapshot()

    def test_empty_timer_snapshot_is_finite(self, registry):
        registry.timer("t")
        snap = registry.snapshot()["timers"]["t"]
        assert math.isfinite(snap["min"]) and math.isfinite(snap["max"])

    def test_empty_timer_merges_as_identity(self):
        # a worker that touched a timer without observing must not
        # disturb the parent's extrema or counts
        a, b = MetricsRegistry(), MetricsRegistry()
        a.timer("t").observe(2.0)
        b.timer("t")  # created, never observed
        a.merge(b.snapshot())
        timer = a.timer("t")
        assert timer.count == 1 and timer.total == 2.0
        assert timer.min == 2.0 and timer.max == 2.0

    def test_empty_timer_into_empty_registry(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.timer("t")
        a.merge(b.snapshot())
        assert a.timer("t").count == 0
        snap = a.snapshot()["timers"]["t"]
        assert math.isfinite(snap["min"]) and math.isfinite(snap["max"])

    def test_merge_into_non_empty_registry_preserves_both(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(1)
        parent.timer("t").observe(1.0)
        parent.gauge("g").set(1.0)
        worker.counter("c").inc(2)
        worker.counter("new").inc(7)
        worker.timer("t").observe(3.0)
        parent.merge(worker.snapshot())
        assert parent.counter("c").value == 3
        assert parent.counter("new").value == 7
        assert parent.timer("t").count == 2
        assert parent.gauge("g").value == 1.0

    def test_merge_commutes_across_worker_orderings(self):
        # the parallel collector folds worker snapshots in submission
        # order; any pool scheduling must produce the same totals
        workers = []
        for i in range(4):
            reg = MetricsRegistry()
            reg.counter("sweep/replications").inc(i + 1)
            # binary-exact observations: summation commutes bit-for-bit
            reg.timer("sweep/replication").observe(0.25 * (i + 1))
            workers.append(reg.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in workers:
            forward.merge(snap)
        for snap in reversed(workers):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()


class TestScopedRegistry:
    def test_scoped_registry_becomes_current(self):
        outer = get_metrics()
        with scoped() as inner:
            assert get_metrics() is inner
            assert inner is not outer
        assert get_metrics() is outer

    def test_scoped_merges_up_by_default(self):
        with scoped(merge_up=False) as outer_scope:
            with scoped() as inner:
                inner.counter("c").inc(3)
            assert outer_scope.counter("c").value == 3

    def test_scoped_no_merge_up(self):
        with scoped(merge_up=False) as outer_scope:
            with scoped(merge_up=False) as inner:
                inner.counter("c").inc(3)
            assert outer_scope.counter("c").value == 0


def test_format_metrics_renders_every_section():
    registry = MetricsRegistry()
    registry.counter("HDLTS/decisions").inc(10)
    registry.gauge("sweep/chunk_imbalance").set(1.2)
    registry.timer("HDLTS/eft_vector").observe(0.01)
    text = format_metrics(registry.snapshot())
    for token in ("counters:", "gauges:", "timers:",
                  "HDLTS/decisions", "sweep/chunk_imbalance"):
        assert token in text


def test_format_metrics_empty():
    assert "no metrics" in format_metrics(MetricsRegistry().snapshot())
