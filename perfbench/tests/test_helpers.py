"""Tests for the benchmark's own helpers (no program import needed)."""

import json
from pathlib import Path

import pytest

import layers
import workloads
from reference import Speedometer
from tracing import METRIC_NAME, UNIT, Tracer, exclusive_times, percentile, samples_needed

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(span_id, start, end, parent=None, kind="k", **attrs):
    return dict(
        span_id=span_id, parent_id=parent, wall0=start, dur_s=end - start,
        kind=kind, **attrs,
    )


# -- self time --------------------------------------------------------------
def test_nested_children_are_subtracted_level_by_level():
    owned = exclusive_times([
        span("p", 0.0, 10.0),
        span("c", 2.0, 5.0, "p"),
        span("g", 3.0, 4.0, "c"),
    ])
    assert owned == pytest.approx({"p": 7.0, "c": 2.0, "g": 1.0})


def test_overlapping_children_split_the_overlap_and_sum_to_the_parent():
    owned = exclusive_times([
        span("p", 0.0, 10.0),
        span("a", 1.0, 6.0, "p"),
        span("b", 4.0, 8.0, "p"),  # overlaps a on [4, 6]: the later start owns it
    ])
    # the parent owns what the union of its children leaves: 10 - 7
    assert owned == pytest.approx({"p": 3.0, "a": 3.0, "b": 4.0})
    assert sum(owned.values()) == pytest.approx(10.0)


def test_deeper_span_owns_an_overlap_over_a_later_sibling():
    owned = exclusive_times([
        span("p", 0.0, 10.0),
        span("a", 1.0, 9.0, "p"),
        span("a1", 2.0, 8.0, "a"),
        span("b", 3.0, 5.0, "p"),  # another process's span under the same parent
    ])
    assert owned == pytest.approx({"p": 2.0, "a": 2.0, "a1": 6.0, "b": 0.0})


def test_children_are_clipped_to_their_parent():
    owned = exclusive_times([span("p", 0.0, 10.0), span("c", 8.0, 12.0, "p")])
    assert owned == pytest.approx({"p": 8.0, "c": 2.0})


def test_self_time_table_rows_sum_to_the_traced_wall():
    records = [
        span("t", 100.0, 110.0, kind="bench.pass", traced=True),
        span("u", 120.0, 130.0, kind="bench.pass", traced=False),
        span("s", 101.0, 107.0, "t", kind="sched", name="HDLTS"),
        span("r", 102.0, 103.0, "s", kind="model.rank"),
        span("x", 121.0, 129.0, "u", kind="sched", name="HDLTS"),
    ]
    rows, wall = layers.self_time_table(records)
    assert wall == pytest.approx(10.0)
    assert rows == pytest.approx(
        {"unattributed": 4.0, "sched.HDLTS": 5.0, "model.rank": 1.0}
    )
    assert sum(rows.values()) == pytest.approx(wall)


def test_worker_spans_link_to_the_job_of_their_ticket():
    records = [
        span("j", 0.0, 5.0, kind="service.job", ticket="T1"),
        span("w", 1.0, 4.0, kind="worker.task", ticket="T1"),
        span("idle", 6.0, 7.0, kind="queue.claim", empty=True),
    ]
    layers.link_worker_spans(records)
    assert records[1]["parent_id"] == "j"
    assert records[2]["parent_id"] is None


def test_job_costs_share_groups_and_overhead_and_conserve_the_unit_wall():
    # one batched group of three lanes and two scalar replications
    costs = workloads.job_costs(0.5, [(0.3, 3), (0.05, 1), (0.05, 1)])
    assert costs == pytest.approx([0.12, 0.12, 0.12, 0.07, 0.07])
    assert sum(costs) == pytest.approx(0.5)


def test_speedometer_brackets_work_with_the_readings_before_and_after():
    speed = Speedometer()
    with pytest.raises(RuntimeError):
        speed.around()
    before = speed.sample()
    bracket = speed.around()
    assert bracket == pytest.approx((before + speed.readings[-1]) / 2)
    assert speed.slowdown() == pytest.approx(sum(speed.readings) / 2)


# -- the tracer --------------------------------------------------------------
class Job:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        if n < 0:
            raise ValueError(n)
        return n


def test_tracer_records_nested_detail_spans_only_while_detail_is_on():
    originals = dict(Job.__dict__)
    tracer = Tracer()
    tracer.wrap(Job, "outer", "outer", lambda a, k, r: {"n": a[1]}, coarse=True)
    tracer.wrap(Job, "inner", "inner")
    try:
        assert Job().outer(2) == 3
        assert [r["kind"] for r in tracer.take()] == ["outer"]
        tracer.detail = True
        Job().outer(2)
        inner, outer = tracer.take()
        assert inner["parent_id"] == outer["span_id"] and outer["parent_id"] is None
        assert outer["n"] == 2 and outer["event"] == "span.end"
        with pytest.raises(ValueError):
            Job().outer(-1)
        assert all(r.get("error") for r in tracer.take())
    finally:
        tracer.unwrap_all()
    assert Job.__dict__["outer"] is originals["outer"]
    assert Job.__dict__["inner"] is originals["inner"]
    assert tracer._stack == []


def test_tracer_stamps_attributes_on_root_spans():
    tracer = Tracer()
    tracer.attrs["ticket"] = "T9"
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    b, a = tracer.take()
    assert a["ticket"] == "T9" and "ticket" not in b


# -- the percentile rule -----------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90
    assert percentile(samples, 50) == 50
    with pytest.raises(ValueError):
        percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_needed_is_the_smallest_count_percentile_accepts():
    for q in (50, 90, 99):
        n = samples_needed(q)
        percentile(range(n), q)
        with pytest.raises(ValueError):
            percentile(range(n - 1), q)
    assert samples_needed(90) == 100


# -- names -------------------------------------------------------------------
def test_metric_and_workload_names_are_valid_and_match_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_invalid_names_are_rejected():
    for bad in ("", "-lead", "a b", "x/y", "a" * 65):
        assert not METRIC_NAME.fullmatch(bad)
    assert METRIC_NAME.fullmatch("sched.HDLTS.decisions_per_s")
    assert not UNIT.fullmatch("megabytes-per-sec")  # 17 characters
