"""Unit tests for the Chrome-trace and Prometheus exporters."""

import json

import pytest

from repro import obs
from repro.core import HDLTS
from repro.obs.export import (
    SCHEDULE_PID,
    WALL_PID,
    chrome_trace,
    prometheus_text,
    read_span_records,
    schedule_trace_events,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _record(kind, span_id, parent_id=0, pid=100, wall0=10.0, dur=0.5, **attrs):
    row = {
        "event": "span.end",
        "ts": wall0 + dur,
        "kind": kind,
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": pid,
        "wall0": wall0,
        "dur_s": dur,
    }
    row.update(attrs)
    return row


class TestChromeTrace:
    def test_document_shape(self):
        doc = chrome_trace([_record("sweep.run", 1)])
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"

    def test_spans_become_complete_events(self):
        doc = chrome_trace(
            [_record("sweep.chunk", 2, pid=7, wall0=11.0, dur=0.25, x=1.0)]
        )
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["pid"] == WALL_PID and event["tid"] == 7
        assert event["cat"] == "sweep.chunk"
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["args"]["x"] == 1.0
        assert event["args"]["span_id"] == 2

    def test_timestamps_relative_to_earliest_span(self):
        doc = chrome_trace(
            [
                _record("sweep.run", 1, wall0=100.0),
                _record("sweep.chunk", 2, wall0=101.5),
            ]
        )
        xs = sorted(
            (e for e in doc["traceEvents"] if e["ph"] == "X"),
            key=lambda e: e["ts"],
        )
        assert xs[0]["ts"] == 0.0
        assert xs[1]["ts"] == pytest.approx(1.5e6)

    def test_one_lane_per_pid_main_first(self):
        doc = chrome_trace(
            [
                _record("sweep.chunk", 2, pid=50),
                _record("sweep.run", 1, pid=99),
            ]
        )
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {99: "main 99", 50: "worker 50"}
        orders = {
            e["tid"]: e["args"]["sort_index"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_sort_index"
        }
        assert orders[99] < orders[50]

    def test_span_name_prefers_name_attribute(self):
        doc = chrome_trace([_record("scheduler.run", 1, name="HDLTS")])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["name"] == "HDLTS"

    def test_empty_records_still_valid(self):
        doc = chrome_trace([])
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        json.dumps(doc)  # serializable


class TestScheduleOverlay:
    @pytest.fixture
    def schedule(self, fig1):
        return HDLTS().run(fig1).schedule

    def test_overlay_lanes_match_cpus(self, schedule, fig1):
        events = schedule_trace_events(schedule)
        lanes = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert lanes == [f"P{p + 1}" for p in range(fig1.n_procs)]

    def test_overlay_slot_count_and_units(self, schedule):
        events = [
            e for e in schedule_trace_events(schedule, sim_unit_us=1000.0)
            if e["ph"] == "X"
        ]
        slots = sum(
            len(t.slots()) for t in schedule.timelines
        )
        assert len(events) == slots
        makespan_us = schedule.makespan * 1000.0
        assert max(e["ts"] + e["dur"] for e in events) == pytest.approx(
            makespan_us
        )

    def test_duplicates_marked(self, schedule):
        assert schedule.duplicates()
        events = [
            e for e in schedule_trace_events(schedule)
            if e["ph"] == "X" and e["args"]["duplicate"]
        ]
        assert events and all(e["name"].endswith("'") for e in events)

    def test_combined_trace_keeps_processes_apart(self, schedule):
        doc = chrome_trace(
            [_record("scheduler.run", 1)], schedule=schedule
        )
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {WALL_PID, SCHEDULE_PID}


class TestReadSpanRecords:
    def test_reads_only_spans_and_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        lines = [
            json.dumps(_record("sweep.chunk", 1)),
            json.dumps({"event": "sweep.point", "ts": 1.0}),
            json.dumps(_record("sweep.chunk", 2)),
            '{"event": "span.end", "trunc',
            json.dumps(_record("sweep.chunk", 3)),
        ]
        path.write_text("\n".join(lines) + "\n")
        records = read_span_records(path)
        assert [r["span_id"] for r in records] == [1, 2]

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [_record("sweep.run", 1)])
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc and "displayTimeUnit" in doc


class TestRecorderIntegration:
    def test_recorder_records_feed_exporter(self, fig1):
        recorder = obs.SpanRecorder()
        unsubscribe = obs.subscribe(recorder, topics=[obs.SPAN_TOPIC])
        try:
            with obs.tracing_scope(True):
                result = HDLTS().run(fig1)
        finally:
            unsubscribe()
        doc = chrome_trace(recorder.records, schedule=result.schedule)
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "scheduler.run" in cats and "schedule" in cats
        json.dumps(doc)


class TestPrometheusText:
    def test_counter_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("HDLTS/decisions").inc(5)
        registry.gauge("sweep/chunk_imbalance").set(1.25)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_HDLTS_decisions_total counter" in text
        assert "repro_HDLTS_decisions_total 5" in text
        assert "repro_sweep_chunk_imbalance 1.25" in text
        assert text.endswith("\n")

    def test_timer_summary(self):
        registry = MetricsRegistry()
        registry.timer("sweep/chunk_wall").observe(0.5)
        registry.timer("sweep/chunk_wall").observe(1.5)
        text = prometheus_text(registry.snapshot())
        assert "repro_sweep_chunk_wall_seconds_count 2" in text
        assert "repro_sweep_chunk_wall_seconds_sum 2.0" in text
        assert "repro_sweep_chunk_wall_seconds_min 0.5" in text
        assert "repro_sweep_chunk_wall_seconds_max 1.5" in text

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.prom"
        write_prometheus(path, registry.snapshot())
        assert path.read_text().endswith("\n")

    def test_empty_snapshot(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == "\n"
