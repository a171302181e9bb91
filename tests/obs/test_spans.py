"""Unit tests for hierarchical span tracing (repro.obs.spans)."""

import os

import pytest

from repro import obs
from repro.core import HDLTS
from repro.obs import spans
from repro.runtime.context import DEFAULT_CONTEXT, activate


@pytest.fixture
def recorder():
    rec = obs.SpanRecorder()
    unsubscribe = obs.subscribe(rec, topics=[obs.SPAN_TOPIC])
    yield rec
    unsubscribe()


class TestQuietPath:
    def test_span_off_times_but_emits_nothing(self, recorder):
        with obs.scoped(merge_up=False) as registry:
            with obs.span("sweep.run", timer="t", figure="fig2") as sp:
                sp.set(anything="kept on the handle")
        assert sp.dur_s > 0.0
        assert sp.span_id == 0 and not spans._stack
        assert recorder.records == []
        assert not registry

    def test_traced_phase_without_subscriber_is_the_noop(self):
        # phases run per decision step: with nobody to emit to and
        # metrics off, a traced run's phases must stay free
        assert not obs.get_bus().active
        with obs.tracing_scope(True):
            assert obs.phase("eft_vector") is spans.NOOP_SPAN

    def test_tracing_defaults_off(self):
        assert obs.tracing() is False

    def test_noop_span_is_reentrant(self):
        with spans.NOOP_SPAN, spans.NOOP_SPAN:
            pass


class TestTracingScope:
    def test_scope_turns_tracing_on_and_restores(self):
        with obs.tracing_scope(True):
            assert obs.tracing() is True
        assert obs.tracing() is False

    def test_context_trace_field_enables_tracing(self):
        with activate(DEFAULT_CONTEXT.with_(trace=True)):
            assert obs.tracing() is True
        assert obs.tracing() is False

    def test_explicit_override_beats_context(self):
        with activate(DEFAULT_CONTEXT.with_(trace=True)):
            with obs.tracing_scope(False):
                assert obs.tracing() is False


class TestSpanRecords:
    def test_record_shape(self, recorder):
        with obs.tracing_scope(True):
            with obs.span("scheduler.run", name="HDLTS"):
                pass
        (record,) = recorder.records
        assert record["event"] == "span.end"
        assert record["kind"] == "scheduler.run"
        assert record["name"] == "HDLTS"
        assert record["pid"] == os.getpid()
        assert record["span_id"] > 0
        assert record["parent_id"] == 0
        assert record["dur_s"] >= 0.0
        assert record["wall0"] > 0.0

    def test_nesting_parents(self, recorder):
        with obs.tracing_scope(True):
            with obs.span("sweep.run"):
                with obs.span("sweep.point"):
                    pass
                with obs.span("sweep.point"):
                    pass
        # children close before the parent
        inner_a, inner_b, outer = recorder.records
        assert outer["kind"] == "sweep.run"
        assert inner_a["parent_id"] == outer["span_id"]
        assert inner_b["parent_id"] == outer["span_id"]
        assert inner_a["span_id"] != inner_b["span_id"]

    def test_set_attaches_attributes(self, recorder):
        with obs.tracing_scope(True):
            with obs.span("scheduler.run") as sp:
                sp.set(makespan=73.0, n_tasks=10)
        (record,) = recorder.records
        assert record["makespan"] == 73.0 and record["n_tasks"] == 10

    def test_exception_recorded_and_propagates(self, recorder):
        with obs.tracing_scope(True):
            with pytest.raises(RuntimeError):
                with obs.span("sweep.chunk"):
                    raise RuntimeError("boom")
        (record,) = recorder.records
        assert record["error"] == "RuntimeError"

    def test_quiet_bus_emits_nothing(self):
        # tracing on, but nobody subscribed: the span closes silently
        with obs.tracing_scope(True):
            with obs.span("sweep.run"):
                pass


class TestPhaseSpans:
    def test_traced_phase_is_a_span(self, recorder):
        with obs.tracing_scope(True):
            with obs.phase("eft_vector"):
                pass
        (record,) = recorder.records
        assert record["kind"] == "phase"
        assert record["name"] == "eft_vector"

    def test_phase_spans_require_tracing(self, recorder):
        with obs.enabled_scope(True), obs.scoped(merge_up=False) as registry:
            with obs.phase("eft_vector"):
                pass
        assert recorder.records == []
        assert registry.timer("eft_vector").count == 1

    def test_tracing_alone_records_no_timers(self, recorder, fig1):
        with obs.scoped(merge_up=False) as registry:
            with obs.tracing_scope(True):
                HDLTS().run(fig1)
        assert not registry
        assert {r["kind"] for r in recorder.records} == {
            "scheduler.run", "phase"
        }

    def test_phase_spans_nest_under_the_scheduler_run(self, recorder, fig1):
        with obs.tracing_scope(True):
            HDLTS().run(fig1)
        (run,) = [r for r in recorder.records if r["kind"] == "scheduler.run"]
        phases = [r for r in recorder.records if r["kind"] == "phase"]
        assert phases
        assert {p["name"] for p in phases} >= {
            "HDLTS/eft_vector", "HDLTS/commit"
        }
        by_id = {r["span_id"]: r for r in recorder.records}
        for p in phases:
            parent = by_id[p["parent_id"]]
            assert parent is run or parent["kind"] == "phase"


def _span_totals(records):
    """Per timer key: (count, float sum of dur_s in closing order)."""
    timer_of = {
        "phase": lambda r: r["name"],
        "scheduler.run": lambda r: r["name"],
        "sweep.replication": lambda r: "sweep/replication",
        "sweep.batch": lambda r: "sweep/batch",
    }
    totals = {}
    for r in records:
        if r["kind"] in timer_of:
            key = timer_of[r["kind"]](r)
            count, total = totals.get(key, (0, 0.0))
            totals[key] = (count + 1, total + r["dur_s"])
    return totals


class TestOneClock:
    """Every recorded duration is one span's ``dur_s``."""

    def _check(self, timers, records):
        totals = _span_totals(records)
        assert set(timers) == set(totals)
        for key, timer in timers.items():
            assert (timer["count"], timer["total"]) == totals[key], key

    def test_timer_totals_are_span_sums(self, recorder, fig1):
        from repro.experiments import get_figure, run_sweep

        ctx = DEFAULT_CONTEXT.with_(trace=True, metrics=True, batch="off")
        with activate(ctx), obs.scoped(merge_up=False) as registry:
            result = HDLTS().run(fig1)
        run_records = list(recorder.records)
        timers = registry.snapshot()["timers"]
        assert {"HDLTS", "HDLTS/eft_vector", "HDLTS/commit"} <= set(timers)
        self._check(timers, run_records)
        (run,) = [r for r in run_records if r["kind"] == "scheduler.run"]
        assert result.wall_time == run["dur_s"]

        recorder.records.clear()
        with activate(ctx), obs.scoped(merge_up=False):
            sweep = run_sweep(get_figure("fig13"), reps=2)
        timers = sweep.metrics["timers"]
        assert {"HEFT", "HDLTS/eft_vector", "sweep/replication"} <= set(timers)
        self._check(timers, recorder.records)

    def test_batched_groups_feed_the_batch_timer(self, recorder):
        from repro.experiments import get_figure, run_sweep

        ctx = DEFAULT_CONTEXT.with_(trace=True, metrics=True, batch="auto")
        with activate(ctx), obs.scoped(merge_up=False):
            sweep = run_sweep(get_figure("fig13"), reps=16)
        assert any(r["kind"] == "sweep.batch" for r in recorder.records)
        self._check(sweep.metrics["timers"], recorder.records)

    def test_wall_time_without_recording(self, recorder, fig1):
        result = HDLTS().run(fig1)
        assert result.wall_time > 0.0
        assert recorder.records == [] and not spans._stack


class TestInstrumentedCode:
    def test_scheduler_run_emits_span(self, recorder, fig1):
        with obs.tracing_scope(True):
            result = HDLTS().run(fig1)
        kinds = [r["kind"] for r in recorder.records]
        assert "scheduler.run" in kinds
        record = next(r for r in recorder.records if r["kind"] == "scheduler.run")
        assert record["name"] == "HDLTS"
        assert record["makespan"] == result.makespan
        assert record["n_tasks"] == fig1.n_tasks

    def test_sweep_hierarchy(self, recorder):
        from repro.experiments import get_figure, run_sweep

        with obs.tracing_scope(True):
            run_sweep(get_figure("fig13"), reps=1)
        by_kind = {}
        for record in recorder.records:
            by_kind.setdefault(record["kind"], []).append(record)
        assert set(by_kind) >= {
            "sweep.run", "sweep.point", "sweep.replication", "scheduler.run"
        }
        run_id = by_kind["sweep.run"][0]["span_id"]
        assert all(p["parent_id"] == run_id for p in by_kind["sweep.point"])
        point_ids = {p["span_id"] for p in by_kind["sweep.point"]}
        assert all(
            r["parent_id"] in point_ids for r in by_kind["sweep.replication"]
        )
        rep_ids = {r["span_id"] for r in by_kind["sweep.replication"]}
        assert all(
            s["parent_id"] in rep_ids for s in by_kind["scheduler.run"]
        )

    def test_tracing_off_is_bit_identical(self, fig1):
        baseline = HDLTS().run(fig1).makespan
        with obs.tracing_scope(True):
            traced = HDLTS().run(fig1).makespan
        assert traced == baseline


class TestSpanRecorder:
    def test_len_and_records(self, recorder):
        assert len(recorder) == 0
        with obs.tracing_scope(True):
            with obs.span("sweep.chunk"):
                pass
        assert len(recorder) == 1
