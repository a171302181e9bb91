"""Unit tests for run telemetry: heartbeats, the status document, repro top.

A ``repro run`` directory is a one-shard campaign, so its status is the
``repro.status/2`` document of kind ``campaign``; service directories
get the same envelope with a jobs section.
"""

import json
import os
import time

import pytest

from repro.experiments import get_figure
from repro.experiments.campaign import Campaign, run_shard
from repro.experiments.parallel import run_sweep_parallel
from repro.runtime.context import RunContext, activate
from repro.runtime.telemetry import (
    HEARTBEAT_SCHEMA,
    STALE_S,
    STATUS_SCHEMA,
    HeartbeatWriter,
    format_status,
    load_heartbeats,
    status_document,
    telemetry_dir,
    watch,
)
from repro.service import api
from repro.service.store import ColumnarStore
from repro.service.worker import Worker
from tests.experiments.test_harness import tiny_sweep


@pytest.fixture
def run_dir(tmp_path):
    return tmp_path / "run"


def _new_run_dir(run_dir, reps=4, chunk_size=2, **ctx_kwargs):
    context = RunContext(chunk_size=chunk_size, **ctx_kwargs)
    return Campaign.create(
        run_dir, [get_figure("fig13")], reps=reps, n_shards=1,
        context=context,
    )


def _record(campaign, chunks):
    """Append ``(x_index, lo, hi)`` chunks to shard 0 with dummy values."""
    definition = campaign.definitions[0]
    with ColumnarStore(
        campaign.shard_path(0), campaign.groups(), mode="a"
    ) as store:
        for x_index, lo, hi in chunks:
            values = [
                {name: 1.0 + rep for name in definition.schedulers}
                for rep in range(lo, hi)
            ]
            store.append_chunk(
                definition.key, x_index, definition.x_values[x_index],
                lo, hi, values,
            )


def _beat(run_dir, pid, ts, started, chunks_done, role="main", **owner):
    """Forge one heartbeat file (a process that is not this one).

    ``owner`` is ``shard=K`` (the default, shard 0) or ``worker=ID``,
    plus optionally ``state``.
    """
    tdir = telemetry_dir(run_dir)
    tdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": HEARTBEAT_SCHEMA, "pid": pid, "role": role,
        "rss_kb": 1, "cpu_user_s": 0.0, "cpu_sys_s": 0.0,
        "started": started, "chunks_done": chunks_done,
        "last_event_ts": ts, "ts": ts, **(owner or {"shard": 0}),
    }
    (tdir / f"heartbeat-{pid}.json").write_text(json.dumps(doc))


class TestHeartbeatWriter:
    def test_beat_writes_schema_and_resources(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, role="worker")
        writer.beat(force=True)
        doc = json.loads(writer.path.read_text())
        assert doc["schema"] == HEARTBEAT_SCHEMA
        assert doc["pid"] == writer.pid
        assert doc["role"] == "worker"
        assert doc["rss_kb"] > 0
        assert doc["cpu_user_s"] >= 0.0
        assert doc["chunks_done"] == 0
        assert doc["state"] == "busy"
        assert doc["started"] == writer.started <= doc["ts"]

    def test_started_is_recorded_once(self, tmp_path):
        writer = HeartbeatWriter(tmp_path)
        writer.beat(1, force=True)
        first = json.loads(writer.path.read_text())["started"]
        writer.beat(2, force=True)
        assert json.loads(writer.path.read_text())["started"] == first

    def test_beat_counts_chunks_exactly(self, tmp_path):
        writer = HeartbeatWriter(tmp_path)
        writer.beat(1, force=True)
        writer.beat(2, last_event_ts=123.0, force=True)
        doc = json.loads(writer.path.read_text())
        assert doc["chunks_done"] == 2
        assert doc["last_event_ts"] == 123.0

    def test_exit_beat_carries_the_final_counts(self, tmp_path):
        # entry and exit are forced; the beats between are throttled
        # but still record their counts and fields
        with HeartbeatWriter(tmp_path, throttle_s=60.0) as writer:
            assert json.loads(writer.path.read_text())["state"] == "busy"
            writer.beat(1, last_event_ts=5.0, state="idle", failed=1)
            writer.beat(2)
            doc = json.loads(writer.path.read_text())
            assert doc["chunks_done"] == 0  # throttled
        doc = json.loads(writer.path.read_text())
        assert doc["chunks_done"] == 2 and doc["last_event_ts"] == 5.0
        assert doc["state"] == "exited" and doc["failed"] == 1

    def test_beat_throttles(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, throttle_s=60.0)
        writer.beat(force=True)
        writer.beat(chunks_done=5)  # throttled: file keeps the old count
        doc = json.loads(writer.path.read_text())
        assert doc["chunks_done"] == 0
        writer.beat(force=True)
        assert json.loads(writer.path.read_text())["chunks_done"] == 5

    def test_no_torn_reads(self, tmp_path):
        # the atomic tmp+replace protocol never leaves a partial file
        writer = HeartbeatWriter(tmp_path)
        for k in range(20):
            writer.beat(k, force=True)
            json.loads(writer.path.read_text())


class TestLoadHeartbeats:
    def test_missing_directory_is_empty(self, run_dir):
        assert load_heartbeats(run_dir) == []

    def test_skips_garbage_and_foreign_files(self, run_dir):
        tdir = telemetry_dir(run_dir)
        HeartbeatWriter(tdir, role="worker").beat(force=True)
        (tdir / "heartbeat-99999.json").write_text("{half a doc")
        (tdir / "heartbeat-88888.json").write_text('{"schema": "other"}')
        beats = load_heartbeats(run_dir)
        assert len(beats) == 1 and beats[0]["role"] == "worker"

    def test_main_sorts_first(self, run_dir):
        tdir = telemetry_dir(run_dir)
        worker = HeartbeatWriter(tdir, role="worker")
        worker.beat(force=True)
        # a second process's heartbeat, forged with a different pid
        doc = json.loads(worker.path.read_text())
        doc["pid"], doc["role"] = 1, "main"
        (tdir / "heartbeat-1.json").write_text(json.dumps(doc))
        roles = [b["role"] for b in load_heartbeats(run_dir)]
        assert roles == ["main", "worker"]


class TestRunStatus:
    def test_fresh_run_dir(self, run_dir):
        _new_run_dir(run_dir)
        status = status_document(run_dir)
        assert status["schema"] == STATUS_SCHEMA
        assert status["kind"] == "campaign"
        assert status["complete"] is False
        assert status["tasks_done"] == 0
        assert status["n_shards"] == 1
        # reps=4 / chunk_size=2 -> 2 chunks per x value
        definition = get_figure("fig13")
        assert status["tasks_total"] == len(definition.x_values) * 2
        assert status["eta_s"] is None  # no heartbeat, no rate

    def test_interrupted_run_counts_ledger(self, run_dir):
        campaign = _new_run_dir(run_dir)
        _record(campaign, [(0, 0, 2), (0, 2, 4)])
        now = time.time()
        # 2 live chunks in 4 s: 0.5 tasks/s, 8 of 10 tasks left -> 16 s
        _beat(run_dir, pid=41, ts=now, started=now - 4.0, chunks_done=2)
        status = status_document(run_dir, now=now)
        assert (status["tasks_done"], status["tasks_total"]) == (2, 10)
        assert status["complete"] is False
        assert status["eta_s"] == pytest.approx(16.0)
        (sweep,) = status["sweeps"]
        assert sweep["rows_done"] == 4 and sweep["complete"] is False

    def test_completed_run(self, run_dir):
        campaign = _new_run_dir(run_dir)
        definition = get_figure("fig13")
        _record(
            campaign,
            [(i, lo, lo + 2) for i in range(len(definition.x_values))
             for lo in (0, 2)],
        )
        status = status_document(run_dir)
        assert status["complete"] is True
        assert status["tasks_done"] == status["tasks_total"]
        assert status["stragglers"] == []
        assert status["eta_s"] is None

    def test_straggler_flagging(self, run_dir):
        campaign = _new_run_dir(run_dir)
        _record(campaign, [(0, 0, 2)])
        now = time.time()
        _beat(run_dir, pid=41, ts=now - 3600.0, started=now - 3700.0,
              chunks_done=1)
        status = status_document(run_dir, now=now + 3600.0)
        assert status["stragglers"] == [0]
        # a stale beat measures no rate: no ETA from a dead process
        assert status["eta_s"] is None

    def test_agrees_with_real_run(self, run_dir):
        campaign = _new_run_dir(run_dir, reps=2, chunk_size=1)
        definition = campaign.definitions[0]
        context = campaign.context.with_(telemetry=str(telemetry_dir(run_dir)))
        with activate(context), ColumnarStore(
            campaign.shard_path(0), campaign.groups(), mode="a"
        ) as store:
            run_sweep_parallel(
                definition, reps=2, seed=0, workers=1, chunk_size=1,
                store=store, start_method="serial",
            )
        status = status_document(run_dir)
        assert status["complete"] is True
        assert status["tasks_done"] == len(definition.x_values) * 2
        (beat,) = load_heartbeats(run_dir)
        assert beat["shard"] == 0 and beat["state"] == "exited"
        assert beat["chunks_done"] == status["tasks_total"]
        (process,) = status["processes"]
        assert process["tasks"] == status["tasks_total"]
        assert process["stale"] is False


class TestFormatTop:
    @pytest.fixture
    def status(self, run_dir):
        campaign = _new_run_dir(run_dir)
        _record(campaign, [(0, 0, 2)])
        now = time.time()
        _beat(run_dir, pid=41, ts=now, started=now - 2.0, chunks_done=1)
        return status_document(run_dir, now=now)

    def test_frame_contents(self, status):
        frame = format_status(status)
        assert "repro top" in frame
        assert "[#" in frame  # progress bar
        assert "1/10" in frame
        assert "fig13" in frame
        assert "ETA 0:00:18" in frame  # 9 tasks left at 0.5 tasks/s
        assert "41" in frame  # the shard's pid

    def test_straggler_annotation(self, status):
        status["shards"][0]["straggler"] = True
        assert "STRAGGLER" in format_status(status)

    def test_complete_frame(self, status):
        status["complete"] = True
        frame = format_status(status)
        assert "complete" in frame
        assert "ETA" not in frame


class TestWatch:
    def test_once_prints_one_frame(self, run_dir, capsys):
        _new_run_dir(run_dir)
        assert watch(run_dir, once=True) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "\x1b[2J" not in out

    def test_live_exits_on_complete(self, run_dir, capsys):
        campaign = _new_run_dir(run_dir, reps=2, chunk_size=2)
        definition = campaign.definitions[0]
        _record(campaign, [(i, 0, 2) for i in range(len(definition.x_values))])
        assert watch(run_dir, interval_s=0.01) == 0


# ----------------------------------------------------------------------
# one document over every directory kind
# ----------------------------------------------------------------------
def _finished_run_dir(path):
    """A ``repro run`` directory: one shard, a pool-free collector."""
    campaign = _new_run_dir(path, reps=2, chunk_size=1)
    context = campaign.context.with_(telemetry=str(telemetry_dir(path)))
    with activate(context), ColumnarStore(
        campaign.shard_path(0), campaign.groups(), mode="a"
    ) as store:
        run_sweep_parallel(
            campaign.definitions[0], reps=2, seed=0, workers=1,
            chunk_size=1, store=store, start_method="serial",
        )
    return len(campaign.tasks()), "campaign", {"main"}, 10


def _finished_campaign_dir(path):
    """A two-shard campaign; both shards ran in this process, whose
    heartbeat file the second shard's writer rewrote."""
    campaign = Campaign.create(
        path, [get_figure("fig13")], reps=2, n_shards=2,
        context=RunContext(chunk_size=1),
    )
    for shard in range(2):
        run_shard(campaign, shard)
    return (
        len(campaign.tasks()), "campaign", {"shard"},
        len(campaign.shard_tasks(1)),
    )


def _finished_service_dir(path):
    """A service directory drained by one in-process worker."""
    api.submit(path, [tiny_sweep()], 4, RunContext(seed=3, chunk_size=2))
    Worker(path, worker_id="w1", drain=True, poll_s=0.01).run()
    return 4, "service", {"worker"}, 4


@pytest.mark.parametrize(
    "make", [_finished_run_dir, _finished_campaign_dir, _finished_service_dir],
    ids=["run", "campaign", "service"],
)
def test_status_document_envelope(tmp_path, make):
    tasks, kind, roles, counted = make(tmp_path / "dir")
    status = status_document(tmp_path / "dir")
    assert status["schema"] == STATUS_SCHEMA
    assert status["kind"] == kind
    assert status["run_dir"] == str(tmp_path / "dir")
    assert status["complete"] is True
    assert status["tasks_done"] == status["tasks_total"] == tasks
    assert status["eta_s"] is None
    assert {p["role"] for p in status["processes"]} == roles
    for process in status["processes"]:
        assert set(process) == {
            "pid", "role", "shard", "worker", "state", "tasks",
            "beat_age_s", "stale",
        }
        assert process["state"] == "exited" and process["stale"] is False
    # the exit beat carries the writer's final count
    assert sum(p["tasks"] for p in status["processes"]) == counted
    section = {"campaign": "shards", "service": "jobs"}[kind]
    assert status[section]
    frame = format_status(status)
    assert frame.startswith(f"repro top -- {tmp_path / 'dir'}  ({kind}, complete)")
    assert f"{tasks}/{tasks}" in frame
    assert "PID" in frame and "exited" in frame
    assert json.loads(json.dumps(status)) == status


class TestStaleness:
    """One floor, one rule: an unfinished process silent past
    ``STALE_S`` is stale -- a shard process and a service worker alike."""

    @pytest.fixture(params=["shard", "service-worker"])
    def live_dir(self, request, tmp_path):
        path = tmp_path / "dir"
        if request.param == "shard":
            campaign = _new_run_dir(path)
            _record(campaign, [(0, 0, 2)])
            owner = {"shard": 0}
        else:
            api.submit(path, [tiny_sweep()], 2, RunContext(chunk_size=2))
            owner = {"worker": "worker-41"}
        return path, owner

    def test_silent_past_the_floor_is_stale(self, live_dir):
        path, owner = live_dir
        now = 1_000_000.0
        _beat(path, pid=41, ts=now, started=now - 2.0, chunks_done=1,
              **owner)
        fresh = status_document(path, now=now + STALE_S - 1.0)
        late = status_document(path, now=now + STALE_S + 1.0)
        assert [p["stale"] for p in fresh["processes"]] == [False]
        assert [p["stale"] for p in late["processes"]] == [True]
        assert late["eta_s"] is None  # a stale process measures no rate
        assert "stale?" in format_status(late)

    def test_exited_is_never_stale(self, live_dir):
        path, owner = live_dir
        now = 1_000_000.0
        _beat(path, pid=41, ts=now, started=now - 2.0, chunks_done=1,
              state="exited", **owner)
        late = status_document(path, now=now + 10 * STALE_S)
        assert [p["stale"] for p in late["processes"]] == [False]
        assert late["processes"][0]["state"] == "exited"

    def test_live_owner_drives_the_eta(self, live_dir):
        path, owner = live_dir
        now = 1_000_000.0
        _beat(path, pid=41, ts=now, started=now - 2.0, chunks_done=1,
              **owner)
        status = status_document(path, now=now)
        remaining = status["tasks_total"] - status["tasks_done"]
        assert status["eta_s"] == pytest.approx(remaining / 0.5)


class TestLost:
    """A pool worker writes no exit beat; once the process that owns it
    (its heartbeat's ``parent``) beat ``exited``, it reads ``lost``."""

    def test_an_earlier_sessions_pool_worker_reads_lost(self, run_dir):
        campaign = _new_run_dir(run_dir)
        _record(campaign, [(0, 0, 2)])
        now = 1_000_000.0
        # the interrupted session: the collector beat exited, its pool
        # worker's last beat still reads busy
        _beat(run_dir, pid=10, ts=now - 60.0, started=now - 90.0,
              chunks_done=1, shard=0, state="exited")
        _beat(run_dir, pid=11, ts=now - 61.0, started=now - 90.0,
              chunks_done=4, role="worker", state="busy", parent=10)
        # the resumed session, live
        _beat(run_dir, pid=20, ts=now, started=now - 2.0, chunks_done=1,
              shard=0, state="busy")
        _beat(run_dir, pid=21, ts=now, started=now - 2.0, chunks_done=2,
              role="worker", state="busy", parent=20)
        status = status_document(run_dir, now=now)
        states = {
            p["pid"]: (p["state"], p["stale"]) for p in status["processes"]
        }
        assert states == {
            10: ("exited", False),
            11: ("lost", False),  # gone, so never stale either
            20: ("busy", False),
            21: ("busy", False),
        }
        remaining = status["tasks_total"] - status["tasks_done"]
        assert status["eta_s"] == pytest.approx(remaining / 0.5)
        assert "lost" in format_status(status)

    def test_pool_workers_name_their_owner(self, run_dir):
        campaign = _new_run_dir(run_dir, reps=2, chunk_size=1)
        context = campaign.context.with_(
            telemetry=str(telemetry_dir(run_dir))
        )
        with activate(context), ColumnarStore(
            campaign.shard_path(0), campaign.groups(), mode="a"
        ) as store:
            run_sweep_parallel(
                campaign.definitions[0], reps=2, seed=0, workers=2,
                chunk_size=1, store=store, start_method="fork",
            )
        workers = [b for b in load_heartbeats(run_dir) if b["role"] == "worker"]
        assert workers and all(b["parent"] == os.getpid() for b in workers)
        status = status_document(run_dir)
        states = {p["role"]: set() for p in status["processes"]}
        for process in status["processes"]:
            states[process["role"]].add(process["state"])
        assert states == {"main": {"exited"}, "worker": {"lost"}}

    def test_an_exit_beat_is_never_lost(self, run_dir):
        _new_run_dir(run_dir)
        now = 1_000_000.0
        _beat(run_dir, pid=10, ts=now, started=now - 9.0, chunks_done=1,
              shard=0, state="exited")
        _beat(run_dir, pid=11, ts=now, started=now - 9.0, chunks_done=1,
              role="worker", state="exited", parent=10)
        status = status_document(run_dir, now=now)
        assert [p["state"] for p in status["processes"]] == [
            "exited", "exited",
        ]

    def test_a_lost_owner_measures_no_rate(self, run_dir):
        campaign = _new_run_dir(run_dir)
        _record(campaign, [(0, 0, 2)])
        now = 1_000_000.0
        _beat(run_dir, pid=10, ts=now - 5.0, started=now - 9.0,
              chunks_done=0, role="main", worker="supervisor",
              state="exited")
        _beat(run_dir, pid=12, ts=now, started=now - 2.0, chunks_done=1,
              role="shard", shard=0, state="busy", parent=10)
        status = status_document(run_dir, now=now)
        (shard,) = [p for p in status["processes"] if p["pid"] == 12]
        assert shard["state"] == "lost" and not shard["stale"]
        assert status["eta_s"] is None


def test_pool_workers_leave_no_stale_process_in_a_complete_dir(run_dir):
    """Pool workers write no exit beat; once the directory is complete
    their last (busy) beat is not reported stale."""
    campaign = _new_run_dir(run_dir, reps=2, chunk_size=2)
    definition = campaign.definitions[0]
    _record(campaign, [(i, 0, 2) for i in range(len(definition.x_values))])
    now = 1_000_000.0
    _beat(run_dir, pid=77, ts=now, started=now - 5.0, chunks_done=3,
          role="worker", state="busy")
    status = status_document(run_dir, now=now + 10 * STALE_S)
    (process,) = status["processes"]
    assert process["role"] == "worker" and process["state"] == "busy"
    assert status["complete"] and process["stale"] is False
