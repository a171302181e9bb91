"""End-to-end service tests: workers, API, crash recovery, CLI.

The headline contract is the crash-safety criterion: ``kill -9`` a
worker mid-task, let the lease expire, drain with another worker, and
the merged result is *bit-identical* to a serial harness run -- the
same accumulator fields to the last ulp.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.experiments.harness import run_sweep
from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition
from repro.runtime.context import RunContext
from repro.runtime.telemetry import (
    STATUS_SCHEMA,
    format_status,
    load_heartbeats,
    status_document,
)
from repro.service import api
from repro.service.store import SqliteStore
from repro.service.worker import Worker, serve
from tests.experiments.test_harness import tiny_sweep

CONTEXT = RunContext(seed=3, chunk_size=2)


def _assert_bit_identical(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            a, b = result.stats[x][name], serial.stats[x][name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            ), (x, name)


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------
class TestWorker:
    def test_drain_merges_bit_identically(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 6, CONTEXT)
        report = Worker(
            tmp_path / "svc", worker_id="w1", drain=True, poll_s=0.01
        ).run()
        assert report.failed == 0 and not report.interrupted
        assert report.executed == 6  # 2 x points, 3 chunks each

        results = api.result(tmp_path / "svc", job.ticket)
        serial = run_sweep(tiny_sweep(), reps=6, seed=3)
        _assert_bit_identical(results["tiny"], serial)

    def test_progress_events_persisted(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)
        Worker(tmp_path / "svc", worker_id="w1", drain=True,
               poll_s=0.01).run()
        with SqliteStore.open(tmp_path / "svc") as store:
            names = [e["name"] for e in store.events()]
            payloads = [json.loads(e["payload"]) for e in store.events()]
        assert "service.claim" in names
        assert "service.commit" in names
        assert any(
            p.get("ticket") == job.ticket and p.get("committed")
            for p in payloads
        )
        # the job-done announcement fires exactly once
        assert names.count("service.job") == 1

    def test_claim_beats_busy_at_once(self, tmp_path, monkeypatch):
        """Right after a claim, with no sleep, the heartbeat reads busy.

        The start beat wrote ``idle`` well within the beat throttle, so
        only the forced idle -> busy flip can have rewritten the file
        before the claimed task runs.
        """
        api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)

        import repro.experiments.harness as harness

        seen = []
        original = harness.run_replications

        def observe(*args, **kwargs):
            beat = [
                b for b in load_heartbeats(tmp_path / "svc")
                if b["pid"] == os.getpid()
            ]
            seen.append(beat[0]["state"])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_replications", observe)
        report = Worker(tmp_path / "svc", worker_id="w1", drain=True,
                        poll_s=0.01).run()
        assert report.executed == 2
        assert seen and all(state == "busy" for state in seen), seen

    def test_deterministic_failure_fails_the_job(self, tmp_path, monkeypatch):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)

        import repro.experiments.harness as harness

        def boom(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(harness, "run_replications", boom)
        report = Worker(tmp_path / "svc", worker_id="w1", drain=True,
                        poll_s=0.01).run()
        assert report.failed == 1
        doc = api.job_status(tmp_path / "svc", job.ticket)
        assert doc["state"] == "failed"
        assert "injected" in doc["error"]
        with pytest.raises(ValueError, match="failed"):
            api.result(tmp_path / "svc", job.ticket)

    def test_max_tasks_pauses_resumable(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 6, CONTEXT)
        first = Worker(tmp_path / "svc", worker_id="w1", drain=True,
                       poll_s=0.01, max_tasks=2).run()
        assert first.executed == 2
        assert api.job_status(tmp_path / "svc", job.ticket)["state"] == (
            "running"
        )
        second = Worker(tmp_path / "svc", worker_id="w2", drain=True,
                        poll_s=0.01).run()
        assert second.executed == 4
        results = api.result(tmp_path / "svc", job.ticket)
        _assert_bit_identical(
            results["tiny"], run_sweep(tiny_sweep(), reps=6, seed=3)
        )

    def test_serve_validates_worker_count(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            serve(tmp_path / "svc", workers=0)

    def test_serve_reports_this_sessions_children(self, tmp_path):
        """Two consecutive two-worker sessions: each reports its own two
        children, read from their exit heartbeats, failures included."""
        svc = tmp_path / "svc"
        api.submit(svc, [tiny_sweep()], 4, CONTEXT)  # 4 tasks
        first = serve(svc, workers=2, drain=True, poll_s=0.01)
        assert len(first) == 2
        assert sum(r.executed for r in first) == 4
        assert sum(r.failed for r in first) == 0

        # a negative CCR fails the one task of this sweep, in any process
        doomed = SweepDefinition(
            key="doomed", title="fails", x_label="CCR", x_values=(-1.0,),
            metric="slr", schedulers=("HDLTS",),
            graph=GraphSpec("random", {"axis": "ccr", "v": 20, "n_procs": 3}),
        )
        failing = api.submit(svc, [doomed], 2, CONTEXT)
        api.submit(svc, [tiny_sweep()], 2, CONTEXT)  # 2 tasks
        second = serve(svc, workers=2, drain=True, poll_s=0.01)
        assert len(second) == 2
        assert sum(r.executed for r in second) == 2
        assert sum(r.failed for r in second) == 1
        assert not {r.worker for r in first} & {r.worker for r in second}
        assert all(r.worker.startswith("worker-") for r in first + second)
        assert api.job_status(svc, failing.ticket)["state"] == "failed"


# ----------------------------------------------------------------------
# crash safety: kill -9, lease expiry, reclaim, bit-identical merge
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_kill9_reclaim_is_bit_identical(self, tmp_path):
        definition = tiny_sweep()
        job = api.submit(
            tmp_path / "svc", [definition], 10,
            RunContext(seed=3, chunk_size=1),
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p]
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(tmp_path / "svc"),
                "--lease", "1", "--poll", "0.01",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # wait until the worker holds a lease, then kill -9 mid-task
            deadline = time.time() + 30.0
            leased = []
            with SqliteStore.open(tmp_path / "svc") as store:
                while time.time() < deadline:
                    rows = store.conn.execute(
                        "SELECT task FROM tasks WHERE state = 'leased'"
                    ).fetchall()
                    if rows:
                        proc.send_signal(signal.SIGKILL)
                        proc.wait(timeout=10)
                        # the worker is dead: its leases are frozen
                        leased = [
                            str(r["task"]) for r in store.conn.execute(
                                "SELECT task FROM tasks WHERE state ="
                                " 'leased'"
                            )
                        ]
                        break
                    time.sleep(0.005)
                else:
                    pytest.fail("worker never claimed a task")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # drain with a fresh worker: it must wait out the zombie lease,
        # reclaim, and finish the job
        report = Worker(tmp_path / "svc", worker_id="rescue", drain=True,
                        poll_s=0.05).run()
        assert report.failed == 0
        doc = api.job_status(tmp_path / "svc", job.ticket)
        assert doc["state"] == "done"
        assert doc["tasks_done"] == doc["tasks_total"]

        # any task the dead worker held was re-attempted
        if leased:
            with SqliteStore.open(tmp_path / "svc") as store:
                attempts = {
                    str(r["task"]): int(r["attempts"])
                    for r in store.conn.execute(
                        "SELECT task, attempts FROM tasks"
                    )
                }
            assert all(attempts[task] >= 2 for task in leased)

        results = api.result(tmp_path / "svc", job.ticket)
        serial = run_sweep(definition, reps=10, seed=3)
        _assert_bit_identical(results["tiny"], serial)


# ----------------------------------------------------------------------
# submission API
# ----------------------------------------------------------------------
class TestApi:
    def test_job_status_schema(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 4, CONTEXT,
                         title="night sweep")
        doc = api.job_status(tmp_path / "svc", job.ticket)
        assert doc["schema"] == api.SUBMIT_SCHEMA
        assert doc["state"] == "queued"
        assert doc["title"] == "night sweep"
        assert doc["sweeps"] == ["tiny"]
        assert doc["tasks_total"] == doc["tasks_pending"] == 4
        with pytest.raises(KeyError):
            api.job_status(tmp_path / "svc", "feedc0ffee99")

    def test_strict_result_requires_done(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)
        with pytest.raises(ValueError, match="queued"):
            api.result(tmp_path / "svc", job.ticket)
        # the non-strict preview folds nothing yet
        preview = api.result(tmp_path / "svc", job.ticket, strict=False)
        assert all(
            stats.n == 0
            for by_name in preview["tiny"].stats.values()
            for stats in by_name.values()
        )

    def test_cancel(self, tmp_path):
        job = api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)
        assert api.cancel(tmp_path / "svc", job.ticket)
        assert not api.cancel(tmp_path / "svc", job.ticket)
        doc = api.job_status(tmp_path / "svc", job.ticket)
        assert doc["state"] == "cancelled"

    def test_service_status(self, tmp_path):
        api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)
        Worker(tmp_path / "svc", worker_id="w1", drain=True,
               poll_s=0.01).run()
        status = status_document(tmp_path / "svc", now=time.time())
        assert status["schema"] == STATUS_SCHEMA
        assert status["kind"] == "service"
        assert [j["state"] for j in status["jobs"]] == ["done"]
        assert status["complete"]
        assert status["tasks_done"] == status["tasks_total"] == 2
        (worker,) = status["processes"]
        assert (worker["worker"], worker["pid"]) == ("w1", os.getpid())
        assert (worker["state"], worker["tasks"]) == ("exited", 2)
        assert worker["stale"] is False
        frame = format_status(status)
        assert "TICKET" in frame and "w1" in frame

    def test_status_document_dispatches_on_service_dirs(self, tmp_path):
        api.submit(tmp_path / "svc", [tiny_sweep()], 2, CONTEXT)
        doc = status_document(tmp_path / "svc")
        assert doc["schema"] == STATUS_SCHEMA and doc["kind"] == "service"
        assert doc["processes"] == []  # no worker has run yet
        assert "TICKET" in format_status(doc)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestCli:
    def _submit(self, tmp_path, capsys, *extra):
        code = main(
            ["submit", str(tmp_path / "svc"), "--figures", "fig13",
             "--reps", "1", "--seed", "0", "--json", *extra]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_submit_json_is_schema_stamped(self, tmp_path, capsys):
        doc = self._submit(tmp_path, capsys)
        assert doc["schema"] == "repro.submit/1"
        assert doc["state"] == "queued"
        assert doc["sweeps"] == ["fig13"]

    def test_status_json_is_schema_stamped(self, tmp_path, capsys):
        self._submit(tmp_path, capsys)
        assert main(["status", str(tmp_path / "svc"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.status/2"
        assert doc["kind"] == "service"
        assert len(doc["jobs"]) == 1

    def test_serve_watch_matches_figure_stdout(self, tmp_path, capsys):
        ticket = self._submit(tmp_path, capsys)["ticket"]
        assert main(["serve", str(tmp_path / "svc"), "--drain",
                     "--poll", "0.01"]) == 0
        capsys.readouterr()
        assert main(["watch", str(tmp_path / "svc"), ticket]) == 0
        watched = capsys.readouterr().out
        assert main(["figure", "fig13", "--reps", "1", "--seed", "0"]) == 0
        assert watched == capsys.readouterr().out

    def test_submit_requires_a_sweep(self, tmp_path):
        assert main(["submit", str(tmp_path / "svc")]) == 2

    def test_cancel_exit_codes(self, tmp_path, capsys):
        ticket = self._submit(tmp_path, capsys)["ticket"]
        assert main(["cancel", str(tmp_path / "svc"), ticket]) == 0
        assert main(["cancel", str(tmp_path / "svc"), ticket]) == 1

    def test_stream_submit_enqueues(self, tmp_path, capsys):
        doc = self._submit(
            tmp_path, capsys, "--stream", "rate", "--x", "0.01",
            "--jobs", "3", "--v", "8",
        )
        assert doc["kind"] == "stream"
        assert "stream-rate" in doc["sweeps"]
