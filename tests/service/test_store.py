"""Unit tests for the unified run store layer.

The headline contracts: task ids round-trip and enumeration is the
serial fold order (x point by x point, replication chunks); both stores (columnar shard,
SQLite service store) record chunks whose float values replay
bit-identically; and the SQLite store's schema tag, job lifecycle and
task bookkeeping behave under reopen.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.runtime.context import RunContext
from repro.service.store import (
    STORE_SCHEMA,
    ColumnarStore,
    SqliteStore,
    TaskSpec,
    enumerate_tasks,
    parse_task_id,
    task_id,
)
from tests.experiments.test_harness import tiny_closure_sweep, tiny_sweep

#: awkward floats that must survive a JSON round-trip to the last ulp
VALUES = [
    {"HDLTS": math.pi, "HEFT": 1.0 / 3.0},
    {"HDLTS": 2.0 ** -45, "HEFT": 1e300},
]


# ----------------------------------------------------------------------
# task ids and enumeration
# ----------------------------------------------------------------------
class TestTaskIds:
    def test_format_is_stable(self):
        assert task_id("fig2", 3, 0, 5) == "fig2:x003:r00000000-00000005"

    def test_parse_round_trip(self):
        tid = task_id("stream-rate", 11, 40, 45)
        assert parse_task_id(tid) == ("stream-rate", 11, 40, 45)

    def test_parse_tolerates_colons_in_sweep_key(self):
        tid = task_id("a:b", 0, 0, 1)
        assert parse_task_id(tid) == ("a:b", 0, 0, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_task_id("not-a-task-id")


class TestEnumerate:
    def test_plan_is_x_major_rep_chunks(self):
        definition = tiny_sweep()
        tasks = enumerate_tasks([definition], 5, chunk_size=2)
        assert all(isinstance(task, TaskSpec) for task in tasks)
        assert [
            (t.sweep, t.x_index, t.x, t.rep_lo, t.rep_hi) for t in tasks
        ] == [
            ("tiny", i, x, lo, hi)
            for i, x in enumerate(definition.x_values)
            for lo, hi in ((0, 2), (2, 4), (4, 5))
        ]

    def test_indices_are_global_across_sweeps(self):
        import dataclasses

        a = tiny_sweep()
        b = dataclasses.replace(a, key="tiny2", metric="makespan")
        tasks = enumerate_tasks([a, b], 2, chunk_size=2)
        assert [t.index for t in tasks] == list(range(len(tasks)))
        assert len({t.task_id for t in tasks}) == len(tasks)


# ----------------------------------------------------------------------
# stores record and replay chunks bit-identically
# ----------------------------------------------------------------------
def _roundtrip(store, reopen):
    store.append_chunk("tiny", 0, 1.0, 0, 2, VALUES)
    store = reopen(store)
    chunks = store.completed_chunks("tiny")
    assert set(chunks) == {(0, 0, 2)}
    assert chunks[(0, 0, 2)].tolist() == [
        [row["HDLTS"], row["HEFT"]] for row in VALUES
    ]
    store.close()


class TestColumnarStore:
    GROUPS = {"tiny": ["HDLTS", "HEFT"]}

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "shard.col"

        def reopen(store):
            store.close()
            return ColumnarStore(path, self.GROUPS)

        _roundtrip(ColumnarStore(path, self.GROUPS, mode="a"), reopen)

    def test_read_matrix_exact(self, tmp_path):
        path = tmp_path / "shard.col"
        with ColumnarStore(path, self.GROUPS, mode="a") as store:
            store.append_chunk("tiny", 0, 1.0, 0, 2, VALUES)
            tid = next(iter(store.completed_ids()))
        with ColumnarStore(path, self.GROUPS) as store:
            matrix = store.read_matrix(tid, self.GROUPS["tiny"], 2)
            expected = np.array(
                [[row[c] for c in self.GROUPS["tiny"]] for row in VALUES]
            )
            assert matrix.dtype == np.float64
            assert (matrix == expected).all()

    def test_appended_ids_visible_before_reopen(self, tmp_path):
        with ColumnarStore(tmp_path / "s.col", self.GROUPS, mode="a") as store:
            assert store.completed_ids() == set()
            store.append_chunk("tiny", 1, 3.0, 0, 2, VALUES)
            assert store.completed_ids() == {task_id("tiny", 1, 0, 2)}

    def test_groups_recovered_from_header(self, tmp_path):
        path = tmp_path / "s.col"
        with ColumnarStore(path, self.GROUPS, mode="a") as store:
            store.append_chunk("tiny", 0, 1.0, 0, 2, VALUES)
        with ColumnarStore(path) as store:  # no groups given
            assert set(store.completed_chunks("tiny")) == {(0, 0, 2)}


class TestSqliteStore:
    def test_round_trip_exact(self, tmp_path):
        from repro.service.queue import WorkQueue

        store = SqliteStore.open(tmp_path / "svc")
        job = store.add_job([tiny_sweep()], 2, RunContext(seed=0))
        lease = WorkQueue(store).claim("w1")
        assert (lease.x_index, lease.rep_lo, lease.rep_hi) == (0, 0, 2)
        assert WorkQueue(store).commit("w1", lease, VALUES)
        store.close()
        with SqliteStore.open(tmp_path / "svc") as store:
            committed = store.committed_values(job.id, "tiny")
            assert committed == {(0, 0, 2): VALUES}
            assert store.committed_values(job.id, "other") == {}

    def test_schema_stamped_and_checked(self, tmp_path):
        store = SqliteStore.open(tmp_path / "svc")
        row = store.conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
        assert row["value"] == STORE_SCHEMA
        store.conn.execute(
            "UPDATE meta SET value = 'bogus/9' WHERE key = 'schema'"
        )
        store.close()
        with pytest.raises(ValueError, match="bogus/9"):
            SqliteStore.open(tmp_path / "svc")

    def test_open_without_create_requires_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SqliteStore.open(tmp_path / "nowhere", create=False)

    def test_add_job_enumerates_tasks(self, tmp_path):
        with SqliteStore.open(tmp_path / "svc") as store:
            context = RunContext(seed=3, chunk_size=2)
            job = store.add_job([tiny_sweep()], 6, context, title="t")
            assert job.state == "queued"
            assert job.reps == 6
            tasks = store.tasks_for(job.id)
            expected = enumerate_tasks([tiny_sweep()], 6, 2)
            assert [t.task for t in tasks] == [t.task_id for t in expected]
            assert store.task_counts(job.id) == {
                "pending": len(tasks), "leased": 0, "done": 0, "failed": 0
            }

    def test_add_job_rejects_closures(self, tmp_path):
        with SqliteStore.open(tmp_path / "svc") as store:
            with pytest.raises(ValueError, match="closure"):
                store.add_job([tiny_closure_sweep()], 2, RunContext())

    def test_job_lookup_and_cancel(self, tmp_path):
        with SqliteStore.open(tmp_path / "svc") as store:
            job = store.add_job([tiny_sweep()], 2, RunContext())
            assert store.job(job.ticket).id == job.id
            assert store.job_by_id(job.id).ticket == job.ticket
            with pytest.raises(KeyError):
                store.job("feedc0ffee99")
            assert store.cancel(job.ticket)
            assert store.job(job.ticket).state == "cancelled"
            assert not store.cancel(job.ticket)  # already terminal

    def test_events_cursor(self, tmp_path):
        with SqliteStore.open(tmp_path / "svc") as store:
            store.append_events(
                [(1.0, "w1", "service.claim", json.dumps({"task": "a"}))]
            )
            store.append_events(
                [(2.0, "w1", "service.commit", json.dumps({"task": "a"}))]
            )
            events = store.events()
            assert [e["name"] for e in events] == [
                "service.claim", "service.commit"
            ]
            assert store.events(after_id=events[0]["id"]) == [events[1]]

    def test_workers_registry(self, tmp_path):
        with SqliteStore.open(tmp_path / "svc") as store:
            store.register_worker("w1", 123, "host-a")
            store.beat_worker("w1", "busy", tasks_done=4)
            (row,) = store.workers()
            assert (row["worker"], row["pid"], row["state"]) == (
                "w1", 123, "busy"
            )
            assert row["tasks_done"] == 4
            with pytest.raises(ValueError, match="state"):
                store.beat_worker("w1", "zombie")
