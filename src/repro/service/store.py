"""Persistence for the two run families: columnar shards and SQLite.

Every run family persists the same thing -- *completed chunks of one
deterministic task decomposition* -- in one of two stores:

:class:`ColumnarStore`
    one CRC-framed columnar shard store (:mod:`repro.io.columnar`) of a
    campaign directory (:mod:`repro.experiments.campaign`); a ``repro
    run`` directory is a one-shard campaign, so its pool streams chunks
    into shard 0 through the same class.  ``append_chunk`` records one
    chunk's per-replication metric values durably (fsync per batch),
    ``completed_chunks`` / ``completed_ids`` replay what already
    happened bit-exactly (raw IEEE-754 doubles) and ``read_matrix``
    reads one chunk.  Byte-deterministic and resumable.

:class:`SqliteStore`
    the scheduling service's database (schema ``repro.store/1``, WAL
    mode): ``jobs`` / ``tasks`` / ``workers`` / ``events`` tables with
    status enums.  Workers commit task values through
    :class:`~repro.service.queue.WorkQueue`;
    :meth:`SqliteStore.committed_values` reads them back for the
    result fold, values round-tripping through JSON exactly.

Task identity is shared across both: :func:`task_id` derives a stable
name purely from ``(sweep key, x index, replication range)``, and
:func:`enumerate_tasks` is the one task decomposition -- the chunks
worker pools, run directories, campaign shards and the service queue
all execute -- so either store's contents line up
replication-for-replication with a serial run.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.io.columnar import (
    ColumnarWriter,
    Frame,
    read_frame_payload,
    record_dtype,
    records_as_matrix,
    scan_frames,
)

__all__ = [
    "STORE_SCHEMA",
    "SERVICE_DB",
    "JOB_STATES",
    "TASK_STATES",
    "WORKER_STATES",
    "ChunkKey",
    "TaskSpec",
    "task_id",
    "parse_task_id",
    "enumerate_tasks",
    "values_matrix",
    "ColumnarStore",
    "SqliteStore",
    "JobRow",
    "TaskRow",
]

PathLike = Union[str, pathlib.Path]

STORE_SCHEMA = "repro.store/1"

#: filename of the service database inside a service directory
SERVICE_DB = "store.sqlite"

#: submitted job lifecycle (terminal states: done/failed/cancelled)
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: queue task lifecycle (``leased`` tasks revert to claimable on expiry)
TASK_STATES = ("pending", "leased", "done", "failed")
#: worker agent lifecycle as recorded in the ``workers`` table
WORKER_STATES = ("idle", "busy", "exited")

#: replay key of one chunk: (x_index, rep_lo, rep_hi)
ChunkKey = Tuple[int, int, int]


# ----------------------------------------------------------------------
# task identity
# ----------------------------------------------------------------------
def task_id(sweep: str, x_index: int, rep_lo: int, rep_hi: int) -> str:
    """The stable identity of one unit of work.

    Ids are derived purely from the spec (sweep key, x index,
    replication range), so re-enumerating the same workload -- on any
    machine, any number of times -- names every unit of work
    identically.  This is what lets shard stores and the service queue
    be resumed and merged without any coordination.
    """
    return f"{sweep}:x{x_index:03d}:r{rep_lo:08d}-{rep_hi:08d}"


def parse_task_id(tid: str) -> Tuple[str, int, int, int]:
    """Invert :func:`task_id`: ``(sweep, x_index, rep_lo, rep_hi)``."""
    try:
        sweep, x_part, rep_part = tid.rsplit(":", 2)
        x_index = int(x_part[1:])
        rep_lo, rep_hi = (int(p) for p in rep_part[1:].split("-"))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed task id {tid!r}") from exc
    return sweep, x_index, rep_lo, rep_hi


@dataclass(frozen=True)
class TaskSpec:
    """One independently runnable unit: a chunk of one sweep's x point."""

    index: int
    sweep: str
    x_index: int
    x: object
    rep_lo: int
    rep_hi: int

    @property
    def task_id(self) -> str:
        return task_id(self.sweep, self.x_index, self.rep_lo, self.rep_hi)

    @property
    def reps(self) -> int:
        return self.rep_hi - self.rep_lo


def enumerate_tasks(
    definitions: Sequence, reps: int, chunk_size: int
) -> List[TaskSpec]:
    """Expand definitions into the one deterministic task list.

    Per definition, x point by x point, replications ``[0, reps)`` cut
    into ``chunk_size`` runs -- the submission order of every run
    family and the order the serial harness folds replications in.
    Worker pools, run directories, campaign shards and the service
    queue all execute exactly these tasks, so any store's contents line
    up one-to-one with a serial run of the same definitions.
    """
    out: List[TaskSpec] = []
    for definition in definitions:
        for i, x in enumerate(definition.x_values):
            for lo in range(0, reps, chunk_size):
                out.append(
                    TaskSpec(
                        index=len(out), sweep=definition.key, x_index=i,
                        x=x, rep_lo=lo, rep_hi=min(lo + chunk_size, reps),
                    )
                )
    return out


# ----------------------------------------------------------------------
# value packing
# ----------------------------------------------------------------------
def values_matrix(
    values: List[Dict[str, float]], columns: Sequence[str]
) -> np.ndarray:
    """Pack per-replication metric dicts as a ``(reps, k)`` float64 matrix."""
    matrix = np.empty((len(values), len(columns)))
    for row, rep_values in enumerate(values):
        for col, name in enumerate(columns):
            matrix[row, col] = rep_values[name]
    return matrix


def _check_matrix(tid: str, matrix: np.ndarray, expect_rows: int) -> np.ndarray:
    if len(matrix) != expect_rows:
        raise ValueError(
            f"task {tid}: expected {expect_rows} rows, found {len(matrix)}"
        )
    if not np.isfinite(matrix).all():
        raise ValueError(f"task {tid}: non-finite metric values")
    return matrix


# ----------------------------------------------------------------------
# columnar shards (campaigns and run directories)
# ----------------------------------------------------------------------
class ColumnarStore:
    """One CRC-framed columnar store file: a campaign shard.

    Mode ``"a"`` wraps :meth:`~repro.io.columnar.ColumnarWriter.append`
    (torn tail truncated, fsync per batch) and needs the record
    ``groups`` -- sweep key to scheduler column list -- to pack values.
    Mode ``"r"`` scans the frame directory once and serves matrix reads
    through a lazily opened handle.  The file layout is byte-identical
    to what :func:`repro.experiments.campaign.run_shard` always wrote:
    no timestamps, no nondeterminism.
    """

    def __init__(
        self,
        path: PathLike,
        groups: Optional[Dict[str, List[str]]] = None,
        mode: str = "r",
    ) -> None:
        if mode not in ("r", "a"):
            raise ValueError(f"mode must be 'r' or 'a', got {mode!r}")
        self.path = pathlib.Path(path)
        self.mode = mode
        self._groups = dict(groups) if groups else {}
        self._writer = None
        self._read_fh = None
        self._frames: List[Frame] = []
        if mode == "a":
            if not groups:
                raise ValueError("append mode needs the record groups")
            self._writer, done = ColumnarWriter.append(self.path, self._groups)
            self._frames = list(done)
        elif self.path.exists():
            header, frames, _end = scan_frames(self.path)
            self._frames = list(frames)
            if not self._groups:
                self._groups = {
                    name: list(cols)
                    for name, cols in header.get("groups", {}).items()
                }
        self._index: Dict[str, Frame] = {
            str(frame.meta.get("task")): frame for frame in self._frames
        }
        # batches appended through this handle are readable only after
        # reopen (the frame directory is scanned at open); their ids
        # still count as completed for resume logic.
        self._appended_ids: Set[str] = set()
        self._dtypes: Dict[Tuple[str, ...], np.dtype] = {}

    @property
    def frames(self) -> List[Frame]:
        """The store's readable frames (completed tasks), in file order."""
        return list(self._frames)

    def append_chunk(
        self,
        sweep: str,
        x_index: int,
        x: object,
        rep_lo: int,
        rep_hi: int,
        values: List[Dict[str, float]],
    ) -> None:
        """Write one record batch, durably.  Only the values are stored
        -- no metrics snapshot, wall time or other nondeterminism."""
        if self._writer is None:
            raise ValueError(f"store {self.path.name} is read-only")
        columns = self._groups.get(sweep)
        if columns is None:
            raise KeyError(f"unknown record group {sweep!r}")
        records = np.empty(len(values), dtype=record_dtype(columns))
        records_as_matrix(records)[:] = values_matrix(values, columns)
        self._writer.write_batch(
            {
                "group": sweep,
                "task": task_id(sweep, x_index, rep_lo, rep_hi),
                "x_index": x_index,
                "rep_lo": rep_lo,
                "rep_hi": rep_hi,
            },
            records,
        )
        self._appended_ids.add(task_id(sweep, x_index, rep_lo, rep_hi))

    def completed_chunks(self, sweep: str) -> Dict[ChunkKey, np.ndarray]:
        """Finished chunks of ``sweep`` as checked ``(reps, k)`` matrices
        (columns in the group's scheduler order), keyed
        ``(x_index, lo, hi)``."""
        cols = self._groups.get(sweep)
        if cols is None:
            raise KeyError(f"unknown record group {sweep!r}")
        completed: Dict[ChunkKey, np.ndarray] = {}
        for frame in self._frames:
            if str(frame.meta.get("group")) != sweep:
                continue
            x_index = int(frame.meta["x_index"])
            rep_lo = int(frame.meta["rep_lo"])
            rep_hi = int(frame.meta["rep_hi"])
            tid = task_id(sweep, x_index, rep_lo, rep_hi)
            completed[(x_index, rep_lo, rep_hi)] = self.read_matrix(
                tid, cols, rep_hi - rep_lo
            )
        return completed

    def completed_ids(self) -> Set[str]:
        """Ids of frames on disk plus batches appended this session."""
        return set(self._index) | self._appended_ids

    def read_matrix(
        self, tid: str, columns: Sequence[str], expect_rows: int
    ) -> np.ndarray:
        """One frame's payload as a checked ``(reps, k)`` matrix,
        read directly (no JSON round-trip) through a cached dtype."""
        frame = self._index.get(tid)
        if frame is None:
            raise KeyError(f"task {tid} has no recorded result")
        if self._read_fh is None:
            self._read_fh = open(self.path, "rb")
        key = tuple(columns)
        dtype = self._dtypes.get(key)
        if dtype is None:
            dtype = self._dtypes[key] = record_dtype(columns)
        records = read_frame_payload(self._read_fh, frame, dtype)
        return _check_matrix(tid, records_as_matrix(records), expect_rows)

    def close(self) -> None:
        """Close the writer and/or the lazily opened read handle."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._read_fh is not None:
            self._read_fh.close()
            self._read_fh = None

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# SQLite backend (the scheduling service)
# ----------------------------------------------------------------------
_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    ticket  TEXT NOT NULL UNIQUE,
    title   TEXT NOT NULL DEFAULT '',
    kind    TEXT NOT NULL CHECK (kind IN ('sweep', 'stream')),
    spec    TEXT NOT NULL,
    context TEXT NOT NULL,
    reps    INTEGER NOT NULL,
    state   TEXT NOT NULL DEFAULT 'queued'
            CHECK (state IN ('queued', 'running', 'done', 'failed',
                             'cancelled')),
    error   TEXT,
    created REAL NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    job           INTEGER NOT NULL REFERENCES jobs(id),
    task          TEXT NOT NULL,
    sweep         TEXT NOT NULL,
    x_index       INTEGER NOT NULL,
    x             TEXT NOT NULL,
    rep_lo        INTEGER NOT NULL,
    rep_hi        INTEGER NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending'
                  CHECK (state IN ('pending', 'leased', 'done', 'failed')),
    worker        TEXT,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    result        TEXT,
    metrics       TEXT,
    wall          REAL NOT NULL DEFAULT 0.0,
    error         TEXT,
    UNIQUE (job, task)
);
CREATE INDEX IF NOT EXISTS idx_tasks_claim ON tasks (state, job, id);
CREATE TABLE IF NOT EXISTS workers (
    worker     TEXT PRIMARY KEY,
    pid        INTEGER NOT NULL,
    host       TEXT NOT NULL,
    state      TEXT NOT NULL CHECK (state IN ('idle', 'busy', 'exited')),
    started    REAL NOT NULL,
    last_beat  REAL NOT NULL,
    tasks_done INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS events (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    ts      REAL NOT NULL,
    source  TEXT NOT NULL,
    name    TEXT NOT NULL,
    payload TEXT NOT NULL
);
"""


@dataclass(frozen=True)
class JobRow:
    """One submitted job, as stored in the ``jobs`` table."""

    id: int
    ticket: str
    title: str
    kind: str
    spec: List[Dict]
    context: Dict
    reps: int
    state: str
    error: Optional[str]
    created: float
    updated: float

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "JobRow":
        return cls(
            id=int(row["id"]),
            ticket=str(row["ticket"]),
            title=str(row["title"]),
            kind=str(row["kind"]),
            spec=json.loads(row["spec"]),
            context=json.loads(row["context"]),
            reps=int(row["reps"]),
            state=str(row["state"]),
            error=row["error"],
            created=float(row["created"]),
            updated=float(row["updated"]),
        )


@dataclass(frozen=True)
class TaskRow:
    """One queue task, as stored in the ``tasks`` table."""

    id: int
    job: int
    task: str
    sweep: str
    x_index: int
    x: object
    rep_lo: int
    rep_hi: int
    state: str
    worker: Optional[str]
    lease_expires: Optional[float]
    attempts: int
    wall: float
    error: Optional[str]

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "TaskRow":
        return cls(
            id=int(row["id"]),
            job=int(row["job"]),
            task=str(row["task"]),
            sweep=str(row["sweep"]),
            x_index=int(row["x_index"]),
            x=json.loads(row["x"]),
            rep_lo=int(row["rep_lo"]),
            rep_hi=int(row["rep_hi"]),
            state=str(row["state"]),
            worker=row["worker"],
            lease_expires=row["lease_expires"],
            attempts=int(row["attempts"]),
            wall=float(row["wall"]),
            error=row["error"],
        )


class SqliteStore:
    """The scheduling service's database (schema ``repro.store/1``).

    WAL journaling plus a generous busy timeout lets any number of
    worker processes share one database file; every multi-statement
    mutation runs inside ``BEGIN IMMEDIATE`` so claims and commits are
    atomic even against ``kill -9`` (SQLite rolls back the journal of a
    dead writer on the next open).  The connection is autocommit
    (``isolation_level=None``); transactional sections are explicit.
    """

    SCHEMA = STORE_SCHEMA

    def __init__(self, path: PathLike, conn: sqlite3.Connection) -> None:
        self.path = pathlib.Path(path)
        self.conn = conn

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(cls, path: PathLike, create: bool = True) -> "SqliteStore":
        """Open (and, by default, create) the service database.

        Each process opens its own connection; SQLite serializes
        writers through the WAL.  Opening an existing file checks the
        stored schema tag and raises a pointed error on mismatch.
        """
        path = pathlib.Path(path)
        if path.suffix not in (".sqlite", ".db"):
            # a service *directory* (existing or to-be-created), not a
            # database file: the store lives at DIR/store.sqlite
            path = path / SERVICE_DB
        if not create and not path.exists():
            raise FileNotFoundError(f"no service store at {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(path), timeout=30.0, isolation_level=None)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA foreign_keys=ON")
        store = cls(path, conn)
        store._init_schema()
        return store

    def _init_schema(self) -> None:
        """Create missing tables and stamp/check the schema tag.

        The DDL runs outside the explicit transaction scope --
        ``executescript`` implicitly commits any pending transaction --
        and is idempotent (``IF NOT EXISTS`` everywhere); the meta rows
        use ``INSERT OR IGNORE`` so concurrent first-openers race
        benignly.
        """
        from repro import __version__

        self.conn.executescript(_DDL)
        with self.transaction():
            row = self.conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                self.conn.executemany(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("schema", self.SCHEMA),
                        ("version", __version__),
                        ("created", repr(time.time())),
                    ],
                )
            elif row["value"] != self.SCHEMA:
                raise ValueError(
                    f"unsupported store schema {row['value']!r} in "
                    f"{self.path} (expected {self.SCHEMA!r})"
                )

    def transaction(self):
        """``BEGIN IMMEDIATE`` scope: commits on success, rolls back on
        error.  IMMEDIATE takes the write lock up front, so a section
        that read-then-writes cannot deadlock against another claimer.
        """
        return _Transaction(self.conn)

    def close(self) -> None:
        """Close this process's connection (the database file persists)."""
        self.conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- jobs ------------------------------------------------------------
    def add_job(
        self,
        definitions: Sequence,
        reps: int,
        context,
        title: str = "",
    ) -> JobRow:
        """Enqueue one job: insert the job row plus every task, atomically.

        ``definitions`` are portable
        :class:`~repro.experiments.harness.SweepDefinition`\\ s;
        ``context`` is the :class:`~repro.runtime.context.RunContext`
        workers will adopt.  The task list is the shared deterministic
        decomposition (:func:`enumerate_tasks`), so the merged result
        is bit-identical to a serial run of the same definitions.
        """
        if reps < 1:
            raise ValueError("reps must be >= 1")
        definitions = list(definitions)
        if not definitions:
            raise ValueError("a job needs at least one sweep definition")
        closures = sorted(d.key for d in definitions if not d.portable)
        if closures:
            raise ValueError(
                f"definitions {closures} use make_graph closures and cannot "
                "be submitted to the service; give them a GraphSpec"
            )
        tasks = enumerate_tasks(definitions, reps, context.chunk_size)
        kind = "stream" if any(d.stream is not None for d in definitions) else "sweep"
        ticket = uuid.uuid4().hex[:12]
        now = time.time()
        with self.transaction():
            cur = self.conn.execute(
                "INSERT INTO jobs (ticket, title, kind, spec, context, reps,"
                " state, created, updated)"
                " VALUES (?, ?, ?, ?, ?, ?, 'queued', ?, ?)",
                (
                    ticket,
                    title,
                    kind,
                    json.dumps([d.to_dict() for d in definitions]),
                    json.dumps(context.to_dict()),
                    reps,
                    now,
                    now,
                ),
            )
            job_id = cur.lastrowid
            self.conn.executemany(
                "INSERT INTO tasks (job, task, sweep, x_index, x, rep_lo,"
                " rep_hi) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        job_id, t.task_id, t.sweep, t.x_index,
                        json.dumps(t.x), t.rep_lo, t.rep_hi,
                    )
                    for t in tasks
                ],
            )
        return self.job(ticket)

    def job(self, ticket: str) -> JobRow:
        """Look a job up by ticket (prefix-unique lookups not supported)."""
        row = self.conn.execute(
            "SELECT * FROM jobs WHERE ticket = ?", (ticket,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job with ticket {ticket!r}")
        return JobRow.from_row(row)

    def job_by_id(self, job_id: int) -> JobRow:
        """Look a job up by its integer row id (workers hold these)."""
        row = self.conn.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job with id {job_id}")
        return JobRow.from_row(row)

    def jobs(self) -> List[JobRow]:
        """Every job, oldest first."""
        return [
            JobRow.from_row(row)
            for row in self.conn.execute("SELECT * FROM jobs ORDER BY id")
        ]

    def set_job_state(
        self, job_id: int, state: str, error: Optional[str] = None
    ) -> None:
        """Force a job's state (administrative; the queue moves jobs
        through their normal lifecycle itself)."""
        if state not in JOB_STATES:
            raise ValueError(f"state must be one of {JOB_STATES}, got {state!r}")
        self.conn.execute(
            "UPDATE jobs SET state = ?, error = ?, updated = ? WHERE id = ?",
            (state, error, time.time(), job_id),
        )

    def cancel(self, ticket: str) -> bool:
        """Cancel a job (no-op on terminal states; returns success).

        Pending tasks stop being claimable immediately (the claim query
        only considers queued/running jobs); a task already leased runs
        to completion, its commit is accepted, but the job stays
        cancelled.
        """
        with self.transaction():
            cur = self.conn.execute(
                "UPDATE jobs SET state = 'cancelled', updated = ?"
                " WHERE ticket = ? AND state IN ('queued', 'running')",
                (time.time(), ticket),
            )
            return cur.rowcount > 0

    # -- tasks -----------------------------------------------------------
    def tasks_for(self, job_id: int) -> List[TaskRow]:
        """A job's tasks in enumeration (= submission) order."""
        return [
            TaskRow.from_row(row)
            for row in self.conn.execute(
                "SELECT * FROM tasks WHERE job = ? ORDER BY id", (job_id,)
            )
        ]

    def task_counts(self, job_id: int) -> Dict[str, int]:
        """Task state histogram of one job (zero-filled over the enum)."""
        counts = {state: 0 for state in TASK_STATES}
        for row in self.conn.execute(
            "SELECT state, COUNT(*) AS n FROM tasks WHERE job = ?"
            " GROUP BY state",
            (job_id,),
        ):
            counts[str(row["state"])] = int(row["n"])
        return counts

    # -- workers ---------------------------------------------------------
    def register_worker(self, worker: str, pid: int, host: str) -> None:
        """Insert (or revive) one worker agent's registry row."""
        now = time.time()
        self.conn.execute(
            "INSERT INTO workers (worker, pid, host, state, started,"
            " last_beat) VALUES (?, ?, ?, 'idle', ?, ?)"
            " ON CONFLICT(worker) DO UPDATE SET pid = excluded.pid,"
            " host = excluded.host, state = 'idle', last_beat = excluded.last_beat",
            (worker, pid, host, now, now),
        )

    def beat_worker(
        self,
        worker: str,
        state: str = "busy",
        tasks_done: Optional[int] = None,
    ) -> None:
        """Heartbeat: refresh a worker's state and last-beat stamp
        (``repro ps`` flags workers whose beat has gone stale)."""
        if state not in WORKER_STATES:
            raise ValueError(
                f"state must be one of {WORKER_STATES}, got {state!r}"
            )
        if tasks_done is None:
            self.conn.execute(
                "UPDATE workers SET state = ?, last_beat = ? WHERE worker = ?",
                (state, time.time(), worker),
            )
        else:
            self.conn.execute(
                "UPDATE workers SET state = ?, last_beat = ?, tasks_done = ?"
                " WHERE worker = ?",
                (state, time.time(), tasks_done, worker),
            )

    def workers(self) -> List[Dict[str, object]]:
        """Every registered worker row as a plain dict."""
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT * FROM workers ORDER BY started"
            )
        ]

    # -- events ----------------------------------------------------------
    def append_events(
        self, rows: Sequence[Tuple[float, str, str, str]]
    ) -> None:
        """Bulk-insert ``(ts, source, name, payload_json)`` event rows."""
        if not rows:
            return
        self.conn.executemany(
            "INSERT INTO events (ts, source, name, payload) VALUES"
            " (?, ?, ?, ?)",
            list(rows),
        )

    def events(self, after_id: int = 0, limit: int = 1000) -> List[Dict]:
        """Events with ``id > after_id`` (a tailing cursor), oldest first."""
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT * FROM events WHERE id > ? ORDER BY id LIMIT ?",
                (after_id, limit),
            )
        ]

    # -- results ---------------------------------------------------------
    def committed_values(
        self, job_id: int, sweep: str
    ) -> Dict[ChunkKey, List[Dict[str, float]]]:
        """A job's committed chunks of ``sweep``: per-replication metric
        dicts keyed ``(x_index, lo, hi)``, replayed through JSON exactly
        (``repr``-based float round-trip)."""
        return {
            (int(row["x_index"]), int(row["rep_lo"]), int(row["rep_hi"])):
                json.loads(row["result"])
            for row in self.conn.execute(
                "SELECT x_index, rep_lo, rep_hi, result FROM tasks"
                " WHERE job = ? AND sweep = ? AND state = 'done' ORDER BY id",
                (job_id, sweep),
            )
        }


class _Transaction:
    """``BEGIN IMMEDIATE`` ... ``COMMIT``/``ROLLBACK`` context manager."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self.conn.execute("BEGIN IMMEDIATE")
        return self.conn

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")
