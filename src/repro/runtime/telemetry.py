"""Run telemetry: heartbeat files and one status document per directory.

Everything ``repro top`` / ``repro status`` show is derived from files
a run writes as it progresses, so the observer is a separate process
that never touches the run itself:

``<dir>/telemetry/heartbeat-<pid>.json``
    One file per participating process: a shard process or the main
    collector of ``repro run``, every pool worker, and every service
    worker.  Each rewrites it atomically through
    :meth:`HeartbeatWriter.beat`: pid, role, shard or service worker
    id (a pool worker: its owner's pid), state, resident set size,
    user/system CPU time, when it started, tasks done and the
    wall-clock timestamp of the last event.  A vanished or stale
    heartbeat is visible as exactly that, and a pool worker whose
    owner beat ``exited`` reads ``lost``.

``<dir>/shards/shard-*.colbin`` / ``<dir>/store.sqlite``
    The crash-safe result stores (:mod:`repro.service.store`); progress
    counts come from here, so they are correct even when every
    heartbeat is gone.

``<dir>/telemetry/spans-<pid>.jsonl`` / ``trace.json`` /
``metrics.prom`` / ``events.jsonl``
    Written when tracing / metrics / event streaming are requested; see
    :mod:`repro.obs.export` and docs/observability.md.

:func:`status_document` builds the one status document (schema
``repro.status/2``) over either directory kind -- a campaign (a
``repro run`` directory is a one-shard campaign) or a service
directory -- and :func:`format_status` renders it as the terminal
frame ``repro top`` repaints.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

__all__ = [
    "TELEMETRY_DIRNAME",
    "HEARTBEAT_SCHEMA",
    "STATUS_SCHEMA",
    "STALE_S",
    "telemetry_dir",
    "HeartbeatWriter",
    "load_heartbeats",
    "is_stale",
    "status_document",
    "format_status",
]

PathLike = Union[str, pathlib.Path]

TELEMETRY_DIRNAME = "telemetry"
HEARTBEAT_SCHEMA = "repro.heartbeat/1"
STATUS_SCHEMA = "repro.status/2"

#: an unfinished process or shard with no sign of life for this long
#: is stale (see :func:`is_stale`)
STALE_S = 30.0


def telemetry_dir(run_dir: PathLike) -> pathlib.Path:
    """The telemetry directory beside a run's manifest or store."""
    return pathlib.Path(run_dir) / TELEMETRY_DIRNAME


class HeartbeatWriter:
    """Periodically rewrites this process's heartbeat file, atomically.

    ``beat`` is cheap enough to call after every task: it throttles
    itself to one write per ``throttle_s`` unless forced, and each
    write is a tmp-file + ``os.replace`` so readers never see a torn
    document.  Used as a context manager, the writer forces one beat on
    entry and one on exit (state ``exited``, carrying the final counts
    the throttled beats recorded); pool workers are torn down by their
    pool, so they force only the first and write no exit beat.
    """

    def __init__(
        self, directory: PathLike, role: str = "worker",
        throttle_s: float = 0.2,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.extra: Dict[str, object] = {"state": "busy"}
        self.extra.update(extra or {})
        self.pid = os.getpid()
        self.path = self.directory / f"heartbeat-{self.pid}.json"
        self.throttle_s = throttle_s
        #: wall-clock start of this writer: task rates are measured
        #: from here (the ETA of ``repro status``)
        self.started = time.time()
        self.chunks_done = 0
        self.last_event_ts: Optional[float] = None
        self._last_write = 0.0

    def beat(
        self,
        chunks_done: Optional[int] = None,
        last_event_ts: Optional[float] = None,
        force: bool = False,
        **fields: object,
    ) -> None:
        """Record progress and (rate-limited) rewrite the heartbeat file.

        ``fields`` (``state``, a service worker's ``failed`` count, ...)
        update the document's extra fields for this and later beats.
        """
        if chunks_done is not None:
            self.chunks_done = chunks_done
        if last_event_ts is not None:
            self.last_event_ts = last_event_ts
        self.extra.update(fields)
        now = time.time()
        if not force and now - self._last_write < self.throttle_s:
            return
        usage = resource.getrusage(resource.RUSAGE_SELF)
        doc = {
            "schema": HEARTBEAT_SCHEMA,
            "pid": self.pid,
            "role": self.role,
            "rss_kb": int(usage.ru_maxrss),
            "cpu_user_s": usage.ru_utime,
            "cpu_sys_s": usage.ru_stime,
            "started": self.started,
            "chunks_done": self.chunks_done,
            "last_event_ts": self.last_event_ts,
            "ts": now,
            **self.extra,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc) + "\n")
        os.replace(tmp, self.path)
        self._last_write = now

    def __enter__(self) -> "HeartbeatWriter":
        self.beat(force=True)
        return self

    def __exit__(self, *exc: object) -> None:
        self.beat(force=True, state="exited")


def load_heartbeats(run_dir: PathLike) -> List[Dict[str, object]]:
    """Every readable heartbeat under the run's telemetry directory.

    Sorted main-first then by pid; unreadable files are skipped (a
    worker replaced mid-read loses one refresh, nothing else).
    """
    directory = telemetry_dir(run_dir)
    beats: List[Dict[str, object]] = []
    if not directory.is_dir():
        return beats
    for path in sorted(directory.glob("heartbeat-*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if doc.get("schema") == HEARTBEAT_SCHEMA:
            beats.append(doc)
    beats.sort(key=lambda b: (b.get("role") != "main", b.get("pid", 0)))
    return beats


#: states of a process that is gone: it beat ``exited``, or it is
#: ``lost`` -- it never did, and the process that owns it (its
#: heartbeat's ``parent``) beat ``exited``
_GONE = ("exited", "lost")


def is_stale(age_s: Optional[float], finished: bool) -> bool:
    """The one staleness rule: unfinished, and silent past the floor.

    Applies to a process (finished once it beat ``exited`` or its
    directory is complete) and to a campaign shard (finished once every
    task landed; its age is that of its newest evidence).
    """
    return not finished and age_s is not None and age_s > STALE_S


def _eta_s(
    processes: List[Dict[str, object]],
    beats: List[Dict[str, object]],
    remaining: int,
    finished: FrozenSet[Tuple[object, object]],
) -> Optional[float]:
    """Remaining tasks over the measured rate of the live task owners.

    An owner is a ``(shard, worker)`` pair: a shard, or a service
    worker id.  The rate sums, over owners not ``finished``, the tasks
    their freshest process computed per second since it started (from
    its heartbeat in ``beats``) -- when that process is neither exited
    nor stale (nor lost).  Pool workers own nothing: the collector that
    owns their shard counts their chunks.  ``None`` while no rate is
    measured.
    """
    freshest: Dict[Tuple[object, object], Tuple[Dict, Dict]] = {}
    for process, beat in zip(processes, beats):
        owner = (process["shard"], process["worker"])
        if owner == (None, None) or owner in finished:
            continue
        best = freshest.get(owner)
        if best is None or process["beat_age_s"] < best[0]["beat_age_s"]:
            freshest[owner] = (process, beat)
    rate = 0.0
    for process, beat in freshest.values():
        elapsed = float(beat["ts"]) - float(beat.get("started", beat["ts"]))
        if process["state"] not in _GONE and not process["stale"] and (
            elapsed > 0.0
        ):
            rate += process["tasks"] / elapsed
    return remaining / rate if rate > 0.0 and remaining > 0 else None


def status_document(
    run_dir: PathLike, now: Optional[float] = None
) -> Dict[str, object]:
    """The status document (``repro.status/2``) over any results directory.

    A shared envelope -- ``kind`` (``campaign`` or ``service``),
    ``run_dir``, ``complete``, ``tasks_done``/``tasks_total``, ``eta_s``
    and ``processes`` (one entry per heartbeat) -- then the kind's own
    section: a ``store.sqlite`` gets the service's jobs
    (:func:`repro.service.api.status_section`); anything else is opened
    as a campaign -- ``repro run`` directories are one-shard campaigns
    -- whose sweeps, shards and stragglers come from
    :func:`repro.experiments.campaign.status_section`, which raises a
    pointed error for a directory that is neither.  ``repro status`` /
    ``repro top`` call this.
    """
    from repro.service.api import is_service_dir

    if is_service_dir(run_dir):
        from repro.service.api import status_section
    else:
        from repro.experiments.campaign import status_section
    now = time.time() if now is None else now
    beats = load_heartbeats(run_dir)
    processes = [
        {
            "pid": beat.get("pid"),
            "role": beat.get("role"),
            "shard": beat.get("shard"),
            "worker": beat.get("worker"),
            "state": beat.get("state", "busy"),
            "tasks": int(beat.get("chunks_done", 0)),
            "beat_age_s": now - float(beat.get("ts", now)),
        }
        for beat in beats
    ]
    # a pool worker writes no exit beat: once its owner (an earlier
    # session's collector, after ``repro resume``) beat exited, it is gone
    exited = {b.get("pid") for b in beats if b.get("state") == "exited"}
    for process, beat in zip(processes, beats):
        if process["state"] != "exited" and beat.get("parent") in exited:
            process["state"] = "lost"
    section, finished = status_section(run_dir, processes, now)
    complete = bool(section.pop("complete"))
    tasks_done = int(section.pop("tasks_done"))
    tasks_total = int(section.pop("tasks_total"))
    for process in processes:
        process["stale"] = is_stale(
            process["beat_age_s"], complete or process["state"] in _GONE
        )
    eta = None if complete else _eta_s(
        processes, beats, tasks_total - tasks_done, finished
    )
    return {
        "schema": STATUS_SCHEMA,
        "kind": section.pop("kind"),
        "run_dir": str(run_dir),
        "complete": complete,
        "tasks_done": tasks_done,
        "tasks_total": tasks_total,
        "eta_s": eta,
        "processes": processes,
        **section,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 24) -> str:
    """A ``[#####....]`` progress bar for one 0..1 fraction."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _hms(seconds: float) -> str:
    """``h:mm:ss`` rendering of a duration."""
    seconds = max(0, int(round(seconds)))
    return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def _age(seconds: float) -> str:
    """A short age: ``12s``, ``3.5m``, ``1.2h``."""
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _campaign_lines(status: Dict[str, object]) -> List[str]:
    """Per-sweep row progress and the per-shard table with stragglers."""
    lines = [
        f"  {status['rows_done']}/{status['rows_total']} replications "
        f"(chunk size {status['chunk_size']}, "
        f"{status['n_shards']} shard(s))",
        "",
    ]
    for sweep in status["sweeps"]:
        s_done = int(sweep["rows_done"])
        s_total = max(1, int(sweep["rows_total"]))
        lines.append(
            f"  {sweep['key']:<6} {_bar(s_done / s_total, 18)} "
            f"{s_done}/{sweep['rows_total']} reps  "
            f"({sweep['points']} x {sweep['reps']} reps, "
            f"{sweep['x_label']})"
        )
    lines.append("")
    lines.append(
        f"  {'shard':>5}  {'tasks':>11}  {'bytes':>9}  {'pid':>7}  "
        f"{'beat':>10}"
    )
    for shard in status["shards"]:
        s_done = int(shard["tasks_done"])
        s_total = int(shard["tasks_total"])
        age = shard.get("age_s")
        size = shard.get("bytes")
        if not shard["started"]:
            note = "  (not started)"
        elif shard["straggler"]:
            note = "  STRAGGLER"
        elif shard["complete"]:
            note = "  done"
        else:
            note = ""
        lines.append(
            f"  {shard['shard']:>5}  {s_done:>5}/{s_total:<5}  "
            f"{(f'{size / 1024.0:.1f}KB' if size is not None else '-'):>9}  "
            f"{(shard.get('pid') or '-'):>7}  "
            f"{(f'{age:.1f}s ago' if age is not None else '-'):>10}"
            f"{note}"
        )
    return lines


def _service_lines(status: Dict[str, object]) -> List[str]:
    """The service's job table."""
    jobs = status["jobs"]
    if not jobs:
        return [f"  no jobs (submit with: repro submit {status['run_dir']})"]
    lines = [
        f"  {'TICKET':<14}{'KIND':<8}{'STATE':<11}{'TASKS':>12}  "
        f"{'AGE':>8}  SWEEPS"
    ]
    for job in jobs:
        tasks = f"{job['tasks_done']}/{job['tasks_total']}"
        lines.append(
            f"  {job['ticket']:<14}{job['kind']:<8}{job['state']:<11}"
            f"{tasks:>12}  {_age(job['age_s']):>8}  "
            f"{','.join(job['sweeps'])}"
        )
    return lines


def _process_lines(processes: List[Dict[str, object]]) -> List[str]:
    """One row per heartbeat: who, doing what, how recently heard from."""
    lines = [
        f"  {'PID':>8}  {'ROLE':<7}{'OWNER':<20}{'STATE':<8}"
        f"{'TASKS':>6}  {'BEAT':>6}"
    ]
    for p in processes:
        if p["shard"] is not None:
            owner = f"shard {p['shard']}"
        else:
            owner = str(p["worker"] or "-")
        state = "stale?" if p["stale"] else str(p["state"])
        lines.append(
            f"  {p['pid']:>8}  {str(p['role']):<7}{owner:<20}{state:<8}"
            f"{p['tasks']:>6}  {_age(p['beat_age_s']):>6}"
        )
    return lines


def format_status(status: Dict[str, object]) -> str:
    """Render one ``repro top`` frame of a :func:`status_document`.

    The envelope (totals, progress bar, ETA) first, then the kind's
    section (sweeps and shards, or jobs), then the process table.
    """
    done = int(status["tasks_done"])
    total = int(status["tasks_total"])
    state = "complete" if status["complete"] else "running"
    eta = ""
    if status["eta_s"] is not None and not status["complete"]:
        eta = f"  ETA {_hms(status['eta_s'])}"
    pct = 100.0 * done / total if total else 0.0
    lines = [
        f"repro top -- {status['run_dir']}  ({status['kind']}, {state})",
        f"tasks  {_bar(done / max(1, total))} {done}/{total}  "
        f"({pct:.1f}%){eta}",
    ]
    if status["kind"] == "service":
        lines.append(
            f"  {status['jobs_live']} live of {status['jobs_total']} jobs"
        )
        lines.append("")
        lines.extend(_service_lines(status))
    else:
        lines.extend(_campaign_lines(status))
    if status["processes"]:
        lines.append("")
        lines.extend(_process_lines(status["processes"]))
    return "\n".join(lines)


def watch(
    run_dir: PathLike,
    interval_s: float = 1.0,
    once: bool = False,
    stream=None,
) -> int:
    """Drive ``repro top``: repaint until the run completes (or once).

    Returns a process exit code.  Works on every directory kind
    :func:`status_document` knows.  The live loop clears the terminal
    between frames and stops on completion; Ctrl-C exits cleanly.
    """
    stream = sys.stdout if stream is None else stream
    while True:
        status = status_document(run_dir)
        frame = format_status(status)
        if once:
            print(frame, file=stream)
            return 0
        print("\x1b[2J\x1b[H" + frame, file=stream, flush=True)
        if status["complete"]:
            return 0
        time.sleep(interval_s)
