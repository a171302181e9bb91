"""Run telemetry: heartbeat files and live status over a results directory.

Everything ``repro top`` / ``repro status`` show is derived from files
a run writes as it progresses, so the observer is a separate process
that never touches the run itself:

``<dir>/telemetry/heartbeat-<pid>.json``
    One file per participating process (a shard process or the main
    collector of ``repro run``, plus every pool worker), rewritten
    atomically after each chunk: pid, role, shard (for the process that
    owns one), resident set size, user/system CPU time, when it
    started, chunks done and the wall-clock timestamp of the last
    event.  A vanished or stale heartbeat is visible as exactly that.

``<dir>/shards/shard-*.colbin``
    The crash-safe columnar shard stores
    (:mod:`repro.experiments.campaign`); progress counts come from
    here, so they are correct even when every heartbeat is gone.

``<dir>/telemetry/spans-<pid>.jsonl`` / ``trace.json`` /
``metrics.prom`` / ``events.jsonl``
    Written when tracing / metrics / event streaming are requested; see
    :mod:`repro.obs.export` and docs/observability.md.

A ``repro run`` directory is a one-shard campaign, so
:func:`status_document` knows two directory kinds: campaign directories
(:func:`~repro.experiments.campaign.campaign_status`, schema
``repro.campaign-status/1``) and service directories
(:func:`~repro.service.api.service_status`).  :func:`format_status`
renders either as the terminal frame ``repro top`` repaints.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time
from typing import Dict, List, Optional, Union

__all__ = [
    "TELEMETRY_DIRNAME",
    "HEARTBEAT_SCHEMA",
    "telemetry_dir",
    "HeartbeatWriter",
    "load_heartbeats",
    "status_document",
    "format_campaign_top",
    "format_status",
]

PathLike = Union[str, pathlib.Path]

TELEMETRY_DIRNAME = "telemetry"
HEARTBEAT_SCHEMA = "repro.heartbeat/1"


def telemetry_dir(run_dir: PathLike) -> pathlib.Path:
    """The telemetry directory beside a run's manifest and shard stores."""
    return pathlib.Path(run_dir) / TELEMETRY_DIRNAME


class HeartbeatWriter:
    """Periodically rewrites this process's heartbeat file, atomically.

    ``beat`` is cheap enough to call after every chunk: it throttles
    itself to one write per ``throttle_s`` unless forced, and each
    write is a tmp-file + ``os.replace`` so readers never see a torn
    document.
    """

    def __init__(
        self, directory: PathLike, role: str = "worker",
        throttle_s: float = 0.2,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.extra = dict(extra) if extra else {}
        self.pid = os.getpid()
        self.path = self.directory / f"heartbeat-{self.pid}.json"
        self.throttle_s = throttle_s
        #: wall-clock start of this writer: chunk rates are measured
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
    ) -> None:
        """Record progress and (rate-limited) rewrite the heartbeat file."""
        if chunks_done is not None:
            self.chunks_done = chunks_done
        if last_event_ts is not None:
            self.last_event_ts = last_event_ts
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

    def bump(self, last_event_ts: Optional[float] = None) -> None:
        """One more chunk done; rewrite the file.

        Unthrottled: a chunk spans many replications, so one ~50 us
        atomic rewrite per chunk is noise, and it keeps the per-worker
        chunk counts in ``repro top`` exact rather than trailing by a
        throttle window.
        """
        self.beat(
            chunks_done=self.chunks_done + 1,
            last_event_ts=last_event_ts,
            force=True,
        )


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


def status_document(
    run_dir: PathLike, now: Optional[float] = None
) -> Dict[str, object]:
    """Status over *any* results directory: campaign (or run) or service.

    A ``store.sqlite`` gets :func:`repro.service.api.service_status`
    (schema ``repro.service-status/1``); anything else is opened as a
    campaign -- ``repro run`` directories are one-shard campaigns --
    by :func:`repro.experiments.campaign.campaign_status` (schema
    ``repro.campaign-status/1``), which raises a pointed error for a
    directory that is neither.  ``repro status`` / ``repro top`` call
    this.
    """
    from repro.service.api import is_service_dir, service_status

    if is_service_dir(run_dir):
        return service_status(run_dir, now=now)
    from repro.experiments.campaign import campaign_status

    return campaign_status(run_dir, now=now)


def _bar(fraction: float, width: int = 24) -> str:
    """A ``[#####....]`` progress bar for one 0..1 fraction."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _hms(seconds: float) -> str:
    """``h:mm:ss`` rendering of a duration."""
    seconds = max(0, int(round(seconds)))
    return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def format_campaign_top(status: Dict[str, object]) -> str:
    """Render one ``repro top`` frame for a campaign or run directory.

    Takes a :func:`~repro.experiments.campaign.campaign_status`
    document: campaign totals and ETA, per-sweep row progress, and a
    per-shard table with straggler flags.
    """
    lines: List[str] = []
    done = int(status["tasks_done"])
    total = max(1, int(status["tasks_total"]))
    state = "complete" if status["complete"] else "running"
    lines.append(
        f"repro top -- {status['run_dir']}  (campaign, {state}, "
        f"{status['n_shards']} shard(s))"
    )
    lines.append(
        f"tasks  {_bar(done / total)} {done}/{status['tasks_total']}"
        f"  ({100.0 * done / total:.1f}%)"
    )
    eta = ""
    if status.get("eta_s") is not None and not status["complete"]:
        eta = f"  ETA {_hms(status['eta_s'])}"
    lines.append(
        f"  {status['rows_done']}/{status['rows_total']} replications "
        f"(chunk size {status['chunk_size']}){eta}"
    )
    lines.append("")
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
    return "\n".join(lines)


def format_status(status: Dict[str, object]) -> str:
    """Render whatever :func:`status_document` produced, by schema."""
    if status.get("schema") == "repro.service-status/1":
        from repro.service.api import format_service_top

        return format_service_top(status)
    return format_campaign_top(status)


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
