"""Sharded parameter-study campaigns with streaming columnar merge.

A *campaign* scales the figure harness three orders of magnitude past
the paper's few-hundred-replication protocol: a declarative spec
(:class:`~repro.experiments.harness.SweepDefinition`\\ s with portable
:class:`~repro.experiments.graphspec.GraphSpec`\\ s, one
:class:`~repro.runtime.context.RunContext`) is expanded into a
deterministic list of **tasks** -- the exact chunk decomposition the
parallel sweep runner uses -- which are dealt round-robin onto
``n_shards`` independent **shards**.  Any shard can run in any process
on any machine at any time (``repro campaign run-shard DIR K``); its
results land in an append-only columnar store
(:mod:`repro.io.columnar`), one fsynced record batch per task, with no
timestamps or other nondeterminism in the file -- so a shard killed
mid-task and resumed produces a byte-identical store.

Layout of a campaign directory::

    campaign.json                  the spec: schema, context, reps,
                                   n_shards, resolved sweep definitions
    shards/shard-0000.colbin       per-shard columnar result stores
    shards/shard-0001.colbin       (record batches keyed by task id)
    telemetry/heartbeat-<pid>.json live shard heartbeats (repro top)
    merged.npz                     merged long-form stats table

A ``repro run`` directory is a one-shard campaign: ``repro run`` writes
the manifest with ``n_shards=1`` and streams its pool's chunks into
shard 0 in submission order (:func:`open_run_dir` re-opens it for
``repro resume``), so the shard file is byte-identical to what
:func:`run_shard` writes, and ``repro campaign run-shard DIR 0`` /
``repro campaign merge DIR`` work on run directories too.

The merge path (:func:`merge`) is streaming and memory-bounded: it
never materializes all rows.  It reads one replication stripe of every
x point at a time and folds it into the one
:class:`~repro.experiments.harness.ExactWelford` under the fold
contract stated in ``docs/architecture.md``, so a merged campaign
reproduces ``repro figure`` output *bit for bit*, regardless of
sharding, kills, or resume history.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.experiments.harness import (
    ExactWelford,
    SweepDefinition,
    SweepResult,
    run_replications,
)
from repro.io.columnar import write_table
from repro.runtime.context import RunContext, activate
from repro.runtime.telemetry import HeartbeatWriter, telemetry_dir
from repro.service.store import (
    ColumnarStore,
    TaskSpec,
    enumerate_tasks,
    task_id,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CAMPAIGN_STATUS_SCHEMA",
    "CampaignTask",
    "Campaign",
    "ShardReport",
    "open_run_dir",
    "read_manifest",
    "write_manifest",
    "task_id",
    "run_shard",
    "merge",
    "merged_table",
    "campaign_status",
]

PathLike = Union[str, pathlib.Path]

CAMPAIGN_SCHEMA = "repro.campaign/1"
CAMPAIGN_STATUS_SCHEMA = "repro.campaign-status/1"

#: an incomplete shard with no evidence of life for this long is
#: flagged as a straggler by :func:`campaign_status`
_STRAGGLER_FLOOR_S = 10.0


#: the manifest schema of the run directories older versions wrote (a
#: ``manifest.json`` plus a JSONL chunk ledger); no longer readable
_RETIRED_RUN_SCHEMA = "repro.run/1"


def write_manifest(path: PathLike, doc: Dict) -> None:
    """Write a manifest document atomically (tmp file + ``os.replace``).

    A reader racing the write sees either the old manifest or the new
    one, never a torn file.
    """
    path = pathlib.Path(path)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def read_manifest(path: PathLike, schema: str) -> Dict:
    """Load a manifest and check its schema tag, with pointed errors."""
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"no {path.name} manifest in {path.parent} "
            "(not a run or campaign directory)"
        )
    doc = json.loads(path.read_text())
    found = doc.get("schema")
    if found != schema:
        raise ValueError(
            f"unsupported manifest schema {found!r} in {path} "
            f"(expected {schema!r})"
        )
    return doc


#: campaign tasks *are* the service layer's task decomposition --
#: :func:`repro.service.store.task_id` names them and
#: :class:`repro.service.store.TaskSpec` carries them; the old names
#: stay importable from here.
CampaignTask = TaskSpec


class Campaign:
    """One campaign directory: declarative spec + sharded result stores."""

    SCHEMA = CAMPAIGN_SCHEMA
    MANIFEST = "campaign.json"
    SHARDS_DIRNAME = "shards"
    MERGED = "merged.npz"

    def __init__(
        self,
        path: PathLike,
        context: RunContext,
        reps: int,
        n_shards: int,
        definitions: List[SweepDefinition],
        created: Optional[str] = None,
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        keys = [d.key for d in definitions]
        if not keys:
            raise ValueError("a campaign needs at least one sweep definition")
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate sweep keys: {keys}")
        closures = sorted(d.key for d in definitions if not d.portable)
        if closures:
            raise ValueError(
                f"definitions {closures} use make_graph closures and cannot "
                "be written to a campaign manifest; give them a GraphSpec"
            )
        self.path = pathlib.Path(path)
        self.context = context
        self.reps = reps
        self.n_shards = n_shards
        self.definitions = list(definitions)
        self.created = created

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        definitions: List[SweepDefinition],
        reps: int,
        n_shards: int,
        context: RunContext,
    ) -> "Campaign":
        """Write a fresh campaign directory; refuses to clobber one."""
        campaign = cls(
            path,
            context,
            reps,
            n_shards,
            definitions,
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )
        manifest = campaign.path / cls.MANIFEST
        if manifest.exists():
            raise FileExistsError(
                f"directory {campaign.path} already holds a campaign; "
                f"resume it (repro resume {campaign.path}, or repro "
                f"campaign run-shard for a sharded one) or pick a new "
                f"directory"
            )
        campaign.path.mkdir(parents=True, exist_ok=True)
        (campaign.path / cls.SHARDS_DIRNAME).mkdir(exist_ok=True)
        write_manifest(manifest, campaign.manifest_dict())
        return campaign

    @classmethod
    def open(cls, path: PathLike) -> "Campaign":
        """Re-open a campaign (or run) directory from its manifest.

        A directory in the retired run format -- ``manifest.json`` with
        schema ``repro.run/1`` and a JSONL chunk ledger -- is refused
        with a message naming the format, not reported as missing.
        """
        path = pathlib.Path(path)
        legacy = path / "manifest.json"
        if not (path / cls.MANIFEST).exists() and legacy.exists():
            found = json.loads(legacy.read_text()).get("schema")
            if found == _RETIRED_RUN_SCHEMA:
                raise ValueError(
                    f"{path} is a {_RETIRED_RUN_SCHEMA} run directory "
                    "(manifest.json + JSONL chunk ledger), a format this "
                    "version no longer reads; start the run again with "
                    "`repro run`"
                )
        doc = read_manifest(path / cls.MANIFEST, cls.SCHEMA)
        return cls(
            path,
            RunContext.from_dict(doc["context"]),
            int(doc["reps"]),
            int(doc["n_shards"]),
            [SweepDefinition.from_dict(entry) for entry in doc["sweeps"]],
            created=doc.get("created"),
        )

    def manifest_dict(self) -> Dict[str, object]:
        """The JSON manifest document (schema ``repro.campaign/1``)."""
        from repro import __version__

        return {
            "schema": self.SCHEMA,
            "version": __version__,
            "created": self.created,
            "context": self.context.to_dict(),
            "reps": self.reps,
            "n_shards": self.n_shards,
            "sweeps": [d.to_dict() for d in self.definitions],
        }

    # -- task enumeration ------------------------------------------------
    def tasks(self) -> List[CampaignTask]:
        """Every task of the campaign, in deterministic (spec) order.

        The one task decomposition,
        :func:`~repro.service.store.enumerate_tasks` -- the same chunks
        ``repro run`` executes -- so campaign results line up
        replication-for-replication with a checkpointed or serial run
        of the same definitions.
        """
        return enumerate_tasks(
            self.definitions, self.reps, self.context.chunk_size
        )

    def shard_of(self, task: CampaignTask) -> int:
        """Which shard owns ``task`` (round-robin by task index)."""
        return task.index % self.n_shards

    def shard_tasks(self, shard: int) -> List[CampaignTask]:
        """The tasks shard ``shard`` must run, in execution order."""
        self._check_shard(shard)
        return [t for t in self.tasks() if self.shard_of(t) == shard]

    def shard_path(self, shard: int) -> pathlib.Path:
        """The shard's columnar store file."""
        self._check_shard(shard)
        return (
            self.path / self.SHARDS_DIRNAME / f"shard-{shard:04d}.colbin"
        )

    def groups(self) -> Dict[str, List[str]]:
        """Columnar record groups: one per sweep, scheduler columns."""
        return {d.key: list(d.schedulers) for d in self.definitions}

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )


def open_run_dir(path: PathLike) -> Campaign:
    """Re-open a ``repro run`` directory: a campaign with one shard.

    ``repro resume`` drives shard 0 through the parallel sweep runner,
    which only makes sense when that shard owns every task; a sharded
    campaign is refused with a pointer to the per-shard command.
    """
    campaign = Campaign.open(path)
    if campaign.n_shards > 1:
        raise ValueError(
            f"{campaign.path} is a campaign with {campaign.n_shards} "
            f"shards, not a run directory; resume each shard with "
            f"`repro campaign run-shard {campaign.path} K`"
        )
    return campaign


# ----------------------------------------------------------------------
# shard execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardReport:
    """What one :func:`run_shard` call did."""

    shard: int
    executed: int
    replayed: int
    total: int

    @property
    def complete(self) -> bool:
        return self.executed + self.replayed >= self.total


def run_shard(
    campaign: Campaign,
    shard: int,
    progress: Optional[Callable[[int, int], None]] = None,
    max_tasks: Optional[int] = None,
) -> ShardReport:
    """Run (or resume) one shard to completion, durably.

    Tasks already present in the shard store are skipped; the torn tail
    left by a crash is truncated before appending, so the finished
    store is byte-identical however many times the shard was killed.
    ``max_tasks`` bounds how many *new* tasks run (testing / draining).
    The campaign's context governs execution -- seed, engine, batched
    kernel -- exactly as a serial run would.
    """
    tasks = campaign.shard_tasks(shard)
    definitions = {d.key: d for d in campaign.definitions}
    context = campaign.context.with_(
        telemetry=str(telemetry_dir(campaign.path))
    )
    executed = replayed = 0
    with activate(context):
        store = ColumnarStore(
            campaign.shard_path(shard), campaign.groups(), mode="a"
        )
        done_ids = store.completed_ids()
        heartbeat = HeartbeatWriter(
            context.telemetry, role="shard", extra={"shard": shard}
        )
        heartbeat.beat(force=True)
        with store, obs.span(
            "campaign.shard", shard=shard, tasks=len(tasks)
        ):
            for task in tasks:
                if task.task_id in done_ids:
                    replayed += 1
                    continue
                if max_tasks is not None and executed >= max_tasks:
                    break
                definition = definitions[task.sweep]
                with obs.span(
                    "campaign.task", task=task.task_id, shard=shard
                ):
                    values = run_replications(
                        definition, task.x, task.x_index, task.rep_lo,
                        task.rep_hi, context.seed, context.validate,
                    )
                store.append_chunk(
                    task.sweep, task.x_index, task.x, task.rep_lo,
                    task.rep_hi, values,
                )
                executed += 1
                heartbeat.bump(last_event_ts=time.time())
                if progress is not None:
                    progress(executed + replayed, len(tasks))
        heartbeat.beat(force=True)
    return ShardReport(
        shard=shard, executed=executed, replayed=replayed, total=len(tasks)
    )


# ----------------------------------------------------------------------
# streaming merge
# ----------------------------------------------------------------------
def _store_index(
    campaign: Campaign,
) -> Tuple[Dict[str, ColumnarStore], List[ColumnarStore]]:
    """Open every shard store once: ``task_id -> store`` plus the open
    stores (caller closes them).

    Tolerates missing shard files and torn tails (both just mean fewer
    completed tasks); a duplicate task across shards is an error -- it
    would mean the deterministic partition was violated.
    """
    index: Dict[str, ColumnarStore] = {}
    stores: List[ColumnarStore] = []
    for shard in range(campaign.n_shards):
        path = campaign.shard_path(shard)
        if not path.exists():
            continue
        store = ColumnarStore(path, campaign.groups(), mode="r")
        stores.append(store)
        for tid in sorted(store.completed_ids()):
            if tid in index:
                raise ValueError(
                    f"task {tid} appears in both {index[tid].path.name} "
                    f"and {path.name}; the shard partition was violated"
                )
            index[tid] = store
    return index, stores


def _merge_sweep(
    campaign: Campaign,
    definition: SweepDefinition,
    tasks: List[CampaignTask],
    index: Dict[str, ColumnarStore],
) -> SweepResult:
    """Fold one sweep's record batches into per-point stats, exactly.

    Streams replication stripes -- the sweep's tasks grouped by
    replication range -- gathering the frames of every x point into one
    ``(rows, n_x, k)`` block that folds across all ``n_x * k`` lanes at
    once.  A point whose task has no frame is left out of that stripe's
    fold, so a partial merge simply folds fewer rows there.  Memory is
    bounded by one stripe.
    """
    cols = list(definition.schedulers)
    n_x, k = len(definition.x_values), len(cols)
    stripes: Dict[Tuple[int, int], List[CampaignTask]] = {}
    for task in tasks:
        stripes.setdefault((task.rep_lo, task.rep_hi), []).append(task)
    fold = ExactWelford(n_x, k)
    block = np.empty(
        (min(campaign.context.chunk_size, campaign.reps), n_x, k)
    )
    present = np.empty(n_x, dtype=bool)
    for (rep_lo, rep_hi), members in stripes.items():
        rows = rep_hi - rep_lo
        present.fill(False)
        for task in members:
            tid = task.task_id
            store = index.get(tid)
            if store is not None:
                present[task.x_index] = True
                block[:rows, task.x_index, :] = store.read_matrix(
                    tid, cols, rows
                )
        fold.add_rows(block[:rows, present], present)
    return SweepResult.from_fold(
        definition, campaign.reps, campaign.context.seed, fold
    )


def merge(
    campaign: Campaign, strict: bool = True
) -> Dict[str, SweepResult]:
    """Fold every shard store into final per-point statistics.

    Streaming and memory-bounded; the returned
    :class:`~repro.experiments.harness.SweepResult`\\ s are
    bit-identical to running the same definitions through the serial
    harness.  ``strict=False`` merges whatever tasks have completed
    (a live preview); by default a missing task raises, naming how much
    of the campaign is still outstanding.
    """
    index, stores = _store_index(campaign)
    tasks = campaign.tasks()
    missing = [t for t in tasks if t.task_id not in index]
    if missing and strict:
        for store in stores:
            store.close()
        raise ValueError(
            f"{len(missing)} of {len(tasks)} tasks have no results yet "
            f"(first missing: {missing[0].task_id}); run the remaining "
            "shards, or merge(strict=False) for a partial preview"
        )
    try:
        with obs.span(
            "campaign.merge", tasks=len(tasks) - len(missing),
            partial=bool(missing),
        ):
            return {
                d.key: _merge_sweep(
                    campaign, d, [t for t in tasks if t.sweep == d.key],
                    index,
                )
                for d in campaign.definitions
            }
    finally:
        for store in stores:
            store.close()


def merged_table(results: Dict[str, SweepResult]) -> Dict[str, np.ndarray]:
    """Long-form columnar table of merged stats (one row per x, scheduler).

    The dict of numpy columns feeds :func:`repro.io.columnar.write_table`
    -- Parquet when pyarrow is importable, ``.npz`` otherwise.
    """
    sweep, x_label, x, metric, scheduler = [], [], [], [], []
    mean, std, n, vmin, vmax = [], [], [], [], []
    for key, result in results.items():
        definition = result.definition
        for point in definition.x_values:
            for name in definition.schedulers:
                acc = result.stats[point][name]
                sweep.append(key)
                x_label.append(definition.x_label)
                x.append(float(point))
                metric.append(definition.metric)
                scheduler.append(name)
                # zero-sample lanes (partial merges) land as NaN rows
                mean.append(acc.mean if acc.n else math.nan)
                std.append(acc.std if acc.n else math.nan)
                n.append(acc.n)
                vmin.append(acc.min if acc.n else math.nan)
                vmax.append(acc.max if acc.n else math.nan)
    return {
        "sweep": np.array(sweep),
        "x_label": np.array(x_label),
        "x": np.array(x, dtype=np.float64),
        "metric": np.array(metric),
        "scheduler": np.array(scheduler),
        "mean": np.array(mean, dtype=np.float64),
        "std": np.array(std, dtype=np.float64),
        "n": np.array(n, dtype=np.int64),
        "min": np.array(vmin, dtype=np.float64),
        "max": np.array(vmax, dtype=np.float64),
    }


def write_merged(
    campaign: Campaign,
    results: Dict[str, SweepResult],
    path: Optional[PathLike] = None,
) -> pathlib.Path:
    """Write the merged long-form table beside the campaign manifest."""
    target = pathlib.Path(path) if path else campaign.path / Campaign.MERGED
    return write_table(target, merged_table(results))


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
def campaign_status(
    path: PathLike, now: Optional[float] = None
) -> Dict[str, object]:
    """One status document over a campaign directory.

    Schema ``repro.campaign-status/1``; derived purely from the
    manifest, the shard stores and the heartbeat files, so it is safe
    on live, crashed and finished campaigns alike.  Per-shard progress
    makes stragglers visible: an incomplete shard whose newest evidence
    (heartbeat, then store mtime) is stale gets flagged.

    ``eta_s`` divides the remaining tasks by the campaign's measured
    rate: the sum, over incomplete shards whose newest heartbeat is
    fresh, of the tasks that process computed per second since it
    ``started``.  It is ``None`` while no such shard has finished a
    task.
    """
    from repro.runtime.telemetry import load_heartbeats

    campaign = Campaign.open(path)
    now = time.time() if now is None else now
    tasks = campaign.tasks()
    totals_by_shard = [0] * campaign.n_shards
    for task in tasks:
        totals_by_shard[campaign.shard_of(task)] += 1

    beats = load_heartbeats(campaign.path)
    beat_by_shard: Dict[int, Dict[str, object]] = {}
    for beat in beats:
        beat["age_s"] = now - float(beat.get("ts", now))
        shard = beat.get("shard")
        if shard is None:
            continue
        best = beat_by_shard.get(int(shard))
        if best is None or beat["age_s"] < best["age_s"]:
            beat_by_shard[int(shard)] = beat

    per_sweep_rows: Dict[str, int] = {d.key: 0 for d in campaign.definitions}
    shards: List[Dict[str, object]] = []
    done_ids = set()
    for shard in range(campaign.n_shards):
        store = campaign.shard_path(shard)
        done = 0
        size = None
        age = None
        if store.exists():
            with ColumnarStore(store, campaign.groups()) as cstore:
                frames = cstore.frames
            done = len(frames)
            for frame in frames:
                done_ids.add(str(frame.meta.get("task")))
                group = str(frame.meta.get("group"))
                if group in per_sweep_rows:
                    per_sweep_rows[group] += frame.rows
            stat = store.stat()
            size = stat.st_size
            age = now - stat.st_mtime
        beat = beat_by_shard.get(shard)
        if beat is not None:
            age = beat["age_s"] if age is None else min(age, beat["age_s"])
        complete = done >= totals_by_shard[shard]
        shards.append(
            {
                "shard": shard,
                "tasks_done": done,
                "tasks_total": totals_by_shard[shard],
                "complete": complete,
                "started": store.exists(),
                "bytes": size,
                "age_s": age,
                "pid": beat.get("pid") if beat else None,
                "straggler": bool(
                    not complete
                    and store.exists()
                    and age is not None
                    and age > _STRAGGLER_FLOOR_S
                ),
            }
        )

    sweeps = []
    for definition in campaign.definitions:
        total_rows = len(definition.x_values) * campaign.reps
        sweeps.append(
            {
                "key": definition.key,
                "title": definition.title,
                "x_label": definition.x_label,
                "points": len(definition.x_values),
                "reps": campaign.reps,
                "rows_done": per_sweep_rows[definition.key],
                "rows_total": total_rows,
                "complete": per_sweep_rows[definition.key] >= total_rows,
            }
        )

    tasks_done = len(done_ids)
    rate = 0.0
    for entry in shards:
        beat = beat_by_shard.get(entry["shard"])
        if beat is None or entry["complete"]:
            continue
        elapsed = float(beat["ts"]) - float(beat.get("started", beat["ts"]))
        if beat["age_s"] <= _STRAGGLER_FLOOR_S and elapsed > 0.0:
            rate += int(beat.get("chunks_done", 0)) / elapsed
    eta_s = (len(tasks) - tasks_done) / rate if rate > 0.0 else None
    return {
        "schema": CAMPAIGN_STATUS_SCHEMA,
        "run_dir": str(path),
        "created": campaign.created,
        "complete": tasks_done >= len(tasks),
        "tasks_done": tasks_done,
        "tasks_total": len(tasks),
        "rows_done": sum(s["rows_done"] for s in sweeps),
        "rows_total": sum(s["rows_total"] for s in sweeps),
        "n_shards": campaign.n_shards,
        "chunk_size": campaign.context.chunk_size,
        "reps": campaign.reps,
        "sweeps": sweeps,
        "shards": shards,
        "stragglers": [s["shard"] for s in shards if s["straggler"]],
        "eta_s": eta_s,
    }
