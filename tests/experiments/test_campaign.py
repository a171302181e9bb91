"""Campaign engine tests: spec, shards, crash-resume, exact merge.

The headline contracts: task enumeration is deterministic and stable
(the ids *are* the coordination mechanism), any shard can be killed
mid-write and resumed to a byte-identical store, and the streaming
merge is bit-identical to the serial harness -- the same accumulator
fields to the last ulp, not just close.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import get_figure
from repro.experiments.campaign import (
    CAMPAIGN_SCHEMA,
    Campaign,
    merge,
    merged_table,
    run_shard,
    task_id,
    write_merged,
)
from repro.experiments.harness import run_sweep
from repro.experiments.report import format_sweep
from repro.io.columnar import scan_frames
from repro.runtime.context import RunContext
from repro.runtime.telemetry import (
    STATUS_SCHEMA,
    format_status,
    status_document,
)
from tests.experiments.test_harness import tiny_sweep


def _campaign(path, reps=6, n_shards=3, chunk_size=2, seed=3) -> Campaign:
    return Campaign.create(
        path,
        [tiny_sweep()],
        reps=reps,
        n_shards=n_shards,
        context=RunContext(seed=seed, chunk_size=chunk_size),
    )


def _run_all(campaign: Campaign) -> None:
    for shard in range(campaign.n_shards):
        report = run_shard(campaign, shard)
        assert report.complete


def _assert_bit_identical(result, serial):
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            a, b = result.stats[x][name], serial.stats[x][name]
            assert (a.n, a._mean, a._m2, a._min, a._max) == (
                b.n, b._mean, b._m2, b._min, b._max
            ), (x, name)


# ----------------------------------------------------------------------
# spec: manifest, task enumeration, shard partition
# ----------------------------------------------------------------------
def test_manifest_roundtrip(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    doc = json.loads((tmp_path / "camp" / "campaign.json").read_text())
    assert doc["schema"] == CAMPAIGN_SCHEMA

    reopened = Campaign.open(tmp_path / "camp")
    assert reopened.reps == campaign.reps
    assert reopened.n_shards == campaign.n_shards
    assert reopened.context == campaign.context
    assert reopened.created == campaign.created
    assert [d.key for d in reopened.definitions] == ["tiny"]
    # identical enumeration from the reopened spec
    assert [t.task_id for t in reopened.tasks()] == [
        t.task_id for t in campaign.tasks()
    ]


def test_create_refuses_clobber(tmp_path):
    _campaign(tmp_path / "camp")
    with pytest.raises(FileExistsError, match="already holds a campaign"):
        _campaign(tmp_path / "camp")


def test_spec_validation(tmp_path):
    context = RunContext()
    with pytest.raises(ValueError, match="reps"):
        Campaign(tmp_path, context, reps=0, n_shards=1,
                 definitions=[tiny_sweep()])
    with pytest.raises(ValueError, match="n_shards"):
        Campaign(tmp_path, context, reps=1, n_shards=0,
                 definitions=[tiny_sweep()])
    with pytest.raises(ValueError, match="at least one sweep"):
        Campaign(tmp_path, context, reps=1, n_shards=1, definitions=[])
    with pytest.raises(ValueError, match="duplicate sweep keys"):
        Campaign(tmp_path, context, reps=1, n_shards=1,
                 definitions=[tiny_sweep(), tiny_sweep()])


def test_task_enumeration_and_partition(tmp_path):
    campaign = _campaign(tmp_path / "camp")  # 2 x points, 6 reps, chunk 2
    tasks = campaign.tasks()
    assert [t.task_id for t in tasks] == [
        "tiny:x000:r00000000-00000002",
        "tiny:x000:r00000002-00000004",
        "tiny:x000:r00000004-00000006",
        "tiny:x001:r00000000-00000002",
        "tiny:x001:r00000002-00000004",
        "tiny:x001:r00000004-00000006",
    ]
    assert task_id("tiny", 0, 0, 2) == tasks[0].task_id
    assert all(t.index == i for i, t in enumerate(tasks))
    assert all(t.reps == 2 for t in tasks)

    # round-robin partition: disjoint, exhaustive, every shard sees
    # every x point
    by_shard = [campaign.shard_tasks(s) for s in range(3)]
    assert sorted(
        t.task_id for shard in by_shard for t in shard
    ) == sorted(t.task_id for t in tasks)
    for shard, owned in enumerate(by_shard):
        assert [campaign.shard_of(t) for t in owned] == [shard] * len(owned)
        assert {t.x_index for t in owned} == {0, 1}
    with pytest.raises(ValueError, match="shard must be in"):
        campaign.shard_tasks(3)


# ----------------------------------------------------------------------
# execution + exact merge
# ----------------------------------------------------------------------
def test_merge_bit_identical_to_serial_harness(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    _run_all(campaign)
    results = merge(campaign)
    serial = run_sweep(tiny_sweep(), reps=6, seed=3)
    _assert_bit_identical(results["tiny"], serial)


def test_torn_tail_resume_is_byte_identical(tmp_path):
    """kill -9 mid-append: resume re-emits only the destroyed task and
    reproduces the uninterrupted shard file byte for byte."""
    campaign = _campaign(tmp_path / "camp")
    _run_all(campaign)
    store = campaign.shard_path(0)
    want = store.read_bytes()

    # tear the last frame, as a kill mid-write would
    store.write_bytes(want[:-5])
    report = run_shard(campaign, 0)
    assert (report.executed, report.replayed) == (1, 1)
    assert store.read_bytes() == want

    # and the merge still matches the serial harness exactly
    _assert_bit_identical(
        merge(campaign)["tiny"], run_sweep(tiny_sweep(), reps=6, seed=3)
    )


def test_run_shard_skips_completed_tasks(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    seen = []
    report = run_shard(campaign, 1, progress=lambda done, total: seen.append(done))
    assert (report.executed, report.replayed, report.total) == (2, 0, 2)
    assert seen == [1, 2]
    again = run_shard(campaign, 1)
    assert (again.executed, again.replayed) == (0, 2)
    assert again.complete


def test_run_shard_max_tasks_pauses_durably(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    paused = run_shard(campaign, 0, max_tasks=1)
    assert (paused.executed, paused.replayed) == (1, 0)
    assert not paused.complete
    resumed = run_shard(campaign, 0)
    assert (resumed.executed, resumed.replayed) == (1, 1)
    assert resumed.complete


def test_merge_strict_names_missing_work(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    run_shard(campaign, 0)  # 2 of 6 tasks
    with pytest.raises(ValueError, match=r"4 of 6 tasks .*tiny:x000"):
        merge(campaign)

    # the partial preview folds whatever exists, in rep order
    partial = merge(campaign, strict=False)["tiny"]
    for x in tiny_sweep().x_values:
        for name in tiny_sweep().schedulers:
            assert partial.stats[x][name].n == 2  # one chunk per x


def test_merge_rejects_violated_partition(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    run_shard(campaign, 0)
    # the same tasks landing in two shard stores means the partition
    # broke (e.g. two processes ran the same shard id concurrently)
    campaign.shard_path(1).write_bytes(campaign.shard_path(0).read_bytes())
    with pytest.raises(ValueError, match="partition was violated"):
        merge(campaign, strict=False)


def test_merged_table_and_export(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    _run_all(campaign)
    results = merge(campaign)

    table = merged_table(results)
    assert len(table["x"]) == 4  # 2 x points x 2 schedulers
    assert set(table["scheduler"]) == {"HDLTS", "HEFT"}
    assert (table["n"] == 6).all()
    assert np.isfinite(table["mean"]).all()
    serial = run_sweep(tiny_sweep(), reps=6, seed=3)
    row = (table["x"] == 1.0) & (table["scheduler"] == "HDLTS")
    assert table["mean"][row][0] == serial.stats[1.0]["HDLTS"].mean

    out = write_merged(campaign, results)
    assert out == campaign.path / "merged.npz"
    loaded = np.load(out, allow_pickle=False)
    np.testing.assert_array_equal(loaded["mean"], table["mean"])

    # zero-sample lanes of a partial merge land as NaN, not a crash
    empty = _campaign(tmp_path / "empty")
    table = merged_table(merge(empty, strict=False))
    assert np.isnan(table["mean"]).all() and (table["n"] == 0).all()


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
def test_campaign_status_counts_and_stragglers(tmp_path):
    campaign = _campaign(tmp_path / "camp")
    run_shard(campaign, 0, max_tasks=1)

    doc = status_document(campaign.path)
    assert doc["schema"] == STATUS_SCHEMA and doc["kind"] == "campaign"
    assert not doc["complete"]
    assert (doc["tasks_done"], doc["tasks_total"]) == (1, 6)
    assert (doc["rows_done"], doc["rows_total"]) == (2, 12)
    assert doc["n_shards"] == 3
    shard0, shard1, _ = doc["shards"]
    assert shard0["started"] and not shard0["complete"]
    assert shard0["tasks_done"] == 1 and shard0["bytes"] > 0
    assert not shard1["started"] and shard1["tasks_done"] == 0
    assert doc["stragglers"] == []  # evidence is fresh

    # an incomplete, started shard with stale evidence is a straggler;
    # untouched shards are just "not started", never stragglers
    import time as _time

    stale = status_document(campaign.path, now=_time.time() + 60.0)
    assert stale["stragglers"] == [0]

    _run_all(campaign)
    done = status_document(campaign.path)
    assert done["complete"] and done["stragglers"] == []
    assert all(s["complete"] for s in done["shards"])
    assert done["sweeps"][0]["rows_done"] == 12


def test_status_document_and_top_dispatch_on_dir_kind(tmp_path):
    """`repro status`/`repro top` work on run dirs *and* campaign dirs:
    status_document picks the right schema, format_status the right
    renderer."""
    from repro.runtime.telemetry import watch

    campaign = _campaign(tmp_path / "camp")
    run_shard(campaign, 0, max_tasks=1)

    doc = status_document(campaign.path)
    assert doc["schema"] == STATUS_SCHEMA and doc["kind"] == "campaign"
    frame = format_status(doc)
    assert "campaign" in frame
    assert "shard" in frame
    assert "tiny" in frame
    assert "(not started)" in frame  # shards 1 and 2 untouched
    assert watch(campaign.path, once=True) == 0

    _run_all(campaign)
    frame = format_status(status_document(campaign.path))
    assert "complete" in frame and "done" in frame


def test_session_open_points_campaign_dirs_at_the_campaign_cli(tmp_path):
    """A sharded campaign is not a run directory: opening it for
    `repro resume` points at the per-shard command instead."""
    from repro.experiments.campaign import open_run_dir

    _campaign(tmp_path / "camp")
    with pytest.raises(ValueError, match="repro campaign run-shard"):
        open_run_dir(tmp_path / "camp")


def test_campaign_status_eta_from_shard_heartbeats(tmp_path):
    """ETA = remaining tasks / the summed task rate of live shards."""
    from repro.runtime.telemetry import HEARTBEAT_SCHEMA, telemetry_dir

    campaign = _campaign(tmp_path / "camp")  # 6 tasks over 3 shards
    run_shard(campaign, 0, max_tasks=1)
    run_shard(campaign, 1, max_tasks=1)
    tdir = telemetry_dir(campaign.path)
    for path in tdir.glob("heartbeat-*.json"):
        path.unlink()
    now = 1000.0

    def beat(pid, shard, started, ts, chunks_done):
        (tdir / f"heartbeat-{pid}.json").write_text(json.dumps({
            "schema": HEARTBEAT_SCHEMA, "pid": pid, "role": "shard",
            "shard": shard, "started": started, "ts": ts,
            "chunks_done": chunks_done,
        }))

    assert status_document(campaign.path, now=now)["eta_s"] is None
    beat(11, 0, started=now - 11.0, ts=now - 1.0, chunks_done=1)  # 0.1/s
    beat(12, 1, started=now - 5.0, ts=now, chunks_done=2)  # 0.4 task/s
    doc = status_document(campaign.path, now=now)
    assert doc["tasks_done"] == 2
    assert doc["eta_s"] == pytest.approx(4 / 0.5)
    # a stale shard beat (a dead process) stops counting toward the rate
    beat(12, 1, started=now - 65.0, ts=now - 60.0, chunks_done=2)
    assert status_document(campaign.path, now=now)["eta_s"] == (
        pytest.approx(4 / 0.1)
    )
    assert "ETA 0:00:40" in format_status(
        status_document(campaign.path, now=now)
    )
    # a shard's freshest beat (its resumed process) replaces older ones
    beat(13, 0, started=now - 4.0, ts=now, chunks_done=1)  # 0.25/s
    assert status_document(campaign.path, now=now)["eta_s"] == (
        pytest.approx(4 / 0.25)
    )
    # a finished shard does no more work: its rate stops counting
    run_shard(campaign, 0)
    beat(13, 0, started=now - 4.0, ts=now, chunks_done=2)
    beat(12, 1, started=now - 5.0, ts=now, chunks_done=2)  # 0.4/s
    assert status_document(campaign.path, now=now)["eta_s"] == (
        pytest.approx(3 / 0.4)
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_campaign_end_to_end(tmp_path, capsys):
    camp = str(tmp_path / "camp")
    assert main([
        "campaign", "init", camp, "--figures", "fig2",
        "--reps", "4", "--shards", "2", "--chunk-size", "2", "--seed", "0",
    ]) == 0
    assert "2 shard(s)" in capsys.readouterr().out

    assert main(["campaign", "tasks", camp, "--shard", "0"]) == 0
    ids = capsys.readouterr().out.strip().splitlines()
    assert ids and all(":r" in line for line in ids)

    for shard in ("0", "1"):
        assert main(["campaign", "run-shard", camp, shard]) == 0
    capsys.readouterr()

    assert main(["status", camp, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == STATUS_SCHEMA
    assert doc["complete"] and doc["tasks_done"] == doc["tasks_total"]

    # `campaign merge` stdout is exactly the serial figure tables --
    # the contract CI's diff-against-`repro figure` smoke relies on
    assert main(["campaign", "merge", camp]) == 0
    merged_out = capsys.readouterr().out
    serial = run_sweep(get_figure("fig2"), reps=4, seed=0)
    assert merged_out == format_sweep(serial) + "\n"
    assert (tmp_path / "camp" / "merged.npz").exists()


def test_cli_campaign_partial_merge_and_errors(tmp_path, capsys):
    camp = str(tmp_path / "camp")
    assert main([
        "campaign", "init", camp, "--figures", "fig2",
        "--reps", "4", "--shards", "2", "--chunk-size", "2", "--seed", "0",
    ]) == 0
    assert main(["campaign", "run-shard", camp, "0"]) == 0
    capsys.readouterr()

    # strict merge refuses; --partial summarizes coverage instead
    assert main(["campaign", "merge", camp]) == 2
    err = capsys.readouterr().err
    assert "5 of 10 tasks" in err
    assert main(["campaign", "merge", camp, "--partial"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out

    # a campaign dir handed to run-dir commands gets a pointed error
    assert main(["resume", camp]) == 2
    err = capsys.readouterr().err
    assert "campaign" in err


def test_cli_campaign_partial_merge_writes_csv(tmp_path, capsys):
    """Points with no folded replication land in the CSV as NaN rows."""
    camp = str(tmp_path / "camp")
    assert main([
        "campaign", "init", camp, "--figures", "fig13",
        "--reps", "4", "--shards", "2", "--chunk-size", "2",
    ]) == 0
    assert main(["campaign", "run-shard", camp, "0", "--max-tasks", "1"]) == 0
    capsys.readouterr()

    csv_path = tmp_path / "partial.csv"
    assert main([
        "campaign", "merge", camp, "--partial", "--csv", str(csv_path),
    ]) == 0
    total = 4 * len(get_figure("fig13").x_values)
    assert f"fig13: partial merge, 2/{total} replications folded" in (
        capsys.readouterr().out
    )
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == total // 4 * len(get_figure("fig13").schedulers)
    folded = [r for r in rows if r.endswith(",2")]
    empty = [r for r in rows if r.endswith(",0")]
    assert len(folded) + len(empty) == len(rows)
    assert folded and empty
    assert all(",nan,nan," in r for r in empty)
