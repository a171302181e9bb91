"""Unit tests for run directories: a ``repro run`` directory is a
one-shard campaign -- ``campaign.json`` plus shard 0's columnar store.

The manifest tests pin what ``repro run`` writes and ``repro resume``
reads back; the chunk-store tests pin what the sweep runner's ``store``
hook appends and replays (exact floats, torn tails, per-sweep groups).
"""

import json

import pytest

from repro.experiments import get_figure
from repro.experiments.campaign import Campaign, open_run_dir
from repro.io.columnar import scan_frames
from repro.runtime.context import RunContext
from repro.service.store import ColumnarStore


def _new_run_dir(tmp_path, reps=4, **ctx_kwargs):
    return Campaign.create(
        tmp_path / "run", [get_figure("fig13")], reps=reps, n_shards=1,
        context=RunContext(**ctx_kwargs),
    )


def _shard0(run_dir, mode="a"):
    return ColumnarStore(run_dir.shard_path(0), run_dir.groups(), mode=mode)


def _values(*hdlts):
    names = get_figure("fig13").schedulers
    return [{name: h + i for i, name in enumerate(names)} for h in hdlts]


def _rows(values):
    """Per-replication dicts as the store's matrix rows (list form)."""
    names = get_figure("fig13").schedulers
    return [[rep_values[name] for name in names] for rep_values in values]


class TestManifest:
    def test_create_writes_schema_version_context_and_sweeps(self, tmp_path):
        run_dir = _new_run_dir(tmp_path, reps=6, seed=3, workers=2)
        doc = json.loads((run_dir.path / Campaign.MANIFEST).read_text())
        from repro import __version__

        assert doc["schema"] == Campaign.SCHEMA
        assert doc["version"] == __version__
        assert doc["reps"] == 6
        assert doc["n_shards"] == 1
        assert doc["context"] == RunContext(seed=3, workers=2).to_dict()
        assert [s["key"] for s in doc["sweeps"]] == ["fig13"]
        assert doc["sweeps"][0]["graph"]["factory"] == "molecular"
        assert doc["created"]

    def test_create_refuses_existing_run_dir(self, tmp_path):
        _new_run_dir(tmp_path)
        with pytest.raises(FileExistsError, match="repro resume"):
            _new_run_dir(tmp_path)

    def test_open_round_trips(self, tmp_path):
        created = _new_run_dir(tmp_path, reps=5, seed=9, chunk_size=2)
        reopened = open_run_dir(created.path)
        assert reopened.context == created.context
        assert reopened.reps == 5
        assert reopened.n_shards == 1
        assert [d.key for d in reopened.definitions] == ["fig13"]
        assert reopened.definitions[0] == created.definitions[0]

    def test_open_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            open_run_dir(tmp_path / "nope")

    def test_open_rejects_unknown_schema(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        manifest = run_dir.path / Campaign.MANIFEST
        doc = json.loads(manifest.read_text())
        doc["schema"] = "repro.campaign/99"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            open_run_dir(run_dir.path)

    def test_closure_definitions_rejected(self, tmp_path):
        from tests.experiments.test_harness import tiny_closure_sweep

        with pytest.raises(ValueError, match="closure"):
            Campaign.create(
                tmp_path / "run", [tiny_closure_sweep()], reps=2,
                n_shards=1, context=RunContext(),
            )


class TestLedger:
    """Shard 0 as the run directory's durable chunk record."""

    def test_record_and_replay(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        values = _values(1.5)
        with _shard0(run_dir) as store:
            store.append_chunk("fig13", 0, 1.0, 0, 1, values)
            store.append_chunk("fig13", 0, 1.0, 1, 2, values)
        with _shard0(run_dir, mode="r") as store:
            completed = store.completed_chunks("fig13")
        assert set(completed) == {(0, 0, 1), (0, 1, 2)}
        assert completed[(0, 0, 1)].tolist() == _rows(values)

    def test_floats_round_trip_exactly(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        values = _values(1.0 / 3.0 + 1e-16)
        with _shard0(run_dir) as store:
            store.append_chunk("fig13", 0, 1.0, 0, 1, values)
        with _shard0(run_dir) as store:
            replayed = store.completed_chunks("fig13")[(0, 0, 1)]
        assert replayed.tolist() == _rows(values)

    def test_other_sweeps_filtered_out(self, tmp_path):
        run_dir = Campaign.create(
            tmp_path / "run", [get_figure("fig13"), get_figure("fig14")],
            reps=2, n_shards=1, context=RunContext(),
        )
        with _shard0(run_dir) as store:
            store.append_chunk("fig13", 0, 1.0, 0, 1, _values(1.0))
            other = [
                {name: 2.0 for name in get_figure("fig14").schedulers}
            ]
            store.append_chunk("fig14", 0, 1.0, 0, 1, other)
            assert set(store.completed_chunks("fig13")) == set()
        with _shard0(run_dir) as store:
            assert set(store.completed_chunks("fig13")) == {(0, 0, 1)}
            assert set(store.completed_chunks("fig14")) == {(0, 0, 1)}

    def test_torn_tail_tolerated(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        with _shard0(run_dir) as store:
            store.append_chunk("fig13", 0, 1.0, 0, 1, _values(1.0))
            store.append_chunk("fig13", 0, 1.0, 1, 2, _values(2.0))
            store.append_chunk("fig13", 0, 1.0, 2, 3, _values(3.0))
        path = run_dir.shard_path(0)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])  # a crash mid-append of chunk 3
        with _shard0(run_dir) as store:
            assert set(store.completed_chunks("fig13")) == {
                (0, 0, 1), (0, 1, 2)
            }
            # resuming truncates the tear and appends in its place
            store.append_chunk("fig13", 0, 1.0, 2, 3, _values(3.0))
        assert path.read_bytes() == whole

    def test_torn_line_discards_everything_after(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        with _shard0(run_dir) as store:
            for lo in range(3):
                store.append_chunk("fig13", 0, 1.0, lo, lo + 1, _values(1.0))
        path = run_dir.shard_path(0)
        _header, frames, _end = scan_frames(path)
        data = bytearray(path.read_bytes())
        data[frames[1].payload_offset] ^= 0xFF  # corrupt the middle frame
        path.write_bytes(bytes(data))
        # the frame after the tear cannot be trusted to be in order
        with _shard0(run_dir, mode="r") as store:
            assert set(store.completed_chunks("fig13")) == {(0, 0, 1)}

    def test_context_manager_closes(self, tmp_path):
        run_dir = _new_run_dir(tmp_path)
        with _shard0(run_dir) as store:
            store.append_chunk("fig13", 0, 1.0, 0, 1, _values(1.0))
        assert store._writer is None
        with pytest.raises(ValueError, match="read-only"):
            store.append_chunk("fig13", 0, 1.0, 1, 2, _values(1.0))
