"""Columnar result store: framed, fixed-dtype record batches.

Row-wise JSON lines are the wrong shape for a million-instance
campaign: every replication pays a ``json.loads`` plus per-value Python
float handling on the merge path.  This module stores completed work as
**record batches**: each completed campaign task (or ``repro run``
chunk) appends one frame holding a fixed-dtype structured array (one
float64 column per scheduler, one row per replication), so the merge
path reads raw little-endian doubles straight into numpy and never
parses text.

The file format has two load-bearing properties:

append-only
    A writer only ever appends whole frames and fsyncs each one; bytes
    already on disk are never rewritten, so concurrent readers (status,
    merge) can scan a live file.

torn-tail tolerant
    Every frame carries its payload length and a CRC-32 over its meta +
    payload bytes.  Reading stops at the first incomplete or corrupt
    frame -- a ``kill -9`` mid-append loses exactly the frame in
    flight.  :meth:`ColumnarWriter.append` additionally *truncates* the
    torn tail before resuming, so a killed-and-resumed shard file is
    byte-identical to one written in a single run (no timestamps or
    other nondeterminism ever lands in the file).

Layout::

    file   := MAGIC u32(header_len) header_json frame*
    frame  := FRAME_MAGIC u32(meta_len) u32(payload_len)
              u32(crc32(meta_json + payload)) meta_json payload

``header_json`` describes the store (schema tag plus ``groups``: the
column names of every record group, e.g. one group per sweep);
``meta_json`` says what one frame holds (its group plus caller keys
like task id and replication range); ``payload`` is the structured
array's bytes (little-endian float64 columns).

Arrow / Parquet: when :mod:`pyarrow` is imported successfully the
*merged* results can additionally be exported as a Parquet table
(:func:`write_table`).  The shard files themselves always use this
pure-numpy framing -- Parquet has no appendable, fsync-per-batch,
truncate-and-resume story, and the bit-identical resume guarantee must
not depend on an optional dependency.  Without pyarrow,
:func:`write_table` falls back to an ``.npz`` archive of the same
columns.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "COLUMNAR_SCHEMA",
    "MAGIC",
    "FRAME_MAGIC",
    "have_arrow",
    "record_dtype",
    "records_as_matrix",
    "Frame",
    "ColumnarWriter",
    "read_header",
    "scan_frames",
    "read_frame_payload",
    "iter_batches",
    "write_table",
]

PathLike = Union[str, pathlib.Path]

COLUMNAR_SCHEMA = "repro.columnar/1"
MAGIC = b"RPROCOL1\n"
FRAME_MAGIC = b"FRM1"

#: frame header: magic + u32 meta_len + u32 payload_len + u32 crc
_FRAME_HEAD = struct.Struct("<III")
_FRAME_HEAD_LEN = len(FRAME_MAGIC) + _FRAME_HEAD.size


def have_arrow() -> bool:
    """True when :mod:`pyarrow` imports (Parquet export available)."""
    try:  # pragma: no cover - depends on the environment
        import pyarrow  # noqa: F401
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True  # pragma: no cover - depends on the environment


def record_dtype(columns: Sequence[str]) -> np.dtype:
    """The fixed dtype of one record group: float64 per column."""
    if not columns:
        raise ValueError("a record group needs at least one column")
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate column names: {list(columns)}")
    return np.dtype([(str(name), "<f8") for name in columns])


def records_as_matrix(records: np.ndarray) -> np.ndarray:
    """View a uniform-float64 structured array as a ``(rows, k)`` matrix."""
    k = len(records.dtype.names)
    return records.view(np.float64).reshape(len(records), k)


@dataclass(frozen=True)
class Frame:
    """One scanned record batch: its meta plus where its payload lives."""

    meta: Dict[str, object]
    payload_offset: int
    payload_len: int

    @property
    def rows(self) -> int:
        return int(self.meta["rows"])


def _header_bytes(header: Dict[str, object]) -> bytes:
    doc = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return doc.encode("utf-8")


class ColumnarWriter:
    """Append-only writer of one columnar store file.

    ``header["groups"]`` maps group names to column lists; every frame
    appended via :meth:`write_batch` names its group and must match
    that group's dtype exactly.  Each frame is flushed and fsynced
    before the call returns: a batch the caller saw written survives
    any subsequent crash.
    """

    def __init__(self, fh, header: Dict[str, object], path: PathLike) -> None:
        self._fh = fh
        self.path = pathlib.Path(path)
        self.header = header
        self._dtypes = {
            name: record_dtype(cols)
            for name, cols in header.get("groups", {}).items()
        }

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(
        cls, path: PathLike, groups: Dict[str, Sequence[str]]
    ) -> "ColumnarWriter":
        """Start a fresh store; refuses to clobber an existing file."""
        path = pathlib.Path(path)
        if path.exists():
            raise FileExistsError(
                f"columnar store {path} already exists; append to it with "
                "ColumnarWriter.append"
            )
        header = {
            "schema": COLUMNAR_SCHEMA,
            "groups": {name: list(cols) for name, cols in groups.items()},
        }
        blob = _header_bytes(header)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "x+b")
        fh.write(MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.flush()
        os.fsync(fh.fileno())
        return cls(fh, header, path)

    @classmethod
    def append(
        cls, path: PathLike, groups: Optional[Dict[str, Sequence[str]]] = None
    ) -> Tuple["ColumnarWriter", List[Frame]]:
        """Re-open a store for appending; returns the completed frames.

        The torn tail (an incomplete or corrupt trailing frame, left by
        a crash mid-append) is **truncated away** before the writer
        resumes, so re-emitting the lost batches reproduces the
        uninterrupted file byte for byte.  A missing file is created
        fresh (``groups`` required then).
        """
        path = pathlib.Path(path)
        if not path.exists():
            if groups is None:
                raise FileNotFoundError(
                    f"columnar store {path} does not exist and no groups "
                    "were given to create it"
                )
            return cls.create(path, groups), []
        header, frames, valid_end = scan_frames(path)
        fh = open(path, "r+b")
        fh.truncate(valid_end)
        fh.seek(valid_end)
        return cls(fh, header, path), frames

    def close(self) -> None:
        """Close the underlying handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending -------------------------------------------------------
    def write_batch(self, meta: Dict[str, object], records: np.ndarray) -> None:
        """Append one record batch durably.

        ``meta`` must be JSON-able and name a ``group`` from the
        header; ``rows`` is stamped from the array.  Determinism
        matters: meta serializes with sorted keys and the payload is
        the array's raw bytes, so identical inputs produce identical
        frames -- the property shard resume relies on.
        """
        group = meta.get("group")
        dtype = self._dtypes.get(group)
        if dtype is None:
            known = ", ".join(self._dtypes) or "(none)"
            raise ValueError(
                f"unknown record group {group!r}; header groups: {known}"
            )
        if records.dtype != dtype:
            raise ValueError(
                f"records dtype {records.dtype} does not match group "
                f"{group!r} dtype {dtype}"
            )
        meta = dict(meta)
        meta["rows"] = int(len(records))
        meta_blob = _header_bytes(meta)
        payload = np.ascontiguousarray(records).tobytes()
        crc = zlib.crc32(meta_blob + payload)
        self._fh.write(
            FRAME_MAGIC
            + _FRAME_HEAD.pack(len(meta_blob), len(payload), crc)
            + meta_blob
            + payload
        )
        self._fh.flush()
        os.fsync(self._fh.fileno())


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _read_file_header(fh) -> Tuple[Dict[str, object], int]:
    head = fh.read(len(MAGIC) + 4)
    if len(head) < len(MAGIC) + 4 or not head.startswith(MAGIC):
        raise ValueError(f"{getattr(fh, 'name', '<file>')}: not a columnar store")
    (header_len,) = struct.unpack("<I", head[len(MAGIC):])
    blob = fh.read(header_len)
    if len(blob) < header_len:
        raise ValueError(f"{getattr(fh, 'name', '<file>')}: truncated header")
    header = json.loads(blob.decode("utf-8"))
    if header.get("schema") != COLUMNAR_SCHEMA:
        raise ValueError(
            f"unsupported columnar schema {header.get('schema')!r} "
            f"(expected {COLUMNAR_SCHEMA!r})"
        )
    return header, len(MAGIC) + 4 + header_len


def read_header(path: PathLike) -> Dict[str, object]:
    """The store's header document (schema tag + record groups)."""
    with open(path, "rb") as fh:
        header, _ = _read_file_header(fh)
    return header


def scan_frames(path: PathLike) -> Tuple[Dict[str, object], List[Frame], int]:
    """Walk every intact frame; returns ``(header, frames, valid_end)``.

    ``valid_end`` is the file offset just past the last intact frame --
    everything after it is a torn tail (incomplete write or CRC
    mismatch) and is ignored.
    """
    frames: List[Frame] = []
    with open(path, "rb") as fh:
        header, offset = _read_file_header(fh)
        fh.seek(0, os.SEEK_END)
        end = fh.tell()
        fh.seek(offset)
        while True:
            if offset + _FRAME_HEAD_LEN > end:
                break
            head = fh.read(_FRAME_HEAD_LEN)
            if not head.startswith(FRAME_MAGIC):
                break
            meta_len, payload_len, crc = _FRAME_HEAD.unpack(
                head[len(FRAME_MAGIC):]
            )
            body_end = offset + _FRAME_HEAD_LEN + meta_len + payload_len
            if body_end > end:
                break
            blob = fh.read(meta_len + payload_len)
            if zlib.crc32(blob) != crc:
                break
            try:
                meta = json.loads(blob[:meta_len].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            frames.append(
                Frame(
                    meta=meta,
                    payload_offset=offset + _FRAME_HEAD_LEN + meta_len,
                    payload_len=payload_len,
                )
            )
            offset = body_end
    return header, frames, offset


def read_frame_payload(fh, frame: Frame, dtype: np.dtype) -> np.ndarray:
    """Read one scanned frame's records from an open binary handle."""
    fh.seek(frame.payload_offset)
    payload = fh.read(frame.payload_len)
    if len(payload) != frame.payload_len:
        raise ValueError(
            f"frame payload truncated at offset {frame.payload_offset}"
        )
    return np.frombuffer(payload, dtype=dtype)


def iter_batches(
    path: PathLike, group: Optional[str] = None
) -> Iterator[Tuple[Dict[str, object], np.ndarray]]:
    """Stream ``(meta, records)`` for every intact frame of a store.

    Memory-bounded: one frame's payload is resident at a time.
    ``group`` filters to one record group.
    """
    header, frames, _ = scan_frames(path)
    dtypes = {
        name: record_dtype(cols)
        for name, cols in header.get("groups", {}).items()
    }
    with open(path, "rb") as fh:
        for frame in frames:
            name = frame.meta.get("group")
            if group is not None and name != group:
                continue
            yield frame.meta, read_frame_payload(fh, frame, dtypes[name])


# ----------------------------------------------------------------------
# merged-table export (Arrow/Parquet when available, .npz fallback)
# ----------------------------------------------------------------------
def write_table(
    path: PathLike, columns: Dict[str, np.ndarray]
) -> pathlib.Path:
    """Write a merged result table; backend picked by extension + environment.

    ``.parquet`` requires :mod:`pyarrow` (raise a clear error without
    it); any other extension -- and the recommended default ``.npz`` --
    uses numpy's archive format, which needs nothing beyond the baked-in
    toolchain.  Returns the path actually written.
    """
    path = pathlib.Path(path)
    lengths = {name: len(arr) for name, arr in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"ragged table columns: {lengths}")
    if path.suffix == ".parquet":
        if not have_arrow():
            raise ValueError(
                f"cannot write {path}: pyarrow is not installed "
                "(use a .npz path for the pure-numpy fallback)"
            )
        import pyarrow as pa  # pragma: no cover - optional dependency
        import pyarrow.parquet as pq  # pragma: no cover

        table = pa.table(  # pragma: no cover
            {name: pa.array(arr) for name, arr in columns.items()}
        )
        pq.write_table(table, path)  # pragma: no cover
        return path  # pragma: no cover
    np.savez(path, **columns)
    # np.savez appends .npz when the suffix is missing; report reality
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")
