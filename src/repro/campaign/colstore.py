"""Columnar append-only result store for million-ligand campaigns.

A drop-in for the SQLite :class:`~repro.campaign.store.CampaignStore` (same
interface, same crash/resume semantics, a third of its bytes per ligand on
disk) whose sealed data moves as NumPy columns instead of B-tree rows:

* **Append-only CRC-framed logs** for in-flight shards: fixed header (magic,
  kind, length, CRC32) plus payload. A torn tail from a SIGKILL is detected
  and truncated on open; corruption before the tail raises.
* **Sealed columnar segments**: a finished shard is frozen into an immutable
  file of row groups (column arrays plus string heaps, CRC'd). Each column of
  a group is stored at the width its contents need, recorded in the group's
  footer entry (``layout``): nothing when every value has the same bits (the
  value sits in the footer) or when the ordinals are ``lo .. lo + rows - 1``,
  else the narrowest unsigned integer that holds the values (``<i8`` when
  negative or past 2^32; floats stay ``<f8``). A decoded group always has
  the ``_FIXED_COLUMNS`` dtypes, so a merge reads any mix of layouts and
  writes the one its output values need. Nothing is compressed: a block is
  ``frombuffer``-able as it lies. The footer holds per group only what
  readers read, its CRC padded to 10 characters so a file's size does not
  vary with it.
* **A manifest** (tmp+fsync+rename) naming the live segments with their
  rows, bounds and counts; segment files it does not name are crash debris
  and are deleted on open. All JSON is compact (the ledger's dock campaign
  writes 101 B per ligand).
* **Compaction**, inside ``finish_shard``: at ``compact_fanin`` segments the
  adjacent run with the fewest rows is merged, so the count stays below the
  fan-in. With a segment per shard that run is the whole store (200 shards:
  13 merges, 6.9x write amplification).

``top(k)`` ranks the status, flags, score and ordinal columns on each call.
Rows (9-field lists) exist only in the overlay (in-flight shards), in a
sealed group being patched with an overlay row, in the row-streaming readers
(``science_rows``, ``iter_results``, exports) and for the k winners of
``top``. Seal, compaction, re-seal and the ``top(k)`` scan move decoded
groups (dicts of column arrays): a merge holds its input groups and nothing
more. Resident memory is the overlay plus an LRU of 8 decoded groups
(<= 8 x ``group_rows`` x ~80 B = 42 MB).

Durability (as SQLite WAL + ``synchronous=NORMAL``): log appends are
write+flush (a crash loses at most the torn tail, and that ligand re-docks);
segment and manifest writes are tmp+fsync+rename, one of each per shard seal
and per merge. The store alone decides finished shards, and sealed is final:
a row write lands only inside an open shard (``CampaignError`` otherwise),
and a finished shard never re-opens.

One process writes a store. ``open`` and ``create`` take an exclusive
``flock`` on the store directory (a second writer gets ``CampaignError``);
``open(path, readonly=True)`` takes none and changes no file: it reads a
consistent view (re-read if a seal or merge publishes meanwhile), holds
every segment it names open against a compaction's unlink, and leaves
debris and torn tails for the writer's recovery. ``campaign status``,
``top``, ``export`` and ``repro-vs doctor`` open that way, so they read a
live campaign safely.
See ``docs/architecture.md`` ("Result store backends") for measurements.
"""

from __future__ import annotations

import bisect
import fcntl
import json
import os
import re
import struct
import threading
import zlib
from collections import OrderedDict
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import observability as obs
from repro.errors import CampaignError

from repro.campaign.readside import (
    _export_csv,
    _export_json,
    _science_digest,
    _to_report,
)

__all__ = ["ColumnarStore", "COLSTORE_SCHEMA_VERSION"]

#: Bump on any incompatible on-disk layout change. Schema 1 stored every
#: column at its in-memory width; ``open`` still reads it, and the store says 2
#: before its first content-sized segment is published (``_write_segment``).
COLSTORE_SCHEMA_VERSION = 2

# ---------------------------------------------------------------------------
# record framing (active logs + shards.log)
# ---------------------------------------------------------------------------

#: magic, kind, payload length, CRC32(payload) — 11 bytes, then the payload.
_FRAME = struct.Struct("<HBII")
_FRAME_MAGIC = 0xC01A

_K_REGISTER = 1
_K_RUNNING = 2
_K_RESULT = 3
_K_FAILURE = 4
_K_SHARD_START = 5
_K_SHARD_FINISH = 6

_REGISTER = struct.Struct("<q")
_RUNNING = struct.Struct("<q")
_RESULT = struct.Struct("<qdqqddq")  # ordinal, score, spot, evals, wall, sim, attempts
_FAILURE = struct.Struct("<qq")  # ordinal, attempts
_SHARD_START = struct.Struct("<qqq")  # shard_id, start, stop
_SHARD_FINISH = struct.Struct("<qd")  # shard_id, wall_seconds

_STATUSES = ("pending", "running", "done", "failed")
_STATUS_CODE = {name: code for code, name in enumerate(_STATUSES)}
_DONE_CODE = _STATUS_CODE["done"]

# Row layout in the in-memory overlay (and materialised segment reads).
_TITLE, _STATUS, _SCORE, _SPOT, _EVALS, _WALL, _SIM, _ATTEMPTS, _ERROR = range(9)


def _pack_frame(kind: int, payload: bytes) -> bytes:
    return _FRAME.pack(_FRAME_MAGIC, kind, len(payload), zlib.crc32(payload)) + payload


def _scan_frames(data: bytes, label: str) -> tuple[list[tuple[int, bytes]], int]:
    """Parse CRC-framed records; returns ``(records, clean_length)``.

    A record that runs past EOF — or whose CRC fails *at* EOF — is a torn
    tail: scanning stops and ``clean_length`` marks where to truncate. A CRC
    or magic failure with complete bytes after it is real corruption and
    raises :class:`CampaignError`.
    """
    records: list[tuple[int, bytes]] = []
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < _FRAME.size:
            return records, offset  # torn header at the tail
        magic, kind, length, crc = _FRAME.unpack_from(data, offset)
        if magic != _FRAME_MAGIC:
            raise CampaignError(
                f"corrupt record frame in {label} at byte {offset}: bad magic"
            )
        end = offset + _FRAME.size + length
        if end > size:
            return records, offset  # torn payload at the tail
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            if end == size:
                return records, offset  # torn final record (crash artifact)
            raise CampaignError(
                f"CRC mismatch in {label} at byte {offset}: store is corrupt"
            )
        records.append((kind, payload))
        offset = end
    return records, offset


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _unpack_str(payload: bytes, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    return payload[offset : offset + length].decode("utf-8"), offset + length


# ---------------------------------------------------------------------------
# segment files
# ---------------------------------------------------------------------------

_SEG_MAGIC = b"RVSCOL01"
_SEG_END = b"RVSCOLEN"
_TRAILER = struct.Struct("<QII")  # footer offset, footer length, footer CRC32

# Per-row presence flags (NULL-ability mirrors the SQLite schema).
_F_SCORE, _F_SPOT, _F_EVALS, _F_WALL, _F_SIM, _F_ERROR = 1, 2, 4, 8, 16, 32

#: Per-row columns of a decoded group, in block order; the title and error
#: offsets (``_OFFSETS``, one entry more than rows) follow, each before its
#: heap. On disk a column may be narrower or absent: see ``_column_layout``.
_FIXED_COLUMNS = (
    ("ordinals", "<i8"), ("status", "u1"), ("flags", "u1"), ("score", "<f8"),
    ("spot", "<i8"), ("evals", "<i8"), ("wall", "<f8"), ("sim", "<f8"),
    ("attempts", "<i8"),
)
_OFFSETS = "<u4"

_ACTIVE_NAME = re.compile(r"^shard-(\d+)\.log$")

#: How often a read-only open re-reads a store a writer keeps publishing to.
_SNAPSHOT_TRIES = 50

#: Writer-lock descriptors this process holds. A forked child (a pool worker,
#: a fleet node) closes its copies at once: the lock stays with the parent
#: alone, so a worker outliving a killed parent cannot keep the store locked.
_WRITER_LOCKS: set[int] = set()


def _drop_inherited_locks() -> None:
    for fd in _WRITER_LOCKS:
        os.close(fd)
    _WRITER_LOCKS.clear()


os.register_at_fork(after_in_child=_drop_inherited_locks)


def _encode_group(items: list[tuple[int, list]]) -> dict:
    """``[(ordinal, row), ...]`` (ascending) as one decoded group of columns."""
    n = len(items)
    group = {name: np.zeros(n, dtype=dtype) for name, dtype in _FIXED_COLUMNS}
    group["ordinals"] = np.fromiter((o for o, _ in items), dtype="<i8", count=n)
    status, flags, attempts = group["status"], group["flags"], group["attempts"]
    score, spot, evals = group["score"], group["spot"], group["evals"]
    wall, sim = group["wall"], group["sim"]
    title_offsets = np.zeros(n + 1, dtype=_OFFSETS)
    error_offsets = np.zeros(n + 1, dtype=_OFFSETS)
    title_heap = bytearray()
    error_heap = bytearray()
    for i, (_, row) in enumerate(items):
        status[i] = _STATUS_CODE[row[_STATUS]]
        fl = 0
        if row[_SCORE] is not None:
            fl |= _F_SCORE
            score[i] = row[_SCORE]
        if row[_SPOT] is not None:
            fl |= _F_SPOT
            spot[i] = row[_SPOT]
        if row[_EVALS] is not None:
            fl |= _F_EVALS
            evals[i] = row[_EVALS]
        if row[_WALL] is not None:
            fl |= _F_WALL
            wall[i] = row[_WALL]
        if row[_SIM] is not None:
            fl |= _F_SIM
            sim[i] = row[_SIM]
        attempts[i] = row[_ATTEMPTS]
        title_heap += row[_TITLE].encode("utf-8")
        title_offsets[i + 1] = len(title_heap)
        if row[_ERROR] is not None:
            fl |= _F_ERROR
            error_heap += row[_ERROR].encode("utf-8")
        error_offsets[i + 1] = len(error_heap)
        flags[i] = fl
    group.update(
        title_offsets=title_offsets, title_heap=title_heap,
        error_offsets=error_offsets, error_heap=error_heap,
    )
    return group


def _narrowest(lo: int, hi: int) -> str:
    """The narrowest little-endian integer dtype that holds ``[lo, hi]``."""
    if lo < 0 or hi >= 1 << 32:
        return "<i8"
    return "u1" if hi < 1 << 8 else "<u2" if hi < 1 << 16 else "<u4"


def _column_layout(pieces: list) -> int | str:
    """How the column made of ``pieces`` is stored in a block.

    An ``int`` when every entry has the same bits: the value itself (a
    float's through its integer view, so ``-0.0`` is not ``0.0``), kept in the
    footer with no bytes in the block. Otherwise the dtype written.
    """
    is_float = pieces[0].dtype.kind == "f"
    bits = [piece.view("<i8") if is_float else piece for piece in pieces]
    lo = min(int(piece.min()) for piece in bits)
    hi = max(int(piece.max()) for piece in bits)
    if lo == hi:
        return lo
    return "<f8" if is_float else _narrowest(lo, hi)


def _decode_group(block: bytes, meta: dict) -> dict:
    if zlib.crc32(block) != meta["crc"]:
        raise CampaignError("segment row group failed its CRC check")
    n = int(meta["rows"])
    # ``layout`` names the columns not stored at their in-memory width; a
    # schema-1 group has none, so every column is.
    layout = meta.get("layout", {})
    offset = 0

    def column(name: str, dtype: str, count: int):
        nonlocal offset
        spec = layout.get(name, dtype)
        if spec == "range":
            return np.arange(meta["lo"], meta["lo"] + count, dtype=dtype)
        if not isinstance(spec, str):  # constant: a zero-stride view, no memory
            bits = np.array(spec, dtype="<i8" if dtype == "<f8" else dtype)
            return np.broadcast_to(bits.view(dtype), count)
        stored = np.frombuffer(block, dtype=spec, count=count, offset=offset)
        offset += stored.nbytes
        return stored.astype(dtype, copy=False)

    group = {name: column(name, dtype, n) for name, dtype in _FIXED_COLUMNS}
    for name in ("title", "error"):
        group[name + "_offsets"] = column(name + "_offsets", _OFFSETS, n + 1)
        group[name + "_heap"] = block[offset : offset + meta[name + "_heap"]]
        offset += meta[name + "_heap"]
    return group


def _group_row(group: dict, i: int) -> list:
    """Materialise row ``i`` of a decoded group as python-typed fields."""
    fl = int(group["flags"][i])
    toff = group["title_offsets"]
    eoff = group["error_offsets"]
    return [
        group["title_heap"][toff[i] : toff[i + 1]].decode("utf-8"),
        _STATUSES[int(group["status"][i])],
        float(group["score"][i]) if fl & _F_SCORE else None,
        int(group["spot"][i]) if fl & _F_SPOT else None,
        int(group["evals"][i]) if fl & _F_EVALS else None,
        float(group["wall"][i]) if fl & _F_WALL else None,
        float(group["sim"][i]) if fl & _F_SIM else None,
        int(group["attempts"][i]),
        group["error_heap"][eoff[i] : eoff[i + 1]].decode("utf-8")
        if fl & _F_ERROR
        else None,
    ]


def _atomic_write(path: Path, document: dict) -> None:
    """``document`` as compact JSON: tmp + fsync + rename (+ best-effort
    directory fsync)."""
    data = json.dumps(document, sort_keys=True, default=str, separators=(",", ":"))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def _merge_rows(seg_iter, overlay: list[tuple[int, list]]):
    """Merge a sorted segment stream with sorted overlay items; overlay wins."""
    oi = 0
    for ordinal, row in seg_iter:
        while oi < len(overlay) and overlay[oi][0] < ordinal:
            yield overlay[oi]
            oi += 1
        if oi < len(overlay) and overlay[oi][0] == ordinal:
            yield overlay[oi]
            oi += 1
        else:
            yield ordinal, row
    while oi < len(overlay):
        yield overlay[oi]
        oi += 1


def _rows_of(group: dict) -> Iterator[tuple[int, list]]:
    ordinals = group["ordinals"]
    for i in range(len(ordinals)):
        yield int(ordinals[i]), _group_row(group, i)


def _fold(groups, overlay: list[tuple[int, list]]):
    """Decoded groups with sorted ``overlay`` items merged in (overlay wins).

    Only a group an overlay ordinal falls into is rebuilt from rows; the
    ordinals past the last group form one more.
    """
    oi = 0
    for group in groups:
        ordinals = group["ordinals"]
        start = oi
        while oi < len(overlay) and overlay[oi][0] <= ordinals[-1]:
            oi += 1
        if oi > start:
            group = _encode_group(list(_merge_rows(_rows_of(group), overlay[start:oi])))
        yield group
    if oi < len(overlay):
        yield _encode_group(overlay[oi:])


class ColumnarStore:
    """Append-only sharded columnar campaign store (see module docstring).

    Drop-in for :class:`repro.campaign.store.CampaignStore`: same methods,
    same semantics (idempotent upserts keyed on ordinal, ``science_digest``
    parity), and what ``create_store`` makes of every path but
    ``":memory:"``. The store path is a *directory*.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.root = Path(path)
        self._lock = threading.RLock()
        self._meta: dict = {}
        self._manifest: dict = {"generation": 0, "next_seq": 0, "segments": []}
        self._segments: list[dict] = []  # manifest entries sorted by lo
        self._shards: dict[int, dict] = {}
        self._open_ranges: dict[int, tuple[int, int]] = {}
        self._active_rows: dict[int, list] = {}
        self._counts = {name: 0 for name in _STATUSES}
        self._handles: dict[tuple, object] = {}
        self._footers: dict[int, dict] = {}
        self._groups: OrderedDict[tuple[int, int], dict] = OrderedDict()
        self._group_cache_max = 8
        self._segment_fds: dict[int, int] = {}  # seq -> descriptor
        self._readonly = False
        self._lock_fd: int | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        config: dict,
        config_hash: str,
        *,
        group_rows: int = 65536,
        compact_fanin: int = 16,
    ) -> "ColumnarStore":
        """Create a fresh columnar store; refuses to overwrite an existing one."""
        path = str(path)
        if path == ":memory:":
            raise CampaignError(
                "the columnar store backend persists to a directory; "
                ":memory: campaigns use the sqlite backend"
            )
        if group_rows < 1 or compact_fanin < 2:
            raise CampaignError(
                "invalid columnar store options: group_rows >= 1 and "
                "compact_fanin >= 2 required"
            )
        root = Path(path)
        if root.exists() and (root.is_file() or any(root.iterdir())):
            raise CampaignError(
                f"campaign store already exists at {path}; "
                "use resume to continue it"
            )
        root.mkdir(parents=True, exist_ok=True)
        (root / "active").mkdir(exist_ok=True)
        (root / "segments").mkdir(exist_ok=True)
        store = cls(path)
        store._lock_for_writing()
        store._meta = {
            "schema_version": COLSTORE_SCHEMA_VERSION,
            "backend": "columnar",
            "config": config,
            "config_hash": config_hash,
            "completed": False,
            "n_ligands": None,
            "options": {
                "group_rows": int(group_rows),
                "compact_fanin": int(compact_fanin),
            },
        }
        store._write_meta()
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: str | Path, *, readonly: bool = False) -> "ColumnarStore":
        """Attach to an existing store, recovering from any crash debris.

        ``readonly=True`` reads a consistent view instead and changes nothing
        on disk, so it is safe beside a live writer; the view refuses writes.
        """
        path = str(path)
        root = Path(path)
        if not root.exists():
            raise CampaignError(f"no campaign store at {path}")
        if not root.is_dir() or not (root / "meta.json").exists():
            raise CampaignError(f"{path} is not a campaign store (no metadata)")
        store = cls(path)
        try:
            store._meta = json.loads((root / "meta.json").read_text("utf-8"))
        except ValueError as exc:
            raise CampaignError(f"{path} is not a campaign store: {exc}") from None
        version = store._meta.get("schema_version")
        if version not in (1, COLSTORE_SCHEMA_VERSION):
            raise CampaignError(
                f"campaign store schema v{version} is not supported "
                f"(this build reads v1 and v{COLSTORE_SCHEMA_VERSION})"
            )
        store._readonly = readonly
        try:
            if readonly:
                store._snapshot()
            else:
                store._lock_for_writing()
                store._recover()
        except BaseException:
            store.close()
            raise
        return store

    def _lock_for_writing(self) -> None:
        """Take the store's writer lock, or raise if another process holds it.

        An ``flock`` on the store directory: the kernel drops it when the
        process dies, however it dies.
        """
        fd = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise CampaignError(
                f"campaign store {self.path} is already open for writing; read "
                "it with status/top/export, or wait for its writer to finish"
            ) from None
        self._lock_fd = fd
        _WRITER_LOCKS.add(fd)

    @property
    def _options(self) -> dict:
        return self._meta.get("options", {})

    @property
    def _group_rows(self) -> int:
        return int(self._options.get("group_rows", 65536))

    @property
    def _compact_fanin(self) -> int:
        return int(self._options.get("compact_fanin", 16))

    def close(self) -> None:
        """Flush and close every open log handle."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for handle in self._handles.values():
                try:
                    handle.flush()
                    handle.close()
                except OSError:  # pragma: no cover - best effort on teardown
                    pass
            self._handles.clear()
            self._groups.clear()
            self._close_segments()
            if self._lock_fd in _WRITER_LOCKS:  # not after a fork: see above
                _WRITER_LOCKS.discard(self._lock_fd)
                os.close(self._lock_fd)

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def _refuse_if_readonly(self) -> None:
        if self._readonly:
            raise CampaignError(f"campaign store {self.path} is open read-only")

    def _write_meta(self) -> None:
        self._refuse_if_readonly()
        _atomic_write(self.root / "meta.json", self._meta)

    @property
    def config(self) -> dict:
        """The campaign configuration recorded at creation."""
        config = self._meta.get("config")
        if config is None:
            raise CampaignError("campaign store has no recorded config")
        return config

    @property
    def config_hash(self) -> str:
        """Hash of the result-affecting configuration."""
        value = self._meta.get("config_hash")
        if value is None:
            raise CampaignError("campaign store has no recorded config hash")
        return str(value)

    def is_complete(self) -> bool:
        """True once every shard has finished (set by the runner)."""
        return bool(self._meta.get("completed"))

    def mark_complete(self, n_ligands: int) -> None:
        """Record that the campaign streamed and processed the whole library."""
        with self._lock:
            self._meta["n_ligands"] = int(n_ligands)
            self._meta["completed"] = True
            self._write_meta()

    @property
    def n_ligands(self) -> int | None:
        """Total library size, known once the campaign completed."""
        value = self._meta.get("n_ligands")
        return None if value is None else int(value)

    # ------------------------------------------------------------------
    # log handles
    # ------------------------------------------------------------------
    def _log_path(self, key: tuple) -> Path:
        if key[0] == "shards":
            return self.root / "shards.log"
        return self.root / "active" / f"shard-{key[1]}.log"

    def _handle(self, key: tuple):
        handle = self._handles.get(key)
        if handle is None:
            self._refuse_if_readonly()
            handle = open(self._log_path(key), "ab")
            self._handles[key] = handle
        return handle

    def _close_log(self, key: tuple) -> Path:
        """Close ``key``'s append handle (if open); returns the log's path."""
        handle = self._handles.pop(key, None)
        if handle is not None:
            handle.close()
        return self._log_path(key)

    def _drop_active_log(self, shard_id: int) -> None:
        self._close_log(("shard", shard_id)).unlink(missing_ok=True)

    def _log_key_for(self, ordinal: int) -> tuple:
        """The log of the open shard holding ``ordinal``; there must be one."""
        for shard_id, (start, stop) in self._open_ranges.items():
            if start <= ordinal < stop:
                return ("shard", shard_id)
        raise CampaignError(
            f"ligand {ordinal} is in no open shard: a row is written only "
            "between start_shard and finish_shard"
        )

    def _append(self, key: tuple, frames: bytes) -> None:
        handle = self._handle(key)
        handle.write(frames)
        handle.flush()

    # ------------------------------------------------------------------
    # in-memory row transitions (shared by live writes and replay)
    # ------------------------------------------------------------------
    def _transition(self, prev: str | None, new: str | None) -> None:
        if prev is not None:
            self._counts[prev] -= 1
        if new is not None:
            self._counts[new] += 1

    def _status_of(self, ordinal: int) -> str | None:
        row = self._active_rows.get(ordinal)
        if row is not None:
            return row[_STATUS]
        sealed = self._segment_row(ordinal)
        return None if sealed is None else sealed[_STATUS]

    def _apply_register(self, ordinal: int, title: str) -> bool:
        """INSERT OR IGNORE semantics: existing rows (anywhere) win."""
        if ordinal in self._active_rows or self._segment_row(ordinal) is not None:
            return False
        self._active_rows[ordinal] = [
            title, "pending", None, None, None, None, None, 0, None,
        ]
        self._transition(None, "pending")
        return True

    def _apply_running(self, ordinal: int) -> bool:
        """UPDATE semantics: a no-op if the ordinal was never registered."""
        row = self._active_rows.get(ordinal)
        if row is None:
            sealed = self._segment_row(ordinal)
            if sealed is None:
                return False
            row = list(sealed)
            self._active_rows[ordinal] = row
        if row[_STATUS] != "running":
            self._transition(row[_STATUS], "running")
            row[_STATUS] = "running"
        return True

    @staticmethod
    def _null_nan(value: float) -> float | None:
        # SQLite cannot store NaN (it binds as NULL); mirror that here so
        # the two backends stay row-for-row identical.
        return None if value != value else value

    def _apply_result(
        self,
        ordinal: int,
        title: str,
        best_score: float,
        best_spot: int,
        evaluations: int,
        wall_seconds: float,
        simulated_seconds: float,
        attempts: int,
    ) -> None:
        """Full upsert: every column is replaced, error cleared."""
        prev = self._status_of(ordinal)
        self._active_rows[ordinal] = [
            title, "done", self._null_nan(best_score), best_spot, evaluations,
            self._null_nan(wall_seconds), self._null_nan(simulated_seconds),
            attempts, None,
        ]
        if prev != "done":
            self._transition(prev, "done")

    def _apply_failure(
        self, ordinal: int, title: str, error: str, attempts: int
    ) -> None:
        """Partial upsert: prior score columns survive (mirrors SQLite)."""
        prior = self._active_rows.get(ordinal)
        if prior is None:
            prior = self._segment_row(ordinal)
        if prior is None:
            prev = None
            row = [title, "failed", None, None, None, None, None, attempts, error]
        else:
            prev = prior[_STATUS]
            row = list(prior)
            row[_TITLE], row[_STATUS] = title, "failed"
            row[_ATTEMPTS], row[_ERROR] = attempts, error
        self._active_rows[ordinal] = row
        if prev != "failed":
            self._transition(prev, "failed")

    def _apply_record(self, kind: int, payload: bytes) -> None:
        """Replay one framed record (idempotent against sealed state)."""
        if kind == _K_REGISTER:
            (ordinal,) = _REGISTER.unpack_from(payload)
            title, _ = _unpack_str(payload, _REGISTER.size)
            self._apply_register(ordinal, title)
        elif kind == _K_RUNNING:
            (ordinal,) = _RUNNING.unpack_from(payload)
            self._apply_running(ordinal)
        elif kind == _K_RESULT:
            ordinal, score, spot, evals, wall, sim, attempts = _RESULT.unpack_from(
                payload
            )
            title, _ = _unpack_str(payload, _RESULT.size)
            self._apply_result(ordinal, title, score, spot, evals, wall, sim, attempts)
        elif kind == _K_FAILURE:
            ordinal, attempts = _FAILURE.unpack_from(payload)
            title, offset = _unpack_str(payload, _FAILURE.size)
            error, _ = _unpack_str(payload, offset)
            self._apply_failure(ordinal, title, error, attempts)
        # Unknown kinds are ignored: forward compatibility.

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------
    def start_shard(self, shard_id: int, start: int, stop: int) -> None:
        """Mark a shard running (idempotent across resume replays).

        A finished shard never re-opens: its rows are sealed for good.
        """
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is not None and shard["status"] == "done":
                raise CampaignError(f"shard {shard_id} is finished; it never re-opens")
            self._shards[shard_id] = {
                "start": int(start), "stop": int(stop), "status": "running",
            }
            self._open_ranges[shard_id] = (int(start), int(stop))
            self._append(
                ("shards",),
                _pack_frame(_K_SHARD_START, _SHARD_START.pack(shard_id, start, stop)),
            )

    def finish_shard(self, shard_id: int, wall_seconds: float) -> None:
        """Mark a shard done, seal its rows into a segment and compact."""
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                return  # mirrors SQLite's UPDATE on a missing row
            self._append(
                ("shards",),
                _pack_frame(
                    _K_SHARD_FINISH,
                    _SHARD_FINISH.pack(shard_id, float(wall_seconds)),
                ),
            )
            shard["status"] = "done"
            self._open_ranges.pop(shard_id, None)
            self._seal_range(shard["start"], shard["stop"], shard_id=shard_id)
            self._maybe_compact()

    def finished_shards(self) -> set[int]:
        """IDs of shards whose every ligand is recorded."""
        with self._lock:
            return {
                shard_id
                for shard_id, shard in self._shards.items()
                if shard["status"] == "done"
            }

    # ------------------------------------------------------------------
    # ligands
    # ------------------------------------------------------------------
    def register_ligands(self, items: list[tuple[int, str]]) -> None:
        """Insert pending rows for (ordinal, title) pairs; existing rows win."""
        with self._lock:
            # Every ordinal is placed first: one outside an open shard
            # refuses the whole batch before any row changes.
            keyed = [
                (self._log_key_for(int(ordinal)), int(ordinal), str(title))
                for ordinal, title in items
            ]
            buffers: dict[tuple, bytearray] = {}
            for key, ordinal, title in keyed:
                if not self._apply_register(ordinal, title):
                    continue
                frame = _pack_frame(
                    _K_REGISTER, _REGISTER.pack(ordinal) + _pack_str(title)
                )
                buffers.setdefault(key, bytearray()).extend(frame)
            for key, buffer in buffers.items():
                self._append(key, bytes(buffer))

    def mark_running(self, ordinal: int) -> None:
        """Flag one ligand as in flight."""
        with self._lock:
            ordinal = int(ordinal)
            key = self._log_key_for(ordinal)
            if self._apply_running(ordinal):
                self._append(key, _pack_frame(_K_RUNNING, _RUNNING.pack(ordinal)))

    def record_result(
        self,
        ordinal: int,
        title: str,
        best_score: float,
        best_spot: int,
        evaluations: int,
        wall_seconds: float,
        simulated_seconds: float,
        attempts: int = 1,
    ) -> None:
        """Upsert one completed ligand (idempotent on ordinal)."""
        with self._lock:
            ordinal = int(ordinal)
            values = (
                float(best_score), int(best_spot), int(evaluations),
                float(wall_seconds), float(simulated_seconds), int(attempts),
            )
            key = self._log_key_for(ordinal)
            self._apply_result(ordinal, str(title), *values)
            payload = _RESULT.pack(ordinal, *values) + _pack_str(str(title))
            self._append(key, _pack_frame(_K_RESULT, payload))

    def record_failure(
        self, ordinal: int, title: str, error: str, attempts: int
    ) -> None:
        """Record a ligand that exhausted its attempts; the campaign moves on."""
        with self._lock:
            ordinal = int(ordinal)
            key = self._log_key_for(ordinal)
            self._apply_failure(ordinal, str(title), str(error), int(attempts))
            payload = (
                _FAILURE.pack(ordinal, int(attempts))
                + _pack_str(str(title))
                + _pack_str(str(error))
            )
            self._append(key, _pack_frame(_K_FAILURE, payload))

    def done_ordinals(self, start: int, stop: int) -> set[int]:
        """Ordinals already completed in ``[start, stop)`` — never redone."""
        with self._lock:
            done: set[int] = set()
            for entry in self._segments:
                if entry["hi"] < start or entry["lo"] >= stop:
                    continue
                for index, meta in enumerate(self._footer(entry)["groups"]):
                    if meta["hi"] < start or meta["lo"] >= stop:
                        continue
                    _, group = self._load_group(entry, index)
                    ordinals = group["ordinals"]
                    mask = (
                        (ordinals >= start)
                        & (ordinals < stop)
                        & (group["status"] == _DONE_CODE)
                    )
                    done.update(ordinals[mask].tolist())
            for ordinal, row in self._active_rows.items():
                if start <= ordinal < stop:
                    if row[_STATUS] == "done":
                        done.add(ordinal)
                    else:
                        done.discard(ordinal)
            return done

    def counts(self) -> dict[str, int]:
        """Ligand counts per status (absent statuses are 0)."""
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------------
    # segment reads
    # ------------------------------------------------------------------
    def _segment_path(self, entry: dict) -> Path:
        return self.root / "segments" / entry["name"]

    def _segment_fd(self, entry: dict) -> int:
        """A descriptor on ``entry``'s file, kept until the segment is retired
        (so a read-only view still reads a segment a compaction unlinked)."""
        fd = self._segment_fds.get(entry["seq"])
        if fd is None:
            fd = os.open(self._segment_path(entry), os.O_RDONLY)
            self._segment_fds[entry["seq"]] = fd
        return fd

    def _footer(self, entry: dict) -> dict:
        footer = self._footers.get(entry["seq"])
        if footer is not None:
            return footer
        path = self._segment_path(entry)
        fd = self._segment_fd(entry)
        if os.pread(fd, 8, 0) != _SEG_MAGIC:
            raise CampaignError(f"{path} is not a columnar segment")
        tail = os.fstat(fd).st_size - _TRAILER.size - 8
        trailer = os.pread(fd, _TRAILER.size + 8, max(tail, 0))
        if tail < 8 or trailer[_TRAILER.size :] != _SEG_END:
            raise CampaignError(f"{path} has a corrupt segment trailer")
        offset, length, crc = _TRAILER.unpack_from(trailer)
        raw = os.pread(fd, length, offset)
        if zlib.crc32(raw) != crc:
            raise CampaignError(f"{path} has a corrupt segment footer")
        footer = json.loads(raw.decode("utf-8"))
        self._footers[entry["seq"]] = footer
        return footer

    def _load_group(self, entry: dict, index: int) -> tuple[dict, dict]:
        footer = self._footer(entry)
        meta = footer["groups"][index]
        key = (entry["seq"], index)
        group = self._groups.get(key)
        if group is None:
            block = os.pread(self._segment_fd(entry), meta["nbytes"], meta["offset"])
            group = _decode_group(block, meta)
            self._groups[key] = group
            if len(self._groups) > self._group_cache_max:
                self._groups.popitem(last=False)
        else:
            self._groups.move_to_end(key)
        return meta, group

    def _read_groups(self, entries) -> Iterator[dict]:
        """Every decoded group of ``entries`` in order, past the group LRU.

        Scans and merges touch a block once, so they neither fill nor reorder
        the point-lookup cache: a cached group is used as is, any other is
        read and CRC-checked but not kept.
        """
        for entry in entries:
            metas = self._footer(entry)["groups"]
            # Its own descriptor: a merge between two yields may retire the
            # segment (and close the cached one) under this generator.
            fd = os.dup(self._segment_fd(entry))
            try:
                for index, meta in enumerate(metas):
                    group = self._groups.get((entry["seq"], index))
                    if group is None:
                        block = os.pread(fd, meta["nbytes"], meta["offset"])
                        group = _decode_group(block, meta)
                    yield group
            finally:
                os.close(fd)

    def _covering_segment(self, lo: int, hi: int) -> dict | None:
        """The manifest segment fully covering ``[lo, hi]``, if any.

        Segments have disjoint ordinal ranges, so a partial overlap is an
        invariant violation and raises.
        """
        for entry in self._segments:
            if entry["hi"] < lo or entry["lo"] > hi:
                continue
            if entry["lo"] <= lo and entry["hi"] >= hi:
                return entry
            raise CampaignError(
                f"segment {entry['name']} partially overlaps range "
                f"[{lo}, {hi}]: store invariant violated"
            )
        return None

    def _segment_row(self, ordinal: int) -> list | None:
        """Read one sealed row by ordinal (binary search, cached groups)."""
        segments = self._segments
        lo_index, hi_index = 0, len(segments)
        while lo_index < hi_index:
            mid = (lo_index + hi_index) // 2
            if segments[mid]["hi"] < ordinal:
                lo_index = mid + 1
            else:
                hi_index = mid
        if lo_index >= len(segments) or segments[lo_index]["lo"] > ordinal:
            return None
        entry = segments[lo_index]
        footer = self._footer(entry)
        for index, meta in enumerate(footer["groups"]):
            if meta["lo"] <= ordinal <= meta["hi"]:
                _, group = self._load_group(entry, index)
                position = int(np.searchsorted(group["ordinals"], ordinal))
                if (
                    position < len(group["ordinals"])
                    and int(group["ordinals"][position]) == ordinal
                ):
                    return _group_row(group, position)
        return None

    # ------------------------------------------------------------------
    # sealing and compaction
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        self._manifest["segments"] = self._segments
        _atomic_write(self.root / "MANIFEST.json", self._manifest)

    def _write_segment(self, groups) -> dict:
        """Stream decoded groups into ``seg-<seq>.col``; returns its entry.

        An output group is a run of slices of input groups, written column
        by column straight from the input arrays under a running CRC
        (offsets rebased): nothing is concatenated. Each column goes out at
        the width the group's own values need (``_column_layout``), whatever
        layout its inputs were read from.
        """
        if self._meta["schema_version"] != COLSTORE_SCHEMA_VERSION:
            # A schema-1 store: say 2 before a content-sized segment can be
            # published, so a build that only knows 1 refuses the store
            # instead of misreading it.
            self._meta["schema_version"] = COLSTORE_SCHEMA_VERSION
            self._write_meta()
        seq = int(self._manifest["next_seq"])
        name = f"seg-{seq:08d}.col"
        path = self.root / "segments" / name
        tmp = path.with_name(name + ".tmp")
        metas: list[dict] = []
        counts = np.zeros(len(_STATUSES), dtype=np.int64)
        pending: list[tuple[dict, int, int]] = []  # (input group, row a, row b)
        with open(tmp, "wb") as handle:
            handle.write(_SEG_MAGIC)
            offset = len(_SEG_MAGIC)

            def flush_group():
                nonlocal offset, counts
                crc = size = 0

                def emit(chunk):
                    nonlocal crc, size
                    view = memoryview(chunk)
                    handle.write(view)
                    crc = zlib.crc32(view, crc)
                    size += view.nbytes

                rows = sum(b - a for _, a, b in pending)
                first, last = pending[0], pending[-1]
                lo = int(first[0]["ordinals"][first[1]])
                hi = int(last[0]["ordinals"][last[2] - 1])
                layout = {}
                for column, dtype in _FIXED_COLUMNS:
                    if column == "ordinals" and hi - lo + 1 == rows:
                        layout[column] = "range"  # they ascend strictly: no gaps
                        continue
                    pieces = [group[column][a:b] for group, a, b in pending]
                    spec = _column_layout(pieces)
                    if spec != dtype:
                        layout[column] = spec
                    if isinstance(spec, str):
                        for piece in pieces:
                            emit(np.ascontiguousarray(piece, dtype=spec))
                heap_bytes = {}
                for column in ("title", "error"):
                    spans = [
                        (group[column + "_offsets"], group[column + "_heap"], a, b)
                        for group, a, b in pending
                    ]
                    total = sum(int(offs[b]) - int(offs[a]) for offs, _, a, b in spans)
                    heap_bytes[column] = total
                    if not total:  # no heap: every offset is 0
                        layout[column + "_offsets"] = 0
                        continue
                    spec = _narrowest(0, total)
                    if spec != _OFFSETS:
                        layout[column + "_offsets"] = spec
                    emit(bytes(np.dtype(spec).itemsize))  # offsets[0]
                    base = 0
                    for offs, _, a, b in spans:
                        rebased = offs[a + 1 : b + 1] - offs[a] + np.uint32(base)
                        emit(rebased.astype(spec, copy=False))
                        base += int(offs[b]) - int(offs[a])
                    for offs, heap, a, b in spans:
                        emit(memoryview(heap)[offs[a] : offs[b]])
                for group, a, b in pending:
                    counts += np.bincount(group["status"][a:b], minlength=len(counts))
                metas.append(
                    {
                        "rows": rows,
                        "lo": lo,
                        "hi": hi,
                        "crc": crc,
                        "layout": layout,
                        "title_heap": heap_bytes["title"],
                        "error_heap": heap_bytes["error"],
                        "offset": offset,
                        "nbytes": size,
                    }
                )
                offset += size
                pending.clear()

            room = self._group_rows
            for group in groups:
                a, n = 0, len(group["ordinals"])
                while a < n:
                    b = min(n, a + room)
                    pending.append((group, a, b))
                    room -= b - a
                    a = b
                    if not room:
                        flush_group()
                        room = self._group_rows
            if pending:
                flush_group()
            entry = {
                "rows": sum(meta["rows"] for meta in metas),
                "lo": metas[0]["lo"],
                "hi": metas[-1]["hi"],
                "counts": dict(zip(_STATUSES, counts.tolist())),
            }
            # A footer holds only what readers read (a segment's totals are
            # its manifest entry); a CRC is padded to 10 characters, its
            # widest, so the file's size does not hang on the checksum.
            footer = json.dumps({"groups": metas}, separators=(",", ":")).encode()
            footer = re.sub(rb'"crc":(\d+)', lambda m: b'"crc":%10s' % m[1], footer)
            handle.write(footer)
            handle.write(_TRAILER.pack(offset, len(footer), zlib.crc32(footer)))
            handle.write(_SEG_END)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._manifest["next_seq"] = seq + 1
        return {"name": name, "seq": seq, **entry}

    def _insert_entry(self, entry: dict) -> None:
        position = bisect.bisect_left(
            self._segments, entry["lo"], key=lambda other: other["lo"]
        )
        self._segments.insert(position, entry)

    def _close_segments(self) -> None:
        for fd in self._segment_fds.values():
            os.close(fd)
        self._segment_fds.clear()

    def _invalidate_segment(self, entry: dict) -> None:
        fd = self._segment_fds.pop(entry["seq"], None)
        if fd is not None:
            os.close(fd)
        self._footers.pop(entry["seq"], None)
        for key in [k for k in self._groups if k[0] == entry["seq"]]:
            del self._groups[key]

    def _seal_range(self, start: int, stop: int, shard_id: int | None = None) -> None:
        """Freeze every overlay row in ``[start, stop)`` into a segment.

        If a sealed segment already covers the range, it is merged and
        replaced, overlay rows winning: a compaction merged segments across
        this shard while it was open, or recovery re-seals a shard whose log
        outlived its FINISH record.
        """
        overlay = sorted(
            item for item in self._active_rows.items() if start <= item[0] < stop
        )
        if not overlay:  # already sealed, or an empty shard
            if shard_id is not None:
                self._drop_active_log(shard_id)
            return
        covering = self._covering_segment(start, stop - 1)
        sealed = () if covering is None else self._read_groups([covering])
        entry = self._write_segment(_fold(sealed, overlay))
        if covering is not None:
            self._segments.remove(covering)
        self._insert_entry(entry)
        self._manifest["generation"] = int(self._manifest["generation"]) + 1
        self._write_manifest()
        if covering is not None:
            self._invalidate_segment(covering)
            old = self._segment_path(covering)
            if old.exists():
                old.unlink()
        for ordinal, _ in overlay:
            del self._active_rows[ordinal]
        if shard_id is not None:
            self._drop_active_log(shard_id)

    def wait_for_compaction(self) -> None:
        """No-op: ``finish_shard`` compacts before it returns (SQLite parity)."""

    def _maybe_compact(self) -> None:
        """Merge the adjacent run of segments with the fewest rows.

        Runs at the end of every ``finish_shard`` and acts once the manifest
        holds ``compact_fanin`` segments; memory stays one output group's
        worth of input blocks however large they are.
        """
        fanin = self._compact_fanin
        if len(self._segments) < fanin:
            return
        row_counts = [entry["rows"] for entry in self._segments]
        best_start, best_total = 0, None
        window = sum(row_counts[:fanin])
        best_total = window
        for i in range(1, len(row_counts) - fanin + 1):
            window += row_counts[i + fanin - 1] - row_counts[i - 1]
            if window < best_total:
                best_start, best_total = i, window
        run = self._segments[best_start : best_start + fanin]
        entry = self._write_segment(self._read_groups(run))
        del self._segments[best_start : best_start + fanin]
        self._insert_entry(entry)
        self._manifest["generation"] = int(self._manifest["generation"]) + 1
        self._write_manifest()
        for old in run:
            self._invalidate_segment(old)
            path = self._segment_path(old)
            if path.exists():
                path.unlink()
        obs.counter("campaign.store.compactions").inc()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _read_manifest(self) -> dict:
        try:
            text = (self.root / "MANIFEST.json").read_text("utf-8")
        except FileNotFoundError:
            return {"generation": 0, "next_seq": 0, "segments": []}
        try:
            return json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"{self.path} has a corrupt manifest: {exc}") from None

    def _load_manifest(self, manifest: dict) -> None:
        """Adopt ``manifest``; counts start from its sealed state."""
        self._manifest = manifest
        self._segments = sorted(
            manifest.get("segments", []), key=lambda entry: entry["lo"]
        )
        self._counts = {status: 0 for status in _STATUSES}
        for entry in self._segments:
            for status, n in entry["counts"].items():
                self._counts[status] += int(n)

    def _read_log(self, path: Path) -> list[tuple[int, bytes]]:
        """One CRC-framed log's records, none if it is absent. A torn tail is
        truncated in place; a read-only view just leaves it out."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return []
        records, clean = _scan_frames(data, str(path))
        if clean < len(data) and not self._readonly:
            with open(path, "r+b") as handle:
                handle.truncate(clean)
        return records

    def _shard_logs(self) -> list[tuple[int, list[tuple[int, bytes]]]]:
        """``(shard_id, records)`` of every active shard log, in name order."""
        active = self.root / "active"
        if not active.is_dir():
            return []
        return [
            (int(match.group(1)), self._read_log(path))
            for path in sorted(active.iterdir())
            if (match := _ACTIVE_NAME.match(path.name))
        ]

    def _load_shards(self, records: list[tuple[int, bytes]]) -> None:
        for kind, payload in records:
            if kind == _K_SHARD_START:
                shard_id, start, stop = _SHARD_START.unpack(payload)
                self._shards[shard_id] = {
                    "start": start, "stop": stop, "status": "running",
                }
                self._open_ranges[shard_id] = (start, stop)
            elif kind == _K_SHARD_FINISH:
                shard_id, _ = _SHARD_FINISH.unpack(payload)
                if shard_id in self._shards:
                    self._shards[shard_id]["status"] = "done"
                    self._open_ranges.pop(shard_id, None)

    def _replay(self, records: list[tuple[int, bytes]]) -> None:
        for kind, payload in records:
            self._apply_record(kind, payload)

    def _recover(self) -> None:
        root = self.root
        (root / "active").mkdir(exist_ok=True)
        (root / "segments").mkdir(exist_ok=True)
        self._load_manifest(self._read_manifest())
        # Crash debris: segment files written but never published.
        live = {entry["name"] for entry in self._segments}
        for path in (root / "segments").iterdir():
            if path.name not in live:
                path.unlink()
        self._load_shards(self._read_log(root / "shards.log"))
        orphan = root / "active" / "orphan.log"
        if orphan.exists():
            self._fold_orphan_log(orphan)
        # Every shard log is replayed. A log of a finished shard outlived its
        # FINISH record: the crash came before the seal's manifest publish
        # (its rows are only here) or before the log's unlink (they are
        # sealed too, and the re-seal rewrites them unchanged).
        reseal: list[int] = []
        for shard_id, records in self._shard_logs():
            self._replay(records)
            shard = self._shards.get(shard_id)
            if shard is not None and shard["status"] == "done":
                reseal.append(shard_id)
        for shard_id in reseal:
            shard = self._shards[shard_id]
            self._seal_range(shard["start"], shard["stop"], shard_id=shard_id)

    def _snapshot(self) -> None:
        """Load a read-only view, consistent even beside a live writer.

        Every segment the manifest names is held open first, so a merge that
        unlinks one cannot pull it from under a read. A seal publishes its
        manifest before it unlinks the shard's log, so if the manifest is the
        same after the logs are read, no row was lost between the two; if it
        moved, the view is read again. Rows of a finished shard whose log is
        still there stay in the overlay, which reads merge over the segments.
        """
        root = self.root
        for _ in range(_SNAPSHOT_TRIES):
            manifest = self._read_manifest()
            self._load_manifest(manifest)
            try:
                for entry in self._segments:
                    self._segment_fd(entry)
            except FileNotFoundError:  # retired since the manifest was read
                self._close_segments()
                continue
            shards = self._read_log(root / "shards.log")
            orphan = self._read_log(root / "active" / "orphan.log")
            logs = self._shard_logs()
            if self._read_manifest() == manifest:
                break
            self._close_segments()
        else:
            raise CampaignError(
                f"campaign store {self.path} changed on every one of "
                f"{_SNAPSHOT_TRIES} reads; try again"
            )
        self._load_shards(shards)
        self._replay(orphan)
        for _, records in logs:
            self._replay(records)

    def _fold_orphan_log(self, path: Path) -> None:
        """Seal an older build's ``orphan.log`` into its segments, then delete it.

        That build logged a write to a finished shard's row there. Each
        segment holding such a row is re-sealed over its own range; a crash
        before the unlink repeats the fold with the same rows.
        """
        self._replay(self._read_log(path))
        for entry in [
            entry
            for entry in self._segments
            if any(entry["lo"] <= o <= entry["hi"] for o in self._active_rows)
        ]:
            self._seal_range(entry["lo"], entry["hi"] + 1)
        if self._active_rows:
            raise CampaignError(
                f"{path} holds rows of ligands {sorted(self._active_rows)[:5]} "
                "that no sealed segment covers"
            )
        path.unlink()

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------
    def _rank(self, k: int) -> list[tuple[float, int]]:
        """The ``k`` best ``(score, ordinal)`` of done rows, from columns alone.

        Overlay rows shadow their sealed versions; ties break by ordinal.
        Each group costs O(rows): only scores at or below the k-th best so
        far (ties included) reach the sort, which then keeps k of them.
        """
        overlay = self._active_rows
        live = [
            (row[_SCORE], ordinal)
            for ordinal, row in overlay.items()
            if row[_STATUS] == "done" and row[_SCORE] is not None
        ]
        scores = np.array([score for score, _ in live], dtype="<f8")
        ordinals = np.array([ordinal for _, ordinal in live], dtype="<i8")
        shadow = np.fromiter(overlay, dtype="<i8", count=len(overlay))
        for group in self._read_groups(self._segments):
            keep = (group["status"] == _DONE_CODE) & (group["flags"] & _F_SCORE != 0)
            keep &= ~np.isin(group["ordinals"], shadow)
            scores = np.concatenate((scores, group["score"][keep]))
            ordinals = np.concatenate((ordinals, group["ordinals"][keep]))
            if len(scores) > k:
                near = scores <= np.partition(scores, k - 1)[k - 1]
                scores, ordinals = scores[near], ordinals[near]
                order = np.lexsort((ordinals, scores))[:k]
                scores, ordinals = scores[order], ordinals[order]
        order = np.lexsort((ordinals, scores))[:k]
        return list(zip(scores[order].tolist(), ordinals[order].tolist()))

    # ------------------------------------------------------------------
    # queries and export
    # ------------------------------------------------------------------
    def _lookup(self, ordinal: int) -> list | None:
        row = self._active_rows.get(ordinal)
        if row is not None:
            return row
        return self._segment_row(ordinal)

    def _iter_logical(self) -> Iterator[tuple[int, list]]:
        """Every live row in ordinal order: sealed segments + overlay merge.

        Holds the store lock for the whole stream: threads share a store (a
        fleet coordinator's node handlers commit while a reader streams),
        and a seal or merge on another thread rewrites ``self._segments``
        and unlinks the merged files, so an unlocked iterator could observe
        a half-swapped segment list. Rows still stream one at a time — the
        lock bounds concurrency, not memory.
        """
        with self._lock:
            overlay = sorted(self._active_rows.items())
            sealed = chain.from_iterable(
                map(_rows_of, self._read_groups(self._segments))
            )
            yield from _merge_rows(sealed, overlay)

    def _top_row(self, ordinal: int, row: list) -> dict:
        return {
            "ordinal": ordinal,
            "title": row[_TITLE],
            "best_score": row[_SCORE],
            "best_spot": row[_SPOT],
            "evaluations": row[_EVALS],
            "wall_seconds": row[_WALL],
            "simulated_seconds": row[_SIM],
        }

    def top(self, k: int = 10) -> list[dict]:
        """The ``k`` best completed ligands, ascending score.

        A scan of the score columns (:meth:`_rank`); only the ``k`` winners
        are decoded into rows.
        """
        if k < 1:
            raise CampaignError(f"k must be >= 1, got {k}")
        with self._lock:
            best = [ordinal for _, ordinal in self._rank(k)]
            rows = {ordinal: self._lookup(ordinal) for ordinal in sorted(best)}
            return [self._top_row(ordinal, rows[ordinal]) for ordinal in best]

    def science_rows(self) -> Iterator[tuple]:
        """Stream the result-affecting columns only, in ordinal order.

        The SQLite backend's rows, but a ``-0.0`` score keeps its sign — the
        parity fingerprint :meth:`science_digest` hashes these.
        """
        for ordinal, row in self._iter_logical():
            yield (
                ordinal, row[_TITLE], row[_STATUS],
                row[_SCORE], row[_SPOT], row[_EVALS],
            )

    def iter_results(self) -> Iterator[dict]:
        """Stream every ligand row as a dict, in ordinal order."""
        for ordinal, row in self._iter_logical():
            yield {
                "ordinal": ordinal,
                "title": row[_TITLE],
                "status": row[_STATUS],
                "best_score": row[_SCORE],
                "best_spot": row[_SPOT],
                "evaluations": row[_EVALS],
                "wall_seconds": row[_WALL],
                "simulated_seconds": row[_SIM],
                "attempts": row[_ATTEMPTS],
                "error": row[_ERROR],
            }

    science_digest = _science_digest
    export_json = _export_json
    export_csv = _export_csv
    to_report = _to_report
