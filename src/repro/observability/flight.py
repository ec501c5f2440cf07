"""Black-box flight recorder: structured events written as they happen.

Coordinators, workers, and single-node campaign runners record small
structured events (leases, steals, heartbeats, retries, node deaths,
shard finishes) into a CRC-framed ``*.flight`` file.  Each event is one
``write`` on an unbuffered file the moment it is recorded, so a process
killed by any signal, SIGKILL included, leaves every event it recorded:

    frame   := header (magic u16, kind u8, length u32, crc32 u32) payload
    kind 1  := JSON header record (schema, role, pid, clock references)
    kind 2  := JSON event record  (seq, t monotonic, wall, kind, fields)

The framing mirrors ``repro.campaign.colstore``: a torn tail (partial
header, partial payload, or a CRC mismatch at end-of-file) is tolerated
and reported, while corruption *before* the end of the file raises
:class:`~repro.errors.ObservabilityError`.  A campaign's files live in a
``<store>.flight.d/`` directory, one ``<role>.flight`` per process role,
where ``repro-vs doctor`` reads them.  A file that reaches ``max_events``
events becomes ``<role>.old.flight`` and a fresh one starts, so a record
is bounded and keeps the newest events.

Recording is gated on the telemetry master switch and on an attached
file: with ``repro.observability.disable()`` in effect, or with no file
attached (``screen()``, ``:memory:`` stores), :func:`flight_event` is a
no-op, so the recorder cannot perturb the bitwise science path.
"""
from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from pathlib import Path

from repro.errors import ObservabilityError

FLIGHT_SCHEMA_VERSION = 2
DEFAULT_MAX_EVENTS = 4096
FLIGHT_SUFFIX = ".flight"
_OLD_SUFFIX = ".old" + FLIGHT_SUFFIX

_FRAME = struct.Struct("<HBII")  # magic, kind, payload length, crc32
_FLIGHT_MAGIC = 0xF117
_K_HEADER = 1
_K_EVENT = 2


class FlightRecorder:
    """Thread-safe writer of one process's flight record."""

    def __init__(
        self,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock=time.perf_counter,
        wall_clock=time.time,
    ) -> None:
        if max_events < 1:
            raise ObservabilityError("flight recorder needs max_events >= 1")
        self.max_events = int(max_events)
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._file = None
        self._path: Path | None = None
        self._in_file = 0  # events in the attached file
        self._seq = 0

    @property
    def role(self) -> str | None:
        """The attached file's role (its name), or None when detached."""
        if self._path is None:
            return None
        return self._path.name.removesuffix(FLIGHT_SUFFIX)

    def attach(self, path: str | Path | None) -> None:
        """Record into ``path`` from now on; ``None`` detaches.

        An existing file is appended to after its torn tail, if any, is cut
        at ``clean_bytes``; a corrupt one is moved to the ``.old`` slot.
        Best-effort: a file that cannot be opened leaves the recorder
        detached rather than failing the campaign.
        """
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = self._path = None
            if path is None:
                return
            path = Path(path)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._in_file = _repair(path)
                self._file = open(path, "ab", buffering=0)
                self._path, self._seq = path, 0
                self._write_header()
            except OSError:
                self._file = self._path = None

    def record(self, kind: str, **fields) -> None:
        """Write one event now; rotate first when the file is full."""
        t = self._clock()
        wall = self._wall_clock()
        with self._lock:
            if self._file is None:
                return
            self._seq += 1
            event = {"seq": self._seq, "t": t, "wall": wall, "kind": kind, **fields}
            try:
                if self._in_file >= self.max_events:
                    self._file.close()
                    os.replace(self._path, _old_path(self._path))
                    self._file = open(self._path, "ab", buffering=0)
                    self._in_file = 0
                    self._write_header()
                self._file.write(_pack_frame(_K_EVENT, _json_bytes(event)))
                self._in_file += 1
            except OSError:
                # A full disk must not fail the campaign: stop recording.
                self._file = self._path = None

    def _write_header(self) -> None:
        header = {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "role": self.role,
            "pid": os.getpid(),
            "started_wall": self._wall_clock(),
            "started_clock": self._clock(),
        }
        self._file.write(_pack_frame(_K_HEADER, _json_bytes(header)))

    def _drop_inherited(self) -> None:
        """In a forked child: forget the parent's file and lock."""
        self._lock = threading.Lock()
        self._file = self._path = None


def _old_path(path: Path) -> Path:
    return path.with_name(path.name.removesuffix(FLIGHT_SUFFIX) + _OLD_SUFFIX)


def _repair(path: Path) -> int:
    """Make ``path`` safe to append to; returns the events it holds."""
    try:
        doc = read_flight(path)
    except FileNotFoundError:
        return 0
    except ObservabilityError:
        # Frames appended after mid-file corruption could never be read.
        os.replace(path, _old_path(path))
        return 0
    if doc["torn"]:
        os.truncate(path, doc["clean_bytes"])
    return len(doc["events"])


def _json_bytes(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _pack_frame(kind: int, payload: bytes) -> bytes:
    return (
        _FRAME.pack(_FLIGHT_MAGIC, kind, len(payload), zlib.crc32(payload))
        + payload
    )


def read_flight(path: str | Path) -> dict:
    """Read a ``*.flight`` file, tolerating a torn tail.

    Returns ``{"header": dict | None, "events": [dict, ...], "torn": bool,
    "clean_bytes": int}``; ``header`` is the last header in the file (each
    attach writes one).  A partial frame at end-of-file (torn header,
    torn payload, or CRC mismatch on the final frame) sets ``torn`` and
    drops only the tail; corruption anywhere before the end raises
    :class:`ObservabilityError`.
    """
    data = Path(path).read_bytes()
    label = str(path)
    header: dict | None = None
    events: list[dict] = []
    offset = 0
    size = len(data)
    torn = False
    while offset < size:
        if offset + _FRAME.size > size:
            torn = True  # torn frame header at EOF
            break
        magic, kind, length, crc = _FRAME.unpack_from(data, offset)
        if magic != _FLIGHT_MAGIC:
            raise ObservabilityError(
                f"{label}: bad flight frame magic 0x{magic:04x} at byte {offset}"
            )
        end = offset + _FRAME.size + length
        if end > size:
            torn = True  # torn payload at EOF
            break
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            if end >= size:
                torn = True  # torn final frame
                break
            raise ObservabilityError(
                f"{label}: flight frame CRC mismatch at byte {offset}"
            )
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise ObservabilityError(
                f"{label}: undecodable flight payload at byte {offset}: {exc}"
            ) from None
        if kind == _K_HEADER:
            header = doc
        elif kind == _K_EVENT:
            events.append(doc)
        # unknown kinds are skipped for forward compatibility
        offset = end
    return {
        "header": header,
        "events": events,
        "torn": torn,
        "clean_bytes": offset,
    }


# ----------------------------------------------------------------------
# process-global recorder
# ----------------------------------------------------------------------

_RECORDER = FlightRecorder()
# A forked pool worker or fleet node must not write into its parent's file.
os.register_at_fork(after_in_child=_RECORDER._drop_inherited)


def flight_recorder() -> FlightRecorder:
    """The process-global flight recorder."""
    return _RECORDER


def flight_event(kind: str, **fields) -> None:
    """Record one event; no-op with no file attached or telemetry off."""
    if _RECORDER._file is None:
        return
    from repro import observability as obs

    if obs.enabled():
        _RECORDER.record(kind, **fields)


def flight_dir(store_path: str | Path) -> Path:
    """The flight-record directory convention for a campaign store path."""
    return Path(str(store_path) + ".flight.d")


def read_flight_dir(directory: str | Path) -> list[dict]:
    """Read every ``*.flight`` file in a directory, skipping unreadable ones.

    Each entry is the :func:`read_flight` document plus a ``"path"`` key,
    sorted by role with a role's ``.old`` file before its live one, so
    events come in the order they were recorded.  Corrupt files are
    reported as ``{"path": ..., "error": str}`` rather than aborting the
    whole scan — the doctor wants maximum forensics.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []

    def order(path: Path):
        name = path.name.removesuffix(FLIGHT_SUFFIX)
        return (name.removesuffix(".old"), not name.endswith(".old"))

    dumps: list[dict] = []
    for path in sorted(directory.glob("*" + FLIGHT_SUFFIX), key=order):
        try:
            doc = read_flight(path)
        except (ObservabilityError, OSError) as exc:
            dumps.append({"path": str(path), "error": str(exc)})
            continue
        doc["path"] = str(path)
        dumps.append(doc)
    return dumps


__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "DEFAULT_MAX_EVENTS",
    "FlightRecorder",
    "read_flight",
    "read_flight_dir",
    "flight_recorder",
    "flight_event",
    "flight_dir",
]
