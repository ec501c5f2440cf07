"""Length-prefixed JSON message protocol for the campaign cluster.

One campaign, N worker nodes, stdlib sockets only. Every message is a JSON
object carrying a ``kind`` key, framed as a 4-byte big-endian length prefix
followed by the UTF-8 payload — the simplest framing that survives TCP's
stream semantics. The vocabulary (see :data:`MESSAGE_KINDS`):

==============  =========  =====================================================
kind            direction  meaning
==============  =========  =====================================================
``hello``       w -> c     worker announces itself (protocol version, pid)
``config``      c -> w     campaign + execution config, assigned node id
``warmup``      w -> c     Eq. 1 probe result (seconds for one probe dock)
``lease``       c -> w     a shard grant: ordinals, titles, optional ligands
``result``      w -> c     one ligand's outcome (done or failed)
``steal``       w -> c     idle worker asks for work from another node's queue
``drain``       c -> w     no work available right now; keep listening
``heartbeat``   w -> c     liveness + progress counters
``shutdown``    c -> w     campaign over (or aborting); worker should exit
``bye``         w -> c     worker's final telemetry snapshot before exiting
==============  =========  =====================================================

Timeout discipline: receives wait up to an *idle* timeout for the first
header byte (``None`` return — the caller decides whether silence is fine),
but once a frame has begun, the rest must arrive within the per-message
timeout or the channel is declared broken (:class:`~repro.errors.ProtocolError`)
— a frame boundary is the only safe place to give up. EOF at a boundary
raises :class:`~repro.errors.ConnectionClosed`, which is how both sides
detect a SIGKILLed peer immediately instead of waiting out a heartbeat.

Ligands cross the wire as plain JSON payloads (coords/elements/charges/
title) — :func:`ligand_to_payload` / :func:`ligand_from_payload` round-trip
bitwise because coordinates serialise through ``repr``-exact ``float``.

Trace context: a :class:`Channel` can be bound to a campaign-scoped trace
id (``channel.trace_id = ...``); from then on every outgoing frame carries
a ``"trace"`` key, so any capture of the wire can be attributed to its
campaign. The coordinator mints the id, ships it in ``config``, and the
worker binds its own channel to the same id — both directions of every
conversation are stamped.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np

from repro.errors import ClusterError, ConnectionClosed, ProtocolError
from repro.molecules.structures import Ligand, Molecule, Receptor

__all__ = [
    "PROTOCOL_VERSION",
    "MESSAGE_KINDS",
    "MAX_MESSAGE_BYTES",
    "DEFAULT_MESSAGE_TIMEOUT_S",
    "send_message",
    "recv_message",
    "connect",
    "Channel",
    "ligand_to_payload",
    "ligand_from_payload",
    "molecule_to_payload",
    "receptor_from_payload",
]

#: Bumped on any incompatible wire change; ``hello`` carries it and the
#: coordinator refuses mismatched workers. 2: the per-spot pruning field
#: left ``config.execution`` (a v1 worker reads it unconditionally). 3: the
#: kernel-selection table left ``config`` (a v2 coordinator may send one and
#: a v3 worker would dock without it). 4: ``config.campaign`` and
#: ``config.execution`` became the one ``config.settings`` object
#: (:meth:`repro.campaign.settings.DockSettings.to_wire`).
PROTOCOL_VERSION: int = 4

#: Every legal ``kind`` value (either direction).
MESSAGE_KINDS: frozenset[str] = frozenset(
    {
        "hello",
        "config",
        "warmup",
        "lease",
        "result",
        "steal",
        "drain",
        "heartbeat",
        "shutdown",
        "bye",
    }
)

#: Hard cap on one frame. Generous: a 64-ligand shard of 50-atom ligands
#: shipped inline is ~500 KB; telemetry snapshots are smaller still.
MAX_MESSAGE_BYTES: int = 64 * 1024 * 1024

#: Per-message completion timeout once a frame has started arriving.
DEFAULT_MESSAGE_TIMEOUT_S: float = 10.0

_HEADER = struct.Struct(">I")


def send_message(sock: socket.socket, message: dict, timeout: float) -> None:
    """Frame and send one message; raises ProtocolError on any failure."""
    kind = message.get("kind")
    if kind not in MESSAGE_KINDS:
        raise ProtocolError(f"cannot send message of unknown kind {kind!r}")
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"{kind} message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame cap"
        )
    sock.settimeout(timeout)
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except socket.timeout as exc:
        raise ProtocolError(
            f"timed out sending {kind} message after {timeout}s"
        ) from exc
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ConnectionClosed(f"peer closed while sending {kind}: {exc}") from exc


def _recv_exact(
    sock: socket.socket, n: int, timeout: float, context: str
) -> bytes:
    """Read exactly ``n`` bytes; raises on EOF or mid-read timeout."""
    chunks: list[bytes] = []
    remaining = n
    deadline = time.monotonic() + timeout
    while remaining > 0:
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise ProtocolError(f"timed out {context} ({n - remaining}/{n} bytes)")
        sock.settimeout(budget)
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise ProtocolError(
                f"timed out {context} ({n - remaining}/{n} bytes)"
            ) from exc
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionClosed(f"peer closed {context}: {exc}") from exc
        if not chunk:
            raise ConnectionClosed(f"peer closed {context}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket,
    timeout: float = DEFAULT_MESSAGE_TIMEOUT_S,
    idle_timeout: float | None = None,
) -> dict | None:
    """Receive one message.

    Waits up to ``idle_timeout`` (default: ``timeout``) for the first byte;
    returns ``None`` if nothing arrives — silence at a frame boundary is the
    caller's policy decision. Once a frame starts, the remainder must land
    within ``timeout``. EOF at a frame boundary raises
    :class:`ConnectionClosed`; EOF or a stall mid-frame raises
    :class:`ProtocolError` (the stream is unrecoverable either way).
    """
    wait = timeout if idle_timeout is None else idle_timeout
    sock.settimeout(wait if wait > 0 else 0.000001)
    try:
        first = sock.recv(1)
    except socket.timeout:
        return None
    except (ConnectionResetError, OSError) as exc:
        raise ConnectionClosed(f"peer closed: {exc}") from exc
    if not first:
        raise ConnectionClosed("peer closed the channel")
    header = first + _recv_exact(sock, _HEADER.size - 1, timeout, "reading frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap (corrupt stream?)"
        )
    payload = _recv_exact(sock, length, timeout, "reading frame payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or message.get("kind") not in MESSAGE_KINDS:
        raise ProtocolError(f"frame is not a known message: {str(message)[:120]}")
    return message


def connect(
    host: str,
    port: int,
    attempts: int = 8,
    backoff_s: float = 0.1,
    timeout: float = DEFAULT_MESSAGE_TIMEOUT_S,
) -> socket.socket:
    """Dial a coordinator/worker with bounded retry and exponential backoff.

    Workers race their coordinator's ``listen()``; refusals during startup
    are expected and retried. The final failure raises
    :class:`~repro.errors.ClusterError` naming the address.
    """
    if attempts < 1:
        raise ClusterError(f"connect attempts must be >= 1, got {attempts}")
    delay = backoff_s
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
    raise ClusterError(
        f"cannot connect to cluster peer at {host}:{port} "
        f"after {attempts} attempts: {last}"
    )


class Channel:
    """One framed, thread-safe message stream over a connected socket.

    Sends are serialised under a lock so a worker's heartbeat thread and its
    result-reporting main thread (or a coordinator handler topping up leases
    while another thread broadcasts shutdown) never interleave frames.
    Receives are single-consumer by construction — exactly one thread per
    side reads a channel.

    When ``trace_id`` is set, every outgoing frame that does not already
    carry a ``"trace"`` key is stamped with it (the caller's dict is not
    mutated).
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout: float = DEFAULT_MESSAGE_TIMEOUT_S,
        trace_id: str | None = None,
    ) -> None:
        self._sock = sock
        self.timeout = timeout
        self.trace_id = trace_id
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, message: dict) -> None:
        if self.trace_id is not None and "trace" not in message:
            message = {**message, "trace": self.trace_id}
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("channel is closed")
            send_message(self._sock, message, self.timeout)

    def recv(self, idle_timeout: float | None = None) -> dict | None:
        if self._closed:
            raise ConnectionClosed("channel is closed")
        return recv_message(self._sock, self.timeout, idle_timeout=idle_timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def peer(self) -> str:
        try:
            host, port = self._sock.getpeername()[:2]
            return f"{host}:{port}"
        except OSError:
            return "<disconnected>"

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# molecule payloads
# ----------------------------------------------------------------------
def molecule_to_payload(molecule: Molecule) -> dict:
    """JSON payload for one molecule (everything scoring depends on)."""
    return {
        "title": molecule.title,
        "coords": np.asarray(molecule.coords, dtype=np.float64).tolist(),
        "elements": [str(e) for e in molecule.elements],
        "charges": np.asarray(molecule.charges, dtype=np.float64).tolist(),
    }


def _payload_arrays(payload: dict) -> tuple[np.ndarray, list[str], np.ndarray, str]:
    try:
        coords = np.asarray(payload["coords"], dtype=np.float64)
        elements = [str(e) for e in payload["elements"]]
        charges = np.asarray(payload["charges"], dtype=np.float64)
        title = str(payload.get("title", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed molecule payload: {exc}") from exc
    return coords, elements, charges, title


def ligand_to_payload(ligand: Ligand) -> dict:
    """Serialise a ligand for an inline lease payload."""
    return molecule_to_payload(ligand)


def ligand_from_payload(payload: dict) -> Ligand:
    """Rebuild a ligand from its wire payload (bitwise round-trip)."""
    coords, elements, charges, title = _payload_arrays(payload)
    return Ligand(coords, elements, charges, title=title)


def receptor_from_payload(payload: dict) -> Receptor:
    """Rebuild the staged receptor from the config message."""
    coords, elements, charges, title = _payload_arrays(payload)
    return Receptor(coords, elements, charges, title=title)
