"""Worker-node process: one node of a distributed campaign fleet.

A worker rebuilds the coordinator's
:class:`~repro.campaign.settings.DockSettings` from the ``config`` frame and
docks exactly as a single-node campaign does: its own
:class:`~repro.engine.host_runtime.PersistentHostRuntime`
(:func:`~repro.campaign.runner.open_runtime`: pool spawned once, Eq. 1
warm-up paid once) and
:func:`~repro.campaign.runner.dock_ligand` for the probe and every leased
ligand. Each outcome goes to the coordinator as a ``result`` message — the
row :func:`~repro.campaign.runner.outcome_row` builds — the moment it is
docked. The coordinator, not the worker, owns the store: a worker that dies
mid-shard loses nothing that was already reported.

Lifecycle (one TCP channel, messages per :mod:`repro.cluster.protocol`):

1. dial the coordinator (bounded retry), send ``hello``;
2. receive ``config`` — the ``settings`` object, the cluster knobs, the
   receptor inline, optionally the library descriptor;
3. dock one warm-up probe ligand, send ``warmup`` with the measured seconds
   (the coordinator's Eq. 1 input — this same dock also warms the pool);
4. serve: process leased ligands one at a time, interleaving protocol
   receives between docks so shutdown/lease top-ups are handled promptly;
   when idle, ask to ``steal``; heartbeat from a side thread throughout;
5. on ``shutdown``, send ``bye`` carrying the full local telemetry snapshot
   (the coordinator retags it ``node=<id>`` and merges it).

The worker is deliberately single-threaded around docking: message handling
happens *between* ligands, which bounds the protocol latency by one dock but
keeps the science path identical to the single-node runner.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from pathlib import Path

from repro import observability as obs
from repro.campaign.runner import dock_ligand, open_runtime, outcome_row
from repro.campaign.settings import DockSettings
from repro.errors import ConnectionClosed, ProtocolError
from repro.observability.flight import flight_event, flight_recorder

from repro.cluster.config import (
    CONNECT_ATTEMPTS,
    CONNECT_BACKOFF_S,
    MESSAGE_TIMEOUT_S,
    PROBE_ATOMS,
    ClusterConfig,
)
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    Channel,
    connect,
    ligand_from_payload,
    receptor_from_payload,
)

__all__ = ["run_worker", "WorkerNode"]

#: Seed offset for the warm-up probe ligand — far outside any campaign's
#: ordinal range so the probe can never collide with a real ligand's stream.
PROBE_SEED_OFFSET = 999_331


@dataclass
class _Lease:
    """One granted shard: ordinals with titles, ligands lazy or inline."""

    shard_id: int
    start: int
    stop: int
    stolen: bool
    items: deque = field(default_factory=deque)  # (ordinal, title, Ligand)
    accepted_s: float = 0.0  # perf_counter at acceptance, for lease-wait


class WorkerNode:
    """The serving half of a worker process (post-``config``)."""

    def __init__(self, channel: Channel, config_message: dict) -> None:
        try:
            self.node_id = int(config_message["node"])
            self.cluster = ClusterConfig.from_wire(config_message["cluster"])
            self.receptor = receptor_from_payload(config_message["receptor"])
            self.library = config_message.get("library")
            settings = config_message["settings"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed config message: {exc}") from exc
        self.settings = DockSettings.from_wire(settings)
        self.channel = channel
        self.channel.timeout = MESSAGE_TIMEOUT_S
        # Campaign-scoped trace context: every frame we send from here on
        # carries the coordinator-minted trace id, and our spans are tagged
        # with it so the merged fleet timeline is campaign-attributable.
        self.trace_id = config_message.get("trace")
        self.channel.trace_id = self.trace_id
        flight_dir = config_message.get("flight_dir")
        self.flight_path = (
            None
            if flight_dir is None
            else Path(flight_dir) / f"worker-node{self.node_id}.flight"
        )
        self._telemetry_shipped_t = 0.0
        self._source = None  # built lazily from the library descriptor
        self._runtime = None
        self._leases: deque[_Lease] = deque()
        self._done = 0
        self._failed = 0
        self._stop = threading.Event()
        self._heartbeat_error: Exception | None = None
        from repro.molecules.spots import find_spots

        self.spots = find_spots(self.receptor, self.settings.n_spots)

    def _trace_tags(self) -> dict:
        return {} if self.trace_id is None else {"trace": self.trace_id}

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------
    def start_runtime(self) -> None:
        # Depth 1: the config frame carries no pipeline depth.
        self._runtime = open_runtime(self.settings, self.receptor)

    def probe(self) -> float:
        """Dock one throwaway ligand at campaign settings; return seconds.

        This is the fleet-level Eq. 1 measurement *and* the pool warm-up in
        one: the first dock pays pool spawn + warm-up, so the probe
        time reflects steady-state per-ligand cost only if the pool is
        already warm — which is exactly why the probe dock happens after
        :meth:`start_runtime` and is itself discarded.
        """
        from repro.molecules.synthetic import generate_ligand

        probe_ligand = generate_ligand(
            PROBE_ATOMS,
            seed=self.settings.seed + PROBE_SEED_OFFSET,
            title="__probe__",
        )
        t0 = time.perf_counter()
        with obs.span("cluster.worker.probe", **self._trace_tags()):
            outcome = self._dock(0, probe_ligand)
        if not outcome["ok"]:
            raise outcome["exc"]
        measured = time.perf_counter() - t0
        flight_event("probe", node=self.node_id, seconds=round(measured, 6))
        override = self.cluster.probe_override_for(self.node_id)
        return measured if override is None else float(override)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(self) -> int:
        """Main loop: alternate protocol receives with single-ligand docks."""
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        heartbeat.start()
        asked_at: float | None = None
        try:
            while True:
                if self._heartbeat_error is not None:
                    return 1
                busy = bool(self._leases)
                idle = 0.0 if busy else self.cluster.heartbeat_interval_s
                message = self.channel.recv(idle_timeout=idle)
                if message is not None:
                    kind = message["kind"]
                    if kind == "lease":
                        self._leases.append(self._accept_lease(message))
                        asked_at = None
                        continue
                    if kind == "drain":
                        # Nothing unleased right now; keep listening (work
                        # can reappear via node-death reclamation).
                        asked_at = time.monotonic()
                        continue
                    if kind == "shutdown":
                        self._send_bye()
                        return 0
                    raise ProtocolError(
                        f"worker received unexpected {kind} message"
                    )
                if busy:
                    self._process_one()
                    continue
                now = time.monotonic()
                if asked_at is None or now - asked_at > self.cluster.heartbeat_timeout_s:
                    # Idle with nothing queued: ask the coordinator to steal
                    # from another node's backlog (re-ask defensively after a
                    # heartbeat timeout in case the grant got lost).
                    self.channel.send({"kind": "steal", "node": self.node_id})
                    asked_at = now
        finally:
            self._stop.set()
            runtime, self._runtime = self._runtime, None
            if runtime is not None:
                runtime.close()

    def _accept_lease(self, message: dict) -> _Lease:
        try:
            lease = _Lease(
                shard_id=int(message["shard_id"]),
                start=int(message["start"]),
                stop=int(message["stop"]),
                stolen=bool(message.get("stolen", False)),
            )
            raw_items = list(message["items"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed lease: {exc}") from exc
        lease.accepted_s = time.perf_counter()
        flight_event(
            "lease.accept",
            node=self.node_id,
            shard=lease.shard_id,
            stolen=lease.stolen,
            items=len(raw_items),
        )
        # Materialise ligands now: inline payloads decode directly, payload-
        # free items rebuild from the shared library descriptor by ordinal.
        missing = [int(o) for o, _, payload in raw_items if payload is None]
        local = self._materialize(missing)
        for ordinal, title, payload in raw_items:
            ordinal = int(ordinal)
            ligand = (
                local[ordinal] if payload is None else ligand_from_payload(payload)
            )
            lease.items.append((ordinal, str(title), ligand))
        return lease

    def _materialize(self, ordinals: list[int]) -> dict:
        if not ordinals:
            return {}
        if self.library is None:
            raise ProtocolError(
                "lease references library ordinals but no library descriptor "
                "was shipped in the config message"
            )
        from repro.campaign.library import build_source, materialize_ordinals

        if self._source is None:
            self._source = build_source(self.library)
        return materialize_ordinals(self._source, ordinals)

    def _process_one(self) -> None:
        """Dock the next leased ligand and report its result."""
        lease = self._leases[0]
        ordinal, title, ligand = lease.items.popleft()
        self.channel.send(self._dock_leased(lease, ordinal, title, ligand))
        if self.cluster.service_time_s > 0:
            # Synthetic device service time (benchmark emulation mode).
            time.sleep(self.cluster.service_time_s)
        if not lease.items:
            self._leases.popleft()

    def _dock(self, ordinal: int, ligand) -> dict:
        return dock_ligand(
            self.settings,
            self.receptor,
            self.spots,
            ordinal,
            ligand,
            None if self._runtime is None else self._runtime.evaluator_factory,
            sleep=time.sleep,
            node=self.node_id,
        )

    def _dock_leased(self, lease: _Lease, ordinal: int, title: str, ligand) -> dict:
        """Dock one leased ligand and build its ``result`` message.

        Same attempts, same backoff, same seeding as a single-node run:
        :func:`repro.campaign.runner.dock_ligand` is what that runs too.
        """
        with obs.span(
            "cluster.ligand.dock",
            ordinal=ordinal,
            shard=lease.shard_id,
            lease_wait_s=round(max(0.0, time.perf_counter() - lease.accepted_s), 6),
            **self._trace_tags(),
        ):
            # lets the coordinator correlate its commit span with this dock
            # (node-local id)
            span_id = obs.get_telemetry().tracer.current
            outcome = self._dock(ordinal, ligand)
        row = outcome_row(outcome)
        if row["ok"]:
            self._done += 1
            obs.counter("campaign.ligands.done").inc()
            obs.histogram("campaign.dock.seconds").observe(row["wall_seconds"])
            row["span"] = span_id
        else:
            self._failed += 1
            obs.counter("campaign.ligands.failed").inc()
        return {
            "kind": "result",
            "node": self.node_id,
            "shard_id": lease.shard_id,
            "ordinal": ordinal,
            "title": title,
            **row,
            # sent_s lets the coordinator compute wire time.
            "sent_s": time.perf_counter(),
        }

    # ------------------------------------------------------------------
    # liveness + farewell
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.cluster.heartbeat_interval_s):
            try:
                message = {
                    "kind": "heartbeat",
                    "node": self.node_id,
                    "done": self._done,
                    "failed": self._failed,
                }
                telemetry = self._heartbeat_telemetry()
                if telemetry is not None:
                    message["telemetry"] = telemetry
                    with obs.span(
                        "cluster.worker.heartbeat", **self._trace_tags()
                    ):
                        self.channel.send(message)
                else:
                    self.channel.send(message)
                obs.counter("cluster.worker.heartbeats").inc()
            except Exception as exc:  # channel gone -> the worker is over
                self._heartbeat_error = exc
                return

    def _heartbeat_telemetry(self) -> dict | None:
        """A telemetry snapshot to ride this heartbeat, rate-limited.

        At most one snapshot per ``heartbeat_timeout_s / 2`` crosses the
        wire, so a SIGKILLed node's trace lanes are at most about half a
        death-detection window stale — without paying the snapshot cost on
        every liveness ping.
        """
        if not obs.enabled():
            return None
        now = time.monotonic()
        if now - self._telemetry_shipped_t < self.cluster.heartbeat_timeout_s / 2:
            return None
        try:
            snapshot = obs.snapshot()
        except RuntimeError:  # lost a race with metric creation; next beat
            return None
        self._telemetry_shipped_t = now
        return snapshot

    def _send_bye(self) -> None:
        self._stop.set()
        flight_event("shutdown.recv", node=self.node_id, done=self._done)
        self.channel.send(
            {
                "kind": "bye",
                "node": self.node_id,
                "done": self._done,
                "failed": self._failed,
                "telemetry": obs.snapshot(),
            }
        )


def run_worker(
    host: str,
    port: int,
    *,
    connect_attempts: int = CONNECT_ATTEMPTS,
    connect_backoff_s: float = CONNECT_BACKOFF_S,
) -> int:
    """Process entry point for one worker node; returns an exit status.

    Top-level and picklable on purpose: the local fleet forks/spawns it via
    ``multiprocessing``, and ``repro-vs cluster worker`` calls it directly.
    Resets process-global telemetry first — a forked child inherits the
    parent's counters, and the coordinator must see only this node's numbers
    in the final ``bye`` snapshot.
    """
    obs.reset()
    sock = connect(host, port, attempts=connect_attempts, backoff_s=connect_backoff_s)
    with Channel(sock) as channel:
        channel.send(
            {"kind": "hello", "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        )
        message = channel.recv()
        if message is None:
            raise ProtocolError("coordinator sent no config message")
        if message["kind"] == "shutdown":
            return 0  # fleet aborted during startup
        if message["kind"] != "config":
            raise ProtocolError(f"expected config, got {message['kind']}")
        node = WorkerNode(channel, message)
        flight_recorder().attach(node.flight_path)
        try:
            node.start_runtime()
            seconds = node.probe()
            channel.send(
                {"kind": "warmup", "node": node.node_id, "seconds": seconds}
            )
            return node.serve()
        except (ConnectionClosed, ProtocolError):
            # Coordinator died or the stream broke: durable state lives on
            # the coordinator side, so the worker just exits nonzero.
            return 1
        finally:
            flight_recorder().attach(None)
