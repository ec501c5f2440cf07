"""Campaign coordinator: lease shards to worker nodes, survive their deaths.

The coordinator is the durability boundary of a distributed campaign. It is
the *only* process that touches the store and journal, and it does so through
the single-node runner's own
:class:`~repro.campaign.commit.CampaignCommitter` (called with the
coordinator's lock held): workers report every docked ligand over the wire,
the row is cast and checked off the frame and committed before the lease is
considered to shrink, a shard is begun when it is first leased and ended when
its last ordinal lands — so the crash-safety story is the runner's: anything
committed is durable, anything else re-runs, and determinism (seed = campaign
seed + ordinal) makes the re-run bitwise identical. A failed ligand is
recorded first; with ``raise_on_failure`` the fleet then aborts with
:class:`~repro.errors.ClusterError`.

Scheduling is the paper's two-level discipline lifted one level up:

* **Static shares (Eq. 1)** — each node's warm-up probe time feeds
  :func:`repro.cluster.shares.node_shares`; the shard list is cut into
  contiguous per-node queues proportional to measured throughput.
* **Dynamic stealing** — a node that drains its queue asks to ``steal``;
  the coordinator moves a shard from the tail of the longest surviving
  queue, exactly as the in-node dynamic scheduler rebalances spots.

Failure model: a worker that misses ``heartbeat_timeout_s`` of messages —
or whose TCP stream closes (SIGKILL is detected instantly via EOF) — is
declared dead. Its outstanding leases are reclaimed, already-committed
ordinals are filtered out against the store, and the remainder re-queues on
the surviving nodes. Losing the *last* node raises
:class:`~repro.errors.ClusterError`; the store stays resumable.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro import observability as obs
from repro.campaign.commit import CampaignCommitter, CampaignProgress
from repro.campaign.library import Shard
from repro.errors import ClusterError, ConnectionClosed, ProtocolError
from repro.observability.flight import dump_flight, flight_event

from repro.cluster.config import MESSAGE_TIMEOUT_S, WARMUP_DEADLINE_S, ClusterConfig
from repro.cluster.protocol import PROTOCOL_VERSION, Channel
from repro.cluster.shares import node_shares, partition_shards

__all__ = ["Coordinator", "ShardTask", "ClusterProgress", "retag_snapshot"]


@dataclass(frozen=True, slots=True)
class ClusterProgress(CampaignProgress):
    """Campaign progress plus a per-node fleet table.

    ``nodes`` rows are JSON-safe dicts (``node``, ``state``, ``done``,
    ``failed``, ``queued``, ``outstanding``, ``weight``) — the health
    endpoint serves them verbatim as the ``/healthz`` node table.
    """

    nodes: tuple = ()


@dataclass(frozen=True, slots=True)
class ShardTask(Shard):
    """One shard of the campaign plan, ready to lease.

    ``items`` holds ``(ordinal, title, payload-or-None)`` triples: a
    ``None`` payload means the worker rebuilds the ligand locally from the
    shared library descriptor (the cheap path for synthetic / on-disk
    libraries); an inline payload ships the ligand itself (the only option
    for one-shot in-memory sources).
    """

    items: tuple = ()


@dataclass
class _Lease:
    """One shard granted to one node, tracked until every ordinal lands."""

    shard_id: int
    pending: set[int]
    stolen: bool = False


class _NodeState:
    """Coordinator-side view of one worker node."""

    __slots__ = (
        "node_id", "channel", "state", "last_seen", "probe_seconds",
        "weight", "queue", "outstanding", "done", "failed",
        "pending_telemetry",
    )

    def __init__(self, node_id: int, channel: Channel) -> None:
        self.node_id = node_id
        self.channel = channel
        self.state = "warming"  # warming -> active -> done | dead
        self.last_seen = time.monotonic()
        self.probe_seconds: float | None = None
        self.weight = 0.0
        self.queue: deque[int] = deque()
        self.outstanding: dict[int, _Lease] = {}
        self.done = 0
        self.failed = 0
        # Latest heartbeat-shipped telemetry snapshot: merged only if the
        # node dies (a clean bye supersedes it), so each node's telemetry
        # lands exactly once.
        self.pending_telemetry: dict | None = None

    @property
    def live(self) -> bool:
        return self.state in ("warming", "active")

    def backlog(self) -> int:
        return len(self.queue) + len(self.outstanding)


def retag_snapshot(snapshot: dict, node_id: int) -> dict:
    """Stamp ``node=<id>`` into every metric and span of a worker snapshot.

    Applied before merging a worker's ``bye`` telemetry so per-node series
    stay separable after the fold (and so the trace exporter can route the
    spans into per-node lanes). Existing tags win — a worker's own
    ``worker=k`` pool tags survive and compose into "node N worker K".
    """
    doc = dict(snapshot)
    for section in ("counters", "gauges", "histograms", "spans"):
        items = []
        for item in doc.get(section, []):
            tags = dict(item.get("tags", {}))
            tags.setdefault("node", node_id)
            items.append({**item, "tags": tags})
        doc[section] = items
    return doc


def _frame_row(message: dict) -> dict:
    """The committer's row, cast and checked off a ``result`` frame."""
    if not message.get("ok"):
        return {
            "ok": False,
            "error": str(message.get("error", "unknown")),
            "attempts": int(message.get("attempts", 1)),
        }
    return {
        "ok": True,
        "score": float(message["score"]),
        "spot_index": int(message["spot_index"]),
        "evaluations": int(message["evaluations"]),
        "wall_seconds": float(message["wall_seconds"]),
        "simulated_seconds": float(message["simulated_seconds"]),
        "attempts": int(message["attempts"]),
    }


class Coordinator:
    """Serve one campaign to a fleet of worker nodes (see module docstring).

    The caller (normally :class:`repro.cluster.fleet.ClusterCampaign`) owns
    the listening socket, the open store, and the shard plan; ``serve()``
    blocks until every shard is finished or the fleet is unrecoverable.
    """

    def __init__(
        self,
        listener: socket.socket,
        *,
        committer: CampaignCommitter,
        tasks: list[ShardTask],
        config_frame: dict,
        cluster: ClusterConfig,
        expected_nodes: int,
        raise_on_failure: bool = False,
        trace_id: str | None = None,
        flight_path=None,
    ) -> None:
        if expected_nodes < 1:
            raise ClusterError(f"expected_nodes must be >= 1, got {expected_nodes}")
        self._listener = listener
        self._committer = committer
        self._tasks = {task.shard_id: task for task in tasks}
        self._order = [task.shard_id for task in tasks]
        self._config_frame = config_frame
        self.cluster = cluster
        self.expected_nodes = expected_nodes
        self._raise_on_failure = raise_on_failure
        self.trace_id = trace_id
        self._flight_path = flight_path

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._nodes: dict[int, _NodeState] = {}
        self._next_id = 0
        self._finished: set[int] = set()
        self._orphans: deque[int] = deque()  # reclaimed, waiting for a node
        self._partitioned = False
        self._closing = False
        self._fatal: BaseException | None = None
        self.steals = 0
        self.node_deaths = 0
        self.stale_results = 0
        self.recovery_seconds = 0.0

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def serve(self) -> dict:
        """Run the campaign to completion; returns a fleet summary dict."""
        self._listener.settimeout(0.2)
        accept = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        accept.start()
        try:
            self._await_warmups()
            with self._lock:
                if not self._tasks:
                    pass  # resuming an effectively-finished campaign
                else:
                    self._partition()
            self._monitor()
        finally:
            self._shutdown_fleet()
            accept.join(timeout=2.0)
            if self._flight_path is not None:
                dump_flight(self._flight_path)
        if self._fatal is not None:
            raise self._fatal
        return self.summary()

    def summary(self) -> dict:
        with self._lock:
            return {
                "nodes": len(self._nodes),
                "shards": len(self._order),
                "steals": self.steals,
                "node_deaths": self.node_deaths,
                "stale_results": self.stale_results,
                "recovery_seconds": self.recovery_seconds,
            }

    def node_table(self) -> tuple:
        """JSON-safe per-node rows (the ``/healthz`` fleet table)."""
        with self._lock:
            return self._node_rows()

    def _node_rows(self) -> tuple:
        """Per-node status rows (lock held).

        ``last_heartbeat_age_s`` and ``lease_queue_depth`` make a *stalling*
        node visible on ``/healthz`` before the heartbeat timeout declares
        it dead: the age creeps toward the timeout while the depth stops
        draining.
        """
        now = time.monotonic()
        return tuple(
            {
                "node": node.node_id,
                "state": node.state,
                "done": node.done,
                "failed": node.failed,
                "queued": len(node.queue),
                "outstanding": len(node.outstanding),
                "lease_queue_depth": node.backlog(),
                "last_heartbeat_age_s": (
                    round(now - node.last_seen, 3) if node.live else None
                ),
                "weight": round(node.weight, 6),
            }
            for node in sorted(self._nodes.values(), key=lambda n: n.node_id)
        )

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    # ------------------------------------------------------------------
    # connection handling (one thread per node)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed underneath us: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = Channel(
                sock,
                timeout=MESSAGE_TIMEOUT_S,
                trace_id=self.trace_id,
            )
            threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name="cluster-node",
                daemon=True,
            ).start()

    def _serve_connection(self, channel: Channel) -> None:
        try:
            hello = channel.recv()
        except (ProtocolError, ConnectionClosed):
            channel.close()
            return
        if (
            hello is None
            or hello.get("kind") != "hello"
            or int(hello.get("protocol", -1)) != PROTOCOL_VERSION
        ):
            try:
                channel.send({"kind": "shutdown", "reason": "protocol mismatch"})
            except ProtocolError:
                pass
            channel.close()
            return
        with self._lock:
            node = _NodeState(self._next_id, channel)
            self._next_id += 1
            self._nodes[node.node_id] = node
        flight_event("node.connect", node=node.node_id, peer=channel.peer)
        try:
            channel.send(
                {**self._config_frame, "kind": "config", "node": node.node_id}
            )
            self._node_loop(node)
        except (ProtocolError, ConnectionClosed) as exc:
            with self._lock:
                self._node_lost(node, f"channel broke: {exc}")

    def _node_loop(self, node: _NodeState) -> None:
        """Receive loop for one node; returns after ``bye`` or shutdown."""
        while True:
            message = node.channel.recv(
                idle_timeout=self.cluster.heartbeat_interval_s
            )
            if message is None:
                with self._lock:
                    # A live node's bye is still expected even while the
                    # fleet is closing — keep reading until it lands (or
                    # _shutdown_fleet's deadline closes the channel under
                    # us). Bailing out early here would strand the bye and
                    # stall shutdown for the full message timeout.
                    if not node.live:
                        return
                continue  # silence is the monitor thread's problem
            kind = message["kind"]
            with self._lock:
                node.last_seen = time.monotonic()
                if kind == "warmup":
                    node.probe_seconds = float(message["seconds"])
                    node.state = "active"
                    self._cond.notify_all()
                elif kind == "result":
                    self._on_result(node, message)
                elif kind == "steal":
                    self._on_steal(node)
                elif kind == "heartbeat":
                    node.done = int(message.get("done", node.done))
                    node.failed = int(message.get("failed", node.failed))
                    telemetry = message.get("telemetry")
                    if isinstance(telemetry, dict):
                        node.pending_telemetry = telemetry
                        flight_event(
                            "node.heartbeat",
                            node=node.node_id,
                            done=node.done,
                            failed=node.failed,
                        )
                elif kind == "bye":
                    self._on_bye(node, message)
                    return
                else:
                    raise ProtocolError(
                        f"coordinator received unexpected {kind} from "
                        f"node {node.node_id}"
                    )

    # ------------------------------------------------------------------
    # warm-up barrier + Eq. 1 partition
    # ------------------------------------------------------------------
    def _await_warmups(self) -> None:
        deadline = time.monotonic() + WARMUP_DEADLINE_S
        with self._cond:
            while True:
                active = [n for n in self._nodes.values() if n.state == "active"]
                dead = sum(1 for n in self._nodes.values() if n.state == "dead")
                if len(active) >= self.expected_nodes:
                    return
                if active and len(active) + dead >= self.expected_nodes:
                    # Some nodes died before warming up; the rest of the
                    # fleet is as big as it is going to get.
                    obs.counter("cluster.warmup.partial").inc()
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if active:
                        obs.counter("cluster.warmup.partial").inc()
                        return  # partition over whoever made it
                    raise ClusterError(
                        f"no worker node completed warm-up within "
                        f"{WARMUP_DEADLINE_S}s "
                        f"(expected {self.expected_nodes})"
                    )
                self._cond.wait(min(remaining, 0.5))

    def _partition(self) -> None:
        """Eq. 1 shares -> contiguous per-node shard queues -> first leases."""
        active = [n for n in self._nodes.values() if n.state == "active"]
        probes = {
            n.node_id: (n.probe_seconds if n.probe_seconds else 1.0) for n in active
        }
        weights = node_shares(probes)
        queues = partition_shards(self._order, weights)
        for node in active:
            node.weight = weights[node.node_id]
            node.queue = queues[node.node_id]
        self._partitioned = True
        for node in active:
            self._grant(node)

    # ------------------------------------------------------------------
    # leasing + stealing (lock held in all methods below)
    # ------------------------------------------------------------------
    def _grant(self, node: _NodeState) -> bool:
        """Top node up to ``lease_window`` outstanding leases.

        Sources, in order: reclaimed orphan shards, the node's own queue,
        then (only when the node would otherwise idle) a steal from the
        tail of the longest surviving queue. Returns True if anything was
        granted.
        """
        granted = False
        while node.live and len(node.outstanding) < self.cluster.lease_window:
            stolen = False
            if self._orphans:
                shard_id = self._orphans.popleft()
            elif node.queue:
                shard_id = node.queue.popleft()
            elif not node.outstanding:
                victim = self._steal_victim(node)
                if victim is None:
                    break
                shard_id = victim.queue.pop()  # tail: last-scheduled work
                stolen = True
                self.steals += 1
                obs.counter("cluster.steals").inc()
                flight_event(
                    "steal",
                    thief=node.node_id,
                    victim=victim.node_id,
                    shard=shard_id,
                )
            else:
                break
            if self._grant_shard(node, shard_id, stolen):
                granted = True
        return granted

    def _steal_victim(self, thief: _NodeState) -> _NodeState | None:
        candidates = [
            n
            for n in self._nodes.values()
            if n.live and n is not thief and n.queue
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: (len(n.queue), -n.node_id))

    def _grant_shard(
        self, node: _NodeState, shard_id: int, stolen: bool
    ) -> bool:
        """Lease one shard to a node; returns False if it was already done."""
        task = self._tasks[shard_id]
        already = self._committer.begin_shard(
            task, [(o, t) for o, t, _ in task.items], node=node.node_id
        )
        pending = [item for item in task.items if item[0] not in already]
        if not pending:
            # Every ordinal is already committed (resume, or a dead node
            # that reported everything before its lease was reclaimed).
            self._finish_shard(shard_id, node)
            return False
        lease = _Lease(
            shard_id=shard_id,
            pending={item[0] for item in pending},
            stolen=stolen,
        )
        node.outstanding[shard_id] = lease
        try:
            node.channel.send(
                {
                    "kind": "lease",
                    "shard_id": shard_id,
                    "start": task.start,
                    "stop": task.stop,
                    "stolen": stolen,
                    "items": [list(item) for item in pending],
                }
            )
        except (ProtocolError, ConnectionClosed) as exc:
            # The grantee's channel is already broken: reclaim immediately
            # (the lease was just registered, so _node_lost re-queues it).
            self._node_lost(node, f"lease send failed: {exc}")
            return False
        obs.counter("cluster.leases").inc()
        flight_event(
            "lease.grant",
            shard=shard_id,
            node=node.node_id,
            stolen=stolen,
            pending=len(pending),
        )
        return True

    def _on_steal(self, node: _NodeState) -> None:
        if not self._partitioned:
            # Pre-partition idling (a fast warm-up racing slower peers):
            # nothing is schedulable yet, tell the node to keep waiting.
            node.channel.send({"kind": "drain"})
            return
        if not self._grant(node):
            node.channel.send({"kind": "drain"})

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _on_result(self, node: _NodeState, message: dict) -> None:
        shard_id = int(message["shard_id"])
        ordinal = int(message["ordinal"])
        title = str(message["title"])
        sent_s = message.get("sent_s")
        # Worker and coordinator perf_counter share CLOCK_MONOTONIC on one
        # host, so wire time is directly computable; across hosts it is
        # best-effort and clamped at zero.
        wire_s = (
            max(0.0, time.perf_counter() - float(sent_s))
            if sent_s is not None
            else None
        )
        # A result whose lease was reclaimed (this node was presumed dead) is
        # stale. The replacement node computes the bitwise-identical row, so
        # one for a finished shard is dropped (its rows are sealed for good)
        # and one for a still-open shard is kept, saving a re-dock.
        lease = node.outstanding.get(shard_id)
        if lease is None:
            self.stale_results += 1
            flight_event("result.stale", node=node.node_id, ordinal=ordinal)
            if shard_id in self._finished:
                return
        with obs.span(
            "cluster.ligand.commit",
            ordinal=ordinal,
            shard=shard_id,
            src_node=node.node_id,
        ) as commit_tags:
            if wire_s is not None:
                commit_tags["wire_s"] = round(wire_s, 6)
            row = _frame_row(message)
            self._committer.commit(ordinal, title, row)
            if row["ok"]:
                node.done += 1
            else:
                node.failed += 1
                if self._raise_on_failure and self._fatal is None:
                    self._fatal = ClusterError(
                        f"ligand {title!r} (ordinal {ordinal}) failed on node "
                        f"{node.node_id}: {row['error']}"
                    )
                    self._cond.notify_all()
        if wire_s is not None:
            obs.histogram("cluster.wire.seconds").observe(wire_s)
        if lease is None:
            return
        lease.pending.discard(ordinal)
        if not lease.pending:
            del node.outstanding[shard_id]
            self._finish_shard(shard_id, node)
            self._grant(node)
            if len(self._finished) == len(self._tasks):
                self._cond.notify_all()

    def _finish_shard(self, shard_id: int, node: _NodeState) -> None:
        if shard_id in self._finished:
            return
        self._finished.add(shard_id)
        self._committer.end_shard(self._tasks[shard_id], node=node.node_id)

    # ------------------------------------------------------------------
    # death + recovery
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        """Main-thread loop: heartbeat deadlines, completion, fatal errors."""
        with self._cond:
            while True:
                if self._fatal is not None:
                    return
                if len(self._finished) == len(self._tasks):
                    return
                now = time.monotonic()
                for node in list(self._nodes.values()):
                    if (
                        node.live
                        and now - node.last_seen > self.cluster.heartbeat_timeout_s
                    ):
                        self._node_lost(
                            node,
                            f"no message for {now - node.last_seen:.1f}s "
                            f"(timeout {self.cluster.heartbeat_timeout_s}s)",
                        )
                self._cond.wait(self.cluster.heartbeat_interval_s / 2)

    def _node_lost(self, node: _NodeState, reason: str) -> None:
        """Declare a node dead and reassign everything it held (lock held)."""
        if not node.live:
            return
        t0 = time.monotonic()
        node.state = "dead"
        self.node_deaths += 1
        node.channel.close()
        orphan_leases = list(node.outstanding.values())
        node.outstanding.clear()
        requeue = list(node.queue)
        node.queue.clear()
        survivors = [
            n for n in self._nodes.values() if n.live and n.state == "active"
        ]
        reclaimed: list[int] = []
        for lease in orphan_leases:
            task = self._tasks[lease.shard_id]
            done = self._committer.store.done_ordinals(task.start, task.stop)
            if len(done) >= task.size:
                self._finish_shard(lease.shard_id, node)
            else:
                reclaimed.append(lease.shard_id)
        # Reclaimed (partially-done) shards jump the line; the untouched
        # queue remainder spreads over the shortest surviving backlogs.
        if survivors:
            for shard_id in reclaimed:
                target = min(survivors, key=_NodeState.backlog)
                target.queue.appendleft(shard_id)
            for shard_id in requeue:
                target = min(survivors, key=_NodeState.backlog)
                target.queue.append(shard_id)
            for n in survivors:
                self._grant(n)
        else:
            self._orphans.extend(reclaimed)
            self._orphans.extend(requeue)
            if len(self._finished) < len(self._tasks) and not any(
                n.live for n in self._nodes.values()
            ):
                self._fatal = ClusterError(
                    f"node {node.node_id} died ({reason}) and no nodes "
                    "survive; the campaign store remains resumable"
                )
        self.recovery_seconds = time.monotonic() - t0
        # The bye will never come: fold in whatever telemetry the node
        # shipped in its last heartbeat so its trace lanes survive the kill.
        if node.pending_telemetry is not None:
            obs.merge(retag_snapshot(node.pending_telemetry, node.node_id))
            node.pending_telemetry = None
        flight_event(
            "node.dead",
            node=node.node_id,
            reason=reason,
            reclaimed=reclaimed,
            requeued=len(requeue),
        )
        if self._flight_path is not None:
            # Best-effort black-box dump the moment a death is detected,
            # so the forensic record survives even if *we* die next.
            dump_flight(self._flight_path)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _on_bye(self, node: _NodeState, message: dict) -> None:
        node.state = "done"
        node.done = int(message.get("done", node.done))
        node.failed = int(message.get("failed", node.failed))
        # A clean bye carries the node's final telemetry; drop the
        # heartbeat-shipped snapshot so nothing merges twice.
        node.pending_telemetry = None
        telemetry = message.get("telemetry")
        if isinstance(telemetry, dict):
            obs.merge(retag_snapshot(telemetry, node.node_id))
        flight_event("node.bye", node=node.node_id, done=node.done)
        node.channel.close()
        self._cond.notify_all()

    def _shutdown_fleet(self) -> None:
        with self._lock:
            self._closing = True
            live = [n for n in self._nodes.values() if n.live]
            for node in live:
                try:
                    node.channel.send({"kind": "shutdown"})
                except (ProtocolError, ConnectionClosed):
                    node.state = "dead"
        # Wait (bounded) for handler threads to collect the byes — they
        # carry each node's telemetry snapshot.
        deadline = time.monotonic() + MESSAGE_TIMEOUT_S
        with self._cond:
            while any(n.live for n in self._nodes.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.2))
            for node in self._nodes.values():
                node.channel.close()
        try:
            self._listener.close()
        except OSError:
            pass
