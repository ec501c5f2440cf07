"""Local campaign fleet: spawn N worker-node processes and coordinate them.

:class:`ClusterCampaign` is the bridge between :class:`~repro.campaign.runner.
CampaignRunner` (which owns the science config, store lifecycle, and which
shards a resume re-queues) and the cluster subsystem (which owns
distribution). The runner delegates its ``_execute`` phase here when
``nodes >= 2``; everything before (config hashing, the store's finished
shards, completed-campaign no-ops) and the result contract after (an open
store, bitwise identical to a single-node run) are unchanged.

Execution shape, in order:

1. **Plan** — stream the library once, cutting it into the same shards the
   single-node runner would execute, with the same collision-free titles.
   Descriptor-backed libraries (synthetic, pdb-dir, smiles, csv) lease
   ordinals only and workers regenerate ligands locally, so a synthetic,
   SMILES or CSV library is planned from its titles without building a
   ligand; one-shot in-memory sources ship each ligand inline in its lease.
2. **Listen, then fork** — the coordinator socket binds first (workers never
   race it), worker processes fork *before* any coordinator thread starts
   (fork + threads don't mix), and each worker resets its inherited
   telemetry and dials back in.
3. **Serve** — the :class:`~repro.cluster.coordinator.Coordinator` runs the
   warm-up barrier, Eq. 1 partition, leasing/stealing, and death recovery.
4. **Finalise** — on full completion, ``mark_complete``, exactly as the
   single-node path; on fatal fleet errors the store is
   closed and the error propagates (the store remains resumable).

``spawn=False`` runs the coordinator without local workers: ``repro-vs
cluster coordinator`` uses it to serve remote ``repro-vs cluster worker``
processes over real sockets.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import socket
import sys
import uuid
from typing import TYPE_CHECKING

from repro import observability as obs
from repro.campaign.commit import CampaignCommitter
from repro.campaign.library import plan_shards
from repro.errors import ClusterError
from repro.observability.flight import flight_dir as _flight_dir
from repro.observability.flight import flight_event, flight_recorder

from repro.cluster.config import MESSAGE_TIMEOUT_S, ClusterConfig
from repro.cluster.coordinator import ClusterProgress, Coordinator, ShardTask
from repro.cluster.protocol import ligand_to_payload, molecule_to_payload

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore

__all__ = ["ClusterCampaign"]

#: Library kinds whose descriptors rebuild bitwise on a worker — their
#: leases carry ordinals only, never ligand payloads.
_DESCRIPTOR_KINDS = frozenset({"synthetic", "pdb-dir", "smiles", "csv"})


def _worker_main(host: str, port: int) -> None:
    """Child-process entry point (top-level so spawn contexts can pickle it)."""
    from repro.cluster.worker import run_worker

    sys.exit(run_worker(host, port))


def _mp_context():
    """Prefer fork: workers inherit loaded modules instead of re-importing
    the scientific stack per process (seconds each on small CI hosts)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class ClusterCampaign:
    """One distributed execution of a campaign (see module docstring).

    Tests and benchmarks reach the moving parts through ``processes`` (the
    local worker ``multiprocessing.Process`` handles — SIGKILL one to
    exercise recovery) and ``coordinator`` (live fleet state); ``summary``
    holds the serve() outcome (steals, node deaths, recovery seconds) after
    completion.
    """

    def __init__(
        self,
        runner,
        *,
        nodes: int,
        cluster: ClusterConfig | None = None,
        spawn: bool = True,
    ) -> None:
        if nodes < 1:
            raise ClusterError(f"a fleet needs nodes >= 1, got {nodes}")
        self.runner = runner
        self.nodes = int(nodes)
        self.cluster = cluster if cluster is not None else ClusterConfig()
        self.spawn = bool(spawn)
        # Fail fast on anything that cannot be rebuilt on a worker.
        self._settings_wire = runner.settings.to_wire()
        self.processes: list = []
        self.coordinator: Coordinator | None = None
        self.summary: dict | None = None
        # Campaign-scoped trace id: stamped on every protocol frame in both
        # directions and tagged onto worker spans, so one wire capture or
        # merged timeline is attributable to exactly one fleet execution.
        self.trace_id = uuid.uuid4().hex[:16]
        store_path = str(getattr(runner, "store_path", ":memory:"))
        self.flight_dir = (
            None if store_path == ":memory:" else _flight_dir(store_path)
        )

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------
    def _plan(self, finished: set[int]) -> tuple[list[ShardTask], int]:
        """Stream the library into leasable shard tasks (single pass).

        A descriptor-kind library is planned from titles only, because its
        nodes build the ligands: a SMILES or CSV file builds none here.
        """
        runner = self.runner
        ship = runner.config["library"].get("kind") not in _DESCRIPTOR_KINDS
        tasks: list[ShardTask] = []
        n_streamed = 0
        plan = plan_shards(runner.source, runner.shard_size, finished, titles_only=not ship)
        for shard, titled in plan:
            n_streamed = shard.stop
            if titled is not None:
                items = tuple(
                    (ordinal, title, ligand_to_payload(ligand) if ship else None)
                    for ordinal, ligand, title in titled
                )
                tasks.append(ShardTask(shard.shard_id, shard.start, shard.stop, items))
        return tasks, n_streamed

    def _config_frame(self) -> dict:
        """Everything a worker needs to rebuild the campaign locally."""
        runner = self.runner
        library = runner.config["library"]
        return {
            "settings": self._settings_wire,
            "cluster": self.cluster.to_wire(),
            "receptor": molecule_to_payload(runner.receptor),
            "library": library if library.get("kind") in _DESCRIPTOR_KINDS else None,
            "trace": self.trace_id,
            "flight_dir": (
                None if self.flight_dir is None else str(self.flight_dir)
            ),
        }

    def _progress_with_nodes(self):
        """The runner's progress callback, fed :class:`ClusterProgress`."""
        progress = self.runner._progress
        if progress is None:
            return None
        return lambda snapshot: progress(
            ClusterProgress(
                **dataclasses.asdict(snapshot), nodes=self.coordinator.node_table()
            )
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, store: CampaignStore, finished: set[int]) -> CampaignStore:
        """Run the planned fleet to completion against an open store."""
        runner = self.runner
        # This process is the fleet's coordinator from here on; each node
        # attaches its own file in run_worker (a forked one drops this one).
        flight_recorder().attach(
            None if self.flight_dir is None else self.flight_dir / "coordinator.flight"
        )
        try:
            with obs.span("cluster.fleet", nodes=self.nodes, trace=self.trace_id):
                tasks, n_streamed = self._plan(finished)
                committer = CampaignCommitter(
                    store,
                    total=runner.source.count(),
                    progress=self._progress_with_nodes(),
                )
                flight_event(
                    "fleet.start",
                    nodes=self.nodes,
                    shards=len(tasks),
                    trace=self.trace_id,
                )
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    listener.bind((self.cluster.host, self.cluster.port))
                except OSError as exc:
                    listener.close()
                    raise ClusterError(
                        f"cannot bind cluster coordinator to "
                        f"{self.cluster.host}:{self.cluster.port}: {exc}"
                    ) from exc
                listener.listen(self.nodes + 2)
                port = listener.getsockname()[1]
                try:
                    if self.spawn:
                        # Fork strictly before the coordinator spins up its
                        # accept/handler threads: forking a multithreaded
                        # process is where deadlocks live.
                        ctx = _mp_context()
                        self.processes = [
                            ctx.Process(
                                target=_worker_main,
                                args=(self.cluster.host, port),
                                name=f"cluster-node-{i}",
                                daemon=True,
                            )
                            for i in range(self.nodes)
                        ]
                        for process in self.processes:
                            process.start()
                    self.coordinator = Coordinator(
                        listener,
                        committer=committer,
                        tasks=tasks,
                        config_frame=self._config_frame(),
                        cluster=self.cluster,
                        expected_nodes=self.nodes,
                        raise_on_failure=runner.raise_on_failure,
                        trace_id=self.trace_id,
                    )
                    self.summary = self.coordinator.serve()
                finally:
                    self._reap_workers()
                committer.end_campaign(n_streamed)
        except BaseException:
            store.close()
            raise
        finally:
            flight_recorder().attach(None)
        return store

    def _reap_workers(self) -> None:
        """Join worker processes; anything still alive gets terminated."""
        for process in self.processes:
            process.join(timeout=MESSAGE_TIMEOUT_S)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=2.0)
