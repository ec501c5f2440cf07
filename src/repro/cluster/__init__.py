"""Distributed campaign fleet: one campaign across N worker-node processes.

The paper's future-work direction — "extending the proposal to several
nodes" — realised over the campaign runtime: a :class:`Coordinator` shards
the ligand stream with Eq. 1 warm-up-measured per-node throughput shares
plus dynamic inter-node work-stealing, and each :mod:`worker
<repro.cluster.worker>` process owns a full single-node execution stack
(persistent host runtime included), reporting every docked ligand over a
length-prefixed stdlib-socket protocol. Node death is detected by heartbeat
silence or instant EOF; leases are reclaimed and re-run — determinism
(``seed + ordinal``) makes every re-run, shard assignment, and node count
produce a bitwise-identical store.

Entry points: ``CampaignRunner(..., nodes=N)`` / ``screen(..., nodes=N)``
for the Python API, ``repro-vs campaign run --nodes N`` for the CLI, and
``repro-vs cluster coordinator|worker`` for multi-machine layouts.
"""

from repro.cluster.config import ClusterConfig, build_scoring, scoring_descriptor
from repro.cluster.coordinator import (
    ClusterProgress,
    Coordinator,
    ShardTask,
    retag_snapshot,
)
from repro.cluster.fleet import ClusterCampaign
from repro.cluster.protocol import (
    MAX_MESSAGE_BYTES,
    MESSAGE_KINDS,
    PROTOCOL_VERSION,
    Channel,
    connect,
    ligand_from_payload,
    ligand_to_payload,
    molecule_to_payload,
    receptor_from_payload,
    recv_message,
    send_message,
)
from repro.cluster.shares import node_shares, partition_shards
from repro.cluster.worker import WorkerNode, run_worker

__all__ = [
    "ClusterConfig",
    "ClusterCampaign",
    "ClusterProgress",
    "Coordinator",
    "ShardTask",
    "WorkerNode",
    "Channel",
    "MESSAGE_KINDS",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "build_scoring",
    "connect",
    "ligand_from_payload",
    "ligand_to_payload",
    "molecule_to_payload",
    "node_shares",
    "partition_shards",
    "receptor_from_payload",
    "recv_message",
    "retag_snapshot",
    "run_worker",
    "scoring_descriptor",
    "send_message",
]
