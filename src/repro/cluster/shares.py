"""Eq. 1 generalised from devices-in-a-node to nodes-in-a-fleet.

The paper's warm-up (§3.3) measures each GPU on a few real iterations and
assigns conformation shares proportional to ``1 / Percent`` where
``Percent = t_device / t_slowest`` (Eq. 1). The cluster coordinator applies
the identical rule one level up: each worker node docks one probe ligand at
campaign settings during its hello/warm-up handshake, reports the measured
seconds, and receives a share of the campaign's *shards* proportional to its
measured throughput. Work-stealing then corrects any drift at run time,
exactly as the host runtime's dynamic mode corrects Eq. 1 inside a node.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

import numpy as np

from repro.engine.partition import eq1_weights, proportional_partition
from repro.errors import ClusterError

__all__ = ["node_shares", "partition_shards"]


def node_shares(probe_seconds: Mapping[int, float]) -> dict[int, float]:
    """Eq. 1 throughput weights from per-node warm-up probe times.

    :func:`repro.engine.partition.eq1_weights` keyed by node id: weights
    proportional to ``1 / Percent_i`` that sum to 1, a misfired probe taking
    the slowest measured time.
    """
    if not probe_seconds:
        raise ClusterError("node_shares needs at least one probe measurement")
    nodes = sorted(probe_seconds)
    _, weights = eq1_weights([float(probe_seconds[n]) for n in nodes])
    return {node: float(w) for node, w in zip(nodes, weights)}


def partition_shards(
    shard_ids: Sequence[int], weights: Mapping[int, float]
) -> dict[int, deque[int]]:
    """Split an ordered shard list into contiguous per-node queues.

    Largest-remainder apportionment over the Eq. 1 weights (via
    :func:`repro.engine.partition.proportional_partition`, the same
    partitioner the in-node scheduler uses), cut into *contiguous* runs so
    early ordinals finish early regardless of which node owns them — the
    property that keeps ``campaign top`` meaningful mid-run. Conservation
    is exact: every shard lands in exactly one queue.
    """
    nodes = sorted(weights)
    if not nodes:
        raise ClusterError("partition_shards needs at least one node")
    w = np.array([max(0.0, float(weights[n])) for n in nodes], dtype=np.float64)
    if w.sum() <= 0:
        w = np.ones(len(nodes))
    counts = proportional_partition(len(shard_ids), w)
    queues: dict[int, deque[int]] = {}
    cursor = 0
    for node, count in zip(nodes, counts):
        queues[node] = deque(shard_ids[cursor : cursor + int(count)])
        cursor += int(count)
    return queues
