"""Eq. 1 node shares and the contiguous shard partition built from them."""

import math

import pytest

from repro.cluster import node_shares, partition_shards
from repro.errors import ClusterError


def test_equal_probes_give_equal_weights():
    shares = node_shares({0: 0.5, 1: 0.5, 2: 0.5})
    assert shares == pytest.approx({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})


def test_twice_as_slow_gets_half_the_weight():
    # Eq. 1: Percent_i = t_i / t_slowest, share ∝ 1 / Percent_i.
    shares = node_shares({0: 1.0, 1: 2.0})
    assert shares[0] == pytest.approx(2 * shares[1])
    assert sum(shares.values()) == pytest.approx(1.0)


def test_bad_probe_falls_back_to_slowest_measured():
    shares = node_shares({0: float("nan"), 1: 2.0})
    assert shares == pytest.approx({0: 0.5, 1: 0.5})
    shares = node_shares({0: -1.0, 1: 1.0, 2: 2.0})
    assert shares[0] == pytest.approx(shares[2])  # misfired node = slowest
    assert shares[1] == pytest.approx(2 * shares[2])


def test_all_bad_probes_give_equal_shares():
    shares = node_shares({0: math.inf, 1: 0.0})
    assert shares == pytest.approx({0: 0.5, 1: 0.5})


def test_node_shares_are_eq1_weights_bitwise():
    from repro.engine.partition import eq1_weights

    probes = {3: 0.7, 0: 1.9, 1: math.nan, 2: 0.31}
    _, weights = eq1_weights([probes[n] for n in sorted(probes)])
    assert list(node_shares(probes).values()) == list(weights)


def test_no_probes_is_an_error():
    with pytest.raises(ClusterError, match="at least one probe"):
        node_shares({})


def test_partition_is_contiguous_and_conserving():
    shard_ids = list(range(9))
    queues = partition_shards(shard_ids, {0: 2.0, 1: 1.0})
    assert sorted(list(queues[0]) + list(queues[1])) == shard_ids
    assert list(queues[0]) == shard_ids[: len(queues[0])]  # contiguous runs
    assert list(queues[1]) == shard_ids[len(queues[0]) :]
    assert len(queues[0]) == 6 and len(queues[1]) == 3


def test_partition_with_degenerate_weights_splits_evenly():
    queues = partition_shards(list(range(4)), {0: 0.0, 1: 0.0})
    assert len(queues[0]) == 2 and len(queues[1]) == 2


def test_partition_without_nodes_is_an_error():
    with pytest.raises(ClusterError, match="at least one node"):
        partition_shards([0, 1], {})
