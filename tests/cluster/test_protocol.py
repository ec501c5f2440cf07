"""Wire protocol: framing, timeouts, death detection, payload round-trips."""

import socket
import struct

import numpy as np
import pytest

from repro.cluster import (
    MAX_MESSAGE_BYTES,
    Channel,
    connect,
    ligand_from_payload,
    ligand_to_payload,
    receptor_from_payload,
    molecule_to_payload,
    recv_message,
    send_message,
)
from repro.errors import ClusterError, ConnectionClosed, ProtocolError
from repro.molecules.synthetic import generate_ligand, generate_receptor


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_message_round_trip(pair):
    a, b = pair
    message = {
        "kind": "result",
        "node": 3,
        "ordinal": 17,
        "score": -12.625,
        "ok": True,
    }
    send_message(a, message, timeout=5.0)
    assert recv_message(b, timeout=5.0) == message


def test_idle_timeout_returns_none_at_frame_boundary(pair):
    _, b = pair
    assert recv_message(b, timeout=5.0, idle_timeout=0.05) is None


def test_eof_at_boundary_is_connection_closed(pair):
    a, b = pair
    a.close()
    with pytest.raises(ConnectionClosed):
        recv_message(b, timeout=1.0)


def test_mid_frame_stall_is_protocol_error(pair):
    a, b = pair
    a.sendall(b"\x00\x00")  # half a header, then silence
    with pytest.raises(ProtocolError, match="timed out"):
        recv_message(b, timeout=0.2)


def test_mid_frame_eof_is_unrecoverable(pair):
    a, b = pair
    a.sendall(struct.pack(">I", 100) + b'{"kind"')  # frame starts, peer dies
    a.close()
    with pytest.raises((ProtocolError, ConnectionClosed)):
        recv_message(b, timeout=1.0)


def test_oversized_frame_rejected_without_reading_it(pair):
    a, b = pair
    a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
    with pytest.raises(ProtocolError, match="exceeds"):
        recv_message(b, timeout=1.0)


def test_unknown_kind_rejected_on_both_sides(pair):
    a, b = pair
    with pytest.raises(ProtocolError, match="unknown kind"):
        send_message(a, {"kind": "gossip"}, timeout=1.0)
    payload = b'{"kind": "gossip"}'
    a.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="not a known message"):
        recv_message(b, timeout=1.0)


def test_undecodable_frame_is_protocol_error(pair):
    a, b = pair
    payload = b"\xff\xfe not json"
    a.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="undecodable"):
        recv_message(b, timeout=1.0)


def test_channel_send_recv_and_close(pair):
    a, b = pair
    ch_a, ch_b = Channel(a, timeout=5.0), Channel(b, timeout=5.0)
    ch_a.send({"kind": "heartbeat", "node": 0})
    assert ch_b.recv()["kind"] == "heartbeat"
    ch_a.close()
    with pytest.raises(ConnectionClosed):
        ch_a.send({"kind": "heartbeat", "node": 0})
    with pytest.raises(ConnectionClosed):  # peer sees the shutdown instantly
        ch_b.recv()


def test_hello_from_another_protocol_version_is_turned_away(pair):
    """A v3 worker reads ``config.campaign`` / ``config.execution``, which
    ``config.settings`` replaced, so the coordinator answers its hello with
    shutdown and never registers it."""
    from repro.cluster import PROTOCOL_VERSION, ClusterConfig
    from repro.cluster.coordinator import Coordinator

    coordinator = Coordinator(
        None,
        committer=None,
        tasks=[],
        config_frame={},
        cluster=ClusterConfig(),
        expected_nodes=1,
    )
    a, b = pair
    worker = Channel(b, timeout=5.0)
    assert PROTOCOL_VERSION == 4
    worker.send({"kind": "hello", "protocol": 3, "pid": 1})
    coordinator._serve_connection(Channel(a, timeout=5.0))
    reply = worker.recv()
    assert (reply["kind"], reply["reason"]) == ("shutdown", "protocol mismatch")
    with pytest.raises(ConnectionClosed):
        worker.recv()
    assert coordinator.summary()["nodes"] == 0 and coordinator.node_table() == ()


def test_connect_failure_names_the_address():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))  # bound but never listening -> refused
    port = listener.getsockname()[1]
    listener.close()
    with pytest.raises(ClusterError, match=f"127.0.0.1:{port}"):
        connect("127.0.0.1", port, attempts=2, backoff_s=0.01)


def test_ligand_payload_round_trip_is_bitwise():
    ligand = generate_ligand(23, seed=91, title="LIG(91) αβ")
    back = ligand_from_payload(ligand_to_payload(ligand))
    assert back.title == ligand.title
    assert list(back.elements) == list(ligand.elements)
    assert np.array_equal(back.coords, ligand.coords)  # exact, not approx
    assert np.array_equal(back.charges, ligand.charges)


def test_receptor_payload_round_trip_is_bitwise():
    receptor = generate_receptor(60, seed=3, title="R")
    back = receptor_from_payload(molecule_to_payload(receptor))
    assert np.array_equal(back.coords, receptor.coords)
    assert np.array_equal(back.charges, receptor.charges)


def test_malformed_molecule_payload_is_protocol_error():
    with pytest.raises(ProtocolError, match="malformed molecule payload"):
        ligand_from_payload({"coords": [[0.0, 0.0, 0.0]]})  # missing keys
