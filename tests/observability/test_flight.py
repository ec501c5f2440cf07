"""Flight recorder coverage: write-through files, rotation, CRC framing,
torn-tail recovery, and a record that survives SIGKILL."""

import os
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

from repro import observability as obs
from repro.errors import ObservabilityError
from repro.observability.flight import (
    FLIGHT_SCHEMA_VERSION,
    _FRAME,
    _K_EVENT,
    FlightRecorder,
    _pack_frame,
    flight_dir,
    flight_event,
    flight_recorder,
    read_flight,
    read_flight_dir,
)


class FakeClock:
    def __init__(self, start=0.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


@pytest.fixture(autouse=True)
def detached_global_recorder():
    flight_recorder().attach(None)
    yield
    flight_recorder().attach(None)


def write_record(path, events, **kwargs):
    """Attach a recorder to ``path``, record ``[(kind, fields), ...]``, detach."""
    rec = FlightRecorder(clock=FakeClock(), wall_clock=FakeClock(1000.0), **kwargs)
    rec.attach(path)
    for kind, fields in events:
        rec.record(kind, **fields)
    rec.attach(None)
    return path


def ticks(n):
    return [("tick", {"i": i}) for i in range(n)]


# ----------------------------------------------------------------------
# the write path
# ----------------------------------------------------------------------
def test_every_event_is_on_disk_once_recorded(tmp_path):
    rec = FlightRecorder()
    path = tmp_path / "runner.flight"
    rec.attach(path)
    for i in range(3):
        rec.record("tick", i=i)
        # No close, no flush: the file already holds the event.
        assert [e["i"] for e in read_flight(path)["events"]] == list(range(i + 1))
    rec.attach(None)


def test_record_preserves_fields_and_clocks(tmp_path):
    path = write_record(
        tmp_path / "coordinator.flight", [("steal", {"thief": 1, "victim": 0, "shard": 7})]
    )
    (event,) = read_flight(path)["events"]
    assert event["kind"] == "steal"
    assert (event["thief"], event["victim"], event["shard"]) == (1, 0, 7)
    assert event["t"] > 0 and event["wall"] > 1000.0


def test_max_events_must_be_positive():
    with pytest.raises(ObservabilityError, match="max_events"):
        FlightRecorder(max_events=0)


def test_detach_stops_recording_and_attach_names_the_role(tmp_path):
    rec = FlightRecorder()
    assert rec.role is None
    rec.record("nowhere")  # detached: a no-op
    path = tmp_path / "worker-node3.flight"
    rec.attach(path)
    assert rec.role == "worker-node3"
    rec.record("x")
    rec.attach(None)
    rec.record("after.detach")
    assert rec.role is None
    doc = read_flight(path)
    assert doc["header"]["role"] == "worker-node3"
    assert [e["kind"] for e in doc["events"]] == ["x"]


def test_flight_event_is_gated_on_telemetry_switch(tmp_path):
    flight_event("unattached")
    path = tmp_path / "runner.flight"
    flight_recorder().attach(path)
    with obs.disabled():
        flight_event("invisible")
    flight_event("visible", n=1)
    flight_recorder().attach(None)
    assert [e["kind"] for e in read_flight(path)["events"]] == ["visible"]


def test_dump_read_round_trip(tmp_path):
    path = tmp_path / "coordinator.flight"
    write_record(path, [("lease.grant", {"shard": i, "node": i % 2}) for i in range(12)])
    doc = read_flight(path)
    assert doc["torn"] is False
    assert doc["clean_bytes"] == path.stat().st_size
    header = doc["header"]
    assert header["schema_version"] == FLIGHT_SCHEMA_VERSION
    assert header["role"] == "coordinator"
    assert header["pid"] == os.getpid()
    assert [e["shard"] for e in doc["events"]] == list(range(12))
    assert [e["seq"] for e in doc["events"]] == list(range(1, 13))


def test_dump_creates_parent_directory(tmp_path):
    path = write_record(
        tmp_path / "store.flight.d" / "runner.flight", [("shard.finish", {"shard": 0})]
    )
    assert read_flight(path)["events"][0]["shard"] == 0


def test_attach_never_raises(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    rec = FlightRecorder()
    rec.attach(blocker / "sub" / "x.flight")
    assert rec.role is None
    rec.record("dropped")  # detached: nothing to write, nothing raised


def test_max_events_rotates_and_keeps_newest(tmp_path):
    directory = tmp_path / "store.flight.d"
    write_record(directory / "runner.flight", ticks(10), max_events=4)
    assert sorted(p.name for p in directory.iterdir()) == [
        "runner.flight", "runner.old.flight",
    ]
    records = read_flight_dir(directory)
    assert len(records) == 2 and all(not r["torn"] for r in records)
    assert [r["header"]["role"] for r in records] == ["runner", "runner"]
    kept = [e["i"] for r in records for e in r["events"]]
    # Oldest first, newest last, and never more than two files' worth.
    assert kept == list(range(10 - len(kept), 10))
    assert 4 <= len(kept) <= 8


def test_a_second_attach_appends_after_a_torn_tail(tmp_path):
    path = write_record(tmp_path / "runner.flight", ticks(3))
    clean = path.stat().st_size
    with open(path, "ab") as handle:  # a write cut short by a kill
        handle.write(_pack_frame(_K_EVENT, b'{"kind":"torn"}')[:-4])
    assert read_flight(path)["torn"]
    rec = FlightRecorder()
    rec.attach(path)  # a resume
    assert path.stat().st_size > clean
    rec.record("resumed")
    rec.attach(None)
    doc = read_flight(path)  # raises on corruption before EOF
    assert not doc["torn"]
    assert [e["kind"] for e in doc["events"]] == ["tick"] * 3 + ["resumed"]


def test_attach_moves_a_corrupt_record_aside(tmp_path):
    path = write_record(tmp_path / "runner.flight", ticks(3))
    data = bytearray(path.read_bytes())
    data[_FRAME.size + 2] ^= 0xFF  # corrupt the header frame
    path.write_bytes(bytes(data))
    write_record(path, [("fresh", {})])
    assert [e["kind"] for e in read_flight(path)["events"]] == ["fresh"]
    with pytest.raises(ObservabilityError):
        read_flight(tmp_path / "runner.old.flight")


def test_a_forked_child_writes_nothing_into_the_parents_file(tmp_path):
    path = tmp_path / "runner.flight"
    flight_recorder().attach(path)
    flight_event("parent.before")
    pid = os.fork()
    if pid == 0:  # the child: its events must go nowhere
        try:
            flight_event("child")
            flight_recorder().record("child.direct")
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    flight_event("parent.after")
    flight_recorder().attach(None)
    kinds = [e["kind"] for e in read_flight(path)["events"]]
    assert kinds == ["parent.before", "parent.after"]


def test_concurrent_recorders_never_interleave_a_frame(tmp_path):
    """The coordinator's threads record at once: every frame stays whole."""
    rec = FlightRecorder()
    path = tmp_path / "coordinator.flight"
    rec.attach(path)
    n_threads, n_events = 8, 200

    def record(thread):
        for i in range(n_events):
            rec.record("tick", thread=thread, i=i)

    threads = [threading.Thread(target=record, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    rec.attach(None)
    doc = read_flight(path)
    assert not doc["torn"]
    assert [e["seq"] for e in doc["events"]] == list(range(1, n_threads * n_events + 1))
    for t in range(n_threads):
        assert [e["i"] for e in doc["events"] if e["thread"] == t] == list(range(n_events))


def test_flight_dir_convention():
    assert str(flight_dir("/tmp/campaign.store")).endswith("campaign.store.flight.d")


# ----------------------------------------------------------------------
# torn tails and corruption (satellite: byte-truncation fuzz)
# ----------------------------------------------------------------------
def test_every_byte_truncation_recovers_a_prefix(tmp_path):
    """No truncation point may raise; parsed events are always a prefix."""
    path = write_record(tmp_path / "full.flight", ticks(6))
    data = path.read_bytes()
    full = read_flight(path)
    assert not full["torn"]
    truncated_path = tmp_path / "torn.flight"
    for cut in range(len(data) + 1):
        truncated_path.write_bytes(data[:cut])
        doc = read_flight(truncated_path)  # must never raise
        got = [e["i"] for e in doc["events"]]
        assert got == [e["i"] for e in full["events"]][: len(got)]
        # Torn exactly when the cut falls inside a frame; a cut on a frame
        # boundary reads as a clean (shorter) dump.
        assert doc["torn"] == (cut != doc["clean_bytes"])
        if cut == len(data):
            assert not doc["torn"]
            assert doc["header"] == full["header"]


def test_midfile_corruption_raises(tmp_path):
    path = write_record(tmp_path / "x.flight", ticks(6))
    data = bytearray(path.read_bytes())
    # Flip one payload byte inside the *first* frame: CRC mismatch that is
    # not at EOF must raise, not be silently dropped.
    data[_FRAME.size + 2] ^= 0xFF
    bad = tmp_path / "bad.flight"
    bad.write_bytes(bytes(data))
    with pytest.raises(ObservabilityError, match="CRC|magic|undecodable"):
        read_flight(bad)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.flight"
    path.write_bytes(b"\x00\x00" + b"\x00" * 20)
    with pytest.raises(ObservabilityError, match="magic"):
        read_flight(path)


def test_unknown_frame_kinds_are_skipped(tmp_path):
    path = write_record(tmp_path / "x.flight", ticks(1))
    data = path.read_bytes()
    # Splice a validly framed but unknown-kind record between the frames.
    future = _pack_frame(9, b'{"from":"the future"}')
    spliced = tmp_path / "spliced.flight"
    spliced.write_bytes(data + future + _pack_frame(_K_EVENT, b'{"seq":2,"t":1,"wall":1,"kind":"tock"}'))
    doc = read_flight(spliced)
    assert not doc["torn"]
    assert [e["kind"] for e in doc["events"]] == ["tick", "tock"]


def test_read_flight_dir_mixes_good_and_broken(tmp_path):
    directory = tmp_path / "store.flight.d"
    write_record(directory / "good.flight", [("ok", {})])
    (directory / "broken.flight").write_bytes(b"\xde\xad" + b"\x00" * 16)
    dumps = read_flight_dir(directory)
    assert len(dumps) == 2
    broken, good = dumps  # sorted by filename
    assert "error" in broken and "magic" in broken["error"]
    assert good["header"]["role"] == "good"
    assert not good["torn"]


def test_read_flight_dir_missing_directory_is_empty(tmp_path):
    assert read_flight_dir(tmp_path / "nope.d") == []


# ----------------------------------------------------------------------
# SIGKILL: the record is already on disk (exercised in a real subprocess)
# ----------------------------------------------------------------------
def test_sigkilled_process_keeps_its_record(tmp_path):
    path = tmp_path / "victim.flight"
    code = textwrap.dedent(
        f"""
        import os, signal
        from repro.observability.flight import flight_event, flight_recorder
        flight_recorder().attach({str(path)!r})
        flight_event("before.sigkill", answer=42)
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60,
        capture_output=True, text=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    doc = read_flight(path)
    assert doc["header"]["role"] == "victim"
    assert [e["kind"] for e in doc["events"]] == ["before.sigkill"]
    assert doc["events"][0]["answer"] == 42
