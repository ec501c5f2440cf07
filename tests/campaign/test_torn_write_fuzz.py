"""Torn-write fuzzing: truncate/corrupt store logs at every byte boundary.

A SIGKILL can shear any append mid-write. The contract under test: a torn
*tail* is detected, physically truncated, and recovery resumes with every
record before the tear intact — at every possible truncation offset, not
just the ones a lucky crash produces. Corruption that is *not* at the tail
is a real integrity failure and must raise, never be silently skipped.
"""

import json
import shutil

import pytest

from repro.campaign.colstore import ColumnarStore, _FRAME, _pack_frame
from repro.campaign.journal import CampaignJournal
from repro.errors import CampaignError

from tests.campaign.test_colstore import V1_ANSWERS, unpack_v1_store

CONFIG = {"receptor_title": "fuzz receptor", "n_spots": 2, "seed": 3}


def build_store(root):
    """One sealed shard, one active shard with a final RESULT record."""
    store = ColumnarStore.create(root, CONFIG, "hash-f", group_rows=4)
    store.start_shard(0, 0, 3)
    store.register_ligands([(o, f"L{o}") for o in range(3)])
    for o in range(3):
        store.record_result(o, f"L{o}", -1.0 - o, 0, 8, 0.1, 0.0)
    store.finish_shard(0, 0.2)
    store.start_shard(1, 3, 6)
    store.register_ligands([(o, f"L{o}") for o in range(3, 6)])
    store.record_result(3, "L3", -7.0, 1, 8, 0.1, 0.0)
    store.record_result(4, "L4", -8.0, 1, 8, 0.1, 0.0)  # the final record
    store.close()
    return root


def last_record_start(data: bytes) -> int:
    """Offset where the final frame of a well-formed log begins."""
    offset, last = 0, 0
    while offset < len(data):
        last = offset
        _, _, length, _ = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size + length
    assert offset == len(data), "log under test must be well-formed"
    return last


def clone(src, dst):
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    return dst


def test_active_log_truncation_sweep(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    log_rel = "active/shard-1.log"
    data = (pristine / log_rel).read_bytes()
    start = last_record_start(data)
    for cut in range(start, len(data)):
        root = clone(pristine, tmp_path / "case")
        with open(root / log_rel, "r+b") as handle:
            handle.truncate(cut)
        with ColumnarStore.open(root) as store:
            # Everything before the tear survives; the torn record is gone.
            counts = store.counts()
            assert counts["done"] == 4, f"cut at byte {cut}"
            assert store.done_ordinals(3, 6) == {3}
            # L4 reverts to pending (it re-docks on resume); L5's REGISTER
            # is pre-tear and survives.
            assert counts["pending"] == 2
        # The tear was physically truncated in place.
        assert len((root / log_rel).read_bytes()) == start


def test_shards_log_truncation_sweep(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    data = (pristine / "shards.log").read_bytes()
    start = last_record_start(data)  # the SHARD_START of shard 1
    for cut in range(start, len(data)):
        root = clone(pristine, tmp_path / "case")
        with open(root / "shards.log", "r+b") as handle:
            handle.truncate(cut)
        with ColumnarStore.open(root) as store:
            # Shard 0 (sealed, pre-tear) is untouchable; shard 1's start
            # marker tore, so it simply isn't tracked — its ligand rows are
            # still recovered from the active log and nothing re-docks.
            assert store.finished_shards() == {0}
            assert store.done_ordinals(0, 6) == {0, 1, 2, 3, 4}


def test_corrupt_final_record_is_dropped_as_torn(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    log_rel = "active/shard-1.log"
    data = (pristine / log_rel).read_bytes()
    start = last_record_start(data)
    # Flip one payload byte at each offset of the final record's payload.
    for position in range(start + _FRAME.size, len(data)):
        root = clone(pristine, tmp_path / "case")
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        (root / log_rel).write_bytes(bytes(corrupted))
        with ColumnarStore.open(root) as store:
            assert store.done_ordinals(3, 6) == {3}, f"flip at byte {position}"


def test_corrupt_mid_file_record_raises(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    log_rel = "active/shard-1.log"
    data = bytearray((pristine / log_rel).read_bytes())
    # Corrupt a payload byte of the FIRST record — complete bytes follow it,
    # so this is corruption, not a torn tail.
    data[_FRAME.size + 2] ^= 0xFF
    (pristine / log_rel).write_bytes(bytes(data))
    with pytest.raises(CampaignError, match="CRC mismatch"):
        ColumnarStore.open(pristine)


def test_bad_magic_raises(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    log_rel = "active/shard-1.log"
    data = bytearray((pristine / log_rel).read_bytes())
    data[0] ^= 0xFF  # first frame's magic
    (pristine / log_rel).write_bytes(bytes(data))
    with pytest.raises(CampaignError, match="bad magic"):
        ColumnarStore.open(pristine)


def test_unreferenced_segment_debris_is_deleted(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    debris = pristine / "segments" / "seg-00000099.col"
    debris.write_bytes(b"half-written segment before the manifest published")
    with ColumnarStore.open(pristine) as store:
        assert store.counts()["done"] == 5
    assert not debris.exists()


def test_truncated_segment_trailer_is_detected(tmp_path):
    pristine = build_store(tmp_path / "pristine")
    (segment,) = list((pristine / "segments").glob("seg-*.col"))
    data = segment.read_bytes()
    segment.write_bytes(data[:-4])  # shear the end-marker
    store = ColumnarStore.open(pristine)
    with pytest.raises(CampaignError, match="corrupt segment"):
        list(store.science_rows())
    store.close()


def test_schema_upgrade_torn_at_every_step(tmp_path):
    # A schema-1 store's first new segment: meta.json.tmp is written and
    # renamed over meta.json (now schema 2), then the segment is written and
    # published. A kill anywhere in between leaves a store either schema
    # opens, with the rows it had, and the upgrade simply happens again.
    pristine = unpack_v1_store(tmp_path / "pristine")
    opened = V1_ANSWERS["opened"][0]  # its science digest
    upgraded = clone(pristine, tmp_path / "upgraded")
    with ColumnarStore.open(upgraded) as store:
        store.start_shard(6, 42, 45)
        store.record_result(42, "LIG042", -3.0, 0, 8, 0.1, 0.0)
        store.finish_shard(6, 0.1)
        expected = store.science_digest()
    new_meta = (upgraded / "meta.json").read_bytes()
    assert json.loads(new_meta)["schema_version"] == 2

    def crashed_during_tmp_write(root, cut):
        (root / "meta.json.tmp").write_bytes(new_meta[:cut])

    def crashed_before_publish(root, cut):
        (root / "meta.json").write_bytes(new_meta)
        segment = next((upgraded / "segments").iterdir()).read_bytes()
        (root / "segments" / "seg-00000009.col.tmp").write_bytes(segment[:cut])

    for crash in (crashed_during_tmp_write, crashed_before_publish):
        for cut in (0, 1, len(new_meta) // 2, len(new_meta)):
            root = clone(pristine, tmp_path / "case")
            crash(root, cut)
            with ColumnarStore.open(root) as store:
                assert store.science_digest() == opened, (crash.__name__, cut)
                assert store.finished_shards() == set(range(6))
                store.start_shard(6, 42, 45)
                store.record_result(42, "LIG042", -3.0, 0, 8, 0.1, 0.0)
                store.finish_shard(6, 0.1)
            assert json.loads((root / "meta.json").read_text())["schema_version"] == 2
            assert not list(root.rglob("*.tmp"))
            with ColumnarStore.open(root) as store:
                assert store.science_digest() == expected


# ----------------------------------------------------------------------
# journal tail
# ----------------------------------------------------------------------
def build_journal(path):
    journal = CampaignJournal(path)
    journal.campaign_start("hash-j")
    journal.shard_start(0, 0, 4)
    journal.shard_finish(0, 4, 0)
    journal.shard_start(1, 4, 8)
    journal.shard_finish(1, 4, 0)  # the final line
    return path.read_bytes()


def test_journal_truncation_sweep(tmp_path):
    path = tmp_path / "c.journal"
    data = build_journal(path)
    last_line_start = data[:-1].rfind(b"\n") + 1
    for cut in range(last_line_start, len(data)):
        path.write_bytes(data[:cut])
        state = CampaignJournal(path).replay()
        # Pre-tear records always survive; the torn marker is dropped and
        # shard 1 re-queues (its store rows make the re-run a no-op).
        assert state.started.keys() == {0, 1}, f"cut at byte {cut}"
        assert 0 in state.finished
        if cut == last_line_start:
            assert state.truncated_records == 0  # clean boundary, no tear
            assert state.finished == {0}
        else:
            assert state.truncated_records in (0, 1)
            assert state.unfinished() <= {1}


def test_journal_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "c.journal"
    data = build_journal(path).split(b"\n")
    data[1] = b"{torn json that is not the last line"
    path.write_bytes(b"\n".join(data))
    with pytest.raises(CampaignError, match="corrupt journal record"):
        CampaignJournal(path).replay()


def test_journal_group_commit_batches_fsyncs(tmp_path):
    from repro import observability as obs

    path = tmp_path / "batched.journal"
    journal = CampaignJournal(path, batch_records=4)
    flushes = obs.counter("campaign.journal.flushes").value
    journal.shard_start(0, 0, 4)
    journal.shard_finish(0, 4, 0)
    journal.shard_start(1, 4, 8)
    assert path.exists() is False or b"shard" not in path.read_bytes()
    journal.shard_finish(1, 4, 0)  # 4th record: one group commit
    assert obs.counter("campaign.journal.flushes").value == flushes + 1
    state = CampaignJournal(path).replay()
    assert state.finished == {0, 1}
    # Lifecycle markers are urgent: they flush whatever is buffered.
    journal.shard_start(2, 8, 12)
    journal.campaign_finish(12)
    assert CampaignJournal(path).replay().campaign_finished


def test_journal_time_based_flush(tmp_path, monkeypatch):
    import repro.campaign.journal as journal_mod

    clock = {"now": 100.0}
    monkeypatch.setattr(journal_mod.time, "monotonic", lambda: clock["now"])
    path = tmp_path / "timed.journal"
    journal = CampaignJournal(path, batch_records=100, batch_seconds=2.0)
    journal.shard_start(0, 0, 4)
    assert not path.exists()  # buffered: batch neither full nor old
    clock["now"] += 3.0
    journal.shard_start(1, 4, 8)  # arrives past the deadline → flush
    assert CampaignJournal(path).replay().started.keys() == {0, 1}


def test_journal_replay_flushes_own_buffer(tmp_path):
    journal = CampaignJournal(tmp_path / "j", batch_records=50)
    journal.shard_start(0, 0, 4)
    assert journal.replay().started == {0: (0, 4)}  # sees its own buffer
