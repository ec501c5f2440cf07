"""Columnar campaign store: SQLite parity, sealing, compaction, top-K.

Every behavioural test here runs the same operation sequence against both
backends and asserts identical observable state — counts, science digest,
top-K ranking, export bytes — because the columnar store's whole contract
is "drop-in behind the store interface".
"""

import base64
import hashlib
import io
import json
import os
import random
import re
import struct
import threading
import tracemalloc
import zipfile

import pytest

from repro.campaign import colstore
from repro.campaign.backends import (
    create_store,
    detect_backend,
    open_store,
    store_disk_bytes,
)
from repro.campaign.colstore import COLSTORE_SCHEMA_VERSION, ColumnarStore
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError

CONFIG = {
    "receptor_title": "colstore-test receptor",
    "n_spots": 4,
    "metaheuristic": "M1",
    "seed": 7,
}


@pytest.fixture()
def store(tmp_path):
    with ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "hash-1", group_rows=16, compact_fanin=3
    ) as s:
        yield s


def both_stores(tmp_path, **options):
    """A fresh (sqlite, columnar) pair sharing one config."""
    sq = CampaignStore.create(tmp_path / "pair.sqlite", CONFIG, "hash-1")
    co = ColumnarStore.create(tmp_path / "pair.col", CONFIG, "hash-1", **options)
    return sq, co


def assert_parity(sq, co, k=10):
    assert sq.counts() == co.counts()
    assert sq.science_digest() == co.science_digest()
    assert sq.finished_shards() == co.finished_shards()
    assert [
        (r["ordinal"], r["title"], r["best_score"], r["best_spot"])
        for r in sq.top(k)
    ] == [
        (r["ordinal"], r["title"], r["best_score"], r["best_spot"])
        for r in co.top(k)
    ]
    assert list(sq.iter_results()) == list(co.iter_results())


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_create_and_reopen_roundtrip(tmp_path):
    path = tmp_path / "c.col"
    store = ColumnarStore.create(path, CONFIG, "hash-1")
    store.start_shard(0, 0, 1)
    store.record_result(0, "L0", -5.0, 1, 100, 0.1, 0.2)
    store.close()

    with ColumnarStore.open(path) as reopened:
        assert reopened.config == CONFIG
        assert reopened.config_hash == "hash-1"
        assert reopened.counts()["done"] == 1
        assert not reopened.is_complete()


def test_create_refuses_existing_and_memory(tmp_path):
    path = tmp_path / "c.col"
    ColumnarStore.create(path, CONFIG, "h").close()
    with pytest.raises(CampaignError, match="already exists"):
        ColumnarStore.create(path, CONFIG, "h")
    with pytest.raises(CampaignError, match=":memory:"):
        ColumnarStore.create(":memory:", CONFIG, "h")
    with pytest.raises(CampaignError, match="invalid columnar store options"):
        ColumnarStore.create(tmp_path / "bad.col", CONFIG, "h", compact_fanin=1)


def test_open_missing_and_garbage(tmp_path):
    with pytest.raises(CampaignError, match="no campaign store"):
        ColumnarStore.open(tmp_path / "nope.col")
    garbage = tmp_path / "garbage.col"
    garbage.mkdir()
    with pytest.raises(CampaignError, match="not a campaign store"):
        ColumnarStore.open(garbage)
    (garbage / "meta.json").write_text("definitely not json")
    with pytest.raises(CampaignError, match="not a campaign store"):
        ColumnarStore.open(garbage)


def test_open_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "c.col"
    ColumnarStore.create(path, CONFIG, "h").close()
    meta = json.loads((path / "meta.json").read_text())
    meta["schema_version"] = COLSTORE_SCHEMA_VERSION + 1
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CampaignError, match="schema"):
        ColumnarStore.open(path)


def test_completion_flag_survives_reopen(tmp_path):
    path = tmp_path / "c.col"
    store = ColumnarStore.create(path, CONFIG, "h")
    assert not store.is_complete()
    store.mark_complete(42)
    store.close()
    with ColumnarStore.open(path) as reopened:
        assert reopened.is_complete()
        assert reopened.n_ligands == 42


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
def test_backend_detection_and_open_store(tmp_path):
    sq, co = both_stores(tmp_path)
    sq.close()
    co.close()
    assert detect_backend(tmp_path / "pair.sqlite") == "sqlite"
    assert detect_backend(tmp_path / "pair.col") == "columnar"
    assert detect_backend(":memory:") == "sqlite"
    with open_store(tmp_path / "pair.sqlite") as store:
        assert isinstance(store, CampaignStore)
    with open_store(tmp_path / "pair.col") as store:
        assert isinstance(store, ColumnarStore)
    assert store_disk_bytes(tmp_path / "pair.col") > 0
    assert store_disk_bytes(tmp_path / "pair.sqlite") > 0
    with pytest.raises(CampaignError):
        detect_backend(tmp_path / "missing")


def test_create_store_dispatches_and_validates(tmp_path):
    with create_store(tmp_path / "a", CONFIG, "h") as store:
        assert isinstance(store, ColumnarStore)  # every on-disk path
    with create_store(":memory:", CONFIG, "h") as store:
        assert isinstance(store, CampaignStore)
    with create_store(tmp_path / "a.sqlite", CONFIG, "h", backend="sqlite") as store:
        assert isinstance(store, CampaignStore)
    with pytest.raises(CampaignError, match="backend"):
        create_store(tmp_path / "b", CONFIG, "h", backend="parquet")


# ----------------------------------------------------------------------
# SQLite-parity semantics (same sequences, same observable state)
# ----------------------------------------------------------------------
def test_a_negative_zero_score_digests_as_zero_on_both_backends(tmp_path):
    # SQLite reads a stored -0.0 back as 0.0 and the columnar store keeps its
    # sign, sealed or in an open shard; the science digest hashes both as 0.0.
    sq, co = both_stores(tmp_path)
    for st in (sq, co):
        st.start_shard(0, 0, 2)
        st.record_result(0, "L0", -0.0, 0, 8, 0.1, 0.0)
        st.record_result(1, "L1", -3.5, 1, 8, 0.1, 0.0)
        st.finish_shard(0, 0.1)
        st.start_shard(1, 2, 4)
        st.record_result(2, "L2", -0.0, 2, 8, 0.1, 0.0)
        st.record_result(3, "L3", 0.0, 3, 8, 0.1, 0.0)
    assert [repr(row[3]) for row in sq.science_rows()] == ["0.0", "-3.5", "0.0", "0.0"]
    assert [repr(row[3]) for row in co.science_rows()] == ["-0.0", "-3.5", "-0.0", "0.0"]
    # What SQLite has always hashed these rows to.
    expected = "0d63a06e0bd8b37e5efbd965f73aa035908f2987c33352005eb45c02061abf79"
    assert sq.science_digest() == co.science_digest() == expected
    sq.close()
    co.close()


def test_upsert_is_idempotent(store):
    store.start_shard(0, 0, 8)
    store.record_result(3, "L3", -4.0, 0, 50, 0.1, 0.0)
    store.record_result(3, "L3", -4.5, 2, 60, 0.2, 0.0, attempts=2)
    assert store.counts()["done"] == 1
    row = store.top(1)[0]
    assert row["best_score"] == -4.5
    assert row["best_spot"] == 2


def test_failure_then_success_transitions(store):
    store.start_shard(0, 0, 8)
    store.register_ligands([(0, "L0")])
    assert store.counts()["pending"] == 1
    store.mark_running(0)
    assert store.counts()["running"] == 1
    store.record_failure(0, "L0", "ScoringError: pose 3 non-finite", attempts=3)
    counts = store.counts()
    assert counts["failed"] == 1 and counts["running"] == 0
    store.record_result(0, "L0", -1.0, 0, 10, 0.1, 0.0)
    counts = store.counts()
    assert counts["done"] == 1 and counts["failed"] == 0
    assert store.top(1)[0]["title"] == "L0"


def test_register_ligands_never_downgrades(store):
    store.start_shard(0, 0, 8)
    store.record_result(1, "L1", -2.0, 0, 10, 0.1, 0.0)
    store.register_ligands([(1, "L1"), (2, "L2")])
    counts = store.counts()
    assert counts["done"] == 1 and counts["pending"] == 1


def test_top_k_ordering_and_ties(store):
    store.start_shard(0, 0, 8)
    store.record_result(0, "A", -3.0, 0, 10, 0.1, 0.0)
    store.record_result(1, "B", -5.0, 1, 10, 0.1, 0.0)
    store.record_result(2, "C", -5.0, 2, 10, 0.1, 0.0)  # tie → ordinal order
    store.record_failure(3, "D", "boom", 1)
    top = store.top(10)
    assert [r["title"] for r in top] == ["B", "C", "A"]
    assert [r["title"] for r in store.top(1)] == ["B"]
    with pytest.raises(CampaignError):
        store.top(0)


def test_shard_tracking(store):
    store.start_shard(0, 0, 4)
    store.start_shard(1, 4, 8)
    assert store.finished_shards() == set()
    store.finish_shard(0, 1.5)
    assert store.finished_shards() == {0}
    with pytest.raises(CampaignError, match="never re-opens"):
        store.start_shard(0, 0, 4)  # a finished shard stays finished
    store.start_shard(1, 4, 8)  # resume replay of an open shard
    assert store.finished_shards() == {0}


def test_done_ordinals_range_spans_sealed_and_overlay(store):
    store.start_shard(0, 0, 4)
    for ordinal in (0, 1):
        store.record_result(ordinal, f"L{ordinal}", -1.0, 0, 1, 0.1, 0.0)
    store.record_failure(2, "L2", "x", 1)
    store.finish_shard(0, 0.5)  # seals [0, 4) into a segment
    store.start_shard(1, 4, 8)
    store.record_result(5, "L5", -1.0, 0, 1, 0.1, 0.0)  # overlay only
    assert store.done_ordinals(0, 4) == {0, 1}
    assert store.done_ordinals(4, 8) == {5}


def random_shard(rng, stores, shard_id, size=10):
    """One shard of random outcomes, applied identically to every store."""
    start, stop = shard_id * size, (shard_id + 1) * size
    for st in stores:
        st.start_shard(shard_id, start, stop)
        st.register_ligands([(o, f"L{o}") for o in range(start, stop)])
    for ordinal in range(start, stop):
        roll = rng.random()
        score = round(rng.uniform(-9.0, -1.0), 6)
        spot = rng.randrange(4)
        for st in stores:
            st.mark_running(ordinal)
            if roll < 0.15:
                st.record_failure(ordinal, f"L{ordinal}", "boom", 2)
            elif roll < 0.2:
                pass  # left running: a crash mid-ligand
            else:
                st.record_result(ordinal, f"L{ordinal}", score, spot, 64, 0.1, 0.2)


def assert_parity_across_reopen(tmp_path, sq, co, n):
    ranges = ((0, n), (15, 37), (100, 200))
    assert_parity(sq, co, k=25)
    for start, stop in ranges:
        assert sq.done_ordinals(start, stop) == co.done_ordinals(start, stop)
    # Parity survives a full reopen (columnar recovery path included).
    sq.close()
    co.close()
    with open_store(tmp_path / "pair.sqlite") as sq2, open_store(
        tmp_path / "pair.col"
    ) as co2:
        assert_parity(sq2, co2, k=25)
        for start, stop in ranges:
            assert sq2.done_ordinals(start, stop) == co2.done_ordinals(start, stop)


def test_random_operation_sequence_matches_sqlite(tmp_path):
    rng = random.Random(20260808)
    sq, co = both_stores(tmp_path, group_rows=8, compact_fanin=3)
    for shard_id in range(12):
        random_shard(rng, (sq, co), shard_id)
        if rng.random() < 0.8:  # some shards stay open (crash window)
            wall = rng.random()
            for st in (sq, co):
                st.finish_shard(shard_id, wall)
    assert_parity_across_reopen(tmp_path, sq, co, 120)


@pytest.mark.parametrize("group_rows", [3, 8, 65536])
def test_random_out_of_order_shards_match_sqlite(tmp_path, monkeypatch, group_rows):
    # A fleet finishes shards in any order. Shards stay open, and their rows
    # keep changing, while later ones seal and compact (fan-in 3) around
    # them; each one's own seal then inserts into the covering segment.
    covered = []
    covering_segment = ColumnarStore._covering_segment

    def spy(self, lo, hi):
        entry = covering_segment(self, lo, hi)
        covered.append(entry is not None)
        return entry

    monkeypatch.setattr(ColumnarStore, "_covering_segment", spy)
    rng = random.Random(20261002 + group_rows)
    sq, co = both_stores(tmp_path, group_rows=group_rows, compact_fanin=3)
    stores = (sq, co)
    running: list[int] = []
    for shard_id in range(12):
        random_shard(rng, stores, shard_id)
        running.append(shard_id)
        for _ in range(rng.randrange(4)):
            ordinal = rng.choice(running) * 10 + rng.randrange(10)
            op = rng.randrange(3)
            score = round(rng.uniform(-9.0, -1.0), 6)
            for st in stores:
                if op == 0:
                    st.record_result(ordinal, f"L{ordinal}", score, 1, 65, 0.3, 0.4, 2)
                elif op == 1:
                    st.record_failure(ordinal, f"L{ordinal}", f"retried {score}", 3)
                else:
                    st.register_ligands([(ordinal, "ignored: the row exists")])
        finishable = [open_id for open_id in running if open_id != 1]
        while finishable and rng.random() < 0.55:  # shard 1 finishes last
            finished = finishable.pop(rng.randrange(len(finishable)))
            running.remove(finished)
            for st in stores:
                st.finish_shard(finished, 0.25)
        if shard_id % 4 == 3:
            assert_parity(sq, co, k=25)
    rng.shuffle(running)
    running.remove(1)
    for shard_id in running + [1]:
        for st in stores:
            st.finish_shard(shard_id, 0.5)
    assert any(covered) and not co._active_rows
    assert len(co._segments) < 3
    assert_parity_across_reopen(tmp_path, sq, co, 120)


@pytest.mark.parametrize("backend", ["sqlite", "columnar"])
def test_a_finished_shard_never_reopens(tmp_path, backend):
    path = tmp_path / "store"
    st = create_store(path, CONFIG, "hash-1", backend=backend)
    st.start_shard(0, 0, 2)
    for ordinal in (0, 1):
        st.record_result(ordinal, f"L{ordinal}", -1.0, 0, 8, 0.1, 0.0)
    st.finish_shard(0, 0.1)
    with pytest.raises(CampaignError, match="never re-opens"):
        st.start_shard(0, 0, 2)
    st.start_shard(1, 2, 4)
    st.start_shard(1, 2, 4)  # an open shard is started again on resume
    assert st.finished_shards() == {0}
    st.close()
    with open_store(path) as reopened:
        with pytest.raises(CampaignError, match="never re-opens"):
            reopened.start_shard(0, 0, 2)
        assert reopened.finished_shards() == {0}
        assert reopened.done_ordinals(0, 4) == {0, 1}


@pytest.mark.parametrize("backend", ["sqlite", "columnar"])
@pytest.mark.parametrize("reseal", [True, False])
def test_reclaimed_result_outlives_an_older_late_failure(tmp_path, backend, reseal):
    # A lease is reclaimed while its shard is open: the presumed-dead node's
    # failure of ordinal 0 lands after that ordinal's first result, then the
    # replacement's result. The newest record must win after a reopen, sealed
    # (`reseal`) or still in the shard's log.
    path = tmp_path / "store"
    st = create_store(path, CONFIG, "hash-1", backend=backend)
    st.start_shard(0, 0, 2)
    for ordinal in (0, 1):
        st.record_result(ordinal, f"L{ordinal}", -1.0, 0, 8, 0.1, 0.0)
    st.record_failure(0, "L0", "late", 2)
    assert (st.counts()["done"], st.counts()["failed"]) == (1, 1)
    st.record_result(0, "L0", -3.0, 1, 9, 0.1, 0.0)
    if reseal:
        st.finish_shard(0, 0.2)
    assert (st.counts()["done"], st.counts()["failed"]) == (2, 0)
    st.close()
    with open_store(path) as reopened:
        assert (reopened.counts()["done"], reopened.counts()["failed"]) == (2, 0)
        assert reopened.done_ordinals(0, 6) == {0, 1}
        assert [r["best_score"] for r in reopened.top(1)] == [-3.0]
        assert reopened.finished_shards() == ({0} if reseal else set())


def test_a_row_write_outside_an_open_shard_is_refused(store):
    fill_shards(store, 1)  # shard 0, ordinals [0, 8), sealed
    store.start_shard(1, 8, 16)
    answers_before = answers(store)
    writes = (
        lambda: store.record_result(3, "L3", -99.0, 1, 8, 0.1, 0.0, attempts=2),
        lambda: store.record_failure(3, "L3", "retried after the seal", 2),
        lambda: store.mark_running(3),
        lambda: store.register_ligands([(3, "L3")]),
        lambda: store.record_result(20, "L20", -99.0, 1, 8, 0.1, 0.0),  # no shard
        # One ordinal outside the open shard refuses the whole batch.
        lambda: store.register_ligands([(8, "L8"), (16, "L16")]),
    )
    for write in writes:
        with pytest.raises(CampaignError, match="no open shard"):
            write()
    assert answers(store) == answers_before
    assert store.counts()["pending"] == 0
    assert list((store.root / "active").iterdir()) == []
    store.close()
    with ColumnarStore.open(store.path) as reopened:
        assert answers(reopened) == answers_before


def test_top_k_column_scan_breaks_ties_like_sqlite(tmp_path):
    # Equal scores sit in different groups, different segments and the
    # overlay, and -0.0 must tie with 0.0.
    sq, co = both_stores(tmp_path, group_rows=4, compact_fanin=3)
    scores = [-5.0, 0.0, -0.0, -5.0, -2.5, -0.0, 0.0, -5.0, -2.5, -7.0]
    for st in (sq, co):
        for shard_id in range(4):  # three shards compact, the fourth stands alone
            start = shard_id * 10
            st.start_shard(shard_id, start, start + 10)
            for i, score in enumerate(scores):
                st.record_result(start + i, f"L{start + i}", score, 0, 8, 0.1, 0.0)
            if shard_id == 0:
                st.record_failure(9, "L9", "failure after a best score", 2)
                st.record_result(4, "L4", -7.0, 1, 8, 0.1, 0.0)  # a new tie
            st.finish_shard(shard_id, 0.1)
        st.start_shard(4, 40, 50)  # open: its rows are overlay-only
        st.record_result(40, "L40", -7.0, 0, 8, 0.1, 0.0)
        st.record_result(41, "L41", -0.0, 0, 8, 0.1, 0.0)
        st.record_failure(42, "L42", "never scored", 1)
    assert len(co._segments) == 2 and len(co._active_rows) == 3
    done = {o: s for o, s in enumerate(scores * 4)} | {4: -7.0, 40: -7.0, 41: -0.0}
    del done[9]
    expected = sorted(done, key=lambda o: (done[o], o))
    for k in (1, 2, 4, 5, 11, 23, len(expected), 1000):
        top = co.top(k)
        assert [r["ordinal"] for r in top] == expected[:k]
        assert [r["best_score"] for r in top] == [done[o] for o in expected[:k]]
        assert [r["ordinal"] for r in sq.top(k)] == expected[:k]
    sq.close()
    co.close()


# ----------------------------------------------------------------------
# sealing, compaction and ranking
# ----------------------------------------------------------------------
def fill_shards(store, n_shards, shard_size=8, first=0):
    for shard_id in range(first, first + n_shards):
        start, stop = shard_id * shard_size, (shard_id + 1) * shard_size
        store.start_shard(shard_id, start, stop)
        for ordinal in range(start, stop):
            store.record_result(
                ordinal, f"L{ordinal}", -1.0 - (ordinal % 17) * 0.25, 0, 8, 0.1, 0.0
            )
        store.finish_shard(shard_id, 0.1)


def test_sealed_shards_become_segments_and_drop_logs(store):
    fill_shards(store, 2)
    assert len(store._segments) == 2
    assert store._active_rows == {}  # overlay drained into segments
    assert not list((store.root / "active").glob("shard-*.log"))
    # Sealed rows stay queryable.
    assert store.counts()["done"] == 16
    assert len(store.top(16)) == 16


def test_compaction_preserves_rows_and_bounds_segment_count(tmp_path):
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )
    fill_shards(store, 9)
    before = list(store.science_rows())
    # fanin=3 keeps the manifest small no matter how many shards sealed.
    assert len(store._segments) < 3 + 2
    assert store.counts()["done"] == 72
    store.close()
    with ColumnarStore.open(tmp_path / "c.col") as reopened:
        assert list(reopened.science_rows()) == before


def test_finish_shard_fsyncs_the_segment_and_the_manifest_only(tmp_path, monkeypatch):
    store = ColumnarStore.create(tmp_path / "c.col", CONFIG, "h")
    store.start_shard(0, 0, 8)
    for ordinal in range(8):
        store.record_result(ordinal, f"L{ordinal}", -1.0 - ordinal, 0, 8, 0.1, 0.0)
    fsyncs = []
    real_fsync = os.fsync

    def counting(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    store.finish_shard(0, 0.1)
    monkeypatch.undo()
    # The segment file, then the manifest and the directory it is renamed in.
    assert len(fsyncs) == 3
    assert sorted(path.name for path in store.root.iterdir()) == [
        "MANIFEST.json", "active", "meta.json", "segments", "shards.log",
    ]
    store.close()


def test_compaction_finishes_inside_finish_shard(tmp_path):
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )
    fill_shards(store, 3)  # the third seal reaches the fan-in
    assert len(store._segments) < 3
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("colstore-compact")
    ]
    store.close()


def test_failed_compaction_raises_out_of_finish_shard(tmp_path, monkeypatch):
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )

    def exploding(self, entries):  # only a merge reads segments here
        raise RuntimeError("compaction exploded")
        yield

    monkeypatch.setattr(ColumnarStore, "_read_groups", exploding)
    with pytest.raises(RuntimeError, match="compaction exploded"):
        fill_shards(store, 3)
    monkeypatch.undo()
    assert len(store._segments) == 3  # the third shard was sealed first
    store.close()
    with ColumnarStore.open(tmp_path / "c.col") as reopened:
        assert reopened.counts()["done"] == 24  # no rows lost to the failure
        assert len(list(reopened.science_rows())) == 24
        # The half-written merge output was debris, deleted on open.
        assert len(list((reopened.root / "segments").iterdir())) == 3


def test_streaming_reads_are_consistent_during_compaction(tmp_path):
    # Regression: a compaction rewrites the segment list (and unlinks the
    # merged files) while _iter_logical may be streaming it on another
    # thread — an unlocked reader sees a half-swapped list and drops whole
    # merged runs. Hammer iter_results from a reader thread while the writer
    # seals shards; every sealed row must be visible in every pass.
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )
    halt = threading.Event()
    sealed: dict[int, bool] = {}
    problems: list[str] = []

    def reader():
        while not halt.is_set():
            snapshot = dict(sealed)
            try:
                rows = {row["ordinal"] for row in store.iter_results()}
            except Exception as err:  # unlinked segment file, torn manifest
                problems.append(repr(err))
                continue
            missing = {o for o, done in snapshot.items() if done} - rows
            if missing:
                problems.append(f"missing {len(missing)} sealed rows")

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for shard_id in range(40):
            start, stop = shard_id * 8, (shard_id + 1) * 8
            store.start_shard(shard_id, start, stop)
            for ordinal in range(start, stop):
                store.record_result(
                    ordinal, f"L{ordinal}", -1.0 - (ordinal % 17) * 0.25,
                    0, 8, 0.1, 0.0,
                )
                sealed[ordinal] = False
            store.finish_shard(shard_id, 0.1)
            for ordinal in range(start, stop):
                sealed[ordinal] = True
    finally:
        halt.set()
        thread.join()
    assert not problems, problems[:3]
    assert {row["ordinal"] for row in store.iter_results()} == set(range(320))
    store.close()


def test_sqlite_store_wait_for_compaction_is_noop(tmp_path):
    store = CampaignStore.create(tmp_path / "c.sqlite", CONFIG, "h")
    store.wait_for_compaction()  # interface parity with the columnar store
    store.close()


@pytest.mark.parametrize("crash_in", ["_write_segment", "_drop_active_log"])
def test_a_crash_inside_an_out_of_order_finish_loses_no_rows(
    tmp_path, monkeypatch, crash_in
):
    # Shards 0 and 2 seal and compact (fan-in 2) into one segment spanning
    # shard 1, still open. The process then dies inside shard 1's
    # finish_shard, after its FINISH record: before the seal's manifest
    # publish, or after it and before the log's unlink.
    path = tmp_path / "c.col"
    store = ColumnarStore.create(path, CONFIG, "h", group_rows=8, compact_fanin=2)
    store.start_shard(1, 4, 8)
    for ordinal in range(4, 8):
        store.record_result(ordinal, f"L{ordinal}", -2.0 - ordinal, 0, 8, 0.1, 0.0)
    fill_shards(store, 1, shard_size=4)
    fill_shards(store, 1, shard_size=4, first=2)
    assert [(entry["lo"], entry["hi"]) for entry in store._segments] == [(0, 11)]
    rows = list(store.science_rows())

    def crash(self, *args):
        raise RuntimeError("killed")

    monkeypatch.setattr(ColumnarStore, crash_in, crash)
    with pytest.raises(RuntimeError, match="killed"):
        store.finish_shard(1, 0.1)
    monkeypatch.undo()
    store.close()
    for _ in range(2):  # the recovery re-seals; the second open finds it sealed
        with ColumnarStore.open(path) as reopened:
            assert reopened.finished_shards() == {0, 1, 2}
            assert reopened.done_ordinals(4, 8) == {4, 5, 6, 7}
            assert list(reopened.science_rows()) == rows
            assert reopened._active_rows == {}
            assert list((path / "active").iterdir()) == []
            assert [(e["lo"], e["hi"]) for e in reopened._segments] == [(0, 11)]


# ----------------------------------------------------------------------
# one writer, read-only readers
# ----------------------------------------------------------------------
def tree_bytes(root):
    """Every file of a store directory, by path relative to it."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def crashed_store(path, monkeypatch):
    """A store as a SIGKILL leaves it: shard 1's seal died before its
    manifest publish (its log outlived its FINISH record), shard 2 is open
    with a torn record at the tail of its log, and a segment file the
    manifest never named lies in ``segments/``."""
    store = ColumnarStore.create(path, CONFIG, "h", group_rows=8, compact_fanin=8)
    fill_shards(store, 1, shard_size=4)
    store.start_shard(1, 4, 8)
    for ordinal in range(4, 8):
        store.record_result(ordinal, f"L{ordinal}", -2.0 - ordinal, 0, 8, 0.1, 0.0)
    store.start_shard(2, 8, 12)
    for ordinal in (8, 9):
        store.record_result(ordinal, f"L{ordinal}", -0.5 * ordinal, 1, 8, 0.1, 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(ColumnarStore, "_write_segment", lambda self, groups: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            store.finish_shard(1, 0.1)
    store.close()
    with open(path / "active" / "shard-2.log", "ab") as log:
        log.write(colstore._pack_frame(colstore._K_RUNNING, b"\x0a" * 8)[:-3])
    (path / "segments" / "seg-00000009.col.tmp").write_bytes(b"RVSCOL01 half")


def view_of(store):
    return (
        answers(store),
        store.counts(),
        store.finished_shards(),
        store.done_ordinals(0, 12),
        store.is_complete(),
    )


def test_a_readonly_open_changes_no_file_and_reads_what_recovery_makes(
    tmp_path, monkeypatch
):
    path = tmp_path / "c.col"
    crashed_store(path, monkeypatch)
    before = tree_bytes(path)
    with ColumnarStore.open(path, readonly=True) as view:
        seen = view_of(view)
        with pytest.raises(CampaignError, match="read-only"):
            view.record_result(8, "L8", -9.0, 0, 8, 0.1, 0.0)
        with pytest.raises(CampaignError, match="read-only"):
            view.mark_complete(12)
    assert tree_bytes(path) == before
    assert seen[1]["done"] == 10 and seen[2] == {0, 1}
    with ColumnarStore.open(path) as recovered:  # re-seals, truncates, deletes
        assert view_of(recovered) == seen
    assert tree_bytes(path) != before


def test_a_readonly_view_reads_segments_a_compaction_retired(tmp_path):
    path = tmp_path / "c.col"
    writer = ColumnarStore.create(path, CONFIG, "h", group_rows=8, compact_fanin=3)
    fill_shards(writer, 2)
    expected = answers(writer)
    with ColumnarStore.open(path, readonly=True) as view:
        fill_shards(writer, 1, first=2)  # the third seal merges all three
        assert len(writer._segments) == 1
        retired = [path / "segments" / entry["name"] for entry in view._segments]
        assert len(retired) == 2 and not any(p.exists() for p in retired)
        assert answers(view) == expected
        assert view.done_ordinals(0, 24) == set(range(16))
    writer.close()


def test_a_readonly_open_rereads_when_a_seal_publishes_meanwhile(
    tmp_path, monkeypatch
):
    # The writer seals shard 0 (publish, then unlink its log) between the
    # view's manifest read and its log reads: a view built from the two
    # would hold neither the shard's segment nor its log.
    path = tmp_path / "c.col"
    writer = ColumnarStore.create(path, CONFIG, "h")
    writer.start_shard(0, 0, 8)
    for ordinal in range(8):
        writer.record_result(ordinal, f"L{ordinal}", -1.0 - ordinal, 0, 8, 0.1, 0.0)
    real, reads = ColumnarStore._shard_logs, []

    def racing(self):
        if self._readonly and not reads:
            writer.finish_shard(0, 0.1)
        reads.append(self)
        return real(self)

    monkeypatch.setattr(ColumnarStore, "_shard_logs", racing)
    with ColumnarStore.open(path, readonly=True) as view:
        assert len(reads) == 2
        assert view.finished_shards() == {0}
        assert view.counts() == writer.counts()
        assert view.science_digest() == writer.science_digest()
    writer.close()


def linger(ready):
    """A forked child that outlives its parent's hold on the store."""
    import time

    ready.set()
    time.sleep(60)


def test_one_process_writes_a_store_and_a_fork_does_not_hold_it(tmp_path):
    import multiprocessing

    path = tmp_path / "c.col"
    writer = ColumnarStore.create(path, CONFIG, "h")
    with pytest.raises(CampaignError, match="already open for writing"):
        ColumnarStore.open(path)
    with open_store(path, readonly=True) as view:  # readers are never refused
        assert view.config_hash == "h"
    # A forked child (a pool worker, a fleet node) drops its inherited copy
    # of the lock: the lock goes with the writer while the child lives on.
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    child = ctx.Process(target=linger, args=(ready,))
    child.start()
    try:
        assert ready.wait(30)
        writer.close()
        with ColumnarStore.open(path) as again:
            assert again.config_hash == "h"
    finally:
        child.kill()
        child.join()


def legacy_orphan_store(root):
    """Two sealed shards and the ``active/orphan.log`` an older build wrote
    for results that reached them after their seal."""
    store = ColumnarStore.create(root, CONFIG, "hash-1", group_rows=4, compact_fanin=3)
    fill_shards(store, 2)
    store.close()
    frame, text = colstore._pack_frame, colstore._pack_str
    result, failure = colstore._RESULT.pack, colstore._FAILURE.pack
    (root / "active" / "orphan.log").write_bytes(
        frame(colstore._K_RESULT, result(3, -99.0, 1, 8, 0.1, 0.0, 2) + text("L3"))
        + frame(colstore._K_FAILURE, failure(12, 3) + text("L12") + text("stale"))
        + frame(colstore._K_RUNNING, colstore._RUNNING.pack(5))
        + frame(colstore._K_RESULT, result(3, -98.5, 2, 9, 0.2, 0.0, 3) + text("L3"))
    )


#: ``answers`` and ``counts`` of ``legacy_orphan_store``, read by the build
#: that wrote orphan logs (it replayed the file over the segments on open).
LEGACY_ORPHAN_ANSWERS = (
    (
        "62fde7a501e0c7b2c72b24c6c892a4b0ad5bec5b51ab1ceba471daf0bcbe2a04",
        "7eca4a2379a4e64396a178723d8a825fa24633f18f21be06fdb3cdf367058659",
        "f84ba9f4229ccfe40dd174361bc04ca35c95ff087315d796e23924b201c8f6e6",
        "6d17206e03bfaa46edde88c500fbad7d570378031651a113718d86ecc2ecb0f5",
    ),
    {"pending": 0, "running": 1, "done": 14, "failed": 1},
)


def test_an_older_builds_orphan_log_is_folded_in_once(tmp_path):
    root = tmp_path / "legacy.col"
    legacy_orphan_store(root)
    for _ in range(2):
        with ColumnarStore.open(root) as store:
            assert (answers(store), store.counts()) == LEGACY_ORPHAN_ANSWERS
            assert not (root / "active" / "orphan.log").exists()
            assert len(store._segments) == 2 and store._active_rows == {}


def test_an_older_builds_reopened_shard_shadows_its_sealed_rows(store):
    # That build re-opened a finished shard on a lease reclaim: its log on
    # disk then holds a newer row over a sealed one until the shard seals.
    fill_shards(store, 1)
    store.close()
    start = colstore._SHARD_START.pack(0, 0, 8)
    result = colstore._RESULT.pack(3, -99.0, 1, 8, 0.1, 0.0, 2)
    with open(store.root / "shards.log", "ab") as log:
        log.write(colstore._pack_frame(colstore._K_SHARD_START, start))
    (store.root / "active" / "shard-0.log").write_bytes(
        colstore._pack_frame(colstore._K_RESULT, result + colstore._pack_str("L3"))
    )
    with ColumnarStore.open(store.path) as reopened:
        assert reopened.finished_shards() == set()
        seen = answers(reopened)
        assert reopened.top(1)[0]["best_score"] == -99.0
        assert reopened.counts()["done"] == 8
        reopened.finish_shard(0, 0.1)  # re-seals over the covering segment
        assert answers(reopened) == seen and reopened._active_rows == {}
    with ColumnarStore.open(store.path) as again:
        assert answers(again) == seen


def v1_topk_index():
    """The ``topk.idx`` an older build kept beside the manifest (valid bytes)."""
    with zipfile.ZipFile(io.BytesIO(base64.b64decode(V1_STORE_ZIP))) as archive:
        return archive.read("topk.idx")


@pytest.mark.parametrize("leftover", ["valid", "stale", "garbage"])
def test_leftover_topk_index_changes_no_answer(store, leftover):
    # An older build kept a ranking file; this one neither reads, rewrites
    # nor deletes it, whatever it holds.
    fill_shards(store, 2)
    store.start_shard(4, 32, 40)  # left open: its row stays in the overlay
    store.record_result(33, "L33", -99.0, 1, 8, 0.1, 0.0, attempts=2)
    expected = [store.top(k) for k in (1, 3, 16, 40)]
    data = {
        "valid": v1_topk_index(),
        "stale": b"RVSTOPK1" + b"\x00" * 16,
        "garbage": bytes(range(256)),
    }[leftover]
    index = store.root / "topk.idx"
    index.write_bytes(data)
    store.close()
    with ColumnarStore.open(store.path) as reopened:
        assert [reopened.top(k) for k in (1, 3, 16, 40)] == expected
        fill_shards(reopened, 2, first=2)  # two seals, then a compaction
        assert len(reopened._segments) == 2
        assert reopened.top(1)[0]["ordinal"] == 33
        assert len(reopened.top(40)) == 33
    assert index.read_bytes() == data


def test_top_overflows_capacity_with_full_scan(tmp_path):
    store = ColumnarStore.create(tmp_path / "c.col", CONFIG, "h", group_rows=4)
    fill_shards(store, 2)  # 16 done rows in four groups, k past each of them
    top = store.top(10)
    assert len(top) == 10
    scores = [r["best_score"] for r in top]
    assert scores == sorted(scores)
    store.close()


def count_group_row_calls(monkeypatch):
    calls = []
    original = colstore._group_row

    def counting(group, i):
        calls.append(i)
        return original(group, i)

    monkeypatch.setattr(colstore, "_group_row", counting)
    return calls


def test_compaction_and_top_k_scan_build_no_rows(tmp_path, monkeypatch):
    # Default group_rows: sixteen 2,000-row segments merge into one group.
    monkeypatch.setattr(ColumnarStore, "_maybe_compact", lambda self: None)
    store = ColumnarStore.create(tmp_path / "c.col", CONFIG, "h")
    fill_shards(store, 16, shard_size=2000)
    monkeypatch.undo()
    assert len(store._segments) == 16
    calls = count_group_row_calls(monkeypatch)
    tracemalloc.start()
    try:
        store._maybe_compact()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (merged,) = store._segments
    assert merged["rows"] == 32000
    # The decoded inputs are all a merge holds: ordinals, scores, title
    # offsets and heaps here (37 B a row), every constant column a
    # zero-stride view. Schema 1 held its 77 B blocks, the row-at-a-time
    # merge near 9x that. No row was built.
    nbytes = store._segment_path(merged).stat().st_size
    assert nbytes < 20 * merged["rows"]
    assert peak < 48 * merged["rows"], (peak, nbytes)
    assert calls == []
    # The scan ranks columns, then decodes the winners and nothing else.
    k = 600
    top = store.top(k)
    assert len(calls) == k
    ranked = sorted(range(32000), key=lambda o: (-1.0 - (o % 17) * 0.25, o))
    assert [r["ordinal"] for r in top] == ranked[:k]
    store.close()


def test_scans_and_compaction_leave_the_group_cache_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(ColumnarStore, "_maybe_compact", lambda self: None)
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )
    # One 10-group segment whose best rows all sit in its last group, then
    # three one-group segments for the compaction to merge.
    for shard_id, (start, stop) in enumerate(((0, 80), (80, 88), (88, 96), (96, 104))):
        store.start_shard(shard_id, start, stop)
        for o in range(start, stop):
            score = -100.0 - o if 72 <= o < 80 else -1.0 - o % 7
            store.record_result(o, f"L{o}", score, 0, 8, 0.1, 0.0)
        store.finish_shard(shard_id, 0.1)
    monkeypatch.undo()
    # The point-lookup working set fills the cache: groups 1..7, then 9.
    for ordinal in (8, 16, 24, 32, 40, 48, 56, 79):
        assert store._lookup(ordinal) is not None
    cached = list(store._groups)
    assert len(cached) == store._group_cache_max
    assert [r["ordinal"] for r in store.top(6)] == [79, 78, 77, 76, 75, 74]  # scan
    assert list(store._groups) == cached
    digest = store.science_digest()
    assert store.export_csv(io.StringIO()) == 104
    assert list(store._groups) == cached
    store._maybe_compact()
    assert [entry["rows"] for entry in store._segments] == [80, 24]
    assert list(store._groups) == cached
    assert store.science_digest() == digest
    # Uncached blocks are read from disk and CRC-checked by every scan.
    merged = store._segment_path(store._segments[1])
    data = bytearray(merged.read_bytes())
    data[8 + 3] ^= 0x01  # a score byte of the merged group
    merged.write_bytes(bytes(data))
    for scan in (store.science_digest, lambda: store.top(6)):
        with pytest.raises(CampaignError, match="CRC"):
            scan()
    store.close()


# ----------------------------------------------------------------------
# export parity
# ----------------------------------------------------------------------
def test_exports_match_sqlite_byte_for_byte(tmp_path):
    sq, co = both_stores(tmp_path)
    for st in (sq, co):
        st.start_shard(0, 0, 3)
        st.record_result(0, "L0", -2.5, 1, 20, 0.125, 0.25)
        st.record_failure(1, "L1", "ValueError: poisoned", 3)
        st.record_result(2, "L2", -3.5, 0, 20, 0.125, float("nan"))
    for fmt in ("export_csv", "export_json"):
        a, b = tmp_path / f"sq-{fmt}.out", tmp_path / f"co-{fmt}.out"
        assert getattr(sq, fmt)(a) == getattr(co, fmt)(b) == 3
    assert (tmp_path / "sq-export_csv.out").read_bytes() == (
        tmp_path / "co-export_csv.out"
    ).read_bytes()
    ra, rb = sq.to_report(), co.to_report()
    assert ra.to_json() == rb.to_json()
    sq.close()
    co.close()


# ----------------------------------------------------------------------
# on-disk bytes: schema 2 pinned, schema 1 still read
# ----------------------------------------------------------------------
def store_file_hashes(root):
    """sha256 of every file readers trust: live segments and the manifest."""
    files = sorted((root / "segments").glob("*.col"))
    files.append(root / "MANIFEST.json")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files
    }


def golden_shard(store, shard_id, start, stop, skip=(), finish=True):
    """One shard of every row shape: done, failed, left running, left pending,
    NULL simulated time, failure over a prior score, an unregistered gap."""
    store.start_shard(shard_id, start, stop)
    store.register_ligands(
        [(o, f"LIG{o:03d}") for o in range(start, stop) if o not in skip]
    )
    for o in range(start, stop):
        title = f"LIG{o:03d}"
        if o in skip or o % 13 == 6:
            continue  # never registered / stays pending (all columns NULL)
        store.mark_running(o)
        if o % 11 == 5:
            continue  # stays running: a crash mid-ligand
        sim = float("nan") if o % 5 == 0 else 0.5 * o
        if o % 7 != 3 or o % 2:
            store.record_result(
                o, title, -40.0 + (o * 37 % 101) / 8, o % 4, 100 + o,
                0.125 * o, sim, attempts=1 + o % 2,
            )
        if o % 7 == 3:  # odd ones fail *after* a result: score columns survive
            store.record_failure(o, title, f"ScoringError: pose {o} non-finite ±", 3)
    if finish:
        store.finish_shard(shard_id, 0.5 * (stop - start))


def golden_store(path, checkpoints):
    """The fixed sequence behind ``GOLDEN``; group_rows=5 against 7-row shards
    cuts every output group from slices of several input groups. Shards
    finish out of order, so compactions merge across open ones."""
    store = ColumnarStore.create(
        path, CONFIG, "hash-1", group_rows=5, compact_fanin=3
    )
    golden_shard(store, 0, 0, 7)
    golden_shard(store, 1, 7, 14, skip=(9, 12), finish=False)
    golden_shard(store, 2, 14, 21)
    golden_shard(store, 3, 21, 28, finish=False)
    store.record_result(24, "LIG024", 0.0, 2, 124, 3.0, 12.0)  # re-done after fail
    store.finish_shard(3, 3.5)  # third segment: 0, 2 and 3 compact around 1
    checkpoints.append(store_file_hashes(store.root))
    # Shard 1 finishes last: ordinal 9 is registered late, 12 only ever gets
    # a result, and the seal inserts them into the covering segment [0, 27].
    store.register_ligands([(9, "LIG009")])
    store.record_result(9, "LIG009", -41.25, 3, 109, 1.125, float("nan"))
    store.record_result(12, "LIG012", -0.0, 0, 112, 1.5, 6.0)
    store.record_failure(8, "LIG008", "", 2)  # empty error string is not NULL
    store.finish_shard(1, 1.0)
    checkpoints.append(store_file_hashes(store.root))
    golden_shard(store, 4, 28, 35)
    checkpoints.append(store_file_hashes(store.root))
    golden_shard(store, 5, 35, 42, finish=False)  # left open, through a reopen
    golden_shard(store, 6, 42, 49)  # second compaction, over the re-sealed one
    golden_shard(store, 7, 49, 56)
    checkpoints.append(store_file_hashes(store.root))
    return store


#: One {file: sha256} map per checkpoint of ``golden_store``: compact JSON,
#: footers of groups only, CRCs at a fixed width. ``V2_STORE_ZIP`` holds what
#: the writer of spaced, fuller JSON left for the same sequence.
GOLDEN = [
    {  # three shards compacted around open shard 1
        "seg-00000003.col": "2643cee06ce6ea951e2f9c0c32209fc8c34ab465c2fcdd42ffb6ad91ecca1e0b",
        "MANIFEST.json": "46ca1bc9d9594958b3e304595867d1a7e670d05dd625127b48a4182228e27a21",
    },
    {  # shard 1 re-sealed over the covering segment
        "seg-00000004.col": "c62ae25582e596f89e00df03683159f73b2bbb2e351f14f160fc7d11423feafa",
        "MANIFEST.json": "98eb3fcd8bcc2c5d006fe550c682c9c4b19f27f0e07f22b9cba45472d3e7b51d",
    },
    {  # plus one freshly sealed shard
        "seg-00000004.col": "c62ae25582e596f89e00df03683159f73b2bbb2e351f14f160fc7d11423feafa",
        "seg-00000005.col": "c6698263abd1eadd4a4c2967883d6c103a885594c4c4ccc3e5eb8b05fec67750",
        "MANIFEST.json": "18a093d13603c87381f0da78261ccb661e9c7374f8e8b36fec779df25f6a02e9",
    },
    {  # a second compaction across open shard 5, and a fresh shard
        "seg-00000007.col": "cc1da011c582da952b92e4737ef3059e7abf80c1a95f8c79fd48617d32a1af89",
        "seg-00000008.col": "c1db84602bca7427836bf0598a8d2ebb25ab33be88d609232dca1ceb7da3b846",
        "MANIFEST.json": "e363e16aa7d00ba52b1886833d6e97f5b6378a6815ebde736095a7205edc7582",
    },
]
#: The logical content at the last checkpoint: what the same sequence gives
#: on the SQLite store, which reads ordinal 12's ``-0.0`` back as ``0.0``.
GOLDEN_DIGEST = "2183e5f965fde88ee23ca1a38c48a91acd3525edb636b72a9693c862f8e3d700"
#: ... and after reopening that store, finishing shard 5 (a re-seal over the
#: covering segment) and sealing one more shard (a third compaction).
GOLDEN_DIGEST_REOPENED = "a0f85f82c0e127cd090498a7bb019bb1cfef10a177bc580b9bba72034e89778f"


def test_on_disk_bytes_match_the_row_at_a_time_writer(tmp_path):
    assert COLSTORE_SCHEMA_VERSION == 2
    checkpoints = []
    store = golden_store(tmp_path / "g.col", checkpoints)
    assert checkpoints == GOLDEN
    assert store.science_digest() == GOLDEN_DIGEST
    store.close()
    with ColumnarStore.open(tmp_path / "g.col") as reopened:
        assert reopened.science_digest() == GOLDEN_DIGEST
        reopened.finish_shard(5, 3.5)
        golden_shard(reopened, 8, 56, 63)
        assert [entry["rows"] for entry in reopened._segments] == [63]
        assert reopened.science_digest() == GOLDEN_DIGEST_REOPENED


#: What a writer puts in a segment footer, in each of its groups and in a
#: manifest entry. The store reads every one of these keys back, so none is
#: written only to be skipped.
FOOTER_KEYS = {"groups"}
GROUP_KEYS = {
    "rows", "lo", "hi", "crc", "layout", "title_heap", "error_heap", "offset",
    "nbytes",
}
ENTRY_KEYS = {"name", "seq", "rows", "lo", "hi", "counts"}


def footer_bytes(path):
    """A segment file's JSON footer, as written (the trailer locates it)."""
    data = path.read_bytes()
    trailer = len(data) - 8 - colstore._TRAILER.size
    offset, length, _ = colstore._TRAILER.unpack_from(data, trailer)
    return data[offset : offset + length]


def compact(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def assert_written_as_read(root, meta=True):
    """Every live file of ``root`` holds the key sets above in compact JSON,
    each group CRC padded to 10 characters; ``meta.json`` too unless an
    older writer created the store."""
    text = (root / "MANIFEST.json").read_text()
    manifest = json.loads(text)
    assert text == compact(manifest)
    if meta:
        text = (root / "meta.json").read_text()
        assert text == compact(json.loads(text))
    for entry in manifest["segments"]:
        assert set(entry) == ENTRY_KEYS
        raw = footer_bytes(root / "segments" / entry["name"])
        footer = json.loads(raw)
        assert set(footer) == FOOTER_KEYS
        assert all(set(group) == GROUP_KEYS for group in footer["groups"])
        crcs = re.findall(rb'"crc":( *[0-9]+)', raw)
        assert [len(crc) for crc in crcs] == [10] * len(footer["groups"])
        unpadded = re.sub(rb'"crc": *', b'"crc":', raw).decode()
        assert unpadded == json.dumps(footer, separators=(",", ":"))


def test_a_footer_and_a_manifest_entry_hold_what_readers_read(tmp_path):
    store = golden_store(tmp_path / "g.col", [])  # seals, re-seals, merges
    store.mark_complete(56)  # rewrites meta.json
    store.close()
    assert_written_as_read(tmp_path / "g.col")


def test_a_stores_size_does_not_hang_on_its_crc_digits(tmp_path):
    """The same rows but their wall-clock seconds: the one group's CRC has 10
    digits in the first store and 9 in the second, and every file of the two
    is the same size."""
    digits, sizes = [], []
    for wall in (0.125, 0.25):
        root = tmp_path / f"wall-{wall}.col"
        with ColumnarStore.create(root, CONFIG, "h") as store:
            store.start_shard(0, 0, 4)
            for ordinal in range(4):
                store.record_result(
                    ordinal, f"L{ordinal}", -1.0 - ordinal, 0, 8, wall + ordinal, 0.0
                )
            store.finish_shard(0, 1.0)
            (meta,) = store._footer(store._segments[0])["groups"]
            digits.append(len(str(meta["crc"])))
        sizes.append({name: len(data) for name, data in tree_bytes(root).items()})
    assert digits == [10, 9]
    assert sizes[0] == sizes[1]


#: The directory the last writer of spaced JSON (schema 2, e75ad52) left for
#: ``golden_store``, closed at its last checkpoint with shard 5 open: its
#: footers repeat their segment's totals and every group's status counts, and
#: its manifest entries carry their segment file's size. A zip of meta.json,
#: MANIFEST.json, shards.log, active/shard-5.log and two segments.
V2_STORE_ZIP = (
    "UEsDBBQAAAAIAAAAIQAfvBeJrAAAAF0BAAANAAAATUFOSUZFU1QuanNvbm2O0Q6CMAxFf4XsWc0m"
    "m6C/YoxBqLgEOoURNYR/twVFiezpnm67Pa3IAaFKvHUodsF2EQiEhz/WcHtjDXkJ6GvCfStS1wy5"
    "FZlDoBBKenRObAEZkSG4AmYWcyJNVDWIA4Ud4cXyPKZUOEr8GZOSi3jTUg4nWqWuEHx3enrgfXoj"
    "Fbe5e0/r3owdI2qd8zK/WmqiJSdaatQy5qOlt/Ne8Z+XkkZ/vaJRK+4O3QtQSwMEFAAAAAgAAAAh"
    "ACkeKktAAQAAHgMAABIAAABhY3RpdmUvc2hhcmQtNS5sb2eTOsAoxMDAUMB3pkCZAQLYgNjH093A"
    "2FQKIrku9DWHCrqkGVTy5uV9E1TRJc2hklrC7a/U0CUtoJKxUy8VqaNLWkIlw+QNNmmgSZoYQCUV"
    "Z6ZqaaJLGkodYOIAcu7sui0E84rUAWYnIDXhzLeTMCEwWGB7gBnKbEcWbxB0gDB+1DNhCQ2w+Uc3"
    "y0nAQgNqfqZhcqwKsjkXnA7AmB3I4gxCUPONHBixBCjY/OjNW67AAhRqPu/01T6qyMY0OByA6e9E"
    "EYea32DkgOF+c6j5O7ZYR8HiBCqktmXiNHW4ENhKAYsUd3UkkxkMnOBB1o1ipTDUSmNMKy2h5nct"
    "2+gPi0yo+YK7n/BoIJtzwP4AjNmDLM4gAjEfGCXoQQZKD2DzRZZJN8PSA9T8LzvqAzWRjXngDA+y"
    "XhT3Q81vMMFwv4khAFBLAwQUAAAACAAAACEAgete2qkAAAAGAQAACQAAAG1ldGEuanNvbj2OSw6D"
    "MAwFr4KyLov+VKl36BkiNxiIGpwoNu0CcffaiHaVZF7Gz4t7Qnghde7euJDTPBFUd7D7VBIKWtBD"
    "YtwY9XFQsLgJBUaca2SJwdzH0SzyXLKwgou+KgYskquXKAn3BlaArSBL88vNZNyqbuu/x4/Ao0l2"
    "tvv4FAegzgpoTklRLhIz8baU7QxBfA8USclZ86HmufiaP/blatM5jDiBf2NlNZWe1i9QSwMEFAAA"
    "AAgAAAAhAICbT7qLBAAA+REAABkAAABzZWdtZW50cy9zZWctMDAwMDAwMDcuY29s3VhbbxtFFB6v"
    "IdwKDkhAhRA2iygItWLnsrdy8aalQkhVqVqJF4SISdaOhbtr1nYhmFQGBI8QUX5AfkL5Bxa/oI99"
    "7A/goeIBoQohZs6cvWKnESBomERz5szM7pzzfd8ZO7nwzsXTb5+1qGEYdaPRbLabBNobczDX1rSd"
    "v67t+mltV+V8zaiTzbDb2yKlNm9rex3tDbQ32+V9qX8L7a/pelAzavUaWTny2NFnzr71pmVZ0FPo"
    "GfQceqF2m+bFjTjpR70zSRInJ1vDeBS2eCuKoxPdftQfh60ff6gRmRwhzXaDLGrDQCcVvKrtnkq+"
    "Ln/Ih4NLC58gP1WC/7m9eN+RQNvVIJ8zjGJyNvQO9C70HvR+XVJitJqyld54HRkgZAb9OjJjyfm6"
    "5ITEw4+SchC/VBC+jfa3StBPYJBH0T6F9umgbtSKQVNghAIjFBihwAgV5DnVFjBCrTIlkmKDNEgq"
    "t5vBvBTK7intB/k8JDcik8vo/16JvobRGgHZtz2L62a2zyBSboXsgBIKlFCghAIl1Jd7l2TnlrNr"
    "ZLTdwgIK2truIX3n1/KEZSEZn2x/Ov1Mu/dgYPeiXUF7H9r7Kwk+j/4xtC+gfVEVUpE2BrQxoI0B"
    "bQxoY0JK0pDVT1KtYZDXKqysIyurwVxyQWo7V8jsc730AB76YCW4tAAersy/VPGPo38ikBHLl+dB"
    "AxsM2GDABgM2mC+vHxl0Ow169ooObl5AVrUhJtNamxtKQ198Sb76Wi89goc2ysHM0mp9tBLky5V9"
    "Fvo0qMlYCkhzQJoD0hyQ5oA0F6CgRRLitFIghkEMpSKd3S5mNcNyD7JrQLfgNZUdMb75dpd8p6ce"
    "19HN0GblnbYn0bdxH1riVPa5SkekkJ2AjARkJAT0QJJwYP8equR8MK+Tq9/rl6eH4d0yc9H3AsAN"
    "Hgd2hTc1e0k8GY7Mk613p2YSf6xG9vGWOYjlwJKDrb4cCDnYSDbkiDqO4zHbd9XaoLMdT8ZydmrG"
    "yWY/6gzU42bSiXqhKddHw1itmhOqvPAyrmu3Mx6Hl4bjwsy4Px6E78fd7igsToeKucr0TrZ9K+wM"
    "5SS3sp3pDAQdTyJ4aGoOw0iG2MO0kkkU5d5mHIWYZrfTH4SbKlN1hj5Vep50og+2x6F6GWNq8c94"
    "2Slefo6X7XHb5YKz/wwv6wBgWcuwoiWsaI4VW44VY34RLeotRotm8qK5vnzLoZx63t0vL/uflJcA"
    "MAoCY4shyxRGc4kJ+ckpuPBc5/Bi9ldk5kBN3REzlsmM5TJjPmfC8eCOuCNk4854MsJY7sISXao3"
    "u4idVb7ObFEqUddZjF2mN5brjbuukL+O4IfzSivjVdCaWI4XtXipQJfdaTwTGy98ZgrbkQjbzP2/"
    "FGhBZHx5gVJG6UEqVLDse4aTg+ZxX/6Vxl3/cKpsKWD7qUxwvo/KWAaYmwHm5WXJbc/jlmMd6JtG"
    "8U7rDjo9Neb0X4SSsr9/wbF9oHRo6YZz/J331Gs0kiKD0iojueh4UTqeF6RvFc+3d3aurugv2uce"
    "IuTUlWM3LsA/fM6c+wNQSwMEFAAAAAgAAAAhABYB+m/DAQAAHgQAABkAAABzZWdtZW50cy9zZWct"
    "MDAwMDAwMDguY29stVTdSsMwFE478EpQvPIHXI23Cm3aUjtBpyIqiIKCNyJat2wWZlKyVJEx8CkU"
    "9Sl8g+EjeOfbmJNudZ1e6IW5OD/fOTnn5EvI0cnx1uG+7RimWTLRRNkqo8La7Gl1sd4rwBcbPWSW"
    "kIEeHtFTccdMVav7vh6s+9min+PhSF6ligyYZWx8anp+f2/H9kKQvq2loyXR0oX8xcXjGhcxa24L"
    "wUXFSnibWj6xGGfLjZjFklpvr+UJXdtay04xudUzS88vWcO5/rx9jVbzeQwYQnfytPQ7uCl4mrRx"
    "xTrtYMFvwfKXLNziyvBCZV3FALnKqomaMonnBq7rkdCBtOiOp1KhHcxFPWZRCwpgEbEmxSreTjhE"
    "ceqAR2/68cyNpKTXiRxCZCxb9Jw3Gm06DFMgYgTu5ulXNEoU6Np55gCBg9R4yvSmDk4oUyM2lQ2p"
    "ImUs8+Agdc4obFFmI4pbtA449Mi6Km9FOezyTlIoRghRwZwxMmDM93LG/JwxN/DcMFjxiP8bxmQk"
    "00HN/6HP/sadQ0a5s39Hnf1FHRmmzi5QR/Td5OQFTvcMqmTcBT+8tr9fnF+8uO6ykb34DxOh4H13"
    "4Uj/CtsHn1BLAwQUAAAACAAAACEAmTd5BqYAAADVAQAACgAAAHNoYXJkcy5sb2eTOsAqwcDAYHmY"
    "ZSUDGmCH0lIH2ASA1EnXS2aoCngcpCC6HVynn2JE08UH1w1Wcvq8ch4TmpQoqgWrEoo2wpSgWfBk"
    "yVYfZjRdMqi6rT9KyTNj6AZLuYhxPmBEkfpgDzV4zh3rPyxoBiqjGuzH+fgRC4puuLM8GxbLsqLp"
    "0kL19yEu8Z1saFKGqBbo6jinwpSgWfA2sXE2O5ouC1Tde/Zqn2ZH0w0AUEsBAhQDFAAAAAgAAAAh"
    "AB+8F4msAAAAXQEAAA0AAAAAAAAAAAAAAKQBAAAAAE1BTklGRVNULmpzb25QSwECFAMUAAAACAAA"
    "ACEAKR4qS0ABAAAeAwAAEgAAAAAAAAAAAAAApAHXAAAAYWN0aXZlL3NoYXJkLTUubG9nUEsBAhQD"
    "FAAAAAgAAAAhAIHrXtqpAAAABgEAAAkAAAAAAAAAAAAAAKQBRwIAAG1ldGEuanNvblBLAQIUAxQA"
    "AAAIAAAAIQCAm0+6iwQAAPkRAAAZAAAAAAAAAAAAAACkARcDAABzZWdtZW50cy9zZWctMDAwMDAw"
    "MDcuY29sUEsBAhQDFAAAAAgAAAAhABYB+m/DAQAAHgQAABkAAAAAAAAAAAAAAKQB2QcAAHNlZ21l"
    "bnRzL3NlZy0wMDAwMDAwOC5jb2xQSwECFAMUAAAACAAAACEAmTd5BqYAAADVAQAACgAAAAAAAAAA"
    "AAAApAHTCQAAc2hhcmRzLmxvZ1BLBQYAAAAABgAGAHgBAAChCgAAAAA="
)
#: What that build answered (as ``answers``: the science digest first) on the
#: store as unpacked, and after it finished shard 5 and sealed shard 8 (a merge
#: into one segment).
V2_ANSWERS = {
    "opened": (
        GOLDEN_DIGEST,
        "c3ca1466b1a33cc5079b64ffad27380dda462370830b60b0d25bd277ec07d688",
        "1c2206e7042203e9556c2ed245be5ee5971ca51c7159cb7e7176c4c2473028c5",
        "b060af84ba5d985a4f3b2cf0d3270f93c9068ff4ac315a52b8e03bae411a452a",
    ),
    "rewritten": (
        GOLDEN_DIGEST_REOPENED,
        "51cde29360b497eec8e1ed56852cac84e1a5c92469b08604c85c65c79c27ce92",
        "be4c3e10fd91832fee5026afeb577bc913aae55d3b81373c242d9f936d78fa15",
        "b1f0d4b03939081661fc731f77447d59be71f03e971df11a557d916bde1f5259",
    ),
}


def test_an_older_writers_schema_2_store_is_read_and_rewritten(tmp_path):
    root = tmp_path / "v2.col"
    with zipfile.ZipFile(io.BytesIO(base64.b64decode(V2_STORE_ZIP))) as archive:
        archive.extractall(root)
    manifest = json.loads((root / "MANIFEST.json").read_text())
    assert set(manifest["segments"][0]) == ENTRY_KEYS | {"nbytes"}
    footer = json.loads(footer_bytes(root / "segments" / "seg-00000007.col"))
    assert set(footer) == FOOTER_KEYS | {"rows", "lo", "hi", "counts"}
    assert set(footer["groups"][0]) == GROUP_KEYS | {"counts"}
    with ColumnarStore.open(root) as store:
        assert answers(store) == V2_ANSWERS["opened"]
        store.finish_shard(5, 3.5)  # re-seals one segment beside the other
    with ColumnarStore.open(root) as store:  # a manifest of both writers
        assert [entry["rows"] for entry in store._segments] == [49, 7]
        assert answers(store) == V2_ANSWERS["opened"]
        golden_shard(store, 8, 56, 63)
        assert [entry["rows"] for entry in store._segments] == [63]
        assert answers(store) == V2_ANSWERS["rewritten"]
    assert_written_as_read(root, meta=False)
    with ColumnarStore.open(root) as store:
        assert answers(store) == V2_ANSWERS["rewritten"]


#: The directory the last schema-1 build (8ed80d5) left for the sequence
#: ``golden_store`` then ran: a zip of meta.json, MANIFEST.json, topk.idx (the
#: ranking file builds of that time kept), shards.log and two segments.
V1_STORE_ZIP = (
    "UEsDBBQAAAAIAAAAIVwUt9qDrAAAAF0BAAANAAAATUFOSUZFU1QuanNvbm2O0Q6CMAxFf4XsWc0G"
    "yNBfMcYgVFwCHcKIGsK/24ISiOypp9vuPZ3IAaFOnLEojt5h4wmEl7s08PhiA3kJ6BrCUydS245z"
    "JzKLQIMf0qNbYgrIiCKCCjAzmBMFRHWLOJLfE94N7/lPYWmSXJiUHMRNWzkevUttIfju+nbAfaEK"
    "NKfZJ1OwH8zYUVPqmlc015ILLbnQUpNWqH5aQ/6KV/znpaSaeelJK+7P/QdQSwMEFAAAAAgAAAAh"
    "XF7xovi0AAAAGgEAAAkAAABtZXRhLmpzb249jt0OwjAIhV/F9FovjH+J7+AzNNixrbGjTaEas+zd"
    "hUW9Ar7D4TC7O4QHUueuGxdyahNBdVvrp5JQ0IQeEuPKqI+DgtlNKDBiq5ElBvPe9uYizyULKzjq"
    "VDFgkVy9REn4TWAFuBNk2fx0czKuUZfln+NH4NFMVnff8ykOQJ0FUEtJUS4SM/H6lP0MQXwPFEnJ"
    "QfWh5lZ8zS9bOSmQXB4+gC5GeSs7WyKHESfwT6ys15Tulw9QSwMEFAAAAAgAAAAhXLr/65ZSBAAA"
    "KRAAABkAAABzZWdtZW50cy9zZWctMDAwMDAwMDcuY29srVhNb9xEGHY2/abppgVKKKXrLuJDqBWe"
    "GXvXLoidUiqEqAC1EheESMh6kxWLvTgbaAlBAQRX+An9ARzCP1jxCzhyQeqNC4eKA0IIIcbjZ7ye"
    "WZtsIK8088w7Mx4/fuZ9Z7K5+data2/ccIgFmwPWgPPAQ6q/Vpuv1RuNTiPzXx5L2L2a4fi1DJev"
    "ZbiI/sLKCtXKyrrAEPgLJqzBX7fKbNxBg2fwE/x7HX2e8hcx74/8OfOLzS9X46kdEeWkKGdEWRLl"
    "gig3Xn3FcRxZE1lTWTNZuybfJsqt1TjpR2vXkyROrtjDeCO0mR3F0eVeP+qPQvuH7w8X3pnaUeAx"
    "4PGcp9gR22p06ua7pA35OPvOFzK8ix0rmLkTpq/sfeAA+EHFvMx+hcL3gb91yued5BmqnZnEmjJz"
    "Z2baEU/WLVm3Ze3LOkifWigpg3BFbEJ4e9hPwu4JLP+AIglcAJ4Czot8qNkNYRrjHxH+lrUj6+UX"
    "M9/J+6dENsNQWQwcAj8EJlaZ/Q6RVXj/CfzLEP8sz3AJeA54niteptj7EZ/IdCAyHYhMByLTgch0"
    "eKKklKQDcfR8UOG9CDwNPAN8UBGdm69ZdUsdUPcQ/8q+fSnz+aR/1q3YMPxN4EdWmf1tSD7HsSov"
    "nZ7bRYw383kmj7KTSVnllsh8IDIfiMwHIvOBBMWn99qStr4lD+Gxh4FngY8Al9QHpFbPs+Q+LgXe"
    "yfAusuLNyWWhrOo6Uv5t4B3gJ8At4Kfaaod4hoeBR4BHgce4/vYn4T8FfBr4zNSl8V+yhMosoTJL"
    "qMwSKrOETl0ayh4FngM+BjwPfFyxqM2lelvqVIK+u0YqLCMVFvm4KuSVqfFt4GfG+A7wc633OM/w"
    "BNdnqyN/weh/1vAvwb/My3Qt+kXelXrLFKAyBahMASpTgAZWhV0AqsPdBl4ENtXbxR1cq3eU3jvP"
    "jyWOjXgeYh/sq2Mznqu+5wvgl8a8r4Bfa72neIZ1rnXvqKv1tN5vPWfMc+ATXvVH2n7im8n4ZjK+"
    "mYxvJuOb5fE9wy3AiH7kbDXXknhzuNG8Yr+91Uzij9OWd8luDmLRcERjvS8armisJquixdpEZJff"
    "DtKxUX80CN9dD1eG6UjaE6bvynvkY/FmNEpX3WoOw6gr+GDhZDOKJl43jkK8qLfSH4Rd4ZBt4cW9"
    "3kY4Ep4vnOi9O6MwXcx1qBicZuwpxkHOmLiuxxwWeGRvxoRVMSZVjGmRMdUYu8QpcmY+KeVMcplJ"
    "QWePBq4XMK81g87eQercDoiuNCtnnUtNClozxxf3oe/9H9K61KRCap00IYE7C2uaa00nWlNxdwQ+"
    "9Sjdm7azb6m9ImtHZ+0FbS1CWn4561xrOtGaOW6rFbSZ6x4Y64LW7r+wDlreLKxZrjUrnh8uIy7z"
    "nQMMkYLYrDpEKGPMDJF30nUy2mz61Ks+v5j2floIUU231vb2Ln76rIjfn9990/v5pvwHwfXX/wFQ"
    "SwMEFAAAAAgAAAAhXCQtWf+YAQAA+QMAABkAAABzZWdtZW50cy9zZWctMDAwMDAwMDguY29snVPL"
    "SsNAFE0juBJ8deHKlvgGF8kkmaaCGFqKCEWhghsRqe20DZSkpikipdCdivoP7vyNfIL+gZ/inclM"
    "TVK70Atzzzlzb2bOTJLaxXn5rKpqG1IUmxy3OG5z3OEoy3JGXszlpByTb4chw49ShGM7lOKhlsI5"
    "KRmZlBb1B46PHJ9Sfc9xMV62I7IS4ZjjpL6a1BLifSjVp9tyypcsJSOu52Es0F1hrMFYh1E9OVZ1"
    "k2XMcoFli+WiNCN2Oe6JXeBSGQmPQoZf5VD0CmcvHF8TK2X5ybKpkxn2bycSJ6DuDJVlLf7YUGn7"
    "3qDXVw7yl0PF9+4oM/fzStcDolPWcSgrAmv4DaCaibFVNA0TwVTgBF1y3SH1Hm1SYYb4vueLGTrR"
    "8AZuQJcdKj3iNh23zQv+wHUjpYFqei4BagBt1Z0uadKuESiv1eqTAJQFwr25DwhdTMcWFCeWkbBs"
    "qMKyoU0sI2RaCBtThjX0T8Pqj2E027BewHHLmolGV3SZyHJh+pYjy3+6L5zcfrTE3/4n/Roqt+81"
    "9sNXTr8BUEsDBBQAAAAIAAAAIVzaY0b6jQAAALIBAAAKAAAAc2hhcmRzLmxvZ5M6wCrBwMBgeZhl"
    "JQMaYIfSUgfYBIDUSddLZqgKeBykILodXKefYkTTxYeqO+LKrhmM2HWfPq+cx4SmSxRV96qEoo1M"
    "2HUTYbeLGOcDVLs/2EN1P1my1YcZzU4ZVN3WH6XkmVF0w+2ec8f6DwuaLmVU3X6cjx+xYNft2bBY"
    "lhVNlxaq7vszun1Y0XQDAFBLAwQUAAAACAAAACFcOfdmbTkAAAB8AAAACAAAAHRvcGsuaWR4CwoL"
    "DvEP8DbkZIAANigGgwPeB5gYkMAClwOcyHwGlwMo3AfOBzSR+RecD3Cj6Hc+IAZlfq7gPQ8AUEsB"
    "AhQDFAAAAAgAAAAhXBS32oOsAAAAXQEAAA0AAAAAAAAAAAAAAIABAAAAAE1BTklGRVNULmpzb25Q"
    "SwECFAMUAAAACAAAACFcXvGi+LQAAAAaAQAACQAAAAAAAAAAAAAAgAHXAAAAbWV0YS5qc29uUEsB"
    "AhQDFAAAAAgAAAAhXLr/65ZSBAAAKRAAABkAAAAAAAAAAAAAAIABsgEAAHNlZ21lbnRzL3NlZy0w"
    "MDAwMDAwNy5jb2xQSwECFAMUAAAACAAAACFcJC1Z/5gBAAD5AwAAGQAAAAAAAAAAAAAAgAE7BgAA"
    "c2VnbWVudHMvc2VnLTAwMDAwMDA4LmNvbFBLAQIUAxQAAAAIAAAAIVzaY0b6jQAAALIBAAAKAAAA"
    "AAAAAAAAAACAAQoIAABzaGFyZHMubG9nUEsBAhQDFAAAAAgAAAAhXDn3Zm05AAAAfAAAAAgAAAAA"
    "AAAAAAAAAIABvwgAAHRvcGsuaWR4UEsFBgAAAAAGAAYAbgEAAB4JAAAAAA=="
)
#: What that build answered on the store as unpacked (science digest, then
#: sha256 of the JSON of ``top(k)`` for k in 1/3/6/7/100, of the JSON of
#: ``iter_results`` and of the CSV export), and what the writer that still
#: folded late rows answered after the two shards
#: ``test_schema_1_store_is_read_and_rewritten`` adds. The science digests
#: are re-captured since it hashes a zero score as ``0.0`` (ordinal 12 is
#: ``-0.0``); the other three hashes are that build's.
V1_ANSWERS = {
    "opened": (
        "423403d4d6b34445cd54a0f089deda0420bdf312487cb276faaf1956dc989e64",
        "01b044ece011fa659413b132d1bf669c219a9c2143db0a414943200f04cf410a",
        "cd4adfd99012bcc883b56726de61c2eab3703e291eeb9a547d6c074b96c8bb41",
        "29fe4371ad215aed3a8d2d441e0eeac6857ea89431bb1c42b089f9225751bff5",
    ),
    "rewritten": (
        "2a847c34f2b0d381c57f755084ea9c8a65315bac1bccb0b0489268b6922f26cc",
        "51eff81c4262cf3c75790b4bd2d1806bdcad2045424ee4ab4689e39f49950930",
        "289c9f050209452b649041c506e4116a21207a5ff18de58f6a94623c52c0da62",
        "c5450108e8e45fc7435da7232c82e3a7232ff3d7eb78bcd124498abb0d9487e0",
    ),
}


def unpack_v1_store(root):
    """The schema-1 ``golden_store`` directory, written under ``root``."""
    with zipfile.ZipFile(io.BytesIO(base64.b64decode(V1_STORE_ZIP))) as archive:
        archive.extractall(root)
    (root / "active").mkdir()
    return root


def answers(store):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    csv_out = io.StringIO()
    store.export_csv(csv_out)
    return (
        store.science_digest(),
        sha(json.dumps([store.top(k) for k in (1, 3, 6, 7, 100)])),
        sha(json.dumps(list(store.iter_results()))),
        sha(csv_out.getvalue()),
    )


def group_schemas(store):
    """1 or 2 per sealed row group, by whether its footer entry has a layout."""
    return [
        2 if "layout" in meta else 1
        for entry in store._segments
        for meta in store._footer(entry)["groups"]
    ]


def schema_on_disk(root):
    return json.loads((root / "meta.json").read_text())["schema_version"]


def test_schema_1_store_is_read_and_rewritten(tmp_path):
    root = unpack_v1_store(tmp_path / "v1.col")
    with ColumnarStore.open(root) as store:
        assert answers(store) == V1_ANSWERS["opened"]
        assert set(group_schemas(store)) == {1}
    assert schema_on_disk(root) == 1  # reading alone upgrades nothing
    with ColumnarStore.open(root) as store:
        # Shard 6 stays open while shard 7 seals the third segment: the merge
        # reads both schemas and writes one schema-2 segment spanning shard 6.
        golden_shard(store, 6, 42, 49, finish=False)
        golden_shard(store, 7, 49, 56)
        assert schema_on_disk(root) == 2
        assert group_schemas(store) == [2] * 10
        assert answers(store) == V1_ANSWERS["rewritten"]
    with ColumnarStore.open(root) as store:  # shard 6's log, through recovery
        assert answers(store) == V1_ANSWERS["rewritten"]
        store.finish_shard(6, 3.5)  # re-seals the covering segment
        assert group_schemas(store) == [2] * 12
        assert answers(store) == V1_ANSWERS["rewritten"]
    with ColumnarStore.open(root) as store:
        assert answers(store) == V1_ANSWERS["rewritten"]
    assert (root / "topk.idx").read_bytes() == v1_topk_index()  # left alone


def test_open_refuses_a_newer_schema_and_accepts_both_older(tmp_path):
    root = unpack_v1_store(tmp_path / "v1.col")
    meta = json.loads((root / "meta.json").read_text())
    for version, accepted in ((1, True), (2, True), (3, False), (None, False)):
        meta["schema_version"] = version
        (root / "meta.json").write_text(json.dumps(meta))
        if accepted:
            ColumnarStore.open(root).close()
        else:
            with pytest.raises(CampaignError, match="schema"):
                ColumnarStore.open(root)


def test_column_layout_follows_the_contents(store):
    """One segment per row shape; the footer says how each column was stored."""

    def seal(items):
        entry = store._write_segment([colstore._encode_group(items)])
        (meta,) = store._footer(entry)["groups"]
        (group,) = store._read_groups([entry])
        assert repr(list(colstore._rows_of(group))) == repr(items)
        return meta

    def bits(value):
        return struct.unpack("<q", struct.pack("<d", value))[0]

    def row(title="T", score=-1.0, spot=0, evals=8, attempts=1, error=None):
        status = "done" if error is None else "failed"
        return [title, status, score, spot, evals, 0.25, None, attempts, error]

    # The ledger fixtures' shape: only scores, title offsets and titles vary.
    meta = seal([(100 + i, row(f"L{i:02d}", -1.0 - i, spot=i % 8)) for i in range(16)])
    assert meta["layout"] == {
        "ordinals": "range", "status": 2, "flags": 15, "spot": "u1", "evals": 8,
        "wall": bits(0.25), "sim": 0, "attempts": 1,
        "title_offsets": "u1", "error_offsets": 0,
    }
    assert meta["nbytes"] == 16 * (8 + 1) + 17 + 16 * 3
    # Same bits or not: -0.0 beside 0.0 is two values, and a constant -0.0
    # comes back as -0.0.
    meta = seal([(0, row(score=-0.0)), (1, row(score=0.0))])
    assert "score" not in meta["layout"]
    meta = seal([(0, row(score=-0.0)), (1, row(score=-0.0))])
    assert meta["layout"]["score"] == bits(-0.0) == -(1 << 63)
    # Gaps in the ordinals, values below 0 and at 2^32, empty and non-ASCII
    # errors, a title heap past 64 KiB.
    meta = seal([
        (3, row(spot=-1, evals=255, attempts=1 << 32, error="")),
        (70000, row("µ" * 40000, evals=256, error="±")),
    ])
    assert meta["layout"] == {
        "ordinals": "<u4", "status": 3, "flags": 47, "score": bits(-1.0),
        "evals": "<u2", "wall": bits(0.25), "sim": 0, "error_offsets": "u1",
    }
    assert meta["title_heap"] == 80001 and meta["error_heap"] == 2
