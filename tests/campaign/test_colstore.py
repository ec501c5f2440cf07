"""Columnar campaign store: SQLite parity, sealing, compaction, top-K.

Every behavioural test here runs the same operation sequence against both
backends and asserts identical observable state — counts, science digest,
top-K ranking, export bytes — because the columnar store's whole contract
is "drop-in behind the store interface".
"""

import hashlib
import io
import json
import random
import tracemalloc

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
    with create_store(tmp_path / "a.sqlite", CONFIG, "h") as store:
        assert isinstance(store, CampaignStore)
    with create_store(
        tmp_path / "a.col", CONFIG, "h", backend="columnar", group_rows=8
    ) as store:
        assert isinstance(store, ColumnarStore)
    with pytest.raises(CampaignError, match="backend"):
        create_store(tmp_path / "b", CONFIG, "h", backend="parquet")
    with pytest.raises(CampaignError):
        # store options are a columnar-only concept
        create_store(tmp_path / "b.sqlite", CONFIG, "h", group_rows=8)


# ----------------------------------------------------------------------
# SQLite-parity semantics (same sequences, same observable state)
# ----------------------------------------------------------------------
def test_upsert_is_idempotent(store):
    store.record_result(3, "L3", -4.0, 0, 50, 0.1, 0.0)
    store.record_result(3, "L3", -4.5, 2, 60, 0.2, 0.0, attempts=2)
    assert store.counts()["done"] == 1
    row = store.top(1)[0]
    assert row["best_score"] == -4.5
    assert row["best_spot"] == 2


def test_failure_then_success_transitions(store):
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
    store.record_result(1, "L1", -2.0, 0, 10, 0.1, 0.0)
    store.register_ligands([(1, "L1"), (2, "L2")])
    counts = store.counts()
    assert counts["done"] == 1 and counts["pending"] == 1


def test_top_k_ordering_and_ties(store):
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
    store.start_shard(0, 0, 4)  # resume replay re-marks it running
    assert store.finished_shards() == set()


def test_done_ordinals_range_spans_sealed_and_overlay(store):
    store.start_shard(0, 0, 4)
    for ordinal in (0, 1):
        store.record_result(ordinal, f"L{ordinal}", -1.0, 0, 1, 0.1, 0.0)
    store.record_failure(2, "L2", "x", 1)
    store.finish_shard(0, 0.5)  # seals [0, 4) into a segment
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
def test_random_late_updates_to_sealed_rows_match_sqlite(tmp_path, group_rows):
    # Every shard seals, so compactions (fan-in 3) keep folding what the
    # late updates left in the overlay: patched groups, pass-through groups
    # and re-seals over a covering segment all land in the same files.
    rng = random.Random(20261002 + group_rows)
    sq, co = both_stores(tmp_path, group_rows=group_rows, compact_fanin=3)
    stores = (sq, co)
    for shard_id in range(12):
        random_shard(rng, stores, shard_id)
        sealed = shard_id * 10
        for _ in range(rng.randrange(6) if sealed else 0):
            ordinal, op = rng.randrange(sealed), rng.randrange(4)
            score = round(rng.uniform(-9.0, -1.0), 6)
            old = ordinal // 10
            for st in stores:
                if op == 0:
                    st.record_result(ordinal, f"L{ordinal}", score, 1, 65, 0.3, 0.4, 2)
                elif op == 1:
                    st.record_failure(ordinal, f"L{ordinal}", f"late {score}", 3)
                elif op == 2:
                    st.register_ligands([(ordinal, "ignored: the row exists")])
                else:  # lease reclaim: an old shard runs and seals again
                    st.start_shard(old, old * 10, old * 10 + 10)
                    st.mark_running(ordinal)
                    st.record_result(ordinal, f"L{ordinal}", score, 2, 66, 0.5, 0.6, 2)
                    st.finish_shard(old, 0.5)
        for st in stores:
            st.finish_shard(shard_id, 0.25)
        if shard_id % 4 == 3:
            co.wait_for_compaction()
            assert_parity(sq, co, k=25)
    co.wait_for_compaction()
    assert len(co._segments) < 3
    assert_parity_across_reopen(tmp_path, sq, co, 120)


@pytest.mark.parametrize("backend", ["sqlite", "columnar"])
@pytest.mark.parametrize("reseal", [True, False])
def test_reclaimed_result_outlives_an_older_late_failure(tmp_path, backend, reseal):
    # orphan.log holds the late failure of ordinal 0; the reclaim's result is
    # newer and must win after a reopen, sealed (`reseal`) or still in the
    # shard's log. Ordinal 5 belongs to no shard: its record has to stay.
    path = tmp_path / "store"
    st = create_store(path, CONFIG, "hash-1", backend=backend)
    st.start_shard(0, 0, 2)
    for ordinal in (0, 1):
        st.record_result(ordinal, f"L{ordinal}", -1.0, 0, 8, 0.1, 0.0)
    st.finish_shard(0, 0.1)
    st.record_failure(0, "L0", "late", 2)
    st.record_failure(5, "L5", "late, never sealed", 2)
    st.start_shard(0, 0, 2)
    st.record_result(0, "L0", -3.0, 1, 9, 0.1, 0.0)
    if reseal:
        st.finish_shard(0, 0.2)
    assert (st.counts()["done"], st.counts()["failed"]) == (2, 1)
    st.close()
    with open_store(path) as reopened:
        assert (reopened.counts()["done"], reopened.counts()["failed"]) == (2, 1)
        assert reopened.done_ordinals(0, 6) == {0, 1}
        assert [r["best_score"] for r in reopened.top(1)] == [-3.0]


def test_top_k_column_scan_breaks_ties_like_sqlite(tmp_path):
    # capacity 3 < k forces the scan; equal scores sit in different groups,
    # different segments and the overlay, and -0.0 must tie with 0.0.
    sq, co = both_stores(tmp_path, group_rows=4, compact_fanin=3, topk_capacity=3)
    scores = [-5.0, 0.0, -0.0, -5.0, -2.5, -0.0, 0.0, -5.0, -2.5, -7.0]
    for st in (sq, co):
        for shard_id in range(4):  # three shards compact, the fourth stands alone
            start = shard_id * 10
            st.start_shard(shard_id, start, start + 10)
            for i, score in enumerate(scores):
                st.record_result(start + i, f"L{start + i}", score, 0, 8, 0.1, 0.0)
            st.finish_shard(shard_id, 0.1)
        st.wait_for_compaction()
        st.record_failure(9, "L9", "late failure of a sealed best row", 2)
        st.record_result(4, "L4", -7.0, 1, 8, 0.1, 0.0)  # sealed row, new tie
        st.record_result(40, "L40", -7.0, 0, 8, 0.1, 0.0)  # overlay-only rows
        st.record_result(41, "L41", -0.0, 0, 8, 0.1, 0.0)
        st.record_failure(42, "L42", "never scored", 1)
    assert len(co._segments) == 2 and len(co._active_rows) == 5
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
# sealing, compaction, and the top-K index
# ----------------------------------------------------------------------
def fill_shards(store, n_shards, shard_size=8):
    for shard_id in range(n_shards):
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
    store.wait_for_compaction()  # compaction is async; settle the manifest
    before = list(store.science_rows())
    # fanin=3 keeps the manifest small no matter how many shards sealed.
    assert len(store._segments) < 3 + 2
    assert store.counts()["done"] == 72
    store.close()
    with ColumnarStore.open(tmp_path / "c.col") as reopened:
        assert list(reopened.science_rows()) == before


def test_compaction_runs_off_the_finish_shard_thread(tmp_path, monkeypatch):
    import threading

    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )
    threads = []
    original = ColumnarStore._maybe_compact

    def spying(self):
        threads.append(threading.current_thread().name)
        return original(self)

    monkeypatch.setattr(ColumnarStore, "_maybe_compact", spying)
    fill_shards(store, 3)
    store.wait_for_compaction()
    # finish_shard only scheduled the merge; the work ran on the background
    # compaction thread, not inline on the committing thread.
    assert any(name.startswith("colstore-compact") for name in threads)
    store.close()
    assert len(store._segments) < 3


def test_failed_background_compaction_surfaces_on_wait(tmp_path, monkeypatch):
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3
    )

    def boom(self):
        raise RuntimeError("compaction exploded")

    monkeypatch.setattr(ColumnarStore, "_maybe_compact", boom)
    fill_shards(store, 3)
    with pytest.raises(RuntimeError, match="compaction exploded"):
        store.wait_for_compaction()
    monkeypatch.undo()
    store.close()  # drains cleanly once compaction works again
    with ColumnarStore.open(tmp_path / "c.col") as reopened:
        assert reopened.counts()["done"] == 24  # no rows lost to the failure


def test_streaming_reads_are_consistent_during_background_compaction(tmp_path):
    # Regression: background compaction rewrites the segment list (and
    # unlinks the merged files) from its own thread while _iter_logical
    # streams it — an unlocked reader sees a half-swapped list and drops
    # whole merged runs. Hammer iter_results from a reader thread while the
    # writer seals shards; every sealed row must be visible in every pass.
    import threading

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
        store.wait_for_compaction()
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


def test_update_to_sealed_row_goes_to_orphan_log_and_wins(store):
    fill_shards(store, 1)
    # Ordinal 3 is sealed; a later cluster retry re-records it.
    store.record_result(3, "L3", -99.0, 1, 8, 0.1, 0.0, attempts=2)
    assert (store.root / "active" / "orphan.log").exists()
    assert store.top(1)[0]["ordinal"] == 3
    store.close()
    with ColumnarStore.open(store.path) as reopened:
        assert reopened.top(1)[0]["ordinal"] == 3
        assert reopened.counts()["done"] == 8


def test_stale_topk_index_is_detected_and_rebuilt(store):
    fill_shards(store, 2)
    (store.root / "topk.idx").write_bytes(b"RVSTOPK1" + b"\x00" * 16)
    store.close()
    with ColumnarStore.open(store.path) as reopened:
        assert reopened._topk_dirty
        assert [r["ordinal"] for r in reopened.top(3)] == [
            r["ordinal"] for r in store.top(3)
        ]
        assert not reopened._topk_dirty  # the query rebuilt it


def test_top_overflows_capacity_with_full_scan(tmp_path):
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, topk_capacity=4
    )
    fill_shards(store, 2)  # 16 done rows, index holds only the best 4
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
    monkeypatch.setattr(ColumnarStore, "_schedule_compaction", lambda self: None)
    store = ColumnarStore.create(tmp_path / "c.col", CONFIG, "h")
    fill_shards(store, 16, shard_size=2000)
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
    # The inputs' blocks are all a merge holds (the row-at-a-time merge
    # peaked near 9x the output) and no row was built.
    assert peak < 2 * merged["nbytes"], (peak, merged["nbytes"])
    assert calls == []
    # k beyond the index: the scan ranks columns, then decodes the winners.
    k = 600
    top = store.top(k)
    assert len(calls) <= 512 + k
    ranked = sorted(range(32000), key=lambda o: (-1.0 - (o % 17) * 0.25, o))
    assert [r["ordinal"] for r in top] == ranked[:k]
    store.close()


def test_scans_and_compaction_leave_the_group_cache_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(ColumnarStore, "_schedule_compaction", lambda self: None)
    store = ColumnarStore.create(
        tmp_path / "c.col", CONFIG, "h", group_rows=8, compact_fanin=3, topk_capacity=4
    )
    # One 10-group segment whose best rows all sit in its last group, then
    # three one-group segments for the compaction to merge.
    for shard_id, (start, stop) in enumerate(((0, 80), (80, 88), (88, 96), (96, 104))):
        store.start_shard(shard_id, start, stop)
        for o in range(start, stop):
            score = -100.0 - o if 72 <= o < 80 else -1.0 - o % 7
            store.record_result(o, f"L{o}", score, 0, 8, 0.1, 0.0)
        store.finish_shard(shard_id, 0.1)
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
    store._topk_dirty = True
    assert [r["ordinal"] for r in store.top(2)] == [79, 78]  # rebuilt by a scan
    assert not store._topk_dirty and list(store._groups) == cached
    store._maybe_compact()
    assert [entry["rows"] for entry in store._segments] == [80, 24]
    assert list(store._groups) == cached
    assert store.science_digest() == digest
    # Uncached blocks are read from disk and CRC-checked by every scan.
    merged = store._segment_path(store._segments[1])
    data = bytearray(merged.read_bytes())
    data[8 + 24 * 8 + 3] ^= 0x01  # a status byte of the merged group
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
# on-disk bytes are pinned to the layout schema v1 has always written
# ----------------------------------------------------------------------
def store_file_hashes(root):
    """sha256 of every file readers trust: live segments, manifest, index."""
    files = sorted((root / "segments").glob("*.col"))
    files += [root / "MANIFEST.json", root / "topk.idx"]
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files
    }


def golden_shard(store, shard_id, start, stop, skip=()):
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
    store.finish_shard(shard_id, 0.5 * (stop - start))
    store.wait_for_compaction()  # deterministic segment numbering


def golden_store(path, checkpoints):
    """The fixed sequence behind ``GOLDEN``; group_rows=5 against 7-row shards
    cuts every output group from slices of several input groups."""
    store = ColumnarStore.create(
        path, CONFIG, "hash-1", group_rows=5, compact_fanin=3, topk_capacity=6
    )
    golden_shard(store, 0, 0, 7)
    # Late upsert into sealed group [0, 5), failure over sealed done row 5.
    store.record_result(2, "LIG002", -55.5, 1, 999, 2.0, 4.0, attempts=2)
    store.record_failure(5, "LIG005", "lease expired", 4)
    golden_shard(store, 1, 7, 14, skip=(9, 12))
    golden_shard(store, 2, 14, 21)  # third segment: the compaction folds 2 and 5
    checkpoints.append(store_file_hashes(store.root))
    # Lease reclaim of shard 1 over the compacted segment [0, 20]: ordinal 9
    # is new inside its range, 12 arrives through the orphan log first.
    store.record_result(12, "LIG012", -0.0, 0, 112, 1.5, 6.0)
    store.start_shard(1, 7, 14)
    store.register_ligands([(9, "LIG009")])
    store.record_result(9, "LIG009", -41.25, 3, 109, 1.125, float("nan"))
    store.record_failure(8, "LIG008", "", 2)  # empty error string is not NULL
    store.finish_shard(1, 1.0)
    checkpoints.append(store_file_hashes(store.root))
    golden_shard(store, 3, 21, 28)
    checkpoints.append(store_file_hashes(store.root))
    store.record_result(24, "LIG024", 0.0, 2, 124, 3.0, 12.0)  # re-done after fail
    golden_shard(store, 4, 28, 35)  # second compaction, over the re-sealed one
    golden_shard(store, 5, 35, 42)
    checkpoints.append(store_file_hashes(store.root))
    return store


#: Captured by running ``golden_store`` on the commit before column batches
#: (4fe5174, row-at-a-time writer): one {file: sha256} map per checkpoint.
GOLDEN = [
    {  # three shards compacted into one segment, late upserts folded
        "seg-00000003.col": "a5ee97cc193dcbeddd24d3e6c5f5f22bced6556e88e2dc41d2664dc0adeeba0e",
        "MANIFEST.json": "798fe1221b1debe94a064510750008ac8e327b58ef885dbbf99bab9b502e78b5",
        "topk.idx": "a6012ef1c337de192fed4852271d620ae68e8f15bdda40dcc773834c835be1ca",
    },
    {  # re-sealed over the covering segment, ordinal 9 inserted
        "seg-00000004.col": "e00e840323075b8fda8c642f166ab3a03141678733a20985739924a0f152060f",
        "MANIFEST.json": "6b1272a56249972b653c226d25fec3b113f927621f29b144224838986b60348d",
        "topk.idx": "6bc33799acd681392e2233858235459513b3a64c901207852a270c9a7b4bd1ff",
    },
    {  # plus one freshly sealed shard
        "seg-00000004.col": "e00e840323075b8fda8c642f166ab3a03141678733a20985739924a0f152060f",
        "seg-00000005.col": "6d1a5f5e7557b0c6811cedf72824e2f57e69a2961ecd295cfdec4b7ba9dfe49a",
        "MANIFEST.json": "c072e4dfa2ea96499fd73f3610532feda749200e6eb5eae5d1cefc564ab3709b",
        "topk.idx": "aa375d53d846fc5bbe80aef25844677009770abd8f726040c503a4766794771b",
    },
    {  # second compaction (over the re-sealed segment) and a fresh shard
        "seg-00000007.col": "627d7d64291818d1d4e5b10c170d30cb2467e5bcbc463016d1f7098fa644229c",
        "seg-00000008.col": "0b6e13154789d0d870ee169d68207efc762827225b0f53e253abadbcf16cfeb6",
        "MANIFEST.json": "b3d9a5fc754192966482f1d86facb35f25ff505c9d602e128cc15aff9f17ded9",
        "topk.idx": "b50b7027599cbc2658f5921632e32774ae556a49320ba2e84a8aa9303521899e",
    },
]
GOLDEN_DIGEST = "7303436442d4c0b161c47f9fe1fac36e8f2901f4c72a3510d5f220a89dd90083"
#: ... and after reopening that store and sealing one more shard (a third
#: compaction, over bytes the old writer produced).
GOLDEN_DIGEST_REOPENED = "ee4af8b031586d73950f5cf8b72c748d5bc1d8c12454c1ea5ae78b788272faf6"


def test_on_disk_bytes_match_the_row_at_a_time_writer(tmp_path):
    assert COLSTORE_SCHEMA_VERSION == 1
    checkpoints = []
    store = golden_store(tmp_path / "g.col", checkpoints)
    assert checkpoints == GOLDEN
    assert store.science_digest() == GOLDEN_DIGEST
    store.close()
    # The files above *are* the old writer's, byte for byte: reopening them
    # and compacting once more is reading a store the old code wrote.
    with ColumnarStore.open(tmp_path / "g.col") as reopened:
        assert reopened.science_digest() == GOLDEN_DIGEST
        golden_shard(reopened, 6, 42, 49)
        assert [entry["rows"] for entry in reopened._segments] == [49]
        assert reopened.science_digest() == GOLDEN_DIGEST_REOPENED
