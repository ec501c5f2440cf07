"""SQLite campaign store: durability, idempotency, ranking, export."""

import csv
import json
import math
import sqlite3

import pytest

from repro.campaign.store import SCHEMA_VERSION, CampaignStore
from repro.errors import CampaignError

CONFIG = {
    "receptor_title": "store-test receptor",
    "n_spots": 4,
    "metaheuristic": "M1",
    "seed": 7,
}


@pytest.fixture()
def store(tmp_path):
    with CampaignStore.create(tmp_path / "c.sqlite", CONFIG, "hash-1") as s:
        yield s


def test_create_and_reopen_roundtrip(tmp_path):
    path = tmp_path / "c.sqlite"
    store = CampaignStore.create(path, CONFIG, "hash-1")
    store.record_result(0, "L0", -5.0, 1, 100, 0.1, 0.2)
    store.close()

    with CampaignStore.open(path) as reopened:
        assert reopened.config == CONFIG
        assert reopened.config_hash == "hash-1"
        assert reopened.counts()["done"] == 1
        assert not reopened.is_complete()


def test_create_refuses_existing(tmp_path):
    path = tmp_path / "c.sqlite"
    CampaignStore.create(path, CONFIG, "h").close()
    with pytest.raises(CampaignError, match="already exists"):
        CampaignStore.create(path, CONFIG, "h")


def test_open_missing_and_garbage(tmp_path):
    with pytest.raises(CampaignError, match="no campaign store"):
        CampaignStore.open(tmp_path / "nope.sqlite")
    garbage = tmp_path / "garbage.sqlite"
    garbage.write_text("definitely not a database " * 100)
    with pytest.raises(CampaignError):
        CampaignStore.open(garbage)


def test_open_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "c.sqlite"
    CampaignStore.create(path, CONFIG, "h").close()
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(CampaignError, match="schema"):
        CampaignStore.open(path)


def test_wal_mode_on_disk(store):
    mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"


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
    # A later retry that succeeds clears the failure record.
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


def test_top_uses_partial_index(store):
    plan = store._conn.execute(
        "EXPLAIN QUERY PLAN "
        "SELECT ordinal FROM ligands "
        "WHERE status = 'done' AND best_score IS NOT NULL "
        "ORDER BY best_score ASC, ordinal ASC LIMIT 5"
    ).fetchall()
    text = " ".join(str(tuple(row)) for row in plan)
    assert "ligands_score_idx" in text


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


def test_done_ordinals_range(store):
    for ordinal in (0, 1, 5):
        store.record_result(ordinal, f"L{ordinal}", -1.0, 0, 1, 0.1, 0.0)
    store.record_failure(2, "L2", "x", 1)
    assert store.done_ordinals(0, 4) == {0, 1}
    assert store.done_ordinals(4, 8) == {5}


def test_completion_flag(store):
    assert not store.is_complete()
    store.mark_complete(42)
    assert store.is_complete()
    assert store.n_ligands == 42


def test_export_json_and_csv(store, tmp_path):
    store.record_result(0, "L0", -2.5, 1, 20, 0.1, 0.3)
    store.record_failure(1, "L1", "ValueError: poisoned", 3)

    json_path = tmp_path / "dump.json"
    assert store.export_json(json_path) == 2
    payload = json.loads(json_path.read_text())
    assert payload["campaign"] == CONFIG
    assert payload["config_hash"] == "hash-1"
    assert payload["counts"]["done"] == 1
    rows = payload["results"]
    assert [r["ordinal"] for r in rows] == [0, 1]
    assert rows[0]["best_score"] == -2.5
    assert rows[1]["status"] == "failed"
    assert "poisoned" in rows[1]["error"]

    csv_path = tmp_path / "dump.csv"
    assert store.export_csv(csv_path) == 2
    with open(csv_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    assert parsed[0]["title"] == "L0"
    assert parsed[1]["status"] == "failed"


def test_to_report_orders_and_accumulates(store):
    store.record_result(2, "L2", -1.0, 0, 10, 0.1, 0.25)
    store.record_result(0, "L0", -3.0, 1, 10, 0.1, 0.5)
    store.record_result(1, "L1", -2.0, 0, 10, 0.1, float("nan"))
    store.record_failure(3, "L3", "x", 1)
    report = store.to_report()
    assert report.receptor_title == "store-test receptor"
    # Ordinal (submission) order, failed ligands omitted.
    assert [e.ligand_title for e in report.entries] == ["L0", "L1", "L2"]
    assert report.simulated_seconds == pytest.approx(0.75)
    # NaN simulated time survives on its entry without poisoning the total.
    assert math.isnan(report.entries[1].simulated_seconds)
    assert report.entries[0].simulated_seconds == pytest.approx(0.5)


def test_in_memory_store_works():
    with CampaignStore.create(":memory:", CONFIG, "h") as store:
        store.record_result(0, "L0", -1.0, 0, 1, 0.1, 0.0)
        assert store.counts()["done"] == 1


# ----------------------------------------------------------------------
# science digest + busy-database backoff (cluster durability satellites)
# ----------------------------------------------------------------------
def test_science_digest_covers_science_and_ignores_timing(tmp_path):
    a = CampaignStore.create(tmp_path / "a.sqlite", CONFIG, "h")
    b = CampaignStore.create(tmp_path / "b.sqlite", CONFIG, "h")
    a.record_result(0, "L0", -3.0, 1, 10, wall_seconds=0.1, simulated_seconds=0.2)
    b.record_result(0, "L0", -3.0, 1, 10, wall_seconds=9.9, simulated_seconds=0.3)
    a.record_failure(1, "L1", "boom", 2)
    b.record_failure(1, "L1", "boom", 7)  # attempt counts are not science
    assert a.science_digest() == b.science_digest()
    assert list(a.science_rows()) == [
        (0, "L0", "done", -3.0, 1, 10),
        (1, "L1", "failed", None, None, None),
    ]
    b.record_result(2, "L2", -1.0, 0, 5, 0.1, 0.1)  # science diverges
    assert a.science_digest() != b.science_digest()
    a.close()
    b.close()


class _FlakyConn:
    """Wraps the real connection; first N execute calls report a busy DB."""

    def __init__(self, real, failures, message="database is locked"):
        self._real = real
        self.failures = failures
        self.message = message
        self.attempts = 0

    def execute(self, sql, params=()):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError(self.message)
        return self._real.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_busy_database_is_retried_with_backoff(store):
    store._conn = _FlakyConn(store._conn, failures=2)
    store.record_result(0, "L0", -1.0, 0, 1, 0.1, 0.0)  # survives the lock
    assert store.counts()["done"] == 1
    assert store._conn.attempts >= 3


def test_persistently_locked_database_raises_campaign_error(store):
    store._conn = _FlakyConn(store._conn, failures=10_000)
    with pytest.raises(CampaignError, match="stayed locked"):
        store.record_result(0, "L0", -1.0, 0, 1, 0.1, 0.0)


def test_non_lock_operational_errors_propagate_unchanged(store):
    store._conn = _FlakyConn(store._conn, failures=1, message="no such table: x")
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        store.record_result(0, "L0", -1.0, 0, 1, 0.1, 0.0)
    assert store._conn.attempts == 1  # no retry on a real error
