"""SQLite result store: one database per screening campaign.

The store is the durable record of a campaign — metadata (receptor
fingerprint, scoring/metaheuristic/seed config and its hash, schema
version), one row per ligand (scores, timings, ``pending``/``running``/
``done``/``failed`` status, failure text), and one row per shard. Design
points:

* **WAL mode** so the single writer never blocks readers (``campaign
  status``/``top`` against a live run).
* **Idempotent upserts keyed on the ligand ordinal** — re-recording a
  result is harmless, which is what makes crash/resume replay safe.
* **Indexed top-K** via a partial index on ``(best_score)`` for ``done``
  rows: ranking a million-ligand campaign reads K index entries, never the
  full table.
* **Streaming export** to JSON or CSV, row by row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import Iterator, TextIO

from repro.errors import CampaignError
from repro.vs.results import ScreeningEntry, ScreeningReport

__all__ = ["CampaignStore", "SCHEMA_VERSION", "export_report"]

#: Bounded retry on SQLite "database is locked": a campaign store is
#: single-writer by design, but `campaign status`/`top` readers, WAL
#: checkpoints, and (in cluster mode) coordinator handler threads can
#: briefly contend. 6 doubling sleeps from 10 ms cover ~0.6 s of contention
#: before surfacing a CampaignError.
_LOCK_ATTEMPTS = 6
_LOCK_BACKOFF_S = 0.01

#: Bump on any incompatible schema change; ``open`` refuses mismatches.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS ligands (
    ordinal           INTEGER PRIMARY KEY,
    title             TEXT NOT NULL,
    status            TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'running', 'done', 'failed')),
    best_score        REAL,
    best_spot         INTEGER,
    evaluations       INTEGER,
    wall_seconds      REAL,
    simulated_seconds REAL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    error             TEXT
);
CREATE INDEX IF NOT EXISTS ligands_score_idx
    ON ligands (best_score, ordinal) WHERE status = 'done';
CREATE TABLE IF NOT EXISTS shards (
    shard_id     INTEGER PRIMARY KEY,
    start        INTEGER NOT NULL,
    stop         INTEGER NOT NULL,
    status       TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'running', 'done')),
    wall_seconds REAL
);
"""

_RESULT_COLUMNS = (
    "ordinal",
    "title",
    "status",
    "best_score",
    "best_spot",
    "evaluations",
    "wall_seconds",
    "simulated_seconds",
    "attempts",
    "error",
)


def export_report(store, destination: str | Path | TextIO) -> int:
    """Stream a store's completed ligands as ``ScreeningReport`` JSON.

    Produces output :meth:`repro.vs.results.ScreeningReport.from_json` reads
    back, without ever materialising the report: rows stream one at a time
    from :meth:`iter_results`, and the ``simulated_seconds`` total — only
    known once the stream ends — is written *after* the entries
    (``from_json`` is key-order agnostic). This is the export path a
    million-row campaign report relies on; ``to_report()`` remains for
    callers that want the in-memory object. Works on any store backend.
    Returns the number of entries written.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_report(store, handle)
    from repro.vs.results import _encode_float

    config = store.config
    title = str(config.get("receptor_title") or "receptor")
    destination.write(
        f'{{"receptor_title": {json.dumps(title)}, "entries": ['
    )
    n = 0
    simulated_total = 0.0
    for row in store.iter_results():
        if row["status"] != "done":
            continue
        simulated = row["simulated_seconds"]
        entry = {
            "ligand_title": str(row["title"]),
            "best_score": _encode_float(float(row["best_score"])),
            "best_spot": int(row["best_spot"]),
            "evaluations": int(row["evaluations"]),
            "simulated_seconds": _encode_float(
                float("nan") if simulated is None else float(simulated)
            ),
        }
        destination.write(("," if n else "") + "\n" + json.dumps(entry))
        if simulated is not None:
            simulated_total += float(simulated)
        n += 1
    destination.write(
        '\n], "simulated_seconds": '
        f"{json.dumps(_encode_float(simulated_total))}}}\n"
    )
    return n


# ----------------------------------------------------------------------
# the read side both backends share
# ----------------------------------------------------------------------
# Written once over ``science_rows`` / ``iter_results`` / ``config`` /
# ``config_hash`` / ``counts`` and bound as methods of each store class
# (the perf harness looks them up in each class's own namespace).
def _science_digest(store) -> str:
    """SHA-256 over :meth:`science_rows` — the store-parity fingerprint.

    Two stores of the same campaign config compare equal here iff their
    science is identical, whatever their backend; parity tests and the
    multinode benchmark use this instead of comparing whole store files
    (which differ in timings and layout). A zero score hashes as ``0.0``:
    SQLite reads a stored ``-0.0`` back as ``0.0``, the columnar store keeps
    its sign, and the sign of a zero is not science.
    """
    digest = hashlib.sha256()
    for row in store.science_rows():
        if row[3] == 0.0:
            row = (*row[:3], 0.0, *row[4:])
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _export_json(store, destination: str | Path | TextIO) -> int:
    """Write the full campaign dump as JSON; returns rows written.

    Rows stream one at a time — the full table is never in memory.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return store.export_json(handle)
    destination.write('{"campaign": ')
    destination.write(json.dumps(store.config, sort_keys=True))
    destination.write(f', "config_hash": {json.dumps(store.config_hash)}')
    destination.write(f', "counts": {json.dumps(store.counts())}')
    destination.write(', "results": [')
    n = 0
    for row in store.iter_results():
        destination.write(("," if n else "") + "\n" + json.dumps(row))
        n += 1
    destination.write("\n]}\n")
    return n


def _export_csv(store, destination: str | Path | TextIO) -> int:
    """Write per-ligand rows as CSV; returns rows written."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            return store.export_csv(handle)
    writer = csv.writer(destination)
    writer.writerow(_RESULT_COLUMNS)
    n = 0
    for row in store.iter_results():
        writer.writerow([row[column] for column in _RESULT_COLUMNS])
        n += 1
    return n


def _to_report(store) -> ScreeningReport:
    """Materialise completed ligands as a :class:`ScreeningReport`.

    Failed/pending ligands are omitted (they have no score); entries keep
    ordinal (submission) order, matching ``screen()``.
    """
    config = store.config
    report = ScreeningReport(
        receptor_title=str(config.get("receptor_title") or "receptor")
    )
    for row in store.iter_results():
        if row["status"] != "done":
            continue
        simulated = row["simulated_seconds"]
        report.add(
            ScreeningEntry(
                ligand_title=str(row["title"]),
                best_score=float(row["best_score"]),
                best_spot=int(row["best_spot"]),
                evaluations=int(row["evaluations"]),
                simulated_seconds=(
                    float("nan") if simulated is None else float(simulated)
                ),
            )
        )
        if simulated is not None:
            report.simulated_seconds += float(simulated)
    return report


class CampaignStore:
    """Durable per-campaign result database (see module docstring).

    Use :meth:`create` for a fresh campaign and :meth:`open` to attach to an
    existing one; the constructor is internal. The store is also a context
    manager (closes on exit).
    """

    def __init__(self, connection: sqlite3.Connection, path: str) -> None:
        self._conn = connection
        self.path = path

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, path: str | Path, config: dict, config_hash: str
    ) -> "CampaignStore":
        """Create a fresh campaign store; refuses to overwrite an existing one."""
        path = str(path)
        if path != ":memory:" and Path(path).exists() and Path(path).stat().st_size:
            raise CampaignError(
                f"campaign store already exists at {path}; "
                "use resume to continue it"
            )
        store = cls(cls._connect(path), path)
        store._conn.executescript(_SCHEMA)
        store._set_meta("schema_version", str(SCHEMA_VERSION))
        store._set_meta("config", json.dumps(config, sort_keys=True))
        store._set_meta("config_hash", config_hash)
        store._set_meta("completed", "0")
        return store

    @classmethod
    def open(cls, path: str | Path) -> "CampaignStore":
        """Attach to an existing campaign store, validating the schema."""
        path = str(path)
        if path != ":memory:" and not Path(path).exists():
            raise CampaignError(f"no campaign store at {path}")
        store = cls(cls._connect(path), path)
        version = store._get_meta("schema_version")
        if version is None:
            store.close()
            raise CampaignError(f"{path} is not a campaign store (no metadata)")
        if int(version) != SCHEMA_VERSION:
            store.close()
            raise CampaignError(
                f"campaign store schema v{version} != supported v{SCHEMA_VERSION}"
            )
        return store

    @staticmethod
    def _connect(path: str) -> sqlite3.Connection:
        # Autocommit: every statement is its own durable transaction, so a
        # SIGKILL loses at most the in-flight ligand. check_same_thread is
        # off because the cluster coordinator commits results from its
        # per-node handler threads (serialised under the coordinator lock).
        try:
            conn = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=2000")
        except sqlite3.DatabaseError as exc:
            raise CampaignError(f"{path} is not a campaign store: {exc}") from None
        return conn

    def _execute(self, sql: str, params=(), many: bool = False):
        """Run one write statement with bounded backoff on lock contention."""
        delay = _LOCK_BACKOFF_S
        for attempt in range(1, _LOCK_ATTEMPTS + 1):
            try:
                if many:
                    return self._conn.executemany(sql, params)
                return self._conn.execute(sql, params)
            except sqlite3.OperationalError as exc:
                text = str(exc).lower()
                if "locked" not in text and "busy" not in text:
                    raise
                if attempt >= _LOCK_ATTEMPTS:
                    raise CampaignError(
                        f"campaign store at {self.path} stayed locked after "
                        f"{_LOCK_ATTEMPTS} attempts: {exc}"
                    ) from exc
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the database connection."""
        self._conn.close()

    def wait_for_compaction(self) -> None:
        """No-op: SQLite has no tiered compaction (columnar-store parity)."""

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def _set_meta(self, key: str, value: str) -> None:
        self._execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _get_meta(self, key: str) -> str | None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise CampaignError(f"{self.path} is not a campaign store: {exc}") from None
        return None if row is None else str(row["value"])

    @property
    def config(self) -> dict:
        """The campaign configuration recorded at creation."""
        text = self._get_meta("config")
        if text is None:
            raise CampaignError("campaign store has no recorded config")
        return json.loads(text)

    @property
    def config_hash(self) -> str:
        """Hash of the result-affecting configuration."""
        value = self._get_meta("config_hash")
        if value is None:
            raise CampaignError("campaign store has no recorded config hash")
        return value

    def is_complete(self) -> bool:
        """True once every shard has finished (set by the runner)."""
        return self._get_meta("completed") == "1"

    def mark_complete(self, n_ligands: int) -> None:
        """Record that the campaign streamed and processed the whole library."""
        self._set_meta("n_ligands", str(n_ligands))
        self._set_meta("completed", "1")

    @property
    def n_ligands(self) -> int | None:
        """Total library size, known once the campaign completed."""
        value = self._get_meta("n_ligands")
        return None if value is None else int(value)

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------
    def start_shard(self, shard_id: int, start: int, stop: int) -> None:
        """Mark a shard running (idempotent across resume replays).

        A finished shard never re-opens (columnar-store parity).
        """
        row = self._conn.execute(
            "SELECT status FROM shards WHERE shard_id = ?", (shard_id,)
        ).fetchone()
        if row is not None and row["status"] == "done":
            raise CampaignError(f"shard {shard_id} is finished; it never re-opens")
        self._execute(
            "INSERT OR IGNORE INTO shards (shard_id, start, stop, status) "
            "VALUES (?, ?, ?, 'running')",
            (shard_id, start, stop),
        )

    def finish_shard(self, shard_id: int, wall_seconds: float) -> None:
        """Mark a shard done."""
        self._execute(
            "UPDATE shards SET status = 'done', wall_seconds = ? WHERE shard_id = ?",
            (wall_seconds, shard_id),
        )

    def finished_shards(self) -> set[int]:
        """IDs of shards whose every ligand is recorded."""
        rows = self._conn.execute(
            "SELECT shard_id FROM shards WHERE status = 'done'"
        ).fetchall()
        return {int(r["shard_id"]) for r in rows}

    # ------------------------------------------------------------------
    # ligands
    # ------------------------------------------------------------------
    def register_ligands(self, items: list[tuple[int, str]]) -> None:
        """Insert pending rows for (ordinal, title) pairs; existing rows win."""
        self._execute(
            "INSERT OR IGNORE INTO ligands (ordinal, title) VALUES (?, ?)",
            items,
            many=True,
        )

    def mark_running(self, ordinal: int) -> None:
        """Flag one ligand as in flight."""
        self._execute(
            "UPDATE ligands SET status = 'running' WHERE ordinal = ?", (ordinal,)
        )

    def record_result(
        self,
        ordinal: int,
        title: str,
        best_score: float,
        best_spot: int,
        evaluations: int,
        wall_seconds: float,
        simulated_seconds: float,
        attempts: int = 1,
    ) -> None:
        """Upsert one completed ligand (idempotent on ordinal)."""
        self._execute(
            "INSERT INTO ligands (ordinal, title, status, best_score, best_spot,"
            " evaluations, wall_seconds, simulated_seconds, attempts, error) "
            "VALUES (?, ?, 'done', ?, ?, ?, ?, ?, ?, NULL) "
            "ON CONFLICT(ordinal) DO UPDATE SET "
            " title = excluded.title, status = 'done',"
            " best_score = excluded.best_score, best_spot = excluded.best_spot,"
            " evaluations = excluded.evaluations,"
            " wall_seconds = excluded.wall_seconds,"
            " simulated_seconds = excluded.simulated_seconds,"
            " attempts = excluded.attempts, error = NULL",
            (
                ordinal,
                title,
                float(best_score),
                int(best_spot),
                int(evaluations),
                float(wall_seconds),
                float(simulated_seconds),
                int(attempts),
            ),
        )

    def record_failure(
        self, ordinal: int, title: str, error: str, attempts: int
    ) -> None:
        """Record a ligand that exhausted its attempts; the campaign moves on."""
        self._execute(
            "INSERT INTO ligands (ordinal, title, status, attempts, error) "
            "VALUES (?, ?, 'failed', ?, ?) "
            "ON CONFLICT(ordinal) DO UPDATE SET "
            " title = excluded.title, status = 'failed',"
            " attempts = excluded.attempts, error = excluded.error",
            (ordinal, title, int(attempts), error),
        )

    def done_ordinals(self, start: int, stop: int) -> set[int]:
        """Ordinals already completed in ``[start, stop)`` — never redone."""
        rows = self._conn.execute(
            "SELECT ordinal FROM ligands "
            "WHERE status = 'done' AND ordinal >= ? AND ordinal < ?",
            (start, stop),
        ).fetchall()
        return {int(r["ordinal"]) for r in rows}

    def counts(self) -> dict[str, int]:
        """Ligand counts per status (absent statuses are 0)."""
        rows = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM ligands GROUP BY status"
        ).fetchall()
        counts = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for row in rows:
            counts[str(row["status"])] = int(row["n"])
        return counts

    # ------------------------------------------------------------------
    # queries and export
    # ------------------------------------------------------------------
    def top(self, k: int = 10) -> list[sqlite3.Row]:
        """The ``k`` best completed ligands, ascending score.

        Served by the partial ``(best_score, ordinal)`` index — K index
        probes, independent of campaign size.
        """
        if k < 1:
            raise CampaignError(f"k must be >= 1, got {k}")
        return self._conn.execute(
            "SELECT ordinal, title, best_score, best_spot, evaluations,"
            " wall_seconds, simulated_seconds FROM ligands "
            "WHERE status = 'done' AND best_score IS NOT NULL "
            "ORDER BY best_score ASC, ordinal ASC LIMIT ?",
            (k,),
        ).fetchall()

    def science_rows(self) -> Iterator[tuple]:
        """Stream the result-affecting columns only, in ordinal order.

        Excludes wall-clock timings and attempt counts — everything that
        legitimately varies between two executions of the same campaign.
        What remains (ordinal, title, status, score, spot, evaluations) is
        bitwise identical across shard sizes, worker counts, node counts,
        and crash/resume boundaries.
        """
        cursor = self._conn.execute(
            "SELECT ordinal, title, status, best_score, best_spot, evaluations "
            "FROM ligands ORDER BY ordinal"
        )
        for row in cursor:
            yield tuple(row)

    def iter_results(self) -> Iterator[dict]:
        """Stream every ligand row as a dict, in ordinal order."""
        cursor = self._conn.execute(
            f"SELECT {', '.join(_RESULT_COLUMNS)} FROM ligands ORDER BY ordinal"
        )
        for row in cursor:
            yield {column: row[column] for column in _RESULT_COLUMNS}

    science_digest = _science_digest
    export_json = _export_json
    export_csv = _export_csv
    to_report = _to_report
