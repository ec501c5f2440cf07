"""Append-only JSONL event record, kept for the perf ledger's one caller.

No campaign process writes or reads a journal: the store is the one durable
log (its shard rows and ``is_complete`` say what finished), and the flight
dumps are the record of what happened when. The only caller left is the
perf ledger's ``ingest_stream`` workload (``benchmarks/perf/workloads.py``),
which writes one beside its store to keep its byte counts comparable;
ROADMAP item 1a deletes this module together with that journal. A
``<store>.journal`` an older build left beside a store is never opened.

Durability contract: every :meth:`append` writes one JSON line, flushes and
``fsync`` s before returning, so a record is either fully on disk or not
there at all. A process killed mid-write leaves at most one truncated final
line, which :meth:`replay` detects and drops. Corruption anywhere *before*
the tail is a real integrity failure and raises.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CampaignError

__all__ = ["CampaignJournal", "JournalState"]


@dataclass
class JournalState:
    """Replay summary: which shards started/finished, campaign markers."""

    config_hash: str | None = None
    #: shard_id -> (start, stop) for every shard_start seen.
    started: dict[int, tuple[int, int]] = field(default_factory=dict)
    finished: set[int] = field(default_factory=set)
    campaign_finished: bool = False
    #: Records dropped from a truncated tail (0 or 1 under the fsync contract).
    truncated_records: int = 0

    def unfinished(self) -> set[int]:
        """Shards that started but never finished."""
        return set(self.started) - self.finished


class CampaignJournal:
    """Append-only JSONL journal, one fsync per record (see module docstring)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Append one record; durable before returning."""
        if "record" not in record:
            raise CampaignError(f"journal records need a 'record' key: {record}")
        # Wall-clock stamp (ms resolution): replay ignores it. Caller-provided
        # keys win.
        record = {"t": round(time.time(), 3), **record}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def flush(self) -> None:
        """Nothing to do: every :meth:`append` is already durable."""

    def campaign_start(self, config_hash: str) -> None:
        """Log campaign creation (binds the journal to one config)."""
        self.append({"record": "campaign_start", "config_hash": config_hash})

    def shard_start(self, shard_id: int, start: int, stop: int) -> None:
        """Log that a shard entered execution."""
        self.append(
            {"record": "shard_start", "shard": shard_id, "start": start, "stop": stop}
        )

    def shard_finish(self, shard_id: int, n_done: int, n_failed: int) -> None:
        """Log that a shard's every ligand is recorded in the store."""
        self.append(
            {
                "record": "shard_finish",
                "shard": shard_id,
                "done": n_done,
                "failed": n_failed,
            }
        )

    def campaign_finish(self, n_ligands: int) -> None:
        """Log that the whole library streamed through."""
        self.append({"record": "campaign_finish", "n_ligands": n_ligands})

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Parse the journal into a :class:`JournalState`.

        Tolerates exactly one malformed record at the tail (the crash
        artifact); malformed records elsewhere raise :class:`CampaignError`.
        """
        state = JournalState()
        if not self.path.exists():
            return state
        raw_lines = self.path.read_text(encoding="utf-8").split("\n")
        # A well-formed file ends with "\n" → last split element is "".
        lines = [line for line in raw_lines if line.strip()]
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "record" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                if index == len(lines) - 1:
                    state.truncated_records = 1
                    break
                raise CampaignError(
                    f"corrupt journal record at {self.path}:{index + 1}: {line[:80]!r}"
                ) from None
            self._apply(state, record)
        return state

    @staticmethod
    def _apply(state: JournalState, record: dict) -> None:
        kind = record["record"]
        if kind == "campaign_start":
            previous = state.config_hash
            state.config_hash = str(record.get("config_hash", ""))
            if previous is not None and previous != state.config_hash:
                raise CampaignError(
                    "journal config hash changed mid-file: "
                    f"{previous} -> {state.config_hash}"
                )
        elif kind == "shard_start":
            state.started[int(record["shard"])] = (
                int(record["start"]),
                int(record["stop"]),
            )
        elif kind == "shard_finish":
            state.finished.add(int(record["shard"]))
        elif kind == "campaign_finish":
            state.campaign_finished = True
        # Unknown kinds are ignored: forward compatibility for new markers.
