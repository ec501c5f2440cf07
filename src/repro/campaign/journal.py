"""Crash-safe campaign journal: an append-only JSONL event record.

The journal records campaign lifecycle events at *shard* granularity — one
fsync'd line per shard start/finish, plus campaign start/resume/finish
markers. The store holds the science (per-ligand rows) and alone decides
which shards are finished when a campaign resumes; the journal is the
record of what happened when ("shard 7 started on node 1"), which
``repro-vs doctor`` reads. Resume only checks that its config hash matches.

Durability contract: by default every :meth:`append` flushes and ``fsync`` s
before returning, so a record is either fully on disk or not there at all. A
process killed mid-write leaves at most one truncated final line, which
:meth:`replay` detects and drops.
Corruption anywhere *before* the tail is a real integrity failure and
raises.

Group commit: at million-ligand scale one fsync per shard becomes the
bottleneck, so ``batch_records``/``batch_seconds`` buffer shard markers and
commit them in one write+fsync per batch. Campaign lifecycle markers
(start/resume/finish) always flush immediately. Batching is safe because the
store is authoritative for finished shards — ``store.finish_shard`` commits
before the journal's ``shard_finish``, so a SIGKILL that loses buffered
markers loses record lines, never a result or a shard's finished state.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import observability as obs
from repro.errors import CampaignError
from repro.observability.flight import flight_event

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
        """Shards that started but never finished — the resume work list."""
        return set(self.started) - self.finished


class CampaignJournal:
    """Append-only JSONL journal for one campaign (see module docstring).

    ``batch_records=1`` (the default) keeps the original one-fsync-per-record
    contract; larger values group-commit up to that many records — or
    whatever accumulated within ``batch_seconds`` of the oldest buffered
    record — per fsync.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        batch_records: int = 1,
        batch_seconds: float = 0.0,
    ) -> None:
        if batch_records < 1:
            raise CampaignError(
                f"batch_records must be >= 1, got {batch_records}"
            )
        if batch_seconds < 0:
            raise CampaignError(
                f"batch_seconds must be >= 0, got {batch_seconds}"
            )
        self.path = Path(path)
        self.batch_records = int(batch_records)
        self.batch_seconds = float(batch_seconds)
        self._buffer: list[str] = []
        self._buffer_t0 = 0.0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict, urgent: bool = False) -> None:
        """Append one record; durable before returning unless batched.

        ``urgent`` forces an immediate group commit of everything buffered
        (campaign lifecycle markers use it).
        """
        if "record" not in record:
            raise CampaignError(f"journal records need a 'record' key: {record}")
        if not self._buffer:
            self._buffer_t0 = time.monotonic()
        # Wall-clock stamp (ms resolution): replay ignores it, the doctor
        # rebuilds campaign timelines from it. Caller-provided keys win.
        record = {"t": round(time.time(), 3), **record}
        self._buffer.append(json.dumps(record, sort_keys=True))
        obs.counter("campaign.journal.appends").inc()
        if (
            urgent
            or len(self._buffer) >= self.batch_records
            or (
                self.batch_seconds > 0.0
                and time.monotonic() - self._buffer_t0 >= self.batch_seconds
            )
        ):
            self.flush()

    def flush(self) -> None:
        """Group-commit every buffered record in one write + fsync."""
        if not self._buffer:
            return
        lines, self._buffer = self._buffer, []
        t0 = time.perf_counter()
        with obs.span("campaign.journal.fsync", records=len(lines)):
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        obs.counter("campaign.journal.flushes").inc()
        fsync_s = time.perf_counter() - t0
        obs.histogram("campaign.journal.fsync_seconds").observe(fsync_s)
        if fsync_s >= 0.1:
            # A stalled fsync is exactly what the black box should remember.
            flight_event(
                "journal.stall", records=len(lines), seconds=round(fsync_s, 6)
            )

    def campaign_start(self, config_hash: str) -> None:
        """Log campaign creation (binds the journal to one config)."""
        self.append(
            {"record": "campaign_start", "config_hash": config_hash}, urgent=True
        )

    def campaign_resume(self, config_hash: str) -> None:
        """Log a resume attach."""
        self.append(
            {"record": "campaign_resume", "config_hash": config_hash}, urgent=True
        )

    def shard_start(
        self, shard_id: int, start: int, stop: int, node: int | None = None
    ) -> None:
        """Log that a shard entered execution.

        ``node`` attributes the shard to a cluster worker node; replay
        ignores it (extra keys are forward-compatible), it exists for
        post-mortem reads of a distributed campaign's journal.
        """
        record = {
            "record": "shard_start",
            "shard": shard_id,
            "start": start,
            "stop": stop,
        }
        if node is not None:
            record["node"] = int(node)
        self.append(record)

    def shard_finish(
        self, shard_id: int, n_done: int, n_failed: int, node: int | None = None
    ) -> None:
        """Log that a shard's every ligand is recorded in the store."""
        record = {
            "record": "shard_finish",
            "shard": shard_id,
            "done": n_done,
            "failed": n_failed,
        }
        if node is not None:
            record["node"] = int(node)
        self.append(record)

    def campaign_finish(self, n_ligands: int) -> None:
        """Log that the whole library streamed through."""
        self.append(
            {"record": "campaign_finish", "n_ligands": n_ligands}, urgent=True
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Parse the journal into a :class:`JournalState`.

        Tolerates exactly one malformed record at the tail (the crash
        artifact); malformed records elsewhere raise :class:`CampaignError`.
        """
        self.flush()  # a same-process replay must see buffered records
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
        if kind in ("campaign_start", "campaign_resume"):
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
