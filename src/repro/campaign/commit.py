"""The one writer of a campaign's store and journal.

Whoever docks — the runner's own loop or a fleet node behind a socket — a
ligand's row, its shard's boundaries and the campaign's end are made durable
here, in the order resume relies on: journal ``shard_start`` before the
store's shard row, every ligand row before ``finish_shard``, the store's
shard row before the journal's ``shard_finish``. The shard-boundary
telemetry rides on the same call, so a shard is reported however it ended:
docked here, reported by a node, or found complete on a resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import observability as obs
from repro.campaign.backends import store_disk_bytes
from repro.observability.flight import flight_event

__all__ = ["CampaignCommitter", "CampaignProgress"]


@dataclass(frozen=True, slots=True)
class CampaignProgress:
    """One progress snapshot, emitted after every shard.

    ``ligands_per_second`` measures *this session's* commit rate;
    ``eta_seconds`` is ``nan`` while the library size is unknown.
    """

    shard_id: int
    done: int
    failed: int
    total: int | None
    elapsed_seconds: float
    ligands_per_second: float
    eta_seconds: float


class CampaignCommitter:
    """Commit rows, shard boundaries and the campaign's end.

    Takes no lock: the runner calls it from its main thread, the coordinator
    with its own lock held. ``journal`` is ``None`` for an in-memory
    campaign, ``total`` the library size when the source knows it. A shard
    is anything with ``shard_id`` / ``start`` / ``stop`` / ``size``; ``tags``
    (a fleet's ``node=``) land on the journal records and the flight event.
    """

    def __init__(
        self,
        store,
        journal,
        *,
        total: int | None = None,
        progress: Callable[[CampaignProgress], None] | None = None,
    ) -> None:
        self.store = store
        self.journal = journal
        self._total = total
        self._progress = progress
        self._session_start = time.perf_counter()
        self._session_rows = 0
        self._shard_t0: dict[int, float] = {}
        self._disk_gauge_t = float("-inf")

    def begin_shard(self, shard, titles: list[tuple[int, str]], **tags) -> set[int]:
        """Open (or re-open) a shard; returns its ordinals already done."""
        # A shard leased twice (its first node died) is timed from the first.
        self._shard_t0.setdefault(shard.shard_id, time.perf_counter())
        if self.journal is not None:
            self.journal.shard_start(shard.shard_id, shard.start, shard.stop, **tags)
        self.store.start_shard(shard.shard_id, shard.start, shard.stop)
        self.store.register_ligands(titles)
        return self.store.done_ordinals(shard.start, shard.stop)

    def commit(self, ordinal: int, title: str, row: dict) -> None:
        """Record one dock's row (:func:`repro.campaign.runner.outcome_row`)."""
        if row["ok"]:
            self.store.record_result(
                ordinal,
                title,
                row["score"],
                row["spot_index"],
                row["evaluations"],
                wall_seconds=row["wall_seconds"],
                simulated_seconds=row["simulated_seconds"],
                attempts=row["attempts"],
            )
            obs.counter("campaign.ligands.done").inc()
            obs.histogram("campaign.dock.seconds").observe(row["wall_seconds"])
        else:
            self.store.record_failure(ordinal, title, row["error"], row["attempts"])
            obs.counter("campaign.ligands.failed").inc()
        self._session_rows += 1

    def end_shard(self, shard, **tags) -> None:
        """Every ligand of the shard has its row: settle and report it."""
        wall_s = time.perf_counter() - self._shard_t0.pop(shard.shard_id)
        n_done = len(self.store.done_ordinals(shard.start, shard.stop))
        self.store.finish_shard(shard.shard_id, wall_s)
        if self.journal is not None:
            self.journal.shard_finish(
                shard.shard_id, n_done, shard.size - n_done, **tags
            )
        obs.counter("campaign.shards.done").inc()
        obs.histogram("campaign.shard.seconds").observe(wall_s)
        flight_event(
            "shard.finish", shard=shard.shard_id, wall=round(wall_s, 6), **tags
        )
        self._update_disk_gauge()
        # The shard's rows are durable and its workers' telemetry folded in:
        # force a live sample so the series shows every shard even when
        # shards outpace the sampling interval.
        obs.mark("campaign.shard", force=True)
        self._emit_progress(shard.shard_id)

    def end_campaign(self, n_ligands: int) -> None:
        """The whole library streamed through and every shard is settled."""
        self.store.mark_complete(n_ligands)
        if self.journal is not None:
            self.journal.campaign_finish(n_ligands)

    def _update_disk_gauge(self) -> None:
        """``store.disk.bytes``: lands in every sampler record and on
        ``/metrics``, so the two backends' growth curves are comparable.
        At most two probes a second: each one walks the store's files."""
        path = str(self.store.path)
        now = time.perf_counter()
        if path == ":memory:" or now - self._disk_gauge_t < 0.5:
            return
        self._disk_gauge_t = now
        obs.gauge("store.disk.bytes").set(float(store_disk_bytes(path)))

    def _emit_progress(self, shard_id: int) -> None:
        if self._progress is None:
            return
        counts = self.store.counts()
        elapsed = time.perf_counter() - self._session_start
        rate = self._session_rows / elapsed if elapsed > 0 else 0.0
        if self._total is None or rate <= 0:
            eta = float("nan")
        else:
            remaining = max(0, self._total - counts["done"] - counts["failed"])
            eta = remaining / rate
        self._progress(
            CampaignProgress(
                shard_id=shard_id,
                done=counts["done"],
                failed=counts["failed"],
                total=self._total,
                elapsed_seconds=elapsed,
                ligands_per_second=rate,
                eta_seconds=eta,
            )
        )
