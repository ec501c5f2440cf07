"""``repro-vs doctor``: post-mortem fusion of a campaign's telemetry trail.

A finished (or crashed, or mysteriously slow) campaign leaves its store
and three artifact families next to it:

* the **store** itself — the one durable log: which shards finished, how
  many ligands are done, failed or pending, and whether the campaign
  completed;
* the **flight dumps** (``<store>.flight.d/*.flight``) — each process's
  black-box ring of structured events (lease grants with their shard and
  node, steals, heartbeats, node deaths, shard finishes with their wall
  time, compactions, rebinds);
* the end-of-run **metrics snapshot** (``<store>.metrics.json``);
* optionally a live **series** file written by the sampler.

A ``<store>.journal`` an older build left beside the store is not read.

Each source alone answers one question; fused they answer the one operators
actually ask: *why was this campaign slow or stuck?* The doctor reads all
of them torn-tail-tolerantly (every artifact may have been cut short by the
very failure being diagnosed), runs a fixed battery of analyses, and emits
a :class:`DoctorReport` — sections with a one-line verdict each plus the
evidence lines that back it, renderable as text or JSON.

Import discipline: this module sits in ``repro.observability`` and must not
drag the campaign/cluster stacks in at import time — store access goes
through a function-level import of :mod:`repro.campaign.backends`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError
from repro.observability.flight import flight_dir, read_flight_dir
from repro.observability.sampler import read_series

__all__ = ["DoctorReport", "diagnose_campaign"]

#: Bumped on incompatible report-JSON changes.
DOCTOR_SCHEMA_VERSION: int = 1

#: A shard slower than this multiple of the median is "slow" (§slow shards).
_SLOW_SHARD_FACTOR = 3.0
#: Steals/grants ratio above which lease traffic reads as a steal storm.
_STEAL_STORM_RATIO = 0.5
#: Worker share drift vs the Eq. 1 weight that is worth flagging.
_SHARE_DRIFT_WARN = 0.15


@dataclass
class Section:
    """One analysis: a title, an ``ok``/``warn``/``bad`` verdict, evidence."""

    title: str
    verdict: str = "ok"
    headline: str = ""
    lines: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "title": self.title,
            "verdict": self.verdict,
            "headline": self.headline,
            "evidence": list(self.lines),
        }


@dataclass
class DoctorReport:
    """The fused post-mortem: sections plus an overall verdict."""

    store_path: str
    generated_wall: float
    sections: list[Section] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """Worst section verdict: ``bad`` > ``warn`` > ``ok``."""
        order = {"ok": 0, "warn": 1, "bad": 2}
        worst = max((order.get(s.verdict, 0) for s in self.sections), default=0)
        return {0: "ok", 1: "warn", 2: "bad"}[worst]

    def to_json(self) -> dict:
        return {
            "schema_version": DOCTOR_SCHEMA_VERSION,
            "store": self.store_path,
            "generated_wall": self.generated_wall,
            "verdict": self.verdict,
            "sections": [s.to_doc() for s in self.sections],
        }

    def to_text(self) -> str:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.gmtime(self.generated_wall)
        )
        out = [
            f"repro-vs doctor — post-mortem for {self.store_path}",
            f"generated {stamp} UTC — overall verdict: {self.verdict.upper()}",
            "",
        ]
        for section in self.sections:
            out.append(f"== {section.title} [{section.verdict}] ==")
            if section.headline:
                out.append(f"  {section.headline}")
            for line in section.lines:
                out.append(f"    - {line}")
            out.append("")
        return "\n".join(out)


# ----------------------------------------------------------------------
# artifact readers (each tolerates the artifact being absent or torn)
# ----------------------------------------------------------------------
def _read_metrics(path: Path) -> dict | None:
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _read_store(store_path: str) -> dict | None:
    """The store's ligand counts, finished shards and completion, or None."""
    from repro.campaign.backends import open_store  # lazy: import cycle

    try:
        store = open_store(store_path, readonly=True)
    except Exception:
        return None
    try:
        return {
            "counts": store.counts(),
            "finished": store.finished_shards(),
            "complete": store.is_complete(),
        }
    finally:
        store.close()


def _flight_events(dumps: list[dict], *kinds: str) -> list[tuple[dict, dict]]:
    """Every (dump, event) across all readable dumps matching ``kinds``."""
    out = []
    for dump in dumps:
        for event in dump.get("events", ()):
            if event.get("kind") in kinds:
                out.append((dump, event))
    return out


def _role(dump: dict) -> str:
    header = dump.get("header") or {}
    return str(header.get("role", Path(str(dump.get("path", "?"))).stem))


def _clock(wall: object) -> str:
    """Wall-clock seconds -> HH:MM:SS UTC, for evidence lines."""
    try:
        return time.strftime("%H:%M:%S", time.gmtime(float(wall)))
    except (TypeError, ValueError):
        return "?"


# ----------------------------------------------------------------------
# analyses
# ----------------------------------------------------------------------
def _incomplete(store: dict | None) -> bool:
    """A readable store that was never marked complete."""
    return store is not None and not store["complete"]


def _analyze_summary(
    store_path: str,
    store: dict | None,
    dumps: list[dict],
    metrics: dict | None,
) -> Section:
    section = Section("summary")
    if store is not None:
        counts = store["counts"]
        section.lines.append(
            f"store: {counts.get('done', 0)} done, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('pending', 0)} pending"
        )
        section.lines.append(
            f"store: {len(store['finished'])} shard(s) finished, "
            f"complete={'yes' if store['complete'] else 'NO'}"
        )
    else:
        section.lines.append("store: absent or unreadable")
    readable = [d for d in dumps if "events" in d]
    broken = [d for d in dumps if "error" in d]
    torn = [d for d in readable if d.get("torn")]
    if readable:
        roles = ", ".join(sorted(_role(d) for d in readable))
        section.lines.append(
            f"flight dumps: {len(readable)} readable ({roles})"
            + (f", {len(torn)} with torn tails" if torn else "")
        )
    else:
        section.lines.append("flight dumps: none found")
    for dump in broken:
        section.lines.append(
            f"flight dump unreadable: {dump.get('path')}: {dump.get('error')}"
        )
    if metrics is None:
        section.lines.append(f"metrics snapshot: {store_path}.metrics.json absent")
    if _incomplete(store):
        section.verdict = "warn"
        section.headline = (
            "the store is not marked complete — "
            f"{store['counts'].get('pending', 0)} ligand(s) of started shards "
            "still pending"
        )
    else:
        section.headline = "campaign artifacts present and consistent"
    return section


def _analyze_dead_nodes(dumps: list[dict]) -> Section:
    section = Section("dead nodes")
    deaths = _flight_events(dumps, "node.dead")
    if not deaths:
        section.headline = "no node deaths recorded"
        return section
    section.verdict = "bad"
    for _, event in deaths:
        node = event.get("node")
        reclaimed = event.get("reclaimed") or []
        section.headline = f"node {node} died ({event.get('reason', 'unknown')})"
        section.lines.append(
            f"node {node} died: reason={event.get('reason', 'unknown')}, "
            f"{len(reclaimed)} lease(s) reclaimed "
            f"{sorted(reclaimed)}, {event.get('requeued', 0)} requeued"
        )
        beats = [
            e
            for _, e in _flight_events(dumps, "node.heartbeat")
            if e.get("node") == node
        ]
        if beats:
            section.lines.append(
                f"node {node}: last telemetry heartbeat at "
                f"{_clock(beats[-1].get('wall'))} UTC "
                f"(done={beats[-1].get('done')}, failed={beats[-1].get('failed')})"
            )
        # The coordinator's lease grants: the last shard this node was given.
        grants = [
            e
            for _, e in _flight_events(dumps, "lease.grant")
            if e.get("node") == node
        ]
        if grants:
            last = grants[-1]
            section.lines.append(
                f"node {node}: {len(grants)} lease grant(s); last was "
                f"shard {last.get('shard')} at {_clock(last.get('wall'))} UTC"
            )
    if len(deaths) > 1:
        names = sorted({e.get("node") for _, e in deaths})
        section.headline = f"{len(deaths)} node deaths: nodes {names}"
    return section


def _analyze_steals(dumps: list[dict]) -> Section:
    section = Section("work stealing")
    steals = _flight_events(dumps, "steal")
    grants = _flight_events(dumps, "lease.grant")
    if not grants and not steals:
        section.headline = "no lease traffic recorded (single-node run?)"
        return section
    ratio = len(steals) / max(1, len(grants))
    section.lines.append(
        f"{len(grants)} lease grant(s), {len(steals)} steal(s) "
        f"(ratio {ratio:.2f})"
    )
    victims: dict = {}
    for _, event in steals:
        victims[event.get("victim")] = victims.get(event.get("victim"), 0) + 1
    for victim, n in sorted(victims.items(), key=lambda kv: -kv[1]):
        section.lines.append(f"node {victim} was stolen from {n} time(s)")
    if len(grants) > 4 and ratio > _STEAL_STORM_RATIO:
        section.verdict = "warn"
        section.headline = (
            f"steal storm: {ratio:.0%} of grants were steals — node shares "
            "are badly mismatched to real speeds (check Eq. 1 inputs)"
        )
    else:
        section.headline = "steal traffic within normal bounds"
    return section


def _analyze_share_drift(
    metrics: dict | None, series: list[dict]
) -> Section:
    section = Section("Eq. 1 share drift")
    drift: dict = {}
    for record in reversed(series):
        candidate = record.get("derived", {}).get("share_drift")
        if candidate:
            drift = candidate
            break
    if not drift and metrics:
        weights: dict[str, float] = {}
        for gauge in metrics.get("gauges", ()):
            if gauge.get("name") == "host.warmup.weight":
                worker = str(gauge.get("tags", {}).get("worker"))
                weights[worker] = float(gauge.get("value", 0.0))
        poses: dict[str, float] = {}
        for counter in metrics.get("counters", ()):
            if counter.get("name") == "host.worker.poses":
                worker = str(counter.get("tags", {}).get("worker"))
                poses[worker] = poses.get(worker, 0.0) + float(
                    counter.get("value", 0.0)
                )
        total = sum(poses.values())
        if total > 0 and weights:
            drift = {
                w: poses[w] / total - weights[w]
                for w in poses
                if w in weights
            }
    if not drift:
        section.headline = "no per-worker share data (no warmup weights recorded)"
        return section
    worst = max(drift.items(), key=lambda kv: abs(kv[1]))
    for worker, value in sorted(drift.items()):
        section.lines.append(f"worker {worker}: share drift {value:+.3f}")
    if abs(worst[1]) > _SHARE_DRIFT_WARN:
        section.verdict = "warn"
        section.headline = (
            f"worker {worst[0]} drifted {worst[1]:+.1%} from its Eq. 1 "
            "weight — the static plan mispredicts this device"
        )
    else:
        section.headline = (
            f"observed shares track Eq. 1 weights (max drift {worst[1]:+.1%})"
        )
    return section


def _analyze_slow_shards(dumps: list[dict]) -> Section:
    section = Section("slow shards")
    finishes = [
        event
        for _, event in _flight_events(dumps, "shard.finish")
        if event.get("wall") is not None
    ]
    if not finishes:
        section.headline = "no shard timings in flight dumps"
        return section
    walls = sorted(float(e["wall"]) for e in finishes)
    median = walls[len(walls) // 2]
    # The last grant of a shard names the node that finished it.
    node_of = {
        e.get("shard"): e.get("node") for _, e in _flight_events(dumps, "lease.grant")
    }
    slow = [
        e
        for e in finishes
        if median > 0 and float(e["wall"]) > _SLOW_SHARD_FACTOR * median
    ]
    section.lines.append(
        f"{len(finishes)} shard finish(es), median wall {median:.3f}s, "
        f"max {walls[-1]:.3f}s"
    )
    for event in sorted(slow, key=lambda e: -float(e["wall"]))[:5]:
        shard = event.get("shard")
        owner = event.get("node", node_of.get(shard))
        where = f" on node {owner}" if owner is not None else ""
        section.lines.append(
            f"shard {shard}{where}: {float(event['wall']):.3f}s "
            f"({float(event['wall']) / median:.1f}x median)"
        )
    if slow:
        section.verdict = "warn"
        section.headline = (
            f"{len(slow)} shard(s) ran >{_SLOW_SHARD_FACTOR:.0f}x the median — "
            "see per-shard attribution below"
        )
    else:
        section.headline = "shard walls are uniform"
    return section


def _analyze_verdict(
    sections: list[Section], store: dict | None, dumps: list[dict]
) -> Section:
    """The 'why is this campaign slow/stuck' synthesis."""
    section = Section("diagnosis")
    by_title = {s.title: s for s in sections}
    deaths = _flight_events(dumps, "node.dead")
    causes: list[str] = []
    if deaths:
        names = sorted({e.get("node") for _, e in deaths})
        causes.append(
            f"node(s) {names} died mid-campaign; work was "
            + ("reclaimed and the campaign completed"
               if store is not None and store["complete"]
               else "reclaimed but the campaign never finished")
        )
    if by_title.get("work stealing", Section("")).verdict == "warn":
        causes.append("steal storm: initial node shares mismatched real speeds")
    if by_title.get("slow shards", Section("")).verdict == "warn":
        causes.append("a minority of shards dominated wall time")
    if by_title.get("Eq. 1 share drift", Section("")).verdict == "warn":
        causes.append("device shares drifted from the Eq. 1 plan")
    if _incomplete(store):
        if not deaths:
            causes.append(
                "the store is not marked complete and no node death was "
                "recorded — the coordinator itself likely died"
            )
        section.verdict = "bad"
        section.headline = "campaign is INCOMPLETE"
    elif causes:
        section.verdict = "warn"
        section.headline = "campaign completed, with findings"
    else:
        section.headline = "campaign completed; nothing anomalous found"
    for cause in causes:
        section.lines.append(cause)
    if not causes:
        section.lines.append("no slow/stuck causes identified by any analysis")
    return section


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def diagnose_campaign(
    store_path: str | Path, *, series_path: str | Path | None = None
) -> DoctorReport:
    """Fuse every artifact around ``store_path`` into a :class:`DoctorReport`.

    Raises :class:`ObservabilityError` only when there is *nothing* to
    analyze (no store, no flight dumps, no metrics snapshot); individual
    missing or torn artifacts merely narrow the report.
    """
    store_path = str(store_path)
    dumps = read_flight_dir(flight_dir(store_path))
    metrics = _read_metrics(Path(store_path + ".metrics.json"))
    series: list[dict] = []
    if series_path is not None:
        series = read_series(series_path)
    store = _read_store(store_path)
    if store is None and not dumps and metrics is None:
        raise ObservabilityError(
            f"nothing to diagnose at {store_path}: no readable store, flight "
            "dumps, or metrics snapshot found"
        )
    sections = [
        _analyze_summary(store_path, store, dumps, metrics),
        _analyze_dead_nodes(dumps),
        _analyze_steals(dumps),
        _analyze_share_drift(metrics, series),
        _analyze_slow_shards(dumps),
    ]
    sections.append(_analyze_verdict(sections, store, dumps))
    return DoctorReport(
        store_path=store_path,
        generated_wall=time.time(),
        sections=sections,
    )
