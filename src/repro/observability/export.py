"""Snapshot document exporters: JSON, Prometheus textfile, human text.

A *snapshot document* is the combined, JSON-safe freeze of one telemetry
session — counters, gauges, histograms, spans — tagged with a schema
version (the same discipline as ``TRACE_FORMAT_VERSION`` in
:mod:`repro.engine.traceio`). It is what ``--metrics-out`` writes, what
``repro-vs metrics`` reads, and what the Prometheus textfile collector
scrapes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.errors import ObservabilityError
from repro.observability.metrics import METRICS_SCHEMA_VERSION

__all__ = [
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "snapshot_to_text",
    "load_snapshot",
    "loads_snapshot",
    "write_snapshot",
    "validate_snapshot",
]

_REQUIRED_KEYS = ("schema_version", "counters", "gauges", "histograms", "spans")

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _validate(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ObservabilityError("metrics snapshot must be a JSON object")
    version = doc.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported metrics snapshot version {version!r} "
            f"(this library reads {METRICS_SCHEMA_VERSION})"
        )
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ObservabilityError(f"metrics snapshot missing {key!r}")
    for family in ("counters", "gauges", "histograms", "spans"):
        if not isinstance(doc[family], list):
            raise ObservabilityError(f"snapshot {family!r} must be a list")
    return doc


def validate_snapshot(doc: dict) -> dict:
    """Public validation entry point (raises ObservabilityError; returns doc)."""
    return _validate(doc)


def snapshot_to_json(snapshot: dict) -> str:
    """Serialise a snapshot document (validated first)."""
    return json.dumps(_validate(snapshot), indent=1, sort_keys=True)


def loads_snapshot(text: str) -> dict:
    """Parse and validate a snapshot document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"invalid metrics snapshot JSON: {exc}") from exc
    return _validate(doc)


def load_snapshot(path: str | Path) -> dict:
    """Read and validate a snapshot document from a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read metrics snapshot: {exc}") from exc
    return loads_snapshot(text)


def write_snapshot(snapshot: dict, path: str | Path) -> None:
    """Write a validated snapshot document to ``path``."""
    Path(path).write_text(snapshot_to_json(snapshot), encoding="utf-8")


# ----------------------------------------------------------------------
# Prometheus textfile format
# ----------------------------------------------------------------------
#: ``# HELP`` text per dotted metric name. Families not listed here still
#: get a generic HELP line — the exposition format wants metadata on every
#: family, not just the famous ones.
_HELP: dict[str, str] = {
    "host.poses": "Poses scored by the host runtime",
    "host.queue_wait_seconds": "Seconds tasks waited in the host queue",
    "host.worker.poses": "Poses scored per worker session",
    "campaign.ligands.done": "Ligands completed by the campaign runner",
    "campaign.ligands.failed": "Ligands that exhausted their dock retries",
    "campaign.shard.seconds": "Wall seconds per campaign shard",
    "store.disk.bytes": "On-disk footprint of the campaign store",
    "cluster.wire.seconds": "Result wire time from worker send to "
    "coordinator receive",
    "cluster.worker.heartbeats": "Heartbeat frames sent by a worker node",
    "cluster.nodes.lost": "Worker nodes declared dead by the coordinator",
    "span_seconds": "Span durations summarised per span name",
}


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_help_escape(value: str) -> str:
    """Escape HELP text: the format escapes only backslash and newline."""
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_escape(value: object) -> str:
    """Escape one label value per the exposition format.

    Tag values flow in from user-supplied data (ligand titles, file paths),
    so backslashes, double quotes, and newlines must be escaped or a single
    hostile title corrupts the whole scrape. Order matters: backslashes
    first, or the escapes themselves get re-escaped.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(tags: dict, extra: dict | None = None) -> str:
    items = {**tags, **(extra or {})}
    if not items:
        return ""
    body = ",".join(
        f'{_NAME_RE.sub("_", str(k))}="{_prom_escape(v)}"'
        for k, v in sorted(items.items())
    )
    return "{" + body + "}"


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Spans are summarised as a ``repro_span_seconds`` counter pair
    (``_sum``/``_count`` per span name) rather than exported row by row —
    Prometheus is for aggregates; the JSON document keeps the full tree.
    """
    doc = _validate(snapshot)
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str, raw_name: str) -> None:
        if name not in typed:
            typed.add(name)
            help_text = _HELP.get(raw_name, f"repro-vs metric {raw_name}")
            lines.append(f"# HELP {name} {_prom_help_escape(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

    for item in doc["counters"]:
        name = _prom_name(item["name"])
        header(name, "counter", item["name"])
        lines.append(f"{name}{_prom_labels(item['tags'])} {item['value']!r}")
    for item in doc["gauges"]:
        name = _prom_name(item["name"])
        header(name, "gauge", item["name"])
        lines.append(f"{name}{_prom_labels(item['tags'])} {item['value']!r}")
    for item in doc["histograms"]:
        name = _prom_name(item["name"])
        header(name, "histogram", item["name"])
        cumulative = 0
        for edge, count in zip(item["edges"], item["counts"]):
            cumulative += count
            labels = _prom_labels(item["tags"], {"le": f"{edge!r}"})
            lines.append(f"{name}_bucket{labels} {cumulative}")
        cumulative += item["counts"][-1]
        labels = _prom_labels(item["tags"], {"le": "+Inf"})
        lines.append(f"{name}_bucket{labels} {cumulative}")
        lines.append(f"{name}_sum{_prom_labels(item['tags'])} {item['sum']!r}")
        lines.append(f"{name}_count{_prom_labels(item['tags'])} {item['count']}")

    by_name: dict[str, list[dict]] = {}
    for span in doc["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    for span_name in sorted(by_name):
        name = _prom_name("span_seconds")
        header(name, "summary", "span_seconds")
        labels = _prom_labels({"span": span_name})
        total = sum(s["duration_s"] for s in by_name[span_name])
        lines.append(f"{name}_sum{labels} {total!r}")
        lines.append(f"{name}_count{labels} {len(by_name[span_name])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# human-readable summary
# ----------------------------------------------------------------------
def _fmt_tags(tags: dict) -> str:
    if not tags:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(tags.items())) + "}"


def snapshot_to_text(snapshot: dict) -> str:
    """One metrics snapshot as an aligned, skimmable report."""
    doc = _validate(snapshot)
    lines: list[str] = []
    if doc["counters"]:
        lines.append("counters:")
        for item in sorted(doc["counters"], key=lambda i: (i["name"], _fmt_tags(i["tags"]))):
            lines.append(
                f"  {item['name']}{_fmt_tags(item['tags'])} = {item['value']:g}"
            )
    if doc["gauges"]:
        lines.append("gauges:")
        for item in sorted(doc["gauges"], key=lambda i: (i["name"], _fmt_tags(i["tags"]))):
            lines.append(
                f"  {item['name']}{_fmt_tags(item['tags'])} = {item['value']:g}"
            )
    if doc["histograms"]:
        lines.append("histograms:")
        for item in sorted(doc["histograms"], key=lambda i: (i["name"], _fmt_tags(i["tags"]))):
            mean = item["sum"] / item["count"] if item["count"] else float("nan")
            lines.append(
                f"  {item['name']}{_fmt_tags(item['tags'])}: "
                f"n={item['count']} mean={mean:.6g} sum={item['sum']:.6g}"
            )
    if doc["spans"]:
        lines.append(f"spans ({len(doc['spans'])} recorded, "
                     f"{doc.get('dropped_spans', 0)} dropped):")
        by_name: dict[str, tuple[int, float]] = {}
        for span in doc["spans"]:
            n, total = by_name.get(span["name"], (0, 0.0))
            by_name[span["name"]] = (n + 1, total + span["duration_s"])
        for span_name in sorted(by_name):
            n, total = by_name[span_name]
            lines.append(
                f"  {span_name}: n={n} total={total:.6g}s mean={total / n:.6g}s"
            )
    return "\n".join(lines) if lines else "(empty snapshot)"
