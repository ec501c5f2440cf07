"""Chrome/Perfetto ``trace_event`` exporter for the span tracer's output.

A snapshot document's span list is a tree of timed regions — campaign
shards, docks, host launches, the per-worker task batches merged back from
worker processes. This module converts it to the Trace
Event Format that ``chrome://tracing`` and https://ui.perfetto.dev render
as a timeline, which turns "worker 3 is slow" from a histogram guess into
a visible gap.

Lane assignment: spans carrying a ``worker`` tag land on that worker's
thread lane (named ``worker N``); spans carrying a ``pipeline_lane`` tag —
the campaign runner's per-ligand dock spans when ``pipeline_depth > 1`` —
land on a dedicated ``pipeline N`` lane so co-scheduled ligands render as
overlapping blocks (the visual proof that one ligand's barrier tail is
filled with another's poses); everything else lands on the ``main``
lane. Distributed campaigns add a ``node`` tag when worker-node telemetry
is merged back (:func:`repro.cluster.retag_snapshot`); each node then gets
its own lane block — ``node N`` plus ``node N worker M`` — so per-node
timelines sit side by side under the coordinator's ``main`` lane.
Worker spans come from other processes, but both sides time with
``time.perf_counter``/``time.monotonic`` which share ``CLOCK_MONOTONIC``
on Linux, so timestamps are directly comparable; the exporter rebases
everything so the earliest span starts at t=0.

Beyond the one complete ("X") event per span, a ``steal`` instant ("i")
event at the end of every launch span whose late-annotated ``steals`` tag
is non-zero (dynamic mode's work-stealing in action) makes scheduling
pathologies pop visually.

Cross-node ligand lifecycle: a distributed campaign's merged snapshot holds
each ligand's dock span on its node's lane (``cluster.ligand.dock``, tagged
with the ordinal, its lease wait, and the campaign trace id) and the
coordinator's commit span on the main lane (``cluster.ligand.commit``, same
ordinal, tagged with the measured wire time). The exporter pairs them by
ordinal into Chrome flow events (``s``/``f``) so Perfetto draws an arrow
from the dock's end to the commit's start — lease wait, dock, wire and
store commit read as one end-to-end story per ligand.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability.export import validate_snapshot

__all__ = ["snapshot_to_trace_events", "trace_events_to_json", "write_trace"]

#: Process id used for every event (one logical process per snapshot).
_PID = 1
#: Thread lane for spans without a ``worker`` tag.
_MAIN_TID = 0
#: Lane stride per cluster node: node ``n``'s lanes start at ``(n+1) * 1000``.
_NODE_STRIDE = 1000
#: Pipeline dock lanes: overlap lane ``k`` renders as tid ``500 + k`` —
#: above every worker lane, below the next node block.
_PIPELINE_BASE = 500


def _lane(tags: dict) -> int:
    """Thread lane for one span: (node, worker, pipeline_lane) -> lane."""
    base = _MAIN_TID
    worker = tags.get("worker")
    if worker is not None:
        try:
            base = int(worker) + 1
        except (TypeError, ValueError):
            base = _MAIN_TID
    elif tags.get("pipeline_lane") is not None:
        try:
            base = _PIPELINE_BASE + int(tags["pipeline_lane"])
        except (TypeError, ValueError):
            base = _MAIN_TID
    node = tags.get("node")
    if node is None:
        return base
    try:
        return (int(node) + 1) * _NODE_STRIDE + base
    except (TypeError, ValueError):
        return base


def _lane_name(tid: int) -> str:
    """Human label for a lane id (inverse of :func:`_lane`)."""
    if tid >= _NODE_STRIDE:
        node, base = divmod(tid, _NODE_STRIDE)
        label = f"node {node - 1}"
        if base == _MAIN_TID:
            return label
        if base >= _PIPELINE_BASE:
            return f"{label} pipeline {base - _PIPELINE_BASE}"
        return f"{label} worker {base - 1}"
    if tid >= _PIPELINE_BASE:
        return f"pipeline {tid - _PIPELINE_BASE}"
    return "main" if tid == _MAIN_TID else f"worker {tid - 1}"


def snapshot_to_trace_events(snapshot: dict) -> dict:
    """Convert a snapshot document to a Trace Event Format JSON object."""
    doc = validate_snapshot(snapshot)
    spans = doc["spans"]
    origin = min((float(s["start_s"]) for s in spans), default=0.0)

    events: list[dict] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": _MAIN_TID,
            "name": "process_name",
            "args": {"name": "repro-vs"},
        }
    ]
    lanes: dict[int, str] = {_MAIN_TID: "main"}
    for span in spans:
        lane = _lane(span.get("tags", {}))
        if lane not in lanes:
            lanes[lane] = _lane_name(lane)
    for tid, name in sorted(lanes.items()):
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )

    for span in spans:
        tags = dict(span.get("tags", {}))
        tid = _lane(tags)
        start_us = (float(span["start_s"]) - origin) * 1e6
        dur_us = max(0.0, float(span["duration_s"]) * 1e6)
        name = str(span["name"])
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": start_us,
                "dur": dur_us,
                "args": {
                    **tags,
                    "span_id": span["id"],
                    "parent": span.get("parent"),
                    "depth": span.get("depth", 0),
                },
            }
        )
        steals = tags.get("steals")
        if steals:  # late-annotated by the host runtime's harvest
            events.append(
                {
                    "ph": "i",
                    "pid": _PID,
                    "tid": tid,
                    "name": "steal",
                    "cat": "host",
                    "s": "t",  # thread-scoped instant marker
                    "ts": start_us + dur_us,
                    "args": {"steals": steals, "launch_span": span["id"]},
                }
            )

    flows = _lifecycle_flows(spans, origin)
    events.extend(flows)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro-vs telemetry snapshot",
            "spans": len(spans),
            "dropped_spans": doc.get("dropped_spans", 0),
            "lifecycle_flows": len(flows) // 2,
        },
    }


def _lifecycle_flows(spans: list, origin: float) -> list[dict]:
    """Flow-event pairs stitching each ligand's dock to its store commit.

    Pairing key is the ``ordinal`` tag: the worker's ``cluster.ligand.dock``
    span (node lane) flows into the coordinator's ``cluster.ligand.commit``
    span (main lane). Emitted as Chrome flow events — ``s`` at the dock's
    end, ``f`` (binding to the enclosing slice) at the commit's start — so
    Perfetto draws the cross-lane arrow. Ordinals seen on only one side
    (e.g. a commit whose dock span was lost with a SIGKILLed node) emit
    nothing.
    """
    docks: dict[int, dict] = {}
    commits: dict[int, dict] = {}
    for span in spans:
        name = span.get("name")
        if name not in ("cluster.ligand.dock", "cluster.ligand.commit"):
            continue
        ordinal = span.get("tags", {}).get("ordinal")
        try:
            ordinal = int(ordinal)
        except (TypeError, ValueError):
            continue
        # First span per side wins: a retried dock keeps its initial attempt.
        side = docks if name == "cluster.ligand.dock" else commits
        side.setdefault(ordinal, span)
    flows: list[dict] = []
    for ordinal, dock in sorted(docks.items()):
        commit = commits.get(ordinal)
        if commit is None:
            continue
        dock_end_us = (
            float(dock["start_s"]) + float(dock["duration_s"]) - origin
        ) * 1e6
        commit_start_us = (float(commit["start_s"]) - origin) * 1e6
        common = {"pid": _PID, "cat": "lifecycle", "name": "ligand", "id": ordinal}
        flows.append(
            {
                **common,
                "ph": "s",
                "tid": _lane(dock.get("tags", {})),
                "ts": dock_end_us,
                "args": {"ordinal": ordinal, "from": "dock"},
            }
        )
        flows.append(
            {
                **common,
                "ph": "f",
                "bp": "e",  # bind to the enclosing commit slice
                "tid": _lane(commit.get("tags", {})),
                "ts": max(commit_start_us, dock_end_us),
                "args": {"ordinal": ordinal, "to": "commit"},
            }
        )
    return flows


def trace_events_to_json(snapshot: dict) -> str:
    """Serialise the trace for ``chrome://tracing`` / Perfetto."""
    return json.dumps(snapshot_to_trace_events(snapshot), indent=1, sort_keys=True)


def write_trace(snapshot: dict, path: str | Path) -> int:
    """Write the trace JSON to ``path``; returns the number of spans."""
    trace = snapshot_to_trace_events(snapshot)
    Path(path).write_text(
        json.dumps(trace, indent=1, sort_keys=True), encoding="utf-8"
    )
    return int(trace["otherData"]["spans"])
