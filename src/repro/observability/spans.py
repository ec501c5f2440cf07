"""Lightweight span tracing: what phase ran, for how long, inside what.

A span is one timed region with a name, free-form tags, and a parent — the
warm-up inside the evaluator, the shard inside the campaign, the dock inside
the shard. Spans nest via an explicit stack kept by the tracer, timed with
the registry's injectable clock (monotonic by default), and are buffered in
a bounded list so a million-ligand campaign cannot grow memory without
bound: past the cap, spans are counted (``dropped``) instead of stored.

Like the metrics registry, a tracer never crosses a process boundary live:
workers snapshot their spans and the parent merges them (ids are offset so
parent links survive the merge).

Spans that do not close in the reverse order they opened — a launch
submitted for one ligand and harvested after another's, a pipelined
ligand's dock, all interleaved on the campaign's one thread — cannot sit on
that stack: :meth:`SpanTracer.record` stores each as a finished interval
with an explicit parent.

Thread model: the nesting stack is *thread-local* (each thread nests its
own spans — a fleet coordinator's connection threads never mis-parent
under whatever its main thread has open), while id allocation
and the completed-record buffer are shared under a lock so concurrent
threads never collide on ids or lose records.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["SpanRecord", "SpanTracer", "DEFAULT_MAX_SPANS"]

#: Buffered span cap per tracer; excess spans are counted, not stored.
DEFAULT_MAX_SPANS: int = 4096


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span (times are clock-relative seconds)."""

    id: int
    name: str
    tags: dict
    start_s: float
    duration_s: float
    parent: int | None
    depth: int


class SpanTracer:
    """Collects completed spans; nesting comes from an explicit stack."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.clock = clock
        self.max_spans = int(max_spans)
        self.records: list[SpanRecord] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @property
    def _stack(self) -> list[int]:
        """This thread's nesting stack (created lazily per thread)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[dict]:
        """Time a region; yields the (mutable) tag dict for late annotations."""
        stack = self._stack
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(span_id)
        start = self.clock()
        try:
            yield tags
        finally:
            duration = self.clock() - start
            stack.pop()
            self._keep(SpanRecord(span_id, name, dict(tags), start, duration, parent, depth))

    def record(self, name: str, start_s: float, parent: int | None, **tags) -> None:
        """Store a span that began at ``start_s`` under ``parent`` and ends now.

        For spans that close out of nesting order: read :attr:`clock` and
        :attr:`current` where the span begins, call this where it ends. It
        sits at the depth of the spans open on this thread when it ends.
        """
        duration = self.clock() - start_s
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        self._keep(
            SpanRecord(span_id, name, tags, start_s, duration, parent, len(self._stack))
        )

    def _keep(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self.records) < self.max_spans:
                self.records.append(record)
            else:
                self.dropped += 1

    @property
    def current(self) -> int | None:
        """The id of this thread's innermost open span, or None outside any.

        Worker nodes stamp this onto result frames so the coordinator can
        correlate its store-commit span with the remote dock span.
        """
        stack = self._stack
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Freeze completed spans into a JSON-safe dict."""
        with self._lock:
            records = list(self.records)
            dropped = self.dropped
        return {
            "spans": [
                {
                    "id": r.id,
                    "name": r.name,
                    "tags": r.tags,
                    "start_s": r.start_s,
                    "duration_s": r.duration_s,
                    "parent": r.parent,
                    "depth": r.depth,
                }
                for r in records
            ],
            "dropped": dropped,
        }

    def merge(self, snapshot: dict) -> None:
        """Append another tracer's spans, offsetting ids to stay unique.

        A parent id absent from the incoming snapshot is dropped rather
        than offset: it names a span that was still open when the snapshot
        froze (e.g. a worker's session span at SIGKILL time), so after the
        merge it would dangle. The child becomes a root span instead —
        merged snapshots never contain orphan parent references.
        """
        with self._lock:
            offset = self._next_id
            max_seen = -1
            incoming = {int(item["id"]) for item in snapshot.get("spans", ())}
            for item in snapshot.get("spans", ()):
                max_seen = max(max_seen, int(item["id"]))
                if len(self.records) >= self.max_spans:
                    self.dropped += 1
                    continue
                parent = item.get("parent")
                if parent is not None:
                    parent = int(parent) + offset if int(parent) in incoming else None
                self.records.append(
                    SpanRecord(
                        id=int(item["id"]) + offset,
                        name=str(item["name"]),
                        tags=dict(item.get("tags", {})),
                        start_s=float(item["start_s"]),
                        duration_s=float(item["duration_s"]),
                        parent=parent,
                        depth=int(item.get("depth", 0)),
                    )
                )
            self.dropped += int(snapshot.get("dropped", 0))
            self._next_id = offset + max_seen + 1

    def reset(self) -> None:
        """Drop every buffered span (fresh run); open spans keep nesting."""
        with self._lock:
            self.records.clear()
            self.dropped = 0
