"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is the paper's measurement discipline turned into a first-class
subsystem: the heterogeneous strategy assigns work from *measured* device
times (Eq. 1), so the runtime that reproduces it must be able to measure
itself. Three deliberate constraints shape the design:

* **Determinism** — histograms use *fixed* bucket edges chosen at
  registration time, never adaptive ones, so two runs of the same workload
  produce structurally identical snapshots (only observed values differ).
* **Multiprocessing safety** — a registry never crosses a process boundary
  live. Workers collect into their own registry, :meth:`MetricsRegistry.snapshot`
  turns it into a plain JSON-safe dict, and the parent folds it in with
  :meth:`MetricsRegistry.merge` at join time (counters and histogram buckets
  add; gauges keep the merged-in value).
* **Zero result perturbation** — nothing here touches NumPy, RNG state, or
  work ordering. Instrumented and uninstrumented runs are bitwise identical
  by construction (and by the parity test matrix).

Metric identity is ``(name, sorted tags)``; registering the same identity
twice returns the same instrument.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_EDGES",
    "METRICS_SCHEMA_VERSION",
]

#: Bumped on any incompatible snapshot schema change.
METRICS_SCHEMA_VERSION: int = 1

#: Default histogram edges for wall-clock durations in seconds: 1 µs .. ~2 min
#: in multiples of ~4 (fixed, so snapshots are structurally deterministic).
DEFAULT_SECONDS_EDGES: tuple[float, ...] = (
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2,
    6.5536e-2, 0.262144, 1.048576, 4.194304, 16.777216, 67.108864, 134.217728,
)


def _tags_key(tags: dict) -> tuple[tuple[str, str], ...]:
    """Canonical hashable identity for a tag set (values stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


class Counter:
    """Monotonically increasing count (events, poses, retries)."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = dict(tags)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """Last-written value (a share, a rate, a pool size)."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = dict(tags)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution (durations, batch sizes, queue waits).

    ``counts[i]`` counts observations ``<= edges[i]``; ``counts[-1]`` is the
    overflow (+Inf) bucket. Cumulative bucket values are computed only at
    export time, so ``observe`` stays one bisect + three adds.
    """

    __slots__ = ("name", "tags", "edges", "counts", "sum", "count")

    def __init__(self, name: str, tags: dict, edges: tuple[float, ...]) -> None:
        if not edges:
            raise ObservabilityError(f"histogram {name!r} needs at least one edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ObservabilityError(
                f"histogram {name!r} edges must be strictly increasing: {edges}"
            )
        self.name = name
        self.tags = dict(tags)
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.edges)
        while lo < hi:  # first edge >= value (upper-inclusive buckets)
            mid = (lo + hi) // 2
            if self.edges[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """One process's (or one worker's) collection of instruments.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds; injected by tests to make
        span durations deterministic. Defaults to :func:`time.perf_counter`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        # Registration and merge are locked: a fleet coordinator's
        # connection threads register instruments and fold node snapshots
        # concurrently, and two racing get-or-creates must never hand out
        # two instruments for one identity (the loser's counts would
        # silently vanish).
        self._reg_lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration (idempotent: same identity returns the same instrument)
    # ------------------------------------------------------------------
    def counter(self, name: str, **tags) -> Counter:
        key = (name, _tags_key(tags))
        found = self._counters.get(key)
        if found is None:
            with self._reg_lock:
                found = self._counters.get(key)
                if found is None:
                    found = self._counters[key] = Counter(name, tags)
        return found

    def gauge(self, name: str, **tags) -> Gauge:
        key = (name, _tags_key(tags))
        found = self._gauges.get(key)
        if found is None:
            with self._reg_lock:
                found = self._gauges.get(key)
                if found is None:
                    found = self._gauges[key] = Gauge(name, tags)
        return found

    def histogram(
        self, name: str, edges: tuple[float, ...] | None = None, **tags
    ) -> Histogram:
        key = (name, _tags_key(tags))
        found = self._histograms.get(key)
        if found is None:
            with self._reg_lock:
                found = self._histograms.get(key)
                if found is None:
                    found = self._histograms[key] = Histogram(
                        name,
                        tags,
                        edges if edges is not None else DEFAULT_SECONDS_EDGES,
                    )
                    return found
        if edges is not None and tuple(edges) != found.edges:
            raise ObservabilityError(
                f"histogram {name!r} re-registered with different edges"
            )
        return found

    # ------------------------------------------------------------------
    # snapshot / merge — the multiprocessing seam
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Freeze every instrument into a JSON-safe dict (no live state)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": [
                {"name": c.name, "tags": c.tags, "value": c.value}
                for c in self._counters.values()
            ],
            "gauges": [
                {"name": g.name, "tags": g.tags, "value": g.value}
                for g in self._gauges.values()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "tags": h.tags,
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in self._histograms.values()
            ],
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's snapshot in: counters/histograms add, gauges set."""
        version = snapshot.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ObservabilityError(
                f"cannot merge metrics snapshot version {version!r} "
                f"(this registry speaks {METRICS_SCHEMA_VERSION})"
            )
        for item in snapshot.get("counters", ()):
            self.counter(item["name"], **item["tags"]).value += float(item["value"])
        for item in snapshot.get("gauges", ()):
            self.gauge(item["name"], **item["tags"]).set(item["value"])
        for item in snapshot.get("histograms", ()):
            hist = self.histogram(
                item["name"], edges=tuple(item["edges"]), **item["tags"]
            )
            counts = item["counts"]
            if len(counts) != len(hist.counts):
                raise ObservabilityError(
                    f"histogram {item['name']!r} bucket mismatch on merge"
                )
            for i, n in enumerate(counts):
                hist.counts[i] += int(n)
            hist.sum += float(item["sum"])
            hist.count += int(item["count"])

    def reset(self) -> None:
        """Drop every instrument (fresh run)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
