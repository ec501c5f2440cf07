"""Runtime telemetry: metrics registry + span tracing for the whole stack.

"You cannot optimize what you cannot observe": the paper's heterogeneous
strategy is built on run-time measurement (the Eq. 1 warm-up), and this
package makes the same discipline available to every layer — the
process-parallel host runtime, the simulated schedulers, the campaign
runner, and the screening API.

Usage is one import away from any hot path::

    from repro import observability as obs

    obs.counter("campaign.ligands.done").inc()
    obs.gauge("host.warmup.weight", worker=3).set(0.26)
    obs.histogram("campaign.dock.seconds").observe(0.8)
    with obs.span("warmup", workers=4) as tags:
        tags["elapsed_s"] = run()            # late annotation

The module-level functions proxy a process-global :class:`Telemetry`
session. ``disable()`` swaps every proxy to no-ops (used by the parity
tests and the overhead benchmark); instrumentation must never change
results either way — only observe them. Workers in other processes collect
into their own :class:`Telemetry` and the parent folds their
:meth:`Telemetry.snapshot` back in with :meth:`Telemetry.merge` at join
time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro import _lazy_exports
from repro.observability.metrics import (
    DEFAULT_SECONDS_EDGES,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.spans import DEFAULT_MAX_SPANS, SpanRecord, SpanTracer

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "SpanTracer",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_SECONDS_EDGES",
    "DEFAULT_MAX_SPANS",
    "get_telemetry",
    "set_telemetry",
    "enabled",
    "enable",
    "disable",
    "disabled",
    "counter",
    "gauge",
    "histogram",
    "span",
    "span_start",
    "snapshot",
    "merge",
    "reset",
    "load_snapshot",
    "loads_snapshot",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "snapshot_to_text",
    "validate_snapshot",
    "write_snapshot",
    "mark",
    "TelemetrySampler",
    "SERIES_SCHEMA_VERSION",
    "read_series",
    "MetricsServer",
    "CampaignHealth",
    "snapshot_to_trace_events",
    "write_trace",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_recorder",
    "flight_event",
    "flight_dir",
    "read_flight",
    "read_flight_dir",
    "DoctorReport",
    "diagnose_campaign",
]


class Telemetry:
    """One telemetry session: a metrics registry plus a span tracer.

    The two share one injectable ``clock`` so span durations and any
    clock-derived metrics are mutually consistent (and deterministic under
    a fake clock in tests).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.registry = MetricsRegistry(clock=clock)
        self.tracer = SpanTracer(clock=clock, max_spans=max_spans)

    # instrument accessors -------------------------------------------------
    def counter(self, name: str, **tags) -> Counter:
        return self.registry.counter(name, **tags)

    def gauge(self, name: str, **tags) -> Gauge:
        return self.registry.gauge(name, **tags)

    def histogram(
        self, name: str, edges: tuple[float, ...] | None = None, **tags
    ) -> Histogram:
        return self.registry.histogram(name, edges=edges, **tags)

    def span(self, name: str, **tags):
        return self.tracer.span(name, **tags)

    # snapshot / merge -----------------------------------------------------
    def snapshot(self) -> dict:
        """Freeze metrics *and* spans into one snapshot document."""
        doc = self.registry.snapshot()
        spans = self.tracer.snapshot()
        doc["spans"] = spans["spans"]
        doc["dropped_spans"] = spans["dropped"]
        return doc

    def merge(self, snapshot: dict) -> None:
        """Fold another session's snapshot document into this one."""
        self.registry.merge(snapshot)
        self.tracer.merge(
            {"spans": snapshot.get("spans", []),
             "dropped": snapshot.get("dropped_spans", 0)}
        )

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()


# ----------------------------------------------------------------------
# process-global session + no-op fallbacks
# ----------------------------------------------------------------------
class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_TELEMETRY = Telemetry()
_ENABLED = True


def get_telemetry() -> Telemetry:
    """The process-global telemetry session (live even while disabled)."""
    return _TELEMETRY


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the global session (tests inject fake-clock sessions); returns it."""
    global _TELEMETRY
    _TELEMETRY = telemetry
    return telemetry


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn every module-level proxy into a no-op (parity/overhead runs)."""
    global _ENABLED
    _ENABLED = False


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily disable telemetry (restores the previous state)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def _null_span() -> Iterator[dict]:
    yield {}


def counter(name: str, **tags):
    """Global counter (no-op while disabled)."""
    if not _ENABLED:
        return _NULL_INSTRUMENT
    return _TELEMETRY.counter(name, **tags)


def gauge(name: str, **tags):
    """Global gauge (no-op while disabled)."""
    if not _ENABLED:
        return _NULL_INSTRUMENT
    return _TELEMETRY.gauge(name, **tags)


def histogram(name: str, edges: tuple[float, ...] | None = None, **tags):
    """Global histogram (no-op while disabled)."""
    if not _ENABLED:
        return _NULL_INSTRUMENT
    return _TELEMETRY.histogram(name, edges=edges, **tags)


def span(name: str, **tags):
    """Global span context manager (no-op while disabled)."""
    if not _ENABLED:
        return _null_span()
    return _TELEMETRY.span(name, **tags)


def span_start(name: str, tags: dict) -> Callable[[], None]:
    """Begin a span that may close out of nesting order; returns what ends it.

    Calling the returned function records the span, with ``tags`` as they
    are then (late annotations land), under whatever span was open here
    (:meth:`SpanTracer.record`). A no-op while disabled.
    """
    if not _ENABLED:
        return _no_span
    tracer = _TELEMETRY.tracer
    start, parent = tracer.clock(), tracer.current
    return lambda: tracer.record(name, start, parent, **tags)


def _no_span() -> None:
    pass


def snapshot() -> dict:
    """Snapshot the global session (valid even while disabled)."""
    return _TELEMETRY.snapshot()


def merge(doc: dict) -> None:
    """Merge a worker snapshot into the global session (no-op while disabled)."""
    if _ENABLED:
        _TELEMETRY.merge(doc)


def reset() -> None:
    """Reset the global session (fresh run)."""
    _TELEMETRY.reset()


def mark(reason: str, force: bool = False) -> None:
    """Prompt live samplers for an event-driven sample (no-op otherwise).

    Hot paths call this at natural boundaries — a shard commit, a harvest
    after a parallel launch — so the time series shows worker-session folds
    the moment they land. Without an active
    :class:`~repro.observability.sampler.TelemetrySampler` (or while
    telemetry is disabled) it returns immediately.
    """
    if not _ENABLED:
        return
    from repro.observability import sampler as _sampler

    _sampler.mark_active(reason, force=force)


# Live-pipeline pieces (imported last: they import the symbols above).
# ``mark`` imports the sampler on its first call; it is loaded here so that
# no campaign compiles it mid-run.
from repro.observability.sampler import (  # noqa: E402
    SERIES_SCHEMA_VERSION,
    TelemetrySampler,
    read_series,
)
from repro.observability.flight import (  # noqa: E402
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_dir,
    flight_event,
    flight_recorder,
    read_flight,
    read_flight_dir,
)

# Off the campaign path: loaded on first use.
__getattr__ = _lazy_exports(globals(), {
    "repro.observability.doctor": ("DoctorReport", "diagnose_campaign"),
    "repro.observability.export": (
        "load_snapshot",
        "loads_snapshot",
        "snapshot_to_json",
        "snapshot_to_prometheus",
        "snapshot_to_text",
        "validate_snapshot",
        "write_snapshot",
    ),
    "repro.observability.serve": ("CampaignHealth", "MetricsServer"),
    "repro.observability.trace": ("snapshot_to_trace_events", "write_trace"),
})
