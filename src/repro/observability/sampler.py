"""Live time-series sampler: periodic telemetry snapshots as JSONL.

PR 3's telemetry is a single end-of-run snapshot — perfect for post-mortems,
useless for watching a multi-hour campaign. The sampler closes that gap: a
background thread periodically freezes the active :class:`~repro.observability.Telemetry`
session, differences it against the previous sample, and appends one
schema-versioned JSON line per sample to a *series file*. Each record
carries raw totals plus the derived window rates the heterogeneous runtime
is tuned by — poses/s, ligands/s, queue-wait trend, and per-worker share
drift against the Eq. 1 plan weights.

Three properties the rest of the stack depends on:

* **Observation only** — the sampler never mutates the registry, RNG state,
  or work ordering. Runs with and without a live sampler are bitwise
  identical (enforced by the parity matrix in
  ``tests/observability/test_parity.py``).
* **Rates never go negative** — worker-session folds and registry resets can
  make a counter's total jump arbitrarily between samples; window deltas are
  clamped at zero so a fold mid-window reads as a stall, never as negative
  throughput.
* **Torn tails are tolerated** — the series file is append-only JSONL, so a
  killed process leaves at most one truncated final line;
  :func:`read_series` drops it (the same contract as the flight records).

Event-driven sampling: hot paths call :func:`mark_active` (via
``obs.mark()``) at natural boundaries — a campaign shard commit, a
host-runtime harvest — so worker-session folds show up in the series at
the moment they merge rather than up to one interval later. Marks are
rate-limited to half the sampling interval unless forced.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable

from repro.errors import ObservabilityError

__all__ = [
    "TelemetrySampler",
    "SERIES_SCHEMA_VERSION",
    "compute_record",
    "read_series",
    "mark_active",
    "active_samplers",
]

#: Bumped on any incompatible series-record schema change.
SERIES_SCHEMA_VERSION: int = 1

#: Live samplers that ``mark_active`` fans out to (see ``obs.mark``).
_ACTIVE: list["TelemetrySampler"] = []
_ACTIVE_LOCK = threading.Lock()


def metric_key(name: str, tags: dict) -> str:
    """Canonical flat key for one instrument: ``name{k=v,...}``."""
    if not tags:
        return str(name)
    body = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"{name}{{{body}}}"


def _counter_totals(snapshot: dict) -> dict[str, float]:
    return {
        metric_key(c["name"], c["tags"]): float(c["value"])
        for c in snapshot.get("counters", ())
    }


def _histogram_totals(snapshot: dict) -> dict[str, tuple[float, float]]:
    return {
        metric_key(h["name"], h["tags"]): (float(h["sum"]), float(h["count"]))
        for h in snapshot.get("histograms", ())
    }


def _window_rate(cur: float, prev: float, dt: float) -> float:
    """Per-second rate over one window; clamped so resets read as 0, not <0."""
    return max(0.0, cur - prev) / dt if dt > 0 else 0.0


def _sum_matching(totals: dict[str, float], name: str) -> float:
    """Sum every series of one counter name across its tag sets."""
    return sum(
        v for k, v in totals.items() if k == name or k.startswith(name + "{")
    )


def _worker_series(totals: dict[str, float], name: str) -> dict[str, float]:
    """``worker=N`` tag value -> total, for one per-worker counter/gauge."""
    out: dict[str, float] = {}
    prefix = name + "{"
    for key, value in totals.items():
        if not key.startswith(prefix):
            continue
        for part in key[len(prefix) : -1].split(","):
            if part.startswith("worker="):
                out[part[len("worker=") :]] = value
    return out


def compute_record(
    prev: dict | None,
    snapshot: dict,
    *,
    dt: float,
    seq: int,
    reason: str,
    elapsed_s: float,
    wall_time: float,
) -> dict:
    """Build one series record from consecutive snapshots.

    ``prev`` is the previous sample's ``{"counters": ..., "histograms": ...}``
    totals (or ``None`` for the first sample, which rates against zero).
    Pure function of its inputs — the unit tests drive it directly with
    fabricated snapshots.
    """
    totals = _counter_totals(snapshot)
    hists = _histogram_totals(snapshot)
    prev_totals = prev["counters"] if prev else {}
    prev_hists = prev["histograms"] if prev else {}

    rates = {
        key: _window_rate(value, prev_totals.get(key, 0.0), dt)
        for key, value in totals.items()
    }
    hist_window: dict[str, dict] = {}
    for key, (total_sum, total_count) in hists.items():
        prev_sum, prev_count = prev_hists.get(key, (0.0, 0.0))
        w_count = max(0.0, total_count - prev_count)
        w_sum = max(0.0, total_sum - prev_sum)
        hist_window[key] = {
            "count": w_count,
            "sum": w_sum,
            "mean": (w_sum / w_count) if w_count else None,
        }

    derived: dict = {
        "poses_per_s": sum(
            rate for key, rate in rates.items()
            if key == "host.poses" or key.startswith("host.poses{")
        ),
        "ligands_per_s": rates.get("campaign.ligands.done", 0.0),
    }
    queue = hist_window.get("host.queue_wait_seconds")
    derived["queue_wait_mean_s"] = queue["mean"] if queue else None

    # Per-worker share of this window's poses vs the Eq. 1 plan weight.
    worker_now = _worker_series(totals, "host.worker.poses")
    if worker_now:
        worker_prev = _worker_series(prev_totals, "host.worker.poses")
        deltas = {
            w: max(0.0, v - worker_prev.get(w, 0.0)) for w, v in worker_now.items()
        }
        window_total = sum(deltas.values())
        gauges = {
            metric_key(g["name"], g["tags"]): float(g["value"])
            for g in snapshot.get("gauges", ())
        }
        weights = _worker_series(gauges, "host.warmup.weight")
        if window_total > 0:
            share = {w: d / window_total for w, d in deltas.items()}
            derived["worker_share"] = share
            if weights:
                derived["share_drift"] = {
                    w: s - weights[w] for w, s in share.items() if w in weights
                }

    return {
        "schema_version": SERIES_SCHEMA_VERSION,
        "seq": int(seq),
        "reason": str(reason),
        "wall_time": wall_time,
        "elapsed_s": elapsed_s,
        "window_s": dt,
        "counters": totals,
        "gauges": {
            metric_key(g["name"], g["tags"]): float(g["value"])
            for g in snapshot.get("gauges", ())
        },
        "rates": rates,
        "histograms_window": hist_window,
        "derived": derived,
    }


class TelemetrySampler:
    """Append periodic telemetry samples to a JSONL series file.

    Parameters
    ----------
    path:
        Series file; one JSON record per line, appended and flushed.
    interval_s:
        Sampling period in seconds; must be > 0.
    telemetry:
        A specific :class:`~repro.observability.Telemetry` session to watch,
        or ``None`` for the process-global session (resolved at each sample,
        so ``set_telemetry`` swaps are honoured).
    clock / wall_clock:
        Injectable monotonic and epoch clocks (tests).
    disk_path:
        Optional campaign store path. When set, every sample probes the
        store's on-disk footprint (via the backend-agnostic
        ``store_disk_bytes`` seam) and writes it into the record's gauges
        as ``store.disk.bytes`` — so a series file shows columnar-vs-SQLite
        growth over time even between the runner's shard-boundary gauge
        updates. The probe goes straight into the *record*, never into the
        watched registry, preserving the observation-only contract.

    Use as a context manager (``with TelemetrySampler(...)``) or pair
    :meth:`start`/:meth:`stop`. ``stop`` writes one final sample so a series
    always ends with the run's closing totals.
    """

    def __init__(
        self,
        path: str | Path,
        interval_s: float = 1.0,
        telemetry=None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        disk_path: str | Path | None = None,
    ) -> None:
        interval_s = float(interval_s)
        if not interval_s > 0:
            raise ObservabilityError(
                f"sampler interval must be > 0 seconds, got {interval_s}"
            )
        self.path = Path(path)
        self.interval_s = interval_s
        if disk_path is not None and str(disk_path) == ":memory:":
            disk_path = None
        self.disk_path = disk_path
        self._telemetry = telemetry
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev: dict | None = None
        self._seq = 0
        self._t0 = clock()
        self._last_sample_t = self._t0
        self.last_record: dict | None = None

    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        if self._telemetry is not None:
            session = self._telemetry
        else:
            from repro import observability as obs

            session = obs.get_telemetry()
        # The watched session is mutated by other threads; registering a new
        # instrument mid-iteration raises RuntimeError. Reads never corrupt —
        # retry the freeze a few times rather than locking the hot path.
        for _ in range(5):
            try:
                return session.snapshot()
            except RuntimeError:
                continue
        return session.snapshot()

    def _disk_bytes(self) -> float | None:
        """Probe the store's on-disk size; None when unset or unreadable."""
        if self.disk_path is None:
            return None
        from repro.campaign.backends import store_disk_bytes  # lazy: cycle

        try:
            return float(store_disk_bytes(self.disk_path))
        except Exception:
            return None

    def sample(self, reason: str = "interval") -> dict:
        """Take one sample now; append it to the series file; return it."""
        with self._lock:
            now = self._clock()
            snapshot = self._snapshot()
            record = compute_record(
                self._prev,
                snapshot,
                dt=max(0.0, now - self._last_sample_t),
                seq=self._seq,
                reason=reason,
                elapsed_s=now - self._t0,
                wall_time=self._wall_clock(),
            )
            disk_bytes = self._disk_bytes()
            if disk_bytes is not None:
                record["gauges"]["store.disk.bytes"] = disk_bytes
            self._prev = {
                "counters": _counter_totals(snapshot),
                "histograms": _histogram_totals(snapshot),
            }
            self._seq += 1
            self._last_sample_t = now
            self.last_record = record
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
            return record

    def mark(self, reason: str, force: bool = False) -> None:
        """Event-driven sample; rate-limited to interval/2 unless forced."""
        if not force and self._clock() - self._last_sample_t < self.interval_s / 2:
            return
        self.sample(reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        """Begin background sampling (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-sampler", daemon=True
        )
        with _ACTIVE_LOCK:
            _ACTIVE.append(self)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample("interval")
            except Exception:  # a sampling hiccup must never kill the run
                pass

    def stop(self) -> None:
        """Stop the thread and write one final sample. Idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(5.0, 2 * self.interval_s))
        with _ACTIVE_LOCK:
            if self in _ACTIVE:
                _ACTIVE.remove(self)
        self.sample("final")

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# event-driven marks (fanned out from obs.mark)
# ----------------------------------------------------------------------
def active_samplers() -> tuple[TelemetrySampler, ...]:
    """Currently started samplers (the ``obs.mark`` fan-out set)."""
    with _ACTIVE_LOCK:
        return tuple(_ACTIVE)


def mark_active(reason: str, force: bool = False) -> None:
    """Ask every active sampler for an event-driven sample."""
    if not _ACTIVE:  # fast path: no live sampler, nothing to do
        return
    for sampler in active_samplers():
        try:
            sampler.mark(reason, force=force)
        except Exception:
            pass


# ----------------------------------------------------------------------
# reading a series back
# ----------------------------------------------------------------------
def read_series(path: str | Path) -> list[dict]:
    """Parse a series file; tolerate one torn final line (crash tail).

    A record that fails to parse anywhere *before* the tail is real
    corruption and raises :class:`ObservabilityError`; an unparsable final
    line is the expected artifact of a killed writer and is dropped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read metrics series: {exc}") from exc
    records: list[dict] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                break  # torn tail: the writer died mid-append
            raise ObservabilityError(
                f"corrupt metrics series record at line {i + 1}: {exc}"
            ) from exc
        version = record.get("schema_version")
        if version != SERIES_SCHEMA_VERSION:
            raise ObservabilityError(
                f"unsupported series record version {version!r} at line {i + 1} "
                f"(this library reads {SERIES_SCHEMA_VERSION})"
            )
        records.append(record)
    return records
