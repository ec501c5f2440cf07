"""Telemetry overhead benchmark: the <3% budget, measured.

The observability subsystem (``repro.observability``) instruments every hot
path — host runtime workers, scheduler plans, campaign shards, docking — and
promises to stay under a **3% overhead budget** on a real screening run.
This benchmark enforces that promise with an estimator that survives noisy
shared runners:

* **enforced: ops x cost** — one fixed ``screen()`` workload runs with
  telemetry enabled; its snapshot yields the *exact* number of telemetry
  operations performed (counter increments, histogram observations, spans).
  Each primitive's per-operation cost is measured by a tight micro-loop
  (best of several reps). ``overhead_pct = ops x cost / baseline`` must stay
  under :data:`OVERHEAD_BUDGET_PCT`. Both factors are stable: op counts are
  deterministic, and a best-of micro-loop converges even on a busy machine.
* **informational: paired wall-clock** — enabled/disabled runs alternate in
  adjacent pairs and the median paired delta is reported. On a contended
  container, machine drift swings end-to-end wall-clock by more than the
  budget itself (measured deltas straddle zero), so this number tracks the
  trajectory in the artifact but is *not* asserted.
* **enforced: live sampler amortisation** — one ``TelemetrySampler.sample()``
  over the run's populated registry is micro-timed, then amortised over the
  samples a real run would take (baseline/interval periodic ticks plus one
  event-driven mark per shard commit and host harvest). The sampler runs on
  its own thread, but its snapshot freezes iterate the same registry the hot
  path mutates, so its cost is billed against the same budget.

Run standalone::

    python benchmarks/bench_observability_overhead.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_observability_overhead.py``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import observability as obs
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.observability.flight import flight_event, flight_recorder
from repro.vs.screening import screen

#: The documented telemetry overhead budget (docs/architecture.md).
OVERHEAD_BUDGET_PCT = 3.0

#: Micro-benchmark iterations per primitive, and best-of reps.
MICRO_ITERS = 20_000
MICRO_REPS = 3

#: Default live-sampling interval the amortisation models (CLI default).
SAMPLER_INTERVAL_S = 1.0


def _workload(smoke: bool):
    n_rec, n_lig, scale = (400, 8, 0.06) if smoke else (900, 16, 0.1)
    receptor = generate_receptor(n_rec, seed=11, title="obs-overhead")
    ligands = [generate_ligand(10 + i % 4, seed=20 + i) for i in range(n_lig)]
    return receptor, ligands, scale


def _time_screen(receptor, ligands, scale) -> float:
    obs.reset()
    t0 = time.perf_counter()
    screen(receptor, ligands, n_spots=2, seed=3, workload_scale=scale)
    return time.perf_counter() - t0


def _best_of(fn, reps=MICRO_REPS) -> float:
    return min(fn() for _ in range(reps))


def _micro_costs() -> dict:
    """Per-operation cost (ns) of each telemetry primitive, enabled."""
    telemetry = obs.Telemetry()
    counter = telemetry.counter("micro.counter")
    hist = telemetry.histogram("micro.hist")

    def time_loop(op, iters):
        t0 = time.perf_counter()
        for _ in range(iters):
            op()
        return (time.perf_counter() - t0) / iters * 1e9

    def span_op():
        with telemetry.span("micro.span"):
            pass

    costs = {
        "counter_inc_ns": _best_of(lambda: time_loop(counter.inc, MICRO_ITERS)),
        "histogram_observe_ns": _best_of(
            lambda: time_loop(lambda: hist.observe(0.5), MICRO_ITERS)
        ),
    }
    # The span buffer is bounded; reset between reps so enter/exit keeps
    # paying full recording cost instead of hitting the drop path.
    def span_rep():
        telemetry.tracer.reset()
        return time_loop(span_op, MICRO_ITERS // 10)

    costs["span_ns"] = _best_of(span_rep)

    # Flight recorder: priced through the real flight_event() entry point
    # with a file attached, as in a campaign, so the enabled check and the
    # framed write each event costs are both billed. Rotation keeps the file
    # small, so a long loop pays the same per-event write.
    with tempfile.TemporaryDirectory() as scratch:
        flight_recorder().attach(Path(scratch) / "micro.flight")
        try:
            costs["flight_event_ns"] = _best_of(
                lambda: time_loop(lambda: flight_event("micro.flight", i=0), MICRO_ITERS)
            )
        finally:
            flight_recorder().attach(None)
    return costs


def _sampler_cost(snapshot_ops: int) -> dict:
    """Best-of cost (s) of one live sample over a comparably busy registry.

    The sampler freezes whatever session is active; to price a realistic
    sample the micro-registry is padded to roughly the instrumented run's
    instrument count before timing.
    """
    import tempfile

    from repro.observability import Telemetry, TelemetrySampler

    telemetry = Telemetry()
    for i in range(max(16, min(snapshot_ops, 256))):
        telemetry.counter("micro.pad", series=i % 16).inc()
        telemetry.histogram("micro.pad_hist", series=i % 8).observe(0.5)
    with telemetry.span("micro.pad_span"):
        pass
    with tempfile.NamedTemporaryFile(suffix=".jsonl") as handle:
        sampler = TelemetrySampler(handle.name, telemetry=telemetry)

        def rep():
            t0 = time.perf_counter()
            for _ in range(50):
                sampler.sample()
            return (time.perf_counter() - t0) / 50

        return {"sample_cost_s": _best_of(rep)}


def _op_counts(snapshot: dict) -> dict:
    """Exact telemetry operation counts for one instrumented run.

    Counter values over-count slightly where code calls ``inc(n)`` once
    (counted as ``n`` increments) — a conservative error in the safe
    direction for a budget check.
    """
    return {
        "counter_incs": int(sum(c["value"] for c in snapshot["counters"])),
        "gauge_sets": len(snapshot["gauges"]),
        "histogram_observes": int(sum(h["count"] for h in snapshot["histograms"])),
        "spans": len(snapshot["spans"]),
    }


def run_benchmark(smoke: bool = False, out_path: str | None = None) -> dict:
    receptor, ligands, scale = _workload(smoke)
    pairs = 5 if smoke else 8

    # Warm run (imports, allocator, spot caches) — discarded.
    _time_screen(receptor, ligands, scale)

    deltas = []
    disabled_times = []
    snapshot = None
    for _ in range(pairs):
        enabled_t = _time_screen(receptor, ligands, scale)
        snapshot = obs.snapshot()  # from an enabled run — must be non-empty
        with obs.disabled():
            disabled_t = _time_screen(receptor, ligands, scale)
        deltas.append(enabled_t - disabled_t)
        disabled_times.append(disabled_t)

    baseline_s = min(disabled_times)
    micro = _micro_costs()
    ops = _op_counts(snapshot)
    # The flight recorder bills inside the same budget. screen() docks into
    # a :memory: store, which attaches no file and records nothing; the same
    # ligands as an on-disk campaign record at most one event each (a
    # shard.finish per shard of >= 1 ligand), billed at the attached cost.
    ops["flight_events"] = len(ligands)
    # Gauges share the counter code path; bill sets at the counter rate.
    telemetry_s = (
        (ops["counter_incs"] + ops["gauge_sets"]) * micro["counter_inc_ns"]
        + ops["histogram_observes"] * micro["histogram_observe_ns"]
        + ops["spans"] * micro["span_ns"]
        + ops["flight_events"] * micro["flight_event_ns"]
    ) * 1e-9

    # Live sampler amortisation: periodic ticks over the run plus one
    # event-driven mark per shard commit / host harvest (upper bound — marks
    # are rate-limited to interval/2 in the real pipeline).
    def _counter_total(name: str) -> float:
        return sum(
            c["value"] for c in snapshot["counters"] if c["name"] == name
        )

    sampler = _sampler_cost(len(snapshot["counters"]))
    mark_events = _counter_total("campaign.shards.done") + _counter_total(
        "host.launches"
    )
    estimated_samples = baseline_s / SAMPLER_INTERVAL_S + mark_events
    sampler_s = estimated_samples * sampler["sample_cost_s"]
    sampler.update(
        {
            "interval_s": SAMPLER_INTERVAL_S,
            "mark_events": mark_events,
            "estimated_samples": estimated_samples,
            "sampler_seconds": sampler_s,
            "sampler_overhead_pct": sampler_s / baseline_s * 100.0,
        }
    )

    overhead_pct = (telemetry_s + sampler_s) / baseline_s * 100.0

    artifact = {
        "benchmark": "observability_overhead",
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "pairs": pairs,
        "baseline_seconds": baseline_s,
        "telemetry_seconds": telemetry_s,
        "overhead_pct": overhead_pct,
        "wallclock_median_delta_seconds": statistics.median(deltas),
        "wallclock_paired_deltas_seconds": deltas,
        "ops": ops,
        "counters_recorded": len(snapshot["counters"]),
        "histograms_recorded": len(snapshot["histograms"]),
        "spans_recorded": len(snapshot["spans"]),
        "micro": micro,
        "sampler": sampler,
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("observability_overhead", artifact, path=out_path)
    return artifact


def _report(artifact: dict) -> str:
    micro = artifact["micro"]
    ops = artifact["ops"]
    return "\n".join(
        [
            f"screen() baseline : {artifact['baseline_seconds'] * 1e3:8.1f} ms "
            f"(best disabled run of {artifact['pairs']} pairs)",
            f"telemetry ops     : {ops['counter_incs']} counter incs, "
            f"{ops['gauge_sets']} gauge sets, "
            f"{ops['histogram_observes']} histogram observes, "
            f"{ops['spans']} spans, "
            f"{ops['flight_events']} flight events",
            f"telemetry cost    : {artifact['telemetry_seconds'] * 1e6:8.1f} us "
            f"(ops x measured per-op cost)",
            f"overhead          : {artifact['overhead_pct']:8.3f} %  "
            f"(budget {artifact['budget_pct']:.1f} %)",
            f"wall-clock delta  : "
            f"{artifact['wallclock_median_delta_seconds'] * 1e3:+8.2f} ms "
            f"(median of pairs; informational — noise-dominated)",
            f"counter.inc       : {micro['counter_inc_ns']:8.0f} ns/op",
            f"histogram.observe : {micro['histogram_observe_ns']:8.0f} ns/op",
            f"span enter/exit   : {micro['span_ns']:8.0f} ns/op",
            f"flight.event      : {micro['flight_event_ns']:8.0f} ns/op",
            f"live sample       : "
            f"{artifact['sampler']['sample_cost_s'] * 1e6:8.1f} us/sample "
            f"({artifact['sampler']['estimated_samples']:.1f} samples -> "
            f"{artifact['sampler']['sampler_overhead_pct']:.3f} % of budget)",
        ]
    )


def test_observability_overhead_smoke(benchmark, tmp_path):
    """CI smoke: telemetry must stay inside its documented overhead budget."""
    out = tmp_path / "observability_overhead.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit(
        "Telemetry overhead — ops x cost vs budget",
        _report(artifact),
        name="observability_overhead",
        data=artifact,
    )
    doc = load_bench_artifact(out)
    assert doc["benchmark"] == "observability_overhead"
    assert artifact["overhead_pct"] < artifact["budget_pct"], (
        f"telemetry overhead {artifact['overhead_pct']:.3f}% "
        f"exceeds the {artifact['budget_pct']:.1f}% budget"
    )
    # The instrumented run must actually have recorded something.
    assert artifact["counters_recorded"] > 0
    assert artifact["histograms_recorded"] > 0
    assert artifact["spans_recorded"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument(
        "--out", default="observability_overhead.json", help="JSON artifact"
    )
    args = parser.parse_args(argv)
    artifact = run_benchmark(smoke=args.smoke, out_path=args.out)
    print(_report(artifact))
    print(f"wrote {args.out}")
    if artifact["overhead_pct"] >= artifact["budget_pct"]:
        print(
            f"FAIL: overhead {artifact['overhead_pct']:.3f}% >= "
            f"budget {artifact['budget_pct']:.1f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
