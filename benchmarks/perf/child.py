"""One pass of one workload (or the direct drivers) in a fresh interpreter.

``run.py`` starts this file once per pass, so every pass pays its own
imports, pool spawn and warm-up, and nothing leaks between passes. The last
line of standard output is one JSON object of raw observations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path


def _program_counters(host_workers: int, body_s: float) -> dict:
    """Worker-side time no outside wrapper can see (source: program-counter)."""
    from repro import observability as obs
    from workloads import counter_total

    snapshot = obs.snapshot()

    def counter(name: str) -> float:
        return counter_total(snapshot, name)

    busy = sum(h["sum"] for h in snapshot["histograms"] if h["name"] == "host.worker.task_seconds")
    hits, misses = counter("host.prefetch.hits"), counter("host.prefetch.misses")
    return {
        "host_runtime.worker_busy_s": busy,
        "host_runtime.pool_idle_s": counter("host.pool.idle.seconds"),
        "host_runtime.worker_utilization": busy / (host_workers * body_s) if host_workers else 0.0,
        "host_runtime.prefetch_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "host_runtime.steals": counter("host.steals"),
        "store.compactions": counter("campaign.store.compactions"),
    }


def wrapped_metrics(spans: list[list], raw: dict, host_workers: int) -> dict:
    """Per-layer numbers of one traced pass, from the benchmark's own spans."""
    import tracing

    body_s = raw["t_closed"] - raw["t_body"]
    ligands = raw["stored"]
    layer_s: dict[str, float] = defaultdict(float)
    name_s: dict[str, float] = defaultdict(float)
    for (layer, name), seconds in tracing.self_times(spans).items():
        layer_s[layer] += seconds
        name_s[name] += seconds

    durations: dict[str, list[float]] = defaultdict(list)
    outer_scoring = fsyncs_journal = fsyncs_store = 0
    for layer, name, start, end, parent in spans:
        durations[name].append(end - start)
        parent_layer = spans[parent][0] if parent >= 0 else None
        if layer == "scoring" and parent_layer != "scoring" and not name.endswith(".bind"):
            outer_scoring += 1
        if name == tracing.FSYNC:
            while parent >= 0 and spans[parent][0] is None:
                parent = spans[parent][4]
            owner = spans[parent][0] if parent >= 0 else None
            fsyncs_journal += owner == "campaign.journal"
            fsyncs_store += owner == "campaign.store"

    def of(suffix: str) -> list[float]:
        return [d for name, values in durations.items() if name.endswith(suffix) for d in values]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def share(layer: str) -> float:
        return layer_s[layer] / body_s

    dock_s = sorted(of("runner.dock"))
    leases = durations["PersistentHostRuntime.lease"] + durations["PersistentHostRuntime.acquire"]
    submits = len(durations["ParallelSpotEvaluator.submit"])
    out = {
        "body_s": body_s,
        "scoring.busy_s": layer_s["scoring"],
        "scoring.share": share("scoring"),
        "scoring.calls": outer_scoring,
        "scoring.poses": raw["evaluations"],
        "metaheuristics.self_s": layer_s["metaheuristics"],
        "metaheuristics.share": share("metaheuristics"),
        "metaheuristics.evaluations_per_ligand": raw["evaluations"] / ligands,
        "metaheuristics.launches_per_ligand": (submits or outer_scoring) / ligands if dock_s else 0.0,
        "docking.self_s": layer_s["vs.docking"],
        "docking.ligand_s_p50": statistics.median(dock_s) if dock_s else 0.0,
        "docking.ligand_s_p80": statistics.quantiles(dock_s, n=5)[3] if len(dock_s) > 1 else 0.0,
        "host_runtime.self_s": layer_s["engine.host_runtime"],
        "host_runtime.share": share("engine.host_runtime"),
        # The first lease forks the pool and runs the Eq. 1 warm-up.
        "host_runtime.spawn_warmup_s": leases[0] if leases else 0.0,
        "host_runtime.lease_s": sum(leases[1:]),
        "host_runtime.submit_s": name_s["ParallelSpotEvaluator.submit"],
        "host_runtime.harvest_wait_s": name_s["ParallelSpotEvaluator.harvest"],
        "host_runtime.launches": submits,
        "runner.self_s": layer_s["campaign.runner"],
        "runner.share": share("campaign.runner"),
        "library.busy_s": layer_s["campaign.library"],
        "library.share": share("campaign.library"),
        "molecules.generate_ligand_s": layer_s["molecules"],
        "store.self_s": layer_s["campaign.store"],
        "store.share": share("campaign.store"),
        "store.record_us": mean(of(".record_result")) * 1e6,
        "store.seal_ms": mean(of(".finish_shard")) * 1e3,
        "store.compaction_wait_s": sum(of(".wait_for_compaction")),
        "store.fsyncs": fsyncs_store,
        "store.segments": raw.get("segments", 0),
        "journal.self_s": layer_s["campaign.journal"],
        "journal.appends": len(durations["CampaignJournal.append"]),
        "journal.fsyncs": fsyncs_journal,
        "journal.append_us": mean(durations["CampaignJournal.append"]) * 1e6,
        "journal.bytes_per_kligand": raw["journal_bytes"] / ligands * 1e3,
        "unattributed_share": 1.0 - sum(layer_s.values()) / body_s,
        "trace.overhead_share": len(spans) * tracing.span_cost_s() / body_s,
    }
    out.update(_program_counters(host_workers, body_s))
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--library", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    import inputs

    sizes = inputs.PROFILES[args.profile]
    if args.workload == "warmup":
        import layers  # noqa: F401  (with it, everything a pass imports)
        import tracing  # noqa: F401

        result = {}
    elif args.workload == "drivers":
        import layers

        result = {"drivers": layers.run_all(sizes, args.seed, args.workdir, args.library)}
    else:
        import tracing
        import workloads

        result = {"installed_before": tracing.installed()}
        if args.trace:
            recorder = tracing.Recorder()
            patches = tracing.install(recorder)
            try:
                raw = workloads.run(args.workload, sizes, args.seed, args.workdir, args.library)
            finally:
                tracing.remove(patches)
            host_workers = workloads.HOST_WORKERS.get(args.workload, 0)
            result["layers"] = wrapped_metrics(recorder.spans, raw, host_workers)
            result["span_counts"] = Counter(name for _, name, *_ in recorder.spans)
        else:
            raw = workloads.run(args.workload, sizes, args.seed, args.workdir, args.library)
        result["raw"] = raw
        result["installed_after"] = tracing.installed()
        result["platform"] = workloads.platform_fingerprint()
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
