"""Campaign benchmark: durable-store throughput and resume overhead.

Runs a synthetic screening campaign end-to-end through the durable
:class:`CampaignRunner` path (its SQLite store is the one durable log),
then measures what durability costs:

* ``ligands_per_second`` — end-to-end campaign throughput, all durability
  writes included,
* ``resume_noop_seconds`` — the fixed cost of resuming an already-complete
  campaign (store open + config check, zero docking),
* ``store_bytes_per_1k_ligands`` — on-disk footprint of the result store,
  normalised so different scales are comparable,
* ``ligands_per_second_persistent_pool`` — the same campaign on 2 host
  worker processes leased from the campaign-owned persistent pool
  (``bench_persistent_runtime.py`` measures what reusing the pool saves).

The docking work itself dominates wall-clock by design (that is the honest
baseline: durability overhead should be measured against real work, not an
empty loop). The smoke variant keeps CI fast; the assertions check
correctness and that the fixed resume cost stays small, not absolute
wall-clock.

Run standalone::

    python benchmarks/bench_campaign_throughput.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_campaign_throughput.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.campaign import CampaignRunner, SyntheticSource
from repro.molecules.synthetic import generate_receptor

#: (name, receptor atoms, ligands, shard size)
FULL_CASES = [("steady", 600, 96, 16), ("fine-shards", 600, 96, 4)]
SMOKE_CASES = [("smoke", 300, 12, 4)]


def _make_runner(
    workdir, receptor, n_ligands, shard_size, seed=7,
    name="campaign.sqlite", **overrides,
):
    return CampaignRunner(
        receptor,
        SyntheticSource(n_ligands, atoms_range=(8, 14), seed=seed + 1),
        store_path=os.path.join(workdir, name),
        n_spots=2,
        metaheuristic="M1",
        seed=seed,
        workload_scale=0.05,
        shard_size=shard_size,
        **overrides,
    )


def bench_case(name, n_rec, n_ligands, shard_size, seed=7):
    """Benchmark one campaign; returns the artifact dict for this case."""
    receptor = generate_receptor(n_rec, seed=seed, title=name)
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as workdir:
        runner = _make_runner(workdir, receptor, n_ligands, shard_size, seed=seed)

        t0 = time.perf_counter()
        with runner.run() as store:
            run_seconds = time.perf_counter() - t0
            counts = store.counts()
            complete = store.is_complete()
        store_bytes = os.path.getsize(runner.store_path)

        t0 = time.perf_counter()
        with _make_runner(
            workdir, receptor, n_ligands, shard_size, seed=seed
        ).resume() as store:
            resume_noop_seconds = time.perf_counter() - t0
            resumed_counts = store.counts()

        # The same campaign on 2 worker processes leased from one
        # persistent pool.
        pool_ligands = min(n_ligands, 16)
        t0 = time.perf_counter()
        with _make_runner(
            workdir, receptor, pool_ligands, shard_size, seed=seed,
            name="persistent_pool.sqlite", host_workers=2,
        ).run():
            pool_seconds = time.perf_counter() - t0

    return {
        "case": name,
        "receptor_atoms": n_rec,
        "ligands": n_ligands,
        "shard_size": shard_size,
        "run_seconds": run_seconds,
        "ligands_per_second": n_ligands / run_seconds,
        "resume_noop_seconds": resume_noop_seconds,
        "store_bytes": store_bytes,
        "store_bytes_per_1k_ligands": store_bytes / n_ligands * 1000,
        "pool_ligands": pool_ligands,
        "ligands_per_second_persistent_pool": pool_ligands / pool_seconds,
        "complete": bool(complete),
        "counts": counts,
        "counts_after_resume": resumed_counts,
    }


def run_benchmark(smoke=False, out_path=None):
    cases = SMOKE_CASES if smoke else FULL_CASES
    artifact = {
        "benchmark": "campaign_throughput",
        "cases": [
            bench_case(name, n_rec, n_ligands, shard_size)
            for name, n_rec, n_ligands, shard_size in cases
        ],
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("campaign_throughput", artifact, path=out_path)
    return artifact


def _report(artifact):
    lines = []
    for case in artifact["cases"]:
        lines.append(
            f"{case['case']}: {case['ligands']} ligands, shard size "
            f"{case['shard_size']}, {case['ligands_per_second']:.2f} lig/s "
            f"({case['run_seconds']:.2f} s total)"
        )
        lines.append(
            f"  resume no-op: {case['resume_noop_seconds'] * 1e3:.1f} ms   "
            f"store: {case['store_bytes_per_1k_ligands'] / 1024:.1f} KiB per "
            "1k ligands"
        )
        lines.append(
            f"  host pool x{case['pool_ligands']} ligands: "
            f"{case['ligands_per_second_persistent_pool']:.2f} lig/s"
        )
        counts = case["counts"]
        lines.append(
            f"  done {counts['done']}, failed {counts['failed']}, "
            f"complete={'yes' if case['complete'] else 'NO'}"
        )
    return "\n".join(lines)


def test_campaign_throughput_smoke(benchmark, tmp_path):
    """CI smoke: a tiny durable campaign — correctness over wall-clock."""
    out = tmp_path / "campaign_throughput.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit("Campaign — durable throughput smoke", _report(artifact))
    assert load_bench_artifact(out)["benchmark"] == "campaign_throughput"
    for case in artifact["cases"]:
        assert case["complete"], "campaign must run to completion"
        assert case["counts"]["done"] == case["ligands"]
        assert case["counts"]["failed"] == 0
        # A no-op resume must not re-dock anything...
        assert case["counts_after_resume"] == case["counts"]
        # ...and its fixed cost must be a small fraction of the real run.
        assert case["resume_noop_seconds"] < case["run_seconds"]
        assert case["ligands_per_second"] > 0
        assert case["ligands_per_second_persistent_pool"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument(
        "--out", default="campaign_throughput.json", help="JSON artifact"
    )
    args = parser.parse_args(argv)
    artifact = run_benchmark(smoke=args.smoke, out_path=args.out)
    print(_report(artifact))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
