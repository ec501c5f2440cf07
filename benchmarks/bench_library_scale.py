"""Library-scale benchmark: columnar store ingest and streaming readers.

The scale-out claim behind the columnar backend is *flatness*: ingesting a
library N× larger must not cost N× the resident memory (sealed shards leave
the heap) and must keep the per-ligand disk footprint constant. This
benchmark measures the store layer directly — synthetic result rows pushed
through the full shard lifecycle (start → record → finish → seal →
compact) with no docking, so the numbers isolate storage cost:

* ``ligands_per_second`` — store-layer ingest rate per library size,
* ``bytes_per_ligand`` — on-disk footprint (manifest + segments + logs)
  divided by rows; the gate is 64 B. These rows cost ~24 B (a score, a spot
  byte, a 2-byte title offset and an 11-byte title each; every other column
  is constant within a row group and takes no bytes), a docked campaign's
  34-42 B because its ``wall_seconds``, evaluations and simulated seconds
  vary; a store that lost the content-sized layout reads ~80 B,
* ``rss_flatness`` — peak-RSS ratio of the largest size over the smallest
  (each size runs in its own subprocess so ``ru_maxrss`` is per-size),
* ``reader_lines_per_second`` — streaming SMILES reader throughput,
  dedup included, over a generated line-delimited library.

Run standalone::

    python benchmarks/bench_library_scale.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_library_scale.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SMOKE_SIZES = [5_000, 20_000]
FULL_SIZES = [100_000, 1_000_000]

#: Under the ~80 B of every column at full width, over a docked campaign's 34-42 B.
MAX_BYTES_PER_LIGAND = 64.0

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs in a fresh interpreter per size so ru_maxrss is that size's peak.
_INGEST_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[4])
from repro.campaign.colstore import ColumnarStore

root, n_rows, shard_size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
config = {"receptor_title": "bench receptor", "n_spots": 4, "seed": 1}
store = ColumnarStore.create(root, config, "bench-hash")
t0 = time.perf_counter()
for start in range(0, n_rows, shard_size):
    stop = min(start + shard_size, n_rows)
    shard_id = start // shard_size
    store.start_shard(shard_id, start, stop)
    for o in range(start, stop):
        store.record_result(
            o, f"LIG-{o:07d}", -1.0 - (o % 997) / 83.0, o % 4, 128, 0.01, 0.2
        )
    store.finish_shard(shard_id, 0.5)
seconds = time.perf_counter() - t0
counts = store.counts()
top_score = store.top(1)[0]["best_score"]
store.close()
print(json.dumps({
    "seconds": seconds,
    "counts": counts,
    "top_score": top_score,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def ingest_case(n_rows: int, shard_size: int = 1000) -> dict:
    """Ingest ``n_rows`` result rows in a subprocess; returns the metrics."""
    with tempfile.TemporaryDirectory(prefix="bench-libscale-") as workdir:
        root = Path(workdir) / "campaign.col"
        proc = subprocess.run(
            [
                sys.executable, "-c", _INGEST_CHILD,
                str(root), str(n_rows), str(shard_size), _SRC,
            ],
            capture_output=True,
            text=True,
            timeout=3600,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"ingest child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout)
        store_bytes = _dir_bytes(root)
    return {
        "ligands": n_rows,
        "shard_size": shard_size,
        "ingest_seconds": child["seconds"],
        "ligands_per_second": n_rows / child["seconds"],
        "store_bytes": store_bytes,
        "bytes_per_ligand": store_bytes / n_rows,
        "peak_rss_mb": child["peak_rss_kb"] / 1024,
        "complete": child["counts"]["done"] == n_rows,
        "top_score": child["top_score"],
    }


def reader_case(n_lines: int) -> dict:
    """Streaming SMILES reader throughput (parse + dedup + synthesis)."""
    from repro.campaign.library import SmilesSource

    with tempfile.TemporaryDirectory(prefix="bench-libreader-") as workdir:
        path = Path(workdir) / "library.smi"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(n_lines):
                # ~7% duplicate titles exercise the dedup path.
                handle.write(f"CCO mol-{i % (n_lines - n_lines // 15)}\n")
        source = SmilesSource(path, seed=1, atoms_range=(4, 8))
        t0 = time.perf_counter()
        titles = sum(1 for _ in source)
        seconds = time.perf_counter() - t0
    return {
        "lines": n_lines,
        "unique_ligands": titles,
        "read_seconds": seconds,
        "reader_lines_per_second": n_lines / seconds,
    }


def run_benchmark(smoke=False, out_path=None):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    cases = [ingest_case(n) for n in sizes]
    smallest, largest = cases[0], cases[-1]
    artifact = {
        "benchmark": "library_scale",
        "cases": cases,
        "reader": reader_case(min(sizes)),
        # Normalised headline metrics.
        "ligands_per_second": largest["ligands_per_second"],
        "bytes_per_ligand": max(c["bytes_per_ligand"] for c in cases),
        # Peak RSS of the biggest ingest over the smallest: ~1.0 == flat.
        "rss_flatness": largest["peak_rss_mb"] / smallest["peak_rss_mb"],
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("library_scale", artifact, path=out_path)
    return artifact


def _report(artifact):
    lines = []
    for case in artifact["cases"]:
        lines.append(
            f"{case['ligands']:>9,} ligands: "
            f"{case['ligands_per_second']:>9,.0f} lig/s ingest, "
            f"{case['bytes_per_ligand']:.1f} B/ligand on disk, "
            f"peak RSS {case['peak_rss_mb']:.1f} MB"
        )
    reader = artifact["reader"]
    lines.append(
        f"reader: {reader['lines']:,} lines -> {reader['unique_ligands']:,} "
        f"ligands at {reader['reader_lines_per_second']:,.0f} lines/s"
    )
    lines.append(
        f"RSS flatness ({artifact['cases'][-1]['ligands'] // artifact['cases'][0]['ligands']}x "
        f"the library): {artifact['rss_flatness']:.2f}x the memory"
    )
    return "\n".join(lines)


def test_library_scale_smoke(benchmark, tmp_path):
    """CI smoke: ingest scaling gates — footprint and RSS flatness."""
    out = tmp_path / "library_scale.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit("Campaign — library-scale ingest smoke", _report(artifact))
    assert load_bench_artifact(out)["benchmark"] == "library_scale"
    for case in artifact["cases"]:
        assert case["complete"], "every ingested row must be durable"
        # The ISSUE gate: at most 0.2 MB of store per 1k ligands.
        assert case["bytes_per_ligand"] <= MAX_BYTES_PER_LIGAND, (
            f"{case['bytes_per_ligand']:.1f} B/ligand exceeds the "
            f"{MAX_BYTES_PER_LIGAND:.1f} B gate"
        )
    # A 4x larger library must cost (nearly) no more memory: a merge holds
    # column blocks, not rows (1.22 with the row-at-a-time merge, 1.02-1.06
    # since).
    assert artifact["rss_flatness"] < 1.1, (
        f"ingest RSS grew {artifact['rss_flatness']:.2f}x with library size"
    )
    assert artifact["reader"]["unique_ligands"] < artifact["reader"]["lines"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument(
        "--out", default="library_scale.json", help="JSON artifact"
    )
    args = parser.parse_args(argv)
    artifact = run_benchmark(smoke=args.smoke, out_path=args.out)
    print(_report(artifact))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
