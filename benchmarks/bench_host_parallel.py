"""Host-runtime benchmark: real process-parallel scoring speedup.

Times one fixed pose workload through :class:`SerialEvaluator` and through
:class:`ParallelSpotEvaluator` at several worker counts, on 2BSM- and
2BXG-scale synthetic complexes, and writes a JSON artifact with speedup,
parallel efficiency, and a bitwise-equality flag.

Pool construction and warm-up are excluded from the timed region — the pool
is persistent across a screening run, so its one-off cost amortises away.

Honesty note: speedup is bounded by the cores the container actually grants
(``available_cores`` in the artifact). On a single-core CI runner the
parallel path can only tie or lose; the artifact records the observed
numbers either way, and the smoke assertions check *correctness* (bitwise
equality), not wall-clock.

Run standalone::

    python benchmarks/bench_host_parallel.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_host_parallel.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.engine.host_runtime import ParallelSpotEvaluator
from repro.metaheuristics.evaluation import SerialEvaluator
from repro.molecules.spots import find_spots
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.molecules.transforms import random_quaternion
from repro.scoring.cutoff import CutoffLennardJonesScoring

#: (name, receptor atoms, ligand atoms) — Table 5 scale and a smoke scale.
FULL_CASES = [("2BSM", 3264, 45), ("2BXG", 8609, 32)]
SMOKE_CASES = [("smoke", 600, 24)]


def _workload(receptor, spots, n_poses, seed=0):
    """A deterministic spot-anchored launch, shared by every evaluator."""
    rng = np.random.default_rng(seed)
    centers = np.stack([s.center for s in spots])
    radii = np.array([s.radius for s in spots])
    assign = rng.integers(0, len(spots), size=n_poses)
    translations = centers[assign] + rng.uniform(-1, 1, (n_poses, 3)) * radii[
        assign, None
    ]
    quaternions = random_quaternion(rng, n_poses)
    spot_ids = np.array([spots[i].index for i in assign], dtype=np.int64)
    return spot_ids, translations, quaternions


def _time(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_case(name, n_rec, n_lig, n_poses, worker_counts, repeats=3, seed=0):
    """Benchmark one complex; returns the artifact dict for this case."""
    receptor = generate_receptor(n_rec, seed=seed + 1, title=name)
    ligand = generate_ligand(n_lig, seed=seed + 2)
    spots = find_spots(receptor, 8)
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    spot_ids, t, q = _workload(receptor, spots, n_poses, seed=seed)

    serial = SerialEvaluator(scorer)
    serial_s, expected = _time(lambda: serial.evaluate(spot_ids, t, q), repeats)

    runs = []
    for n_workers in worker_counts:
        with ParallelSpotEvaluator(scorer, n_workers=n_workers) as ev:
            par_s, got = _time(lambda: ev.evaluate(spot_ids, t, q), repeats)
        speedup = serial_s / par_s
        runs.append(
            {
                "workers": n_workers,
                "seconds": par_s,
                "speedup": speedup,
                "efficiency": speedup / n_workers,
                "bitwise_equal": bool(np.array_equal(got, expected)),
            }
        )
    return {
        "case": name,
        "receptor_atoms": n_rec,
        "ligand_atoms": n_lig,
        "poses": n_poses,
        "serial_seconds": serial_s,
        "parallel": runs,
    }


def run_benchmark(smoke=False, out_path=None, worker_counts=(2, 4)):
    cases = SMOKE_CASES if smoke else FULL_CASES
    n_poses = 64 if smoke else 512
    repeats = 1 if smoke else 3
    artifact = {
        "benchmark": "host_parallel",
        "available_cores": os.cpu_count(),
        "sched_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "cases": [
            bench_case(name, n_rec, n_lig, n_poses, worker_counts, repeats=repeats)
            for name, n_rec, n_lig in cases
        ],
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("host_parallel", artifact, path=out_path)
    return artifact


def _report(artifact):
    lines = [
        f"available cores: {artifact['available_cores']} "
        f"(affinity {artifact['sched_cores']})"
    ]
    for case in artifact["cases"]:
        lines.append(
            f"{case['case']}: {case['receptor_atoms']}x{case['ligand_atoms']} atoms, "
            f"{case['poses']} poses, serial {case['serial_seconds'] * 1e3:.1f} ms"
        )
        for run in case["parallel"]:
            lines.append(
                f"  {run['workers']} workers: {run['seconds'] * 1e3:8.1f} ms  "
                f"speedup {run['speedup']:.2f}x  efficiency {run['efficiency']:.2f}  "
                f"bitwise={'yes' if run['bitwise_equal'] else 'NO'}"
            )
    return "\n".join(lines)


def test_host_parallel_smoke(benchmark, tmp_path):
    """CI smoke: 2 workers on a small complex — correctness over wall-clock."""
    out = tmp_path / "host_parallel.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out), worker_counts=(2,)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit("Host runtime — process-parallel smoke", _report(artifact))
    assert load_bench_artifact(out)["benchmark"] == "host_parallel"
    for case in artifact["cases"]:
        for run in case["parallel"]:
            assert run["bitwise_equal"], "parallel energies must match serial bitwise"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument("--out", default="host_parallel.json", help="JSON artifact")
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 4],
        help="worker counts to benchmark",
    )
    args = parser.parse_args(argv)
    artifact = run_benchmark(
        smoke=args.smoke, out_path=args.out, worker_counts=tuple(args.workers)
    )
    print(_report(artifact))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
