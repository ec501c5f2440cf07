"""Persistent campaign runtime: per-ligand fixed overhead, fresh vs reused pool.

The host runtime pays its fixed costs — worker pool spawn, the Eq. 1
warm-up measurement — once per *evaluator*. A campaign that builds a fresh
evaluator per ligand therefore pays them once per *ligand*. The persistent
runtime (:class:`repro.engine.host_runtime.PersistentHostRuntime`) pays them
once per *campaign* and swaps each new ligand in through the versioned
rebind protocol: a lease reads the scorer's shape and mints a version, and
each worker binds the ligand on its first task.

This benchmark measures exactly that fixed overhead, ligand by ligand, for
the same library on the same receptor:

* ``fresh_fixed_seconds_per_ligand`` — mean (evaluator construction, the
  workers' bind and warm-up included, + close) when every ligand gets its
  own pool,
* ``persistent_fixed_seconds_per_ligand`` — total acquire/rebind time of the
  persistent runtime (pool spawn and warm-up included, amortised) divided by
  the same ligand count,
* ``fixed_overhead_speedup`` — the ratio; the acceptance bar is **>= 5x**
  for a >= 16-ligand campaign with 4 host workers,
* ``bitwise_identical`` — every per-ligand energy vector from both pool
  modes compared exactly against the serial evaluator.

Run standalone::

    python benchmarks/bench_persistent_runtime.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_persistent_runtime.py``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import observability as obs
from repro.engine.host_runtime import ParallelSpotEvaluator, PersistentHostRuntime
from repro.metaheuristics.evaluation import SerialEvaluator
from repro.molecules.spots import find_spots
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.molecules.transforms import random_quaternion
from repro.scoring.cutoff import CutoffLennardJonesScoring

#: (name, receptor atoms, ligands, host workers)
FULL_CASES = [("full", 600, 32, 4)]
#: The smoke case still satisfies the acceptance shape: >= 16 ligands, 4
#: workers, >= 5x fixed-overhead reduction. CI regenerates this one.
SMOKE_CASES = [("smoke", 300, 16, 4)]

N_SPOTS = 4
POSES_PER_SPOT = 3


def _scoring():
    return CutoffLennardJonesScoring(dtype=np.float32)


def _launch(spots, seed):
    """One deterministic evaluation launch spread over every spot."""
    rng = np.random.default_rng(seed)
    spot_ids, translations = [], []
    for s in spots:
        translations.append(
            s.center + rng.uniform(-s.radius, s.radius, size=(POSES_PER_SPOT, 3))
        )
        spot_ids.extend([s.index] * POSES_PER_SPOT)
    translations = np.concatenate(translations)
    return (
        np.asarray(spot_ids, dtype=np.int64),
        translations,
        random_quaternion(rng, translations.shape[0]),
    )


def bench_case(name, n_rec, n_ligands, n_workers, seed=7):
    receptor = generate_receptor(n_rec, seed=seed, title=name)
    spots = find_spots(receptor, N_SPOTS)
    ligands = [
        generate_ligand(8 + (i % 7), seed=seed + 100 + i, title=f"L{i:03d}")
        for i in range(n_ligands)
    ]
    spot_ids, t, q = _launch(spots, seed)
    serial = [
        SerialEvaluator(_scoring().bind(receptor, lig)).evaluate(spot_ids, t, q)
        for lig in ligands
    ]
    bitwise = True

    # Fresh pool per ligand: spawn + the workers' bind + warm-up + close,
    # every time.
    fresh_fixed = []
    for i, lig in enumerate(ligands):
        t0 = time.perf_counter()
        ev = ParallelSpotEvaluator(_scoring(), receptor, lig, n_workers=n_workers)
        setup_s = time.perf_counter() - t0
        energies = ev.evaluate(spot_ids, t, q)
        t0 = time.perf_counter()
        ev.close()
        fresh_fixed.append(setup_s + time.perf_counter() - t0)
        bitwise = bitwise and np.array_equal(energies, serial[i])

    # Persistent pool: spawn + warm-up once, then versioned rebinds that bind
    # nothing in this process.
    reuses0 = obs.counter("host.pool.reuses").value
    acquire_s = []
    with PersistentHostRuntime(
        receptor, n_workers=n_workers, scoring=_scoring()
    ) as runtime:
        for i, lig in enumerate(ligands):
            t0 = time.perf_counter()
            ev = runtime.acquire(lig)
            acquire_s.append(time.perf_counter() - t0)
            bitwise = bitwise and np.array_equal(
                ev.evaluate(spot_ids, t, q), serial[i]
            )
    pool_reuses = obs.counter("host.pool.reuses").value - reuses0

    fresh_per_ligand = float(np.mean(fresh_fixed))
    persistent_per_ligand = float(np.sum(acquire_s)) / n_ligands
    return {
        "case": name,
        "receptor_atoms": n_rec,
        "ligands": n_ligands,
        "host_workers": n_workers,
        "fresh_fixed_seconds_per_ligand": fresh_per_ligand,
        "persistent_fixed_seconds_per_ligand": persistent_per_ligand,
        "fixed_overhead_speedup": fresh_per_ligand / persistent_per_ligand,
        "first_acquire_seconds": acquire_s[0],
        "rebind_seconds_mean": float(np.mean(acquire_s[1:])),
        "pool_reuses": pool_reuses,
        "bitwise_identical": bool(bitwise),
    }


def run_benchmark(smoke=False, out_path=None):
    cases = SMOKE_CASES if smoke else FULL_CASES
    artifact = {
        "benchmark": "persistent_runtime",
        "cases": [bench_case(*case) for case in cases],
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("persistent_runtime", artifact, path=out_path)
    return artifact


def _report(artifact):
    lines = []
    for case in artifact["cases"]:
        lines.append(
            f"{case['case']}: {case['ligands']} ligands, "
            f"{case['host_workers']} workers"
        )
        lines.append(
            f"  fixed overhead/ligand: fresh "
            f"{case['fresh_fixed_seconds_per_ligand'] * 1e3:.1f} ms, persistent "
            f"{case['persistent_fixed_seconds_per_ligand'] * 1e3:.1f} ms  "
            f"(speedup {case['fixed_overhead_speedup']:.1f}x)"
        )
        lines.append(
            f"  first acquire {case['first_acquire_seconds'] * 1e3:.1f} ms, "
            f"later rebinds {case['rebind_seconds_mean'] * 1e3:.2f} ms mean, "
            f"{case['pool_reuses']} pool reuses, bitwise="
            f"{'yes' if case['bitwise_identical'] else 'NO'}"
        )
    return "\n".join(lines)


def test_persistent_runtime_smoke(benchmark, tmp_path):
    """CI smoke: the acceptance shape — >=16 ligands, 4 workers, >=5x."""
    out = tmp_path / "persistent_runtime.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit("Persistent runtime — fixed overhead smoke", _report(artifact))
    assert load_bench_artifact(out)["benchmark"] == "persistent_runtime"
    for case in artifact["cases"]:
        assert case["bitwise_identical"], "pool reuse must not move a float"
        assert case["ligands"] >= 16
        assert case["host_workers"] == 4
        assert case["pool_reuses"] == case["ligands"] - 1
        assert case["fixed_overhead_speedup"] >= 5.0, case


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument(
        "--out", default="persistent_runtime.json", help="JSON artifact"
    )
    args = parser.parse_args(argv)
    artifact = run_benchmark(smoke=args.smoke, out_path=args.out)
    print(_report(artifact))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
