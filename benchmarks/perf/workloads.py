"""The four workloads, each one pass through the program's public API.

Runs in the child interpreter. A workload returns raw observations
(timestamps on ``time.monotonic``, which the parent shares, counts and
digests); ``run.py`` turns them into metrics and checks them.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path

import numpy as np

# Called through their modules, where the traced pass wraps them.
from repro.campaign import backends, library
from repro.campaign.journal import CampaignJournal
from repro.campaign.library import ListSource, SmilesSource, resolve_title
from repro.campaign.runner import CampaignRunner
from repro.molecules.synthetic import generate_ligand, generate_receptor

from inputs import Sizes, dock_ligand_atoms

RECEPTOR_SEED = 7
#: ``host_workers`` of the two dock workloads.
HOST_WORKERS = {"dock_serial": 0, "dock_pool2": 2}


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of one program counter over its tags, from ``obs.snapshot()``."""
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


def disk_bytes(*paths: Path) -> int:
    """Bytes on disk under the given files and directory trees."""
    total = 0
    for path in paths:
        if path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
        elif path.exists():
            total += path.stat().st_size
    return total


def platform_fingerprint() -> str:
    """What a pinned digest holds for: scores move in their last bits with
    the SIMD paths NumPy and OpenBLAS pick for this CPU."""
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"{platform.machine()} python-{platform.python_version()} numpy-{np.__version__} {features}"


def store_bytes(store: Path) -> int:
    """A store (file or directory) with its SQLite sidecars and journal."""
    sidecars = [store.with_name(store.name + suffix) for suffix in ("-wal", "-shm", ".journal")]
    return disk_bytes(store, *sidecars)


def dock_runner(sizes: Sizes, seed: int, workdir: Path, host_workers: int, **knobs) -> CampaignRunner:
    """The dock campaign: SQLite store, journal and every knob at its default
    except the ones named here.

    One receptor for every seed (a campaign screens a library against a fixed
    target): scoring cost follows the pocket geometry, and a receptor per seed
    moved ``ligands_per_s`` by 10% on its own. The seed picks the ligands.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    receptor = generate_receptor(sizes.receptor_atoms, seed=RECEPTOR_SEED)
    ligands = [
        generate_ligand(atoms, seed=seed * 100003 + i, title=f"LIG{i:04d}")
        for i, atoms in enumerate(dock_ligand_atoms(sizes, seed))
    ]
    return CampaignRunner(
        receptor,
        ListSource(ligands),
        store_path=workdir / "store.db",
        n_spots=sizes.n_spots,
        metaheuristic="M2",
        workload_scale=sizes.workload_scale,
        shard_size=sizes.dock_shard,
        host_workers=host_workers,
        seed=seed,
        **knobs,
    )


def dock(sizes: Sizes, seed: int, workdir: Path, host_workers: int) -> dict:
    commits: list[float] = []
    runner = dock_runner(
        sizes, seed, workdir, host_workers,
        progress=lambda _: commits.append(time.monotonic()),
    )
    t_body = time.monotonic()
    store = runner.run()
    t_end = time.monotonic()
    try:
        counts = store.counts()
        digest = store.science_digest()
        evaluations = sum(row["evaluations"] or 0 for row in store.iter_results())
    finally:
        store.close()
    n = sizes.dock_ligands
    return {
        "t_body": t_body,
        "t_first_commit": commits[0],
        "t_end": t_end,
        "t_closed": time.monotonic(),
        "ligands": n,
        "timed_ligands": n - sizes.dock_shard,
        "stored": n,
        "failed": n - counts["done"],
        "digest": digest,
        "evaluations": evaluations,
        "store_bytes": store_bytes(workdir / "store.db"),
        "journal_bytes": disk_bytes(workdir / "store.db.journal"),
    }


def ingest_stream(sizes: Sizes, seed: int, workdir: Path, smiles_file: Path) -> dict:
    """The coordinator's data path with docking results supplied."""
    store_path = workdir / "store"
    config = {"workload": "ingest_stream", "seed": seed}
    t_body = time.monotonic()
    source = SmilesSource(smiles_file, seed=seed)
    store = backends.create_store(store_path, config, "0" * 64, backend="columnar")
    journal = CampaignJournal(str(store_path) + ".journal")
    journal.campaign_start("0" * 64)
    seen: set[str] = set()
    commits: list[float] = []
    first_shard = n = 0
    try:
        for shard, items in library.iter_shards(source, sizes.smi_shard):
            journal.shard_start(shard.shard_id, shard.start, shard.stop)
            store.start_shard(shard.shard_id, shard.start, shard.stop)
            titled = [
                (ordinal, ligand, resolve_title(ligand.title, ordinal, seen))
                for ordinal, ligand in items
            ]
            store.register_ligands([(ordinal, title) for ordinal, _, title in titled])
            for ordinal, ligand, title in titled:
                store.mark_running(ordinal)
                store.record_result(
                    ordinal,
                    title,
                    -float(ligand.n_atoms) - (ordinal % 997) * 1e-3,
                    ordinal % sizes.n_spots,
                    1000 + ligand.n_atoms,
                    wall_seconds=0.25,
                    simulated_seconds=float("nan"),
                    attempts=1,
                )
            store.finish_shard(shard.shard_id, 0.25 * len(items))
            journal.shard_finish(shard.shard_id, len(items), 0)
            commits.append(time.monotonic())
            first_shard = first_shard or len(items)
            n += len(items)
        store.mark_complete(n)
        journal.campaign_finish(n)
        journal.flush()
        store.wait_for_compaction()
        t_end = time.monotonic()
        done = store.counts()["done"]
        digest = store.science_digest()
    finally:
        store.close()
    return {
        "t_body": t_body,
        "t_first_commit": commits[0],
        "t_end": t_end,
        "t_closed": time.monotonic(),
        "ligands": n,
        "timed_ligands": n - first_shard,
        "stored": n,
        "failed": n - done,
        "digest": digest,
        "evaluations": 0,
        "segments": len(list((store_path / "segments").iterdir())),
        "store_bytes": store_bytes(store_path),
        "journal_bytes": disk_bytes(Path(str(store_path) + ".journal")),
    }


def build_fixture(store_path: Path, backend: str, rows: int, shard: int, seed: int) -> str:
    """Fill a store through its public write path; returns its digest."""
    scores = np.random.default_rng(seed).normal(-40.0, 8.0, rows)
    store = backends.create_store(store_path, {"workload": "fixture", "seed": seed}, "1" * 64, backend=backend)
    try:
        for shard_id, start in enumerate(range(0, rows, shard)):
            stop = min(start + shard, rows)
            titles = [(ordinal, f"FIX{ordinal:08d}") for ordinal in range(start, stop)]
            store.start_shard(shard_id, start, stop)
            store.register_ligands(titles)
            for ordinal, title in titles:
                store.record_result(
                    ordinal, title, float(scores[ordinal]), ordinal % 8, 1536,
                    wall_seconds=0.25, simulated_seconds=float("nan"), attempts=1,
                )
            store.finish_shard(shard_id, 0.25 * (stop - start))
        store.mark_complete(rows)
        store.wait_for_compaction()
        return store.science_digest()
    finally:
        store.close()


def read_cycle(store_path: Path, sizes: Sizes, export_to: Path) -> tuple[int, str, int, list[float]]:
    """Open, rank, fingerprint, export, close; also each ``top`` call's seconds."""
    top_s: list[float] = []
    store = backends.open_store(store_path)
    try:
        done = store.counts()["done"]
        for k, calls in zip((10, 100, 1000), sizes.topk_calls):
            for _ in range(calls):
                t0 = time.perf_counter()
                best = store.top(k)
                top_s.append(time.perf_counter() - t0)
                if len(best) != min(k, done):
                    raise AssertionError(f"top({k}) returned {len(best)} of {done} rows")
        digest = store.science_digest()
        exported = store.export_csv(export_to)
    finally:
        store.close()
    return done, digest, exported, top_s


def readback(sizes: Sizes, seed: int, workdir: Path) -> dict:
    """Write a fixture (the set-up), then read it back ``read_cycles`` times."""
    store_path = workdir / "store"
    rows = sizes.fixture_rows
    t_body = time.monotonic()
    built_digest = build_fixture(store_path, "columnar", rows, sizes.fixture_shard, seed)
    t_built = time.monotonic()
    failed = 0
    digests = set()
    for _ in range(sizes.read_cycles):
        done, digest, exported, _ = read_cycle(store_path, sizes, workdir / "export.csv")
        failed += (rows - done) + (rows - exported)
        digests.add(digest)
    t_end = time.monotonic()
    return {
        "t_body": t_body,
        "t_first_commit": t_built,
        "t_end": t_end,
        "t_closed": t_end,
        "ligands": rows * sizes.read_cycles,
        "timed_ligands": rows * sizes.read_cycles,
        "stored": rows,
        "failed": failed,
        "digest": built_digest,
        "digest_stable": digests == {built_digest},
        "evaluations": 0,
        "segments": len(list((store_path / "segments").iterdir())),
        "store_bytes": store_bytes(store_path),
        "journal_bytes": 0,
    }


def run(name: str, sizes: Sizes, seed: int, workdir: Path, smiles_file: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    if name in HOST_WORKERS:
        return dock(sizes, seed, workdir, HOST_WORKERS[name])
    if name == "ingest_stream":
        return ingest_stream(sizes, seed, workdir, smiles_file)
    if name == "readback":
        return readback(sizes, seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")
