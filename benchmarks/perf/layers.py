"""Direct drivers: each calls one layer alone, through its public API.

They do not depend on the workload, so every traced run reports the same
set; a change to one layer should move its driver and nothing else here.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import socket
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro import observability as obs
from repro.campaign.backends import open_store
from repro.campaign.library import SmilesSource
from repro.cluster.protocol import Channel, ligand_to_payload
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.molecules.transforms import random_quaternion
from repro.scoring.base import OPS_PER_LJ_PAIR
from repro.scoring.batched import BatchedLJScoring
from repro.scoring.cutoff import CutoffLennardJonesScoring

from inputs import Sizes
from workloads import build_fixture, counter_total, dock_runner, read_cycle, store_bytes


def scoring(sizes: Sizes, seed: int) -> dict:
    """The dock shape: one receptor, a 24-atom ligand, one big pose batch."""
    receptor = generate_receptor(sizes.receptor_atoms, seed=seed)
    ligand = generate_ligand(24, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    poses = sizes.driver_poses
    translations = receptor.coords.mean(axis=0)[None, :] + rng.normal(0, 6.0, (poses, 3))
    quaternions = random_quaternion(rng, poses)
    spot_ids = np.arange(poses) % sizes.n_spots
    out = {}
    for label, factory in (
        ("default", CutoffLennardJonesScoring(dtype=np.float32)),
        ("batched", BatchedLJScoring()),
    ):
        scorer = factory.bind(receptor, ligand)
        scorer.score_spots(spot_ids[:64], translations[:64], quaternions[:64])  # warm scratch
        t0 = time.perf_counter()
        scores = scorer.score_spots(spot_ids, translations, quaternions)
        seconds = time.perf_counter() - t0
        if not np.all(np.isfinite(scores)):
            raise AssertionError(f"{label} scorer returned non-finite scores")
        out[f"scoring.{label}.poses_per_s"] = poses / seconds
        if label == "default":
            out["scoring.default.mpairs_per_s"] = poses * scorer.n_pairs / seconds / 1e6
    # Computed from the shape, not measured: modelled operations per pose.
    out["scoring.flops_per_pose"] = float(receptor.n_atoms * ligand.n_atoms * OPS_PER_LJ_PAIR)
    return out


def library(sizes: Sizes, seed: int, workdir: Path, library_path: Path) -> dict:
    """``SmilesSource`` alone over the head of the ``ingest_stream`` file."""
    with open(library_path, encoding="utf-8") as handle:
        head = list(itertools.islice(handle, sizes.driver_library_lines))
    unique_titles = len({line.split()[1] for line in head})
    head_path = workdir / "driver-library.smi"
    head_path.write_text("".join(head), encoding="utf-8")
    t0 = time.perf_counter()
    yielded = sum(1 for _ in SmilesSource(head_path, seed=seed))
    seconds = time.perf_counter() - t0
    if yielded != unique_titles:
        raise AssertionError(f"SmilesSource yielded {yielded}, expected {unique_titles}")
    return {
        "library.lines_per_s": len(head) / seconds,
        "library.dedup_dropped": len(head) - yielded,
    }


def stores(sizes: Sizes, seed: int, workdir: Path) -> dict:
    """Both backends through ``create_store``: same rows in, same reads out."""
    rows = sizes.driver_store_rows
    out = {}
    digests = set()
    for backend in ("columnar", "sqlite"):
        path = workdir / f"driver-{backend}"
        t0 = time.perf_counter()
        digests.add(build_fixture(path, backend, rows, sizes.fixture_shard, seed))
        out[f"store.{backend}.ingest_rows_per_s"] = rows / (time.perf_counter() - t0)
        out[f"store.{backend}.bytes_per_ligand"] = store_bytes(path) / rows
        open_s = []
        for _ in range(5):
            t0 = time.perf_counter()
            store = open_store(path)
            open_s.append(time.perf_counter() - t0)
            store.close()
        out[f"store.{backend}.open_ms"] = statistics.median(open_s) * 1e3
        _, _, _, top_s = read_cycle(path, sizes, workdir / "driver-export.csv")
        cuts = statistics.quantiles(top_s, n=10)
        out[f"store.{backend}.topk_ms_p50"] = statistics.median(top_s) * 1e3
        out[f"store.{backend}.topk_ms_p90"] = cuts[8] * 1e3
        store = open_store(path)
        try:
            t0 = time.perf_counter()
            digests.add(store.science_digest())
            out[f"store.{backend}.digest_rows_per_s"] = rows / (time.perf_counter() - t0)
            t0 = time.perf_counter()
            exported = store.export_csv(workdir / "driver-export.csv")
            out[f"store.{backend}.export_rows_per_s"] = rows / (time.perf_counter() - t0)
        finally:
            store.close()
        if exported != rows:
            raise AssertionError(f"{backend} exported {exported} of {rows} rows")
    if len(digests) != 1:
        raise AssertionError("sqlite and columnar digests differ for the same rows")
    return out


def resume_noop(sizes: Sizes, seed: int, workdir: Path) -> dict:
    """``resume()`` on a finished campaign: open, verify, replay, return."""
    path = workdir / "driver-resume"
    small = dataclasses.replace(sizes, dock_ligands=sizes.dock_shard)
    dock_runner(small, seed, path, host_workers=0).run().close()
    seconds = []
    for _ in range(5):
        runner = dock_runner(small, seed, path, host_workers=0)
        t0 = time.perf_counter()
        store = runner.resume()
        seconds.append(time.perf_counter() - t0)
        store.close()
    return {"runner.resume_noop_s": statistics.median(seconds)}


def protocol(sizes: Sizes, seed: int) -> dict:
    """One ``Channel`` pair over loopback: lease out, result back."""
    ligand = generate_ligand(24, seed=seed + 1, title="LIG0000")
    lease = {
        "kind": "lease", "shard_id": 0, "start": 0, "stop": 1, "stolen": False,
        "items": [[0, "LIG0000", ligand_to_payload(ligand)]],
    }
    result = {
        "kind": "result", "node": 0, "shard_id": 0, "ordinal": 0, "title": "LIG0000",
        "ok": True, "score": -41.25, "spot_index": 3, "evaluations": 1536,
        "wall_seconds": 0.125, "simulated_seconds": float("nan"), "attempts": 1,
        "sent_s": 1.5, "span": 7,
    }
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = Channel(socket.create_connection(listener.getsockname()))
        server = Channel(listener.accept()[0])
    n = sizes.driver_roundtrips

    def echo() -> None:
        for _ in range(n):
            if server.recv()["kind"] != "lease":
                raise AssertionError("worker side expected a lease frame")
            server.send(result)

    worker = threading.Thread(target=echo)
    worker.start()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            client.send(lease)
            if client.recv()["ordinal"] != 0:
                raise AssertionError("coordinator side expected the result frame")
        seconds = time.perf_counter() - t0
    finally:
        worker.join(timeout=30)
        client.close()
        server.close()
    if worker.is_alive():
        raise AssertionError("echo thread did not finish")
    return {
        "cluster.protocol.roundtrip_us": seconds / n * 1e6,
        "cluster.protocol.result_frame_bytes": len(json.dumps(result, sort_keys=True)),
        "cluster.protocol.ligand_payload_bytes": len(json.dumps(lease["items"][0][2], sort_keys=True)),
    }


def fleet2(sizes: Sizes, seed: int, workdir: Path) -> dict:
    """Counts only: coordinator + 2 nodes is 3 processes on 2 cores, so its
    wall time measures the scheduler. Leases, steals and the digest repeat."""
    small = dataclasses.replace(sizes, dock_ligands=sizes.driver_fleet_ligands, dock_shard=2)
    serial = dock_runner(small, seed, workdir / "driver-fleet-serial", host_workers=0).run()
    try:
        expected = serial.science_digest()
    finally:
        serial.close()
    before = obs.snapshot()
    store = dock_runner(small, seed, workdir / "driver-fleet2", host_workers=0, nodes=2).run()
    try:
        digest = store.science_digest()
    finally:
        store.close()
    after = obs.snapshot()
    return {
        "cluster.fleet2.leases": counter_total(after, "cluster.leases") - counter_total(before, "cluster.leases"),
        "cluster.fleet2.steals": counter_total(after, "cluster.steals") - counter_total(before, "cluster.steals"),
        "cluster.fleet2.digest_match": float(digest == expected),
    }


def run_all(sizes: Sizes, seed: int, workdir: Path, library_path: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    out.update(scoring(sizes, seed))
    out.update(library(sizes, seed, workdir, library_path))
    out.update(stores(sizes, seed, workdir))
    out.update(resume_noop(sizes, seed, workdir))
    out.update(protocol(sizes, seed))
    out.update(fleet2(sizes, seed, workdir))
    return out
