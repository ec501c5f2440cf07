"""The campaign spine from outside: one dock, one committer, one plan.

The single-node runner and a 2-node local fleet run the same campaign; what
they leave behind (store shard rows, flight events, counters, science rows)
may differ in who did the work, never in what a commit is.
"""

import collections
import time

import pytest

from repro import observability as obs
from repro.campaign import CampaignRunner, SyntheticSource, create_store, open_store
from repro.campaign import commit as commit_mod
from repro.campaign import runner as runner_mod
from repro.cluster import ClusterConfig
from repro.molecules.synthetic import generate_receptor
from repro.observability.flight import flight_recorder, reset_flight

NODES = pytest.mark.parametrize("nodes", [0, 2])


def make_runner(store_path, *, n_ligands=6, shard_size=2, nodes=0, **overrides):
    kwargs = dict(
        store_path=str(store_path),
        n_spots=2,
        metaheuristic="M1",
        seed=42,
        workload_scale=0.04,
        shard_size=shard_size,
        max_attempts=1,
        nodes=nodes,
        cluster=ClusterConfig(heartbeat_interval_s=0.1) if nodes else None,
    )
    kwargs.update(overrides)
    return CampaignRunner(
        generate_receptor(80, seed=5),
        SyntheticSource(n_ligands, atoms_range=(8, 14), seed=52),
        **kwargs,
    )


def shard_rows(store, shard) -> tuple[int, int]:
    """(done, failed) of one two-ligand shard, counted from the store."""
    rows = [
        row for row in store.iter_results()
        if shard * 2 <= row["ordinal"] < shard * 2 + 2
    ]
    return (
        sum(row["status"] == "done" for row in rows),
        sum(row["status"] == "failed" for row in rows),
    )


def run_and_observe(path, nodes):
    obs.reset()
    reset_flight()
    with make_runner(path, nodes=nodes).run() as store:
        digest = store.science_digest()
        shards = {
            shard: shard_rows(store, shard) for shard in store.finished_shards()
        }
        complete = store.is_complete()
    finishes = [e for e in flight_recorder().events() if e["kind"] == "shard.finish"]
    return {
        "digest": digest,
        "shards": shards,
        "complete": complete,
        "shard_finish": sorted(e["shard"] for e in finishes),
        "shard_finish_fields": sorted({field for e in finishes for field in e} - {"node"}),
        "shard_events": collections.Counter(
            e["kind"] for e in flight_recorder().events() if e["kind"].startswith("shard.")
        ),
        "counters": {
            c["name"] for c in obs.snapshot()["counters"] if c["name"].startswith("campaign.")
        },
        "gauges": {
            g["name"] for g in obs.snapshot()["gauges"] if g["name"].startswith("store.")
        },
    }


def test_single_node_and_fleet_leave_the_same_campaign_behind(tmp_path):
    alone = run_and_observe(tmp_path / "alone.store", nodes=0)
    fleet = run_and_observe(tmp_path / "fleet.store", nodes=2)
    assert alone["shards"] == {0: (2, 0), 1: (2, 0), 2: (2, 0)}
    assert alone["complete"]
    assert alone["shard_finish"] == [0, 1, 2]
    assert alone["shard_events"] == {"shard.finish": 3}
    assert not (tmp_path / "alone.store.journal").exists()
    assert not (tmp_path / "fleet.store.journal").exists()
    assert {"campaign.ligands.done", "campaign.shards.done"} <= alone["counters"]
    assert alone["gauges"] == {"store.disk.bytes"}
    assert fleet == alone


@NODES
def test_a_shard_with_nothing_left_to_dock_is_still_reported(tmp_path, nodes, monkeypatch):
    """Every row is in the store, no shard was finished: a resume docks
    nothing, and every shard reaches the progress callback all the same."""
    path = tmp_path / "c.store"
    seen = []
    runner = make_runner(path, nodes=nodes, progress=seen.append)
    store = create_store(path, runner.config, runner.config_hash)
    for ordinal in range(6):
        if ordinal % 2 == 0:
            store.start_shard(ordinal // 2, ordinal, ordinal + 2)
        store.record_result(
            ordinal, f"LIG{ordinal}", -1.0 - ordinal, 0, 10,
            wall_seconds=0.1, simulated_seconds=float("nan"), attempts=1,
        )
    store.close()

    real_dock = runner_mod.dock

    def probe_only(receptor, ligand, **kwargs):
        assert ligand.title == "__probe__", "nothing was left to dock"
        return real_dock(receptor, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock", probe_only)  # fleet nodes fork with it
    with runner.resume() as store:
        assert store.is_complete() and store.finished_shards() == {0, 1, 2}
    assert sorted(p.shard_id for p in seen) == [0, 1, 2]
    assert {(p.done, p.failed, p.total) for p in seen} == {(6, 0, 6)}


@NODES
def test_the_disk_gauge_probe_is_throttled(tmp_path, nodes, monkeypatch):
    probes = []
    real = commit_mod.store_disk_bytes
    monkeypatch.setattr(
        commit_mod, "store_disk_bytes", lambda path: probes.append(path) or real(path)
    )
    t0 = time.perf_counter()
    with make_runner(tmp_path / "c.store", n_ligands=12, shard_size=1, nodes=nodes).run():
        pass
    elapsed = time.perf_counter() - t0
    assert 1 <= len(probes) <= 1 + elapsed // 0.5 < 12


@NODES
def test_shard_finish_records_carry_the_stores_own_counts(tmp_path, nodes, monkeypatch):
    """Every shard is finished in the store with its own row counts, and
    reported once by a ``shard.finish`` flight event."""
    real_dock = runner_mod.dock

    def poisoned(receptor, ligand, **kwargs):
        if kwargs["seed"] == 42 + 3:  # ordinal 3; fleet nodes fork with this patch
            raise RuntimeError("poisoned ligand")
        return real_dock(receptor, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock", poisoned)
    path = tmp_path / "c.store"
    reset_flight()
    with make_runner(path, nodes=nodes).run() as store:
        assert store.counts()["failed"] == 1
    finishes = [e for e in flight_recorder().events() if e["kind"] == "shard.finish"]
    assert sorted(e["shard"] for e in finishes) == [0, 1, 2]
    with open_store(path) as store:
        assert store.finished_shards() == {0, 1, 2}
        rows = {shard: shard_rows(store, shard) for shard in (0, 1, 2)}
    assert rows == {0: (2, 0), 1: (1, 1), 2: (2, 0)}
