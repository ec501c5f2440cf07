"""Distributed fleet: parity, stealing, node death, coordinator crash.

The contract under test is the determinism invariant: ligand ``i`` docks
with seed ``campaign_seed + i`` on whichever node holds its lease, so the
science rows (and their :meth:`CampaignStore.science_digest`) are bitwise
identical across node counts, shard assignments, SIGKILLed workers, and
crash-resume — the same single-node store every time.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import CampaignRunner, SyntheticSource, open_store
from repro.cluster import ClusterCampaign, ClusterConfig
from repro.errors import CampaignError, ClusterError
from repro.metaheuristics.presets import make_preset
from repro.molecules.synthetic import generate_receptor
from repro.scoring.lennard_jones import LennardJonesScoring

N_LIGANDS = 16


def make_runner(store_path, *, nodes=0, cluster=None, progress=None, **overrides):
    """One campaign definition shared by every test (same science rows)."""
    kwargs = dict(
        store_path=str(store_path),
        n_spots=2,
        metaheuristic="M1",
        seed=42,
        workload_scale=0.04,
        shard_size=2,
        node=None,
        max_attempts=1,
        raise_on_failure=True,
        nodes=nodes,
        cluster=cluster,
        progress=progress,
    )
    kwargs.update(overrides)
    return CampaignRunner(
        generate_receptor(80, seed=5),
        SyntheticSource(N_LIGANDS, atoms_range=(8, 14), seed=52),
        **kwargs,
    )


def completed_digest(path):
    with open_store(path) as store:
        assert store.is_complete()
        counts = store.counts()
        assert counts["done"] == N_LIGANDS and counts["failed"] == 0
        return store.science_digest()


@pytest.fixture(scope="module")
def baseline_digest(tmp_path_factory):
    """The single-node store fingerprint every fleet run must reproduce."""
    path = tmp_path_factory.mktemp("baseline") / "c.store"
    with make_runner(path).run():
        pass
    return completed_digest(path)


def test_two_node_fleet_matches_single_node_bitwise(tmp_path, baseline_digest):
    seen = []
    runner = make_runner(tmp_path / "c.store", nodes=2, progress=seen.append)
    with runner.run():
        pass
    assert completed_digest(tmp_path / "c.store") == baseline_digest
    summary = runner.fleet.summary
    assert summary["nodes"] == 2
    assert summary["node_deaths"] == 0
    assert summary["shards"] == N_LIGANDS // 2
    # Progress snapshots carry the per-node fleet table (ClusterProgress).
    assert seen, "fleet emitted no progress"
    table = seen[-1].nodes
    assert {row["node"] for row in table} == {0, 1}
    assert sum(row["done"] for row in table) == N_LIGANDS


def test_skewed_probe_weights_trigger_stealing(tmp_path, baseline_digest):
    # Node 1 reports a 4x slower probe, so Eq. 1 hands it a quarter of the
    # shards — but both nodes actually dock at the same (service-limited)
    # rate, so node 1 drains early and steals from node 0's queue.
    cluster = ClusterConfig(
        probe_seconds_override=((0, 1.0), (1, 4.0)),
        service_time_s=0.05,
        heartbeat_interval_s=0.1,
    )
    runner = make_runner(tmp_path / "c.store", nodes=2, cluster=cluster)
    with runner.run():
        pass
    assert completed_digest(tmp_path / "c.store") == baseline_digest
    assert runner.fleet.summary["steals"] >= 1


def test_sigkilled_worker_node_recovers_bitwise(tmp_path, baseline_digest):
    cluster = ClusterConfig(
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        service_time_s=0.2,  # hard floor: 8 ligands/node * 0.2s > kill time
    )
    runner = make_runner(tmp_path / "c.store", nodes=2, cluster=cluster)

    def kill_one_worker():
        time.sleep(1.0)
        fleet = runner.fleet
        if fleet is not None and fleet.processes:
            os.kill(fleet.processes[0].pid, signal.SIGKILL)

    killer = threading.Thread(target=kill_one_worker, daemon=True)
    killer.start()
    with runner.run():
        pass
    killer.join()
    assert completed_digest(tmp_path / "c.store") == baseline_digest
    summary = runner.fleet.summary
    assert summary["node_deaths"] >= 1
    assert summary["recovery_seconds"] is not None


def test_shutdown_collects_byes_without_stalling(tmp_path, baseline_digest):
    # Regression: a handler thread that bails on its idle tick once the
    # fleet starts closing strands the worker's in-flight bye, and
    # _shutdown_fleet then waits the full message timeout (30 s). The
    # service sleep delays each bye past several 0.1 s idle ticks, which
    # made the stall deterministic before the fix.
    cluster = ClusterConfig(service_time_s=0.1, heartbeat_interval_s=0.1)
    runner = make_runner(tmp_path / "c.store", nodes=2, cluster=cluster)
    t0 = time.monotonic()
    with runner.run():
        pass
    wall = time.monotonic() - t0
    assert completed_digest(tmp_path / "c.store") == baseline_digest
    assert wall < 15.0, f"fleet shutdown stalled ({wall:.1f}s)"


def _run_fleet_campaign(store_path):
    """Child-process entry: a 2-node campaign slow enough to kill mid-run."""
    cluster = ClusterConfig(service_time_s=0.25, heartbeat_interval_s=0.1)
    with make_runner(store_path, nodes=2, cluster=cluster).run():
        pass


def test_sigkilled_coordinator_resumes_bitwise(tmp_path, baseline_digest):
    path = tmp_path / "c.store"
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_run_fleet_campaign, args=(str(path),))
    child.start()
    # Wait for real progress, then kill the whole coordinator process. The
    # poll reads the store under its live writer, as `campaign status` does.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            with open_store(path, readonly=True) as store:
                if store.counts()["done"] >= 2:
                    break
        except CampaignError:  # not created yet
            pass
        time.sleep(0.1)
    else:
        pytest.fail("campaign never made progress before the kill")
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=10.0)

    with open_store(path) as store:
        assert not store.is_complete()
        assert store.counts()["done"] < N_LIGANDS
    # `campaign resume` path: same config, fresh fleet, the store's shards.
    runner = make_runner(
        path, nodes=2, cluster=ClusterConfig(heartbeat_interval_s=0.1)
    )
    with runner.resume():
        pass
    assert completed_digest(path) == baseline_digest


def test_custom_metaheuristic_cannot_cross_node_boundary(tmp_path):
    runner = make_runner(
        tmp_path / "c.store", metaheuristic=make_preset("M1", 0.04)
    )
    with pytest.raises(ClusterError, match="MetaheuristicSpec"):
        ClusterCampaign(runner, nodes=2)


def test_custom_scoring_cannot_cross_node_boundary(tmp_path):
    class TweakedScoring(LennardJonesScoring):
        pass

    runner = make_runner(tmp_path / "c.store", scoring=TweakedScoring())
    with pytest.raises(ClusterError):
        ClusterCampaign(runner, nodes=2)


def test_custom_node_spec_cannot_cross_node_boundary(tmp_path):
    from repro.hardware.node import custom_node

    runner = make_runner(
        tmp_path / "c.store",
        node=custom_node("franken", "Xeon E5-2620", 1, ["Tesla K40c"]),
    )
    with pytest.raises(ClusterError, match="jupiter/hertz"):
        ClusterCampaign(runner, nodes=2)


def test_fleet_needs_at_least_one_node(tmp_path):
    runner = make_runner(tmp_path / "c.store")
    with pytest.raises(ClusterError, match="nodes >= 1"):
        ClusterCampaign(runner, nodes=0)


@pytest.mark.parametrize("reader", ["smiles", "csv", "synthetic"])
def test_a_line_file_library_is_planned_without_building_a_ligand(
    tmp_path, monkeypatch, reader
):
    # The coordinator leases ordinals and titles; its nodes build the ligands.
    from repro.campaign import library
    from repro.campaign.library import (
        CsvSource,
        SmilesSource,
        SyntheticSource,
        plan_shards,
    )

    lines = [(f"{'C' * (4 + i % 9)}N", f"mol-{i % 6}") for i in range(30)]
    if reader == "synthetic":
        # Titles LIG0000..LIG0029 are a function of the ordinal alone.
        source = SyntheticSource(30, atoms_range=(8, 12), seed=3)
    elif reader == "smiles":
        path = tmp_path / "lib.smi"
        path.write_text("".join(f"{smiles} {title}\n" for smiles, title in lines))
        source = SmilesSource(path, seed=3, dedup=False)
    else:
        path = tmp_path / "lib.csv"
        path.write_text("smiles,title\n" + "".join(f"{s},{t}\n" for s, t in lines))
        source = CsvSource(path, seed=3, dedup=False)
    runner = CampaignRunner(
        generate_receptor(80, seed=5), source, store_path=":memory:", n_spots=2, shard_size=4
    )
    # Colliding titles: the plan's "mol-0#6"-style names need the whole stream.
    want = [
        (ordinal, title)
        for _, titled in plan_shards(source, 4, set())
        for ordinal, _, title in titled
    ]
    built = []
    real = library.generate_ligand
    monkeypatch.setattr(
        library, "generate_ligand", lambda *args, **kw: built.append(args) or real(*args, **kw)
    )
    for finished in (set(), {1, 3}):
        tasks, n_streamed = ClusterCampaign(runner, nodes=2)._plan(finished)
        assert built == []
        assert n_streamed == len(want) == 30
        assert [task.shard_id for task in tasks] == [s for s in range(8) if s not in finished]
        assert [(o, t) for task in tasks for o, t, _ in task.items] == [
            (o, t) for o, t in want if o // 4 not in finished
        ]
        assert all(payload is None for task in tasks for *_, payload in task.items)


@pytest.mark.parametrize("finished", [True, False])
def test_a_stale_result_is_written_only_while_its_shard_is_open(tmp_path, finished):
    """A node presumed dead reports after its lease was reclaimed. Once a
    replacement finished the shard its rows are sealed, so the result is
    counted and dropped; while the shard is open it is kept (no re-dock)."""
    from repro.campaign.backends import create_store
    from repro.campaign.commit import CampaignCommitter
    from repro.cluster.coordinator import Coordinator, ShardTask, _NodeState
    from repro.observability.flight import flight_recorder, reset_flight

    store = create_store(tmp_path / "c.col", {"seed": 1}, "h", backend="columnar")
    committer = CampaignCommitter(store)
    task = ShardTask(0, 0, 2, items=((0, "L0", None), (1, "L1", None)))
    coordinator = Coordinator(
        None,
        committer=committer,
        tasks=[task],
        config_frame={},
        cluster=ClusterConfig(),
        expected_nodes=1,
    )
    presumed_dead, replacement = _NodeState(0, None), _NodeState(1, None)
    row = {
        "ok": True, "score": -2.0, "spot_index": 1, "evaluations": 8,
        "wall_seconds": 0.1, "simulated_seconds": 0.0, "attempts": 1,
    }
    committer.begin_shard(task, [(0, "L0"), (1, "L1")])
    committer.commit(0, "L0", row)
    if finished:
        committer.commit(1, "L1", row)
        coordinator._finish_shard(0, replacement)
    digest = store.science_digest()
    writes = []
    store.record_result = lambda *args, **kw: writes.append(args)
    reset_flight()
    coordinator._on_result(
        presumed_dead, {"shard_id": 0, "ordinal": 1, "title": "L1", **row}
    )
    assert coordinator.stale_results == 1
    assert [e["kind"] for e in flight_recorder().events()] == ["result.stale"]
    assert len(writes) == (0 if finished else 1)
    assert store.science_digest() == digest
    assert list((tmp_path / "c.col" / "active").iterdir()) == (
        [] if finished else [tmp_path / "c.col" / "active" / "shard-0.log"]
    )
    store.close()
