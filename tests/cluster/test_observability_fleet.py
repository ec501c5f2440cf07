"""Fleet observability: trace lanes, flight dumps, and doctor after a SIGKILL.

Satellite coverage for the tracing tentpole: a 2-node fleet run with one
SIGKILLed worker must still export a merged Chrome trace whose per-node
lanes include the killed node (its spans arrive via heartbeat telemetry,
merged when the coordinator declares it dead), with no orphan span ids and
cross-node ligand-lifecycle flow events; the coordinator must leave a
readable ``*.flight`` dump recording the death; and ``repro-vs doctor``
must name the dead node.
"""

import os
import signal
import threading
import time

from repro import observability as obs
from repro.campaign import CampaignRunner, SyntheticSource, open_store
from repro.cluster import ClusterConfig
from repro.molecules.synthetic import generate_receptor
from repro.observability import diagnose_campaign
from repro.observability.flight import flight_dir, read_flight_dir, reset_flight
from repro.observability.trace import snapshot_to_trace_events

N_LIGANDS = 16


def make_runner(store_path, *, nodes=0, cluster=None, **overrides):
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
    )
    kwargs.update(overrides)
    return CampaignRunner(
        generate_receptor(80, seed=5),
        SyntheticSource(N_LIGANDS, atoms_range=(8, 14), seed=52),
        **kwargs,
    )


def run_with_a_sigkilled_node(path):
    """Run a 2-node fleet campaign whose first node is SIGKILLed mid-run."""
    cluster = ClusterConfig(
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        service_time_s=0.2,  # hard floor so the kill lands mid-campaign
    )
    runner = make_runner(path, nodes=2, cluster=cluster)

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
    return runner


def test_sigkilled_fleet_trace_flight_and_doctor(tmp_path):
    obs.reset()
    reset_flight("coordinator")
    path = tmp_path / "c.store"
    runner = run_with_a_sigkilled_node(path)

    with open_store(path) as store:
        assert store.is_complete()
        assert store.counts()["done"] == N_LIGANDS
    summary = runner.fleet.summary
    assert summary["node_deaths"] >= 1

    # ---- flight dumps: the coordinator's black box records the death ----
    dumps = read_flight_dir(flight_dir(path))
    readable = [d for d in dumps if "events" in d]
    assert readable, f"no readable flight dumps in {flight_dir(path)}"
    coord = next(
        d for d in readable if (d.get("header") or {}).get("role") == "coordinator"
    )
    assert not coord["torn"]
    kinds = {e["kind"] for e in coord["events"]}
    assert "fleet.start" in kinds
    assert "lease.grant" in kinds
    deaths = [e for e in coord["events"] if e["kind"] == "node.dead"]
    assert deaths, "coordinator flight dump recorded no node.dead event"
    dead_node = deaths[0]["node"]
    assert deaths[0]["reclaimed"], "death event lists no reclaimed leases"

    # ---- merged trace: per-node lanes survive the SIGKILL ----
    snap = obs.snapshot()
    trace = snapshot_to_trace_events(snap)
    events = trace["traceEvents"]
    lane_names = {
        e["args"]["name"] for e in events if e.get("name") == "thread_name"
    }
    assert any(name.startswith("node 0") for name in lane_names), lane_names
    assert any(name.startswith("node 1") for name in lane_names), lane_names
    # The killed node's lane specifically: its spans rode in on heartbeat
    # telemetry and were merged at death detection.
    assert any(
        name.startswith(f"node {dead_node}") for name in lane_names
    ), f"killed node {dead_node} has no lane in {lane_names}"

    # No orphan span ids: every parent reference resolves post-merge.
    span_ids = {s["id"] for s in snap["spans"]}
    for span in snap["spans"]:
        parent = span.get("parent")
        assert parent is None or parent in span_ids, span

    # Cross-node ligand lifecycle: dock->commit flow arrows exist and pair.
    assert trace["otherData"]["lifecycle_flows"] >= 1
    starts = [e for e in events if e.get("cat") == "lifecycle" and e["ph"] == "s"]
    finishes = [e for e in events if e.get("cat") == "lifecycle" and e["ph"] == "f"]
    assert len(starts) == len(finishes) == trace["otherData"]["lifecycle_flows"]
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    for flow in finishes:
        assert flow["bp"] == "e"

    # Commit spans on the coordinator carry the measured wire time.
    commits = [s for s in snap["spans"] if s["name"] == "cluster.ligand.commit"]
    assert commits
    assert any(s["tags"].get("wire_s") is not None for s in commits)

    # ---- doctor: names the dead node with evidence ----
    report = diagnose_campaign(path)
    text = report.to_text()
    assert f"node {dead_node} died" in text
    assert report.verdict in ("warn", "bad")
    dead_section = next(s for s in report.sections if s.title == "dead nodes")
    assert dead_section.verdict == "bad"
    # The dead node's last shard comes from the coordinator's lease grants:
    # no journal is written beside the store.
    assert not (tmp_path / "c.store.journal").exists()
    assert any(
        line.startswith(f"node {dead_node}: ") and "last was shard" in line
        for line in dead_section.lines
    ), dead_section.lines
    diagnosis = next(s for s in report.sections if s.title == "diagnosis")
    assert any("reclaimed and the campaign completed" in line
               for line in diagnosis.lines)


def test_clean_fleet_run_dumps_worker_flights(tmp_path):
    obs.reset()
    reset_flight("coordinator")
    path = tmp_path / "c.store"
    runner = make_runner(
        path, nodes=2, cluster=ClusterConfig(heartbeat_interval_s=0.1)
    )
    with runner.run():
        pass
    roles = {
        (d.get("header") or {}).get("role")
        for d in read_flight_dir(flight_dir(path))
        if "events" in d
    }
    # Clean exits dump all three black boxes: coordinator + both workers.
    assert "coordinator" in roles
    assert "worker-node0" in roles and "worker-node1" in roles

    # Worker dumps carry the per-node event vocabulary.
    dumps = read_flight_dir(flight_dir(path))
    worker = next(
        d for d in dumps
        if (d.get("header") or {}).get("role") == "worker-node0"
    )
    kinds = {e["kind"] for e in worker["events"]}
    assert "probe" in kinds
    assert "lease.accept" in kinds
    assert "shutdown.recv" in kinds


def test_single_node_runner_dumps_flight(tmp_path):
    obs.reset()
    reset_flight("runner")
    path = tmp_path / "c.store"
    with make_runner(path).run():
        pass
    dumps = read_flight_dir(flight_dir(path))
    runner_dump = next(d for d in dumps if "events" in d)
    kinds = {e["kind"] for e in runner_dump["events"]}
    assert "shard.finish" in kinds
    # The runner also tracks store growth at shard boundaries.
    snap = obs.snapshot()
    disk = [g for g in snap["gauges"] if g["name"] == "store.disk.bytes"]
    assert disk and disk[0]["value"] > 0


def test_a_campaign_after_a_node_death_dumps_only_its_own_events(tmp_path):
    # The flight recorder is process-global. Each campaign starts it fresh,
    # so an earlier campaign's node death never reaches a later store's dumps.
    obs.reset()
    killed = run_with_a_sigkilled_node(tmp_path / "killed.store")
    assert killed.fleet.summary["node_deaths"] >= 1
    clean = tmp_path / "clean.store"
    with make_runner(clean).run():
        pass
    report = diagnose_campaign(clean)
    dead = next(s for s in report.sections if s.title == "dead nodes")
    assert dead.headline == "no node deaths recorded", report.to_text()
