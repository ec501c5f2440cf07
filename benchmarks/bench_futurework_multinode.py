"""Future-work benchmark: one campaign across real worker-node processes.

The paper closes by proposing to "adapt our virtual screening method to
more complex systems comprising several computational nodes working
together with the message-passing paradigm" (§6). Earlier revisions of
this benchmark *simulated* that design from analytic traces; it now runs
for real: the same durable campaign is executed by ``repro.cluster``
fleets of 1 and 2 worker-node processes (coordinator socket, Eq. 1 node
shares, lease/steal protocol), and the artifact records what distribution
buys and what it must not cost:

* ``scaling`` — wall-clock and ``ligands_per_second`` per node count, each
  run's :meth:`~repro.campaign.store.CampaignStore.science_digest` checked
  bitwise against an in-process (``nodes=0``) reference run,
* ``speedup_2_nodes`` — 2-node over 1-node throughput (both through the
  full cluster stack, so coordination overhead is inside the measurement),
* ``steal_case`` — inter-node steal traffic when Eq. 1 mis-partitions
  (one node's warm-up probe is overridden to read 3x slower),
* ``recovery_case`` — SIGKILL one worker mid-campaign: the coordinator's
  lease-reclaim-and-reassign time once the death is declared (detection
  itself is bounded by ``heartbeat_timeout_s``), and the digest still
  matching.

CI hosts are oversubscribed (N node processes share one core), so each
fleet runs with ``ClusterConfig.service_time_s`` emulating the
device-bound regime the paper targets: workers sleep a fixed per-ligand
service time, which is the component a second node genuinely overlaps.
The digests come from real docking — only the timing is shaped.

Run standalone::

    python benchmarks/bench_futurework_multinode.py [--smoke] [--out artifact.json]

or through pytest (smoke scale): ``pytest benchmarks/bench_futurework_multinode.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
import time

from repro.campaign import CampaignRunner, SyntheticSource
from repro.cluster import ClusterConfig
from repro.molecules.synthetic import generate_receptor

#: ligands, receptor atoms, per-ligand device service time (seconds)
FULL_PARAMS = {"ligands": 32, "receptor_atoms": 120, "service_time_s": 0.25}
SMOKE_PARAMS = {"ligands": 12, "receptor_atoms": 80, "service_time_s": 0.3}


def _make_runner(workdir, params, *, name, nodes=0, cluster=None):
    return CampaignRunner(
        generate_receptor(params["receptor_atoms"], seed=11, title="multinode"),
        SyntheticSource(params["ligands"], atoms_range=(8, 14), seed=12),
        store_path=os.path.join(workdir, name),
        n_spots=2,
        metaheuristic="M1",
        seed=11,
        workload_scale=0.04,
        shard_size=2,
        max_attempts=1,
        raise_on_failure=True,
        nodes=nodes,
        cluster=cluster,
    )


def _run_fleet(workdir, params, *, name, nodes, cluster, kill_after_s=None):
    """One timed fleet run; returns (seconds, digest, fleet summary)."""
    runner = _make_runner(workdir, params, name=name, nodes=nodes, cluster=cluster)

    def kill_one_worker():
        time.sleep(kill_after_s)
        fleet = runner.fleet
        if fleet is not None and fleet.processes:
            os.kill(fleet.processes[0].pid, signal.SIGKILL)

    killer = None
    if kill_after_s is not None:
        killer = threading.Thread(target=kill_one_worker, daemon=True)
        killer.start()
    t0 = time.perf_counter()
    with runner.run() as store:
        seconds = time.perf_counter() - t0
        assert store.is_complete()
        digest = store.science_digest()
    if killer is not None:
        killer.join()
    return seconds, digest, runner.fleet.summary


def run_benchmark(smoke=False, out_path=None):
    params = SMOKE_PARAMS if smoke else FULL_PARAMS
    service = params["service_time_s"]
    with tempfile.TemporaryDirectory(prefix="bench-multinode-") as workdir:
        # In-process (nodes=0) reference: the digest every fleet must hit.
        with _make_runner(workdir, params, name="reference").run() as store:
            assert store.is_complete()
            reference_digest = store.science_digest()

        scaling = []
        by_nodes = {}
        for nodes in (1, 2):
            seconds, digest, summary = _run_fleet(
                workdir,
                params,
                name=f"fleet{nodes}",
                nodes=nodes,
                # Fast heartbeat tick: grant/steal reactions stay small
                # against the service time, so the tail is not noise.
                cluster=ClusterConfig(
                    service_time_s=service, heartbeat_interval_s=0.1
                ),
            )
            by_nodes[nodes] = seconds
            scaling.append(
                {
                    "nodes": nodes,
                    "seconds": seconds,
                    "ligands_per_second": params["ligands"] / seconds,
                    "steals": summary["steals"],
                    "digest_match": digest == reference_digest,
                }
            )

        # Eq. 1 mis-partition: node 1's probe reads 3x slower, so it gets a
        # quarter of the shards, drains early, and steals the rest back.
        _, steal_digest, steal_summary = _run_fleet(
            workdir,
            params,
            name="steal",
            nodes=2,
            cluster=ClusterConfig(
                probe_seconds_override=((0, 1.0), (1, 3.0)),
                service_time_s=0.05,
                heartbeat_interval_s=0.1,
            ),
        )

        # Node death: SIGKILL one of two workers mid-run; the survivor
        # inherits the reclaimed leases and the science is unchanged.
        recovery_total_s, recovery_digest, recovery_summary = _run_fleet(
            workdir,
            params,
            name="recovery",
            nodes=2,
            cluster=ClusterConfig(
                service_time_s=service,
                heartbeat_interval_s=0.1,
                heartbeat_timeout_s=1.0,
            ),
            kill_after_s=1.0,
        )

    artifact = {
        "benchmark": "multinode",
        "mode": "smoke" if smoke else "full",
        "ligands": params["ligands"],
        "service_time_s": service,
        "reference_digest": reference_digest,
        "scaling": scaling,
        "speedup_2_nodes": by_nodes[1] / by_nodes[2],
        "steal_case": {
            "steals": steal_summary["steals"],
            "digest_match": steal_digest == reference_digest,
        },
        "recovery_case": {
            "seconds": recovery_total_s,
            "node_deaths": recovery_summary["node_deaths"],
            "recovery_seconds": recovery_summary["recovery_seconds"],
            "digest_match": recovery_digest == reference_digest,
        },
    }
    if out_path:
        from table_utils import write_bench_artifact

        write_bench_artifact("multinode", artifact, path=out_path)
    return artifact


def _report(artifact):
    lines = [
        f"{artifact['ligands']} ligands, "
        f"{artifact['service_time_s'] * 1e3:.0f} ms device service time, "
        f"reference digest {artifact['reference_digest'][:16]}"
    ]
    for case in artifact["scaling"]:
        lines.append(
            f"  {case['nodes']} node(s): {case['ligands_per_second']:.2f} lig/s "
            f"({case['seconds']:.2f} s, {case['steals']} steals, "
            f"digest {'ok' if case['digest_match'] else 'MISMATCH'})"
        )
    lines.append(f"  speedup at 2 nodes: {artifact['speedup_2_nodes']:.2f}x")
    steal = artifact["steal_case"]
    lines.append(
        f"  skewed Eq. 1 shares: {steal['steals']} steals, "
        f"digest {'ok' if steal['digest_match'] else 'MISMATCH'}"
    )
    recovery = artifact["recovery_case"]
    recovered = recovery["recovery_seconds"]
    lines.append(
        f"  SIGKILL one of 2 workers: {recovery['node_deaths']} node death(s), "
        "leases reassigned in "
        f"{'n/a' if recovered is None else f'{recovered * 1e3:.1f} ms'}, "
        f"digest {'ok' if recovery['digest_match'] else 'MISMATCH'}"
    )
    return "\n".join(lines)


def test_multinode_fleet_smoke(benchmark, tmp_path):
    """CI smoke: real 1/2-node fleets — parity, speedup, stealing, recovery."""
    out = tmp_path / "multinode.json"
    artifact = benchmark.pedantic(
        lambda: run_benchmark(smoke=True, out_path=str(out)),
        rounds=1,
        iterations=1,
    )
    from conftest import emit
    from table_utils import load_bench_artifact

    emit("Future work — multi-node campaign fleet", _report(artifact))
    assert load_bench_artifact(out)["benchmark"] == "multinode"
    for case in artifact["scaling"]:
        assert case["digest_match"], "fleet science must match single-node"
    # Both node counts pay full cluster overhead, so in the device-bound
    # regime a second node must buy a real fraction of linear scaling.
    assert artifact["speedup_2_nodes"] >= 1.5
    assert artifact["steal_case"]["steals"] >= 1
    assert artifact["steal_case"]["digest_match"]
    recovery = artifact["recovery_case"]
    assert recovery["node_deaths"] >= 1
    assert recovery["recovery_seconds"] is not None
    assert recovery["digest_match"], "recovery must not change the science"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small/fast variant")
    parser.add_argument("--out", default="multinode.json", help="JSON artifact")
    args = parser.parse_args(argv)
    artifact = run_benchmark(smoke=args.smoke, out_path=args.out)
    print(_report(artifact))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
