"""CLI wiring: ``campaign run --nodes`` and ``repro-vs cluster ...``."""

import multiprocessing
import socket

import pytest

from repro.campaign import open_store
from repro.cli import main
from repro.errors import ClusterError

CAMPAIGN_ARGS = [
    "--receptor-atoms", "60",
    "--ligands", "6",
    "--atoms-min", "8",
    "--atoms-max", "12",
    "--spots", "2",
    "--metaheuristic", "M1",
    "--scale", "0.04",
    "--seed", "3",
    "--shard-size", "2",
    "--node", "none",
]


def _digest(path):
    with open_store(path) as store:
        assert store.is_complete()
        return store.science_digest()


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _worker_entry(address):
    raise SystemExit(main(["cluster", "worker", "--connect", address]))


def test_campaign_run_nodes_matches_inprocess(tmp_path, capsys):
    single, fleet = tmp_path / "single.store", tmp_path / "fleet.store"
    assert main(["campaign", "run", "--store", str(single)] + CAMPAIGN_ARGS) == 0
    rc = main(
        ["campaign", "run", "--store", str(fleet), "--nodes", "2"]
        + CAMPAIGN_ARGS
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "campaign complete: 6 done, 0 failed" in out
    assert _digest(fleet) == _digest(single)


def test_cluster_coordinator_serves_remote_cli_workers(tmp_path, capsys):
    single, fleet = tmp_path / "single.store", tmp_path / "fleet.store"
    assert main(["campaign", "run", "--store", str(single)] + CAMPAIGN_ARGS) == 0
    capsys.readouterr()

    port = _free_port()
    address = f"127.0.0.1:{port}"
    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=_worker_entry, args=(address,), daemon=True)
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    rc = main(
        [
            "cluster", "coordinator",
            "--store", str(fleet),
            "--listen", address,
            "--expect-nodes", "2",
        ]
        + CAMPAIGN_ARGS
    )
    for worker in workers:
        worker.join(timeout=30.0)
    captured = capsys.readouterr()
    assert rc == 0
    assert "fleet: 2 nodes" in captured.out
    assert all(worker.exitcode == 0 for worker in workers)
    assert _digest(fleet) == _digest(single)


def test_cluster_worker_reports_unreachable_coordinator(capsys):
    port = _free_port()
    rc = main(
        [
            "cluster", "worker",
            "--connect", f"127.0.0.1:{port}",
            "--connect-attempts", "1",
            "--connect-backoff", "0.01",
        ]
    )
    assert rc == 2  # ClusterError -> `error: ...` + exit 2
    assert f"127.0.0.1:{port}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["localhost", "host:NaN", ":9", "h:70000"])
def test_malformed_hostport_is_rejected(text):
    from repro.cli import _parse_hostport

    with pytest.raises(ClusterError):
        _parse_hostport(text)


def test_nodes_flag_rejects_negative():
    with pytest.raises(SystemExit):
        main(["campaign", "run", "--store", "x", "--nodes", "-1"])
