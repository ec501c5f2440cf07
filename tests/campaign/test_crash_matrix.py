"""Crash matrix: real SIGKILL mid-shard on the columnar campaign store.

Unlike the exception-injection tests in ``test_runner.py``, these kill an
actual campaign *process* with ``SIGKILL`` — no finally blocks, no flushes,
no close — across the worker-count × pipeline-depth matrix. The bar: resume
docks only the missing ligands, the final store is complete, and its
science digest is bitwise identical to a serial in-memory (SQLite) run of
the same campaign — and to a 2-node fleet run.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import CampaignRunner, SyntheticSource, open_store
from repro.vs.docking import dock, dock_steps

SEED = 42
N_LIGANDS = 6
SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD_SCRIPT = """
import os, signal, sys
sys.path.insert(0, {src!r})
import repro.campaign.runner as runner_mod
from repro.campaign import CampaignRunner, SyntheticSource
from repro.molecules.synthetic import generate_receptor
from repro.vs.docking import dock, dock_steps

kill_at, store, workers, depth = (
    int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
)
state = {{"calls": 0}}
# A pooled runner docks each ligand's launches itself, through dock_steps.
real_dock = dock_steps if workers else dock

def killing_dock(receptor, ligand, **kwargs):
    state["calls"] += 1
    if state["calls"] == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)  # the real thing
    return real_dock(receptor, ligand, **kwargs)

setattr(runner_mod, "dock_steps" if workers else "dock", killing_dock)
CampaignRunner(
    generate_receptor(80, seed=5),
    SyntheticSource({n_ligands}, atoms_range=(8, 12), seed=52),
    store_path=store,
    n_spots=2,
    metaheuristic="M1",
    seed={seed},
    workload_scale=0.04,
    shard_size=2,
    node=None,
    host_workers=workers,
    pipeline_depth=depth,
    backoff_base=0.0,
).run()
""".format(src=SRC, n_ligands=N_LIGANDS, seed=SEED)


def make_runner(store_path, workers=0, depth=2):
    from repro.molecules.synthetic import generate_receptor

    return CampaignRunner(
        generate_receptor(80, seed=5),
        SyntheticSource(N_LIGANDS, atoms_range=(8, 12), seed=52),
        store_path=str(store_path),
        n_spots=2,
        metaheuristic="M1",
        seed=SEED,
        workload_scale=0.04,
        shard_size=2,
        node=None,
        host_workers=workers,
        pipeline_depth=depth,
        backoff_base=0.0,
    )


@pytest.fixture(scope="module")
def serial_sqlite():
    """Reference digest + ranking from a serial ``:memory:`` (SQLite) campaign."""
    with make_runner(":memory:").run() as store:
        return store.science_digest(), [
            (r["title"], r["best_score"]) for r in store.top(N_LIGANDS)
        ]


class ResumeSpy:
    """Records the ordinals a runner docks: ``dock`` stands in for the
    serial one, ``dock_steps`` for a pooled runner's pipeline."""

    def __init__(self, real):
        self.ordinals = []
        self.real = real

    def __call__(self, receptor, ligand, **kwargs):
        self.ordinals.append(kwargs["seed"] - SEED)
        return self.real(receptor, ligand, **kwargs)


def sigkill_campaign(store_path, kill_at, workers, depth):
    script = store_path.parent / "kill_child.py"
    script.write_text(CHILD_SCRIPT)
    before = set(os.listdir("/dev/shm"))
    # Its own session: the SIGKILL orphans the child's pool workers, and only
    # a killpg finds them.
    proc = subprocess.Popen(
        [
            sys.executable, str(script), str(kill_at), str(store_path),
            str(workers), str(depth),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=300)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # serial child: nothing outlived it
        proc.wait()
    assert returncode == -signal.SIGKILL, (
        f"child survived the kill (exit {returncode})"
    )
    # Workers bind their own scorers: a killed pooled campaign leaves
    # nothing behind in /dev/shm for anyone to unlink.
    assert set(os.listdir("/dev/shm")) == before


@pytest.mark.parametrize(
    "workers,depth,kill_at",
    [
        (0, 2, 4),
        (1, 2, 3),
        (1, 1, 5),
        (4, 4, 4),
        (4, 1, 3),
    ],
    ids=["w0", "w1-d2", "w1-d1", "w4-d4", "w4-d1"],
)
def test_sigkill_mid_shard_resumes_bitwise(
    tmp_path, monkeypatch, serial_sqlite, workers, depth, kill_at
):
    expected_digest, expected_ranking = serial_sqlite
    store_path = tmp_path / "killed.col"
    sigkill_campaign(store_path, kill_at, workers, depth)

    # The store survived the kill in a resumable state: everything the
    # child committed is durable, nothing after the kill exists.
    with open_store(store_path) as store:
        assert not store.is_complete()
        assert store.counts()["done"] <= kill_at - 1

    spy = ResumeSpy(dock_steps if workers else dock)
    monkeypatch.setattr(runner_mod, "dock_steps" if workers else "dock", spy)
    with make_runner(store_path, workers=workers, depth=depth).resume() as store:
        assert store.is_complete()
        counts = store.counts()
        assert counts["done"] == N_LIGANDS and counts["failed"] == 0
        # Bitwise parity with the serial SQLite reference.
        assert store.science_digest() == expected_digest
        assert [
            (r["title"], r["best_score"]) for r in store.top(N_LIGANDS)
        ] == expected_ranking
    # Nothing committed before the kill was recomputed.
    assert len(spy.ordinals) == len(set(spy.ordinals))
    assert set(spy.ordinals) <= set(range(N_LIGANDS))
    assert len(spy.ordinals) <= N_LIGANDS - (kill_at - 1) + 1


def test_a_sigkilled_runner_keeps_its_flight_record(tmp_path):
    from repro.observability import diagnose_campaign
    from repro.observability.flight import flight_dir, read_flight

    store_path = tmp_path / "killed.col"
    sigkill_campaign(store_path, kill_at=5, workers=0, depth=2)
    with open_store(store_path) as store:
        finished = store.finished_shards()
    assert finished == {0, 1}
    record = read_flight(flight_dir(store_path) / "runner.flight")
    assert record["header"]["role"] == "runner"
    finishes = [e["shard"] for e in record["events"] if e["kind"] == "shard.finish"]
    assert sorted(finishes) == sorted(finished)
    report = {s.title: s for s in diagnose_campaign(store_path).sections}
    assert report["slow shards"].lines[0].startswith(
        f"{len(finished)} shard finish(es), median wall "
    ), report["slow shards"].lines
    (stopped,) = report["diagnosis"].lines
    assert stopped.startswith("the runner stopped: its last event was shard.finish at ")


def test_two_node_fleet_on_columnar_matches_serial(tmp_path, serial_sqlite):
    expected_digest, _ = serial_sqlite
    runner = make_runner(tmp_path / "fleet.col", workers=0)
    runner.nodes = 2
    with runner.run() as store:
        assert store.is_complete()
        assert store.science_digest() == expected_digest


def test_single_node_columnar_matches_serial(tmp_path, serial_sqlite):
    expected_digest, _ = serial_sqlite
    with make_runner(tmp_path / "one.col").run() as store:
        assert store.science_digest() == expected_digest
