"""Campaign orchestration: crash/resume determinism, retries, progress.

The kill-mid-shard tests simulate a SIGKILL via exception injection: a
monkeypatched ``dock`` raises ``KeyboardInterrupt`` partway through a shard,
which the runner must never swallow. The acceptance bar: resume completes
the *remaining* ligands only (nothing lost, nothing recomputed) and the
final ranking is bitwise identical to an uninterrupted run — including under
the real process-parallel host runtime (1 and 4 workers).
"""

import base64
import hashlib
import io
import json
import math
import os
import zipfile

import pytest

import repro.campaign.runner as runner_mod
from repro import observability as obs
from repro.campaign import (
    CampaignRunner,
    SyntheticSource,
    campaign_config,
    config_hash,
    open_store,
)
from repro.errors import CampaignError
from repro.molecules.structures import Receptor
from repro.vs.docking import dock as real_dock
from repro.vs.screening import screen, synthetic_library

SEED = 11
N_LIGANDS = 5


def make_runner(receptor, tmp_path, name="c.sqlite", **overrides):
    kwargs = dict(
        store_path=tmp_path / name,
        n_spots=2,
        metaheuristic="M1",
        seed=SEED,
        workload_scale=0.05,
        shard_size=2,
        backoff_base=0.0,
    )
    kwargs.update(overrides)
    return CampaignRunner(
        receptor, SyntheticSource(N_LIGANDS, atoms_range=(8, 12), seed=2), **kwargs
    )


class DockSpy:
    """Stand-in for ``runner.dock`` that records ordinals and can blow up."""

    def __init__(self, interrupt_before_call=None, poison_ordinal=None):
        self.ordinals = []
        self.calls = 0
        self.interrupt_before_call = interrupt_before_call
        self.poison_ordinal = poison_ordinal

    def __call__(self, receptor, ligand, **kwargs):
        self.calls += 1
        if (
            self.interrupt_before_call is not None
            and self.calls >= self.interrupt_before_call
        ):
            raise KeyboardInterrupt  # the simulated SIGKILL
        ordinal = kwargs["seed"] - SEED
        if ordinal == self.poison_ordinal:
            raise ValueError(f"poisoned ligand {ordinal}")
        self.ordinals.append(ordinal)
        return real_dock(receptor, ligand, **kwargs)


def ranking(store, k=N_LIGANDS):
    return [(row["title"], row["best_score"]) for row in store.top(k)]


def test_run_matches_screen_bitwise(receptor, tmp_path):
    # The durable path and the in-memory screen() wrapper share one code
    # path; different shard sizes must not change a single bit.
    with make_runner(receptor, tmp_path).run() as store:
        report = store.to_report()
    library = synthetic_library(N_LIGANDS, atoms_range=(8, 12), seed=2)
    direct = screen(
        receptor, library, n_spots=2, metaheuristic="M1",
        workload_scale=0.05, seed=SEED,
    )
    assert [e.ligand_title for e in report.entries] == [
        e.ligand_title for e in direct.entries
    ]
    assert [e.best_score for e in report.entries] == [
        e.best_score for e in direct.entries
    ]


def test_rerun_onto_existing_store_refused(receptor, tmp_path):
    make_runner(receptor, tmp_path).run().close()
    with pytest.raises(CampaignError, match="already exists"):
        make_runner(receptor, tmp_path).run()


def test_resume_completed_campaign_is_noop(receptor, tmp_path, monkeypatch):
    make_runner(receptor, tmp_path).run().close()
    spy = DockSpy()
    monkeypatch.setattr(runner_mod, "dock", spy)
    with make_runner(receptor, tmp_path).resume() as store:
        assert store.is_complete()
        assert store.counts()["done"] == N_LIGANDS
    assert spy.calls == 0  # nothing recomputed


@pytest.mark.parametrize("host_workers", [0, 1, 4])
def test_kill_mid_shard_then_resume_is_bitwise_identical(
    receptor, tmp_path, monkeypatch, host_workers
):
    # Uninterrupted reference run.
    with make_runner(
        receptor, tmp_path, name="ref.sqlite", host_workers=host_workers
    ).run() as store:
        expected = ranking(store)

    # Interrupted run: the 4th dock call (ordinal 3, mid-shard-1) dies.
    spy = DockSpy(interrupt_before_call=4)
    monkeypatch.setattr(runner_mod, "dock", spy)
    with pytest.raises(KeyboardInterrupt):
        make_runner(
            receptor, tmp_path, name="kill.sqlite", host_workers=host_workers
        ).run()
    assert spy.ordinals == [0, 1, 2]

    # Resume: only the remaining ligands are docked, nothing is recomputed,
    # and no completed result was lost.
    resume_spy = DockSpy()
    monkeypatch.setattr(runner_mod, "dock", resume_spy)
    with make_runner(
        receptor, tmp_path, name="kill.sqlite", host_workers=host_workers
    ).resume() as store:
        assert resume_spy.ordinals == [3, 4]
        assert store.is_complete()
        assert store.counts()["done"] == N_LIGANDS
        # Bitwise-identical final ranking (scores compared exactly).
        assert ranking(store) == expected


@pytest.mark.parametrize(
    "reader,dedup,resume_nodes",
    [
        pytest.param("smiles", True, 0, id="True"),
        pytest.param("smiles", False, 0, id="False"),
        pytest.param("smiles", False, 2, id="fleet"),
        pytest.param("synthetic", False, 0, id="synthetic"),
    ],
)
def test_resume_builds_no_ligand_of_a_finished_shard(
    receptor, tmp_path, monkeypatch, reader, dedup, resume_nodes
):
    # Seven lines, titles B and E repeated: five ligands with dedup, seven
    # (two of them stored as "B#3" and "E#6") without; three shards each way.
    # A synthetic library is seven LIG%04d titles of the ordinal. A fleet
    # resume plans in this process from titles alone and docks in worker
    # processes, so the spy sees no build at all.
    import repro.campaign.library as library_mod
    from repro.campaign import SmilesSource

    smi = tmp_path / "lib.smi"
    smi.write_text("CCO A\nCCN B\nCCC C\nCCCl B\nc1ccccc1 D\nCCBr E\nCCF E\n")
    n, shard_size = (5, 2) if dedup else (7, 3)

    def smi_runner(name, nodes=0):
        source = (
            SyntheticSource(n, atoms_range=(8, 12), seed=4)
            if reader == "synthetic"
            else SmilesSource(smi, seed=4, dedup=dedup, atoms_range=(8, 12))
        )
        return CampaignRunner(
            receptor, source,
            store_path=tmp_path / name, n_spots=2, metaheuristic="M1", seed=SEED,
            workload_scale=0.05, shard_size=shard_size, backoff_base=0.0,
            nodes=nodes,
        )

    with smi_runner("ref.sqlite").run() as store:
        assert store.counts()["done"] == n
        expected = store.science_digest()

    # Killed on the first dock of the second shard.
    killer = DockSpy(interrupt_before_call=shard_size + 1)
    monkeypatch.setattr(runner_mod, "dock", killer)
    with pytest.raises(KeyboardInterrupt):
        smi_runner("kill.sqlite").run()
    monkeypatch.setattr(runner_mod, "dock", real_dock)

    built = []
    real_generate = library_mod.generate_ligand

    def spy(n_atoms, **kwargs):
        built.append(kwargs["title"])
        return real_generate(n_atoms, **kwargs)

    monkeypatch.setattr(library_mod, "generate_ligand", spy)
    with smi_runner("kill.sqlite", resume_nodes).resume() as store:
        assert store.science_digest() == expected
    # Once per ligand of the unfinished shards, none for the finished one.
    if reader == "synthetic":
        titles = [f"LIG{i:04d}" for i in range(n)]
    elif dedup:
        titles = ["A", "B", "C", "D", "E"]
    else:
        titles = ["A", "B", "C", "B", "D", "E", "E"]
    assert built == ([] if resume_nodes else titles[shard_size:])


def test_pooled_campaign_matches_serial_bitwise(receptor, tmp_path):
    # One pool leased ligand by ligand across the campaign and the plain
    # serial path must agree on every float.
    warmups = obs.counter("host.warmups").value
    with make_runner(
        receptor, tmp_path, name="pooled.sqlite", host_workers=2
    ).run() as store:
        pooled = ranking(store)
    # The whole campaign paid exactly one pool spawn + receptor staging.
    assert obs.counter("host.warmups").value == warmups + 1
    with make_runner(receptor, tmp_path, name="serial.sqlite").run() as store:
        serial = ranking(store)
    assert pooled == serial


def test_kill_mid_shard_resume_with_pool_matches_serial(
    receptor, tmp_path, monkeypatch
):
    # Serial reference ranking.
    with make_runner(receptor, tmp_path, name="serial.sqlite").run() as store:
        expected = ranking(store)

    # Kill a pooled campaign mid-shard...
    spy = DockSpy(interrupt_before_call=4)
    monkeypatch.setattr(runner_mod, "dock", spy)
    runner = make_runner(
        receptor, tmp_path, name="kill.sqlite", host_workers=2
    )
    with pytest.raises(KeyboardInterrupt):
        runner.run()
    assert spy.ordinals == [0, 1, 2]
    assert runner._runtime is None  # the crash path closed the pool

    # ...and resume on a new pool: only ordinals 3 and 4 are docked, and
    # the ranking is bitwise identical to the serial run.
    resume_spy = DockSpy()
    monkeypatch.setattr(runner_mod, "dock", resume_spy)
    with make_runner(
        receptor, tmp_path, name="kill.sqlite", host_workers=2
    ).resume() as store:
        assert resume_spy.ordinals == [3, 4]
        assert store.is_complete()
        assert ranking(store) == expected


def test_worker_death_recycles_pool_without_restaging(receptor, tmp_path):
    # A ligand whose dock kills a worker must not poison the pool: the
    # campaign recycles the workers, keeps the bindings and Eq. 1 weights,
    # retries the ligand, and finishes with nothing failed.
    warmups = obs.counter("host.warmups").value
    recycles = obs.counter("host.pool.recycles").value
    runner = make_runner(receptor, tmp_path, host_workers=2, max_attempts=2)
    killed = []

    def sabotage(receptor_arg, ligand, **kwargs):
        if kwargs["seed"] - SEED == 1 and not killed:
            killed.append(True)
            runner._runtime.evaluator._pool.submit(os._exit, 1)
        return real_dock(receptor_arg, ligand, **kwargs)

    original_dock = runner_mod.dock
    runner_mod.dock = sabotage
    try:
        with runner.run() as store:
            counts = store.counts()
            assert counts["done"] == N_LIGANDS
            assert counts["failed"] == 0
    finally:
        runner_mod.dock = original_dock
    assert killed  # the sabotage actually fired
    assert obs.counter("host.pool.recycles").value == recycles + 1
    # Pool spawn + warm-up happened exactly once despite the crash.
    assert obs.counter("host.warmups").value == warmups + 1


def test_kill_then_resume_without_journal_uses_store(receptor, tmp_path, monkeypatch):
    spy = DockSpy(interrupt_before_call=4)
    monkeypatch.setattr(runner_mod, "dock", spy)
    runner = make_runner(receptor, tmp_path)
    with pytest.raises(KeyboardInterrupt):
        runner.run()
    # The store is the one durable log: nothing else is written beside it.
    assert not (tmp_path / "c.sqlite.journal").exists()
    monkeypatch.setattr(runner_mod, "dock", DockSpy())
    with make_runner(receptor, tmp_path).resume() as store:
        assert store.counts()["done"] == N_LIGANDS


def write_legacy_journal(path, records):
    """A ``.journal`` sidecar as older builds wrote it: one JSON line each."""
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def test_resume_trusts_the_store_over_the_journal(receptor, tmp_path):
    # SQLite (WAL, synchronous=NORMAL) can roll back its last commits on an
    # OS crash. Roll back ligand 3's result, shard 1's finish mark and
    # `completed` by hand, and leave a journal an older build would have
    # written claiming both shards and the campaign finished: resume must
    # re-open shard 1, dock ligand 3 again and never touch the journal.
    import sqlite3

    def runner(name):
        return CampaignRunner(
            receptor,
            SyntheticSource(4, atoms_range=(8, 12), seed=2),
            store_path=tmp_path / name,
            n_spots=2,
            metaheuristic="M1",
            seed=SEED,
            workload_scale=0.05,
            shard_size=2,
            backoff_base=0.0,
        )

    with runner("whole.sqlite").run() as store:
        expected = store.science_digest()
    runner("rolled.sqlite").run().close()
    db = sqlite3.connect(tmp_path / "rolled.sqlite", isolation_level=None)
    db.execute(
        "UPDATE ligands SET status = 'running', best_score = NULL, best_spot = NULL,"
        " evaluations = NULL, wall_seconds = NULL, simulated_seconds = NULL,"
        " attempts = 0 WHERE ordinal = 3"
    )
    db.execute("UPDATE shards SET status = 'running', wall_seconds = NULL WHERE shard_id = 1")
    db.execute("UPDATE meta SET value = '0' WHERE key = 'completed'")
    db.close()
    resumed = runner("rolled.sqlite")
    journal = tmp_path / "rolled.sqlite.journal"
    write_legacy_journal(
        journal,
        [{"record": "campaign_start", "config_hash": resumed.config_hash}]
        + [
            {"record": kind, "shard": shard, "start": 2 * shard, "stop": 2 * shard + 2}
            if kind == "shard_start"
            else {"record": kind, "shard": shard, "done": 2, "failed": 0}
            for shard in (0, 1)
            for kind in ("shard_start", "shard_finish")
        ]
        + [{"record": "campaign_finish", "n_ligands": 4}],
    )
    claimed = journal.read_bytes()
    with resumed.resume() as store:
        assert store.is_complete()
        assert store.counts()["done"] == 4
        assert store.science_digest() == expected
    assert journal.read_bytes() == claimed


def test_store_records_crash_boundary(receptor, tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "dock", DockSpy(interrupt_before_call=4))
    with pytest.raises(KeyboardInterrupt):
        make_runner(receptor, tmp_path).run()
    with open_store(tmp_path / "c.sqlite") as store:
        assert store.finished_shards() == {0}
        assert store.done_ordinals(2, 4) == {2}  # shard 1 started, not finished
        assert not store.is_complete()


#: What the build before the store became the one durable log left behind
#: for ``make_runner(receptor, out, name="legacy.sqlite")`` interrupted
#: before its fourth dock (shard 0 finished, ligand 2 committed): a zip of
#: the SQLite store and the ``.journal`` sidecar that build wrote beside it.
LEGACY_STORE_ZIP = (
    "UEsDBBQAAAAIAAAAIVwQhws94gQAAABgAAANAAAAbGVnYWN5LnNxbGl0Ze2bzW8bRRTAZ9dOnLi4"
    "01JZJrKqjNxDYimUXX/ENgilSWraUCcB44pWfJjx7theZb3r7K5bQhVEKWoPXDhw4MCFv4JrL+UA"
    "SBw4VOIEAnEBISQuiBMz610nrlP1BGql95N2d2bem7cz760tvWfva6/WDI+Rtu30qEfy6ASSZXSO"
    "EISQzI9pdEA0OEIk9GhkdFaTEvhvNHXsT4Rt/F3ik8QJ3gQAAAAAAAAA4H/gw9NTsdTcnPRR0qMt"
    "k7ld6uju8Dy9Xq+uNqqksbpWq5LhGFmME47faRq6aJONrUb1QrVOXqlvbK7Wr5JL1atLQy2POh4J"
    "CLW2thtk63KtFqrYffIoFeoN3EClUb3SGMnJ+epLq5drDbLQZ5ZuWJ2FeGhq/WJ1/RJZDOZubJHF"
    "kc4SWXAGlhU0ddtiC9ns8FbXqWk2XabZFt8p33wtnn0/Gks9l5ZurhiWzt41jQ7lsqar2Q7j+w8H"
    "pgJXbWydr14hE1q+8e2tUEAWW8z1huIlYjt8WdTMktcvVuvVcLsvBku79WYklkqnpTvYj09gIbhE"
    "xyI0su7fLjBLyIR7J+LkGZ7JyGHG3HxEGP7DWPBrmxom00dROXBWaFGE5rCsb3sP7nIoZteoOaCe"
    "YVvuUeKxeD9g2TV6A5N6TB97IIYy6nms1/dc8tBHd+QOJViI49jOhIvj2belWCqZlG7O+9HtMY+K"
    "Qx6LqxgJgrrD9kLHT0RRbJWNByWeXZCnUy8kJeQ/ve6uyXP7Jh14tt9vCstNVZwj/KtgRnwfJERS"
    "n/gS4d+PpxJf8QYAAAAAAAAAAADwOJGIRuaxZvf6JuMpq7IdiZ65meBpa9voNLvU7eqV5UIpX2QV"
    "rVykpYqiFYpltaQqarFF2zlWrJRZrlRYpnpZWaatQktXKnquVdJoWyuV83n1Vl2Ozt05PbR4I2Ma"
    "LYc6e5nnyY0M9eye23So1WG8/0Z5iai5t5ZIZofnmHwg4+5ZXpd5hpbhg1YzqFJwSZH3XcaEUm6f"
    "t0Ue2mUDx3CFMp+5qYopPVsXhjOd/uBZboc5dodZzB64Q3si+RfWcqI3VLUGpsl7faPPTMNiTZ31"
    "vW6g4jCN92zHX3q4RLtPdwcss39I7ntNyFolhaq5YjnfLlQKip6vKNxbSr7ULpYq5ZLSquh5qivt"
    "FmsVc+12gbFlpaxUKqq6XMzl+ITMYaN+pUVY9ZjrkdFahCO0LuvR5jXmuIZtcRXVH7Qdw+ocbClw"
    "l+oL/Rqca7zHgq25nig3tai2wwLP+/m+sH7ddnZMm3J1jfoLUM4qxf2npUgWj99YjYv8H99D+B7+"
    "GX+P/4CPFgAAAAAAAAAAAAA8rtWgyLw0KgZFceSMdKgUFIlH5oK+fDKSnR0vACTwbZ7/ryH8Bb6P"
    "1/AOOBMAAAAAAAAAAAAAjmJBPobSydiMFEOzqLZxQVGUnHiz4e7J9KkfufyZld1P2S/nEJqLcMW0"
    "P2cmUMwHb0Pgr1H6YebRhHnFN5/94Fvimx/8s/j58I36xMEsaWKW6s8i3/x0d7go8vLmOwiJ3/8j"
    "+D7Cf+Ff+QUAAAAAAAAAAAAAgCeH49GYJIUVCFl+KhqbnQ1zf96ZmQnLB6JkIOMfEP6NnwAAAAAA"
    "AAAAAAAAeMLA0jSSpDSSo8GfDE6haTQjJWOy+CPAyu3UxyufIfQvUEsDBBQAAAAIAAAAIVxs+K0x"
    "tQAAAH0BAAAVAAAAbGVnYWN5LnNxbGl0ZS5qb3VybmFsjY9LDoMwDET3nAJlXVWJE5Okl0EmH4jU"
    "AgJ2iLsXUKsixKK78dh+Hs/MdW1MddnQ2LBHzrwtlJYYrDNI2nKn0AgtuMCKIgS0JoBWBXnDC6pU"
    "5bn1UGlH0WkjpWC3nA3BdYPfaI5ePaW6LceJhmnrTasttAUAlBLvXIglmw8bY0OD/43v5erzTe/m"
    "V3f9KuGKiBvRd234DERKz/CFnC/F1Kb189OpMxPwr5TikBJ+KdUVUS/ZG1BLAQIUAxQAAAAIAAAA"
    "IVwQhws94gQAAABgAAANAAAAAAAAAAAAAACAAQAAAABsZWdhY3kuc3FsaXRlUEsBAhQDFAAAAAgA"
    "AAAhXGz4rTG1AAAAfQEAABUAAAAAAAAAAAAAAIABDQUAAGxlZ2FjeS5zcWxpdGUuam91cm5hbFBL"
    "BQYAAAAAAgACAH4AAAD1BQAAAAA="
)


@pytest.mark.parametrize("sidecar", ["as_written", "other_config_hash"])
def test_a_store_with_an_older_builds_journal_resumes_to_the_serial_digest(
    receptor, tmp_path, sidecar
):
    with zipfile.ZipFile(io.BytesIO(base64.b64decode(LEGACY_STORE_ZIP))) as archive:
        archive.extractall(tmp_path)
    journal = tmp_path / "legacy.sqlite.journal"
    if sidecar == "other_config_hash":
        # The build that wrote it refused such a store; the sidecar is not
        # read any more, so the store's own hash decides alone.
        text = journal.read_text(encoding="utf-8")
        recorded = json.loads(text.splitlines()[0])["config_hash"]
        journal.write_text(text.replace(recorded, "f" * 64), encoding="utf-8")
    before = journal.read_bytes()
    with make_runner(receptor, tmp_path, name="serial.sqlite").run() as store:
        expected = store.science_digest()
    with make_runner(receptor, tmp_path, name="legacy.sqlite").resume() as store:
        assert store.is_complete()
        assert store.counts()["done"] == N_LIGANDS
        assert store.science_digest() == expected
    assert journal.read_bytes() == before


def test_poisoned_ligand_is_recorded_and_campaign_continues(
    receptor, tmp_path, monkeypatch
):
    sleeps = []
    monkeypatch.setattr(runner_mod, "dock", DockSpy(poison_ordinal=1))
    with make_runner(
        receptor, tmp_path, max_attempts=2, backoff_base=0.25,
        sleep=sleeps.append,
    ).run() as store:
        counts = store.counts()
        assert counts["done"] == N_LIGANDS - 1
        assert counts["failed"] == 1
        assert store.is_complete()
        row = [r for r in store.iter_results() if r["ordinal"] == 1][0]
        assert row["status"] == "failed"
        assert "ValueError" in row["error"] and "poisoned" in row["error"]
        assert row["attempts"] == 2
        # Failed ligands are simply absent from the ranking.
        assert len(store.top(N_LIGANDS)) == N_LIGANDS - 1
    # One backoff sleep between the two attempts, at the base delay.
    assert sleeps == [0.25]


def test_transient_failure_retries_with_backoff(receptor, tmp_path, monkeypatch):
    failures = {"left": 2}
    sleeps = []

    def flaky(receptor_arg, ligand, **kwargs):
        if kwargs["seed"] - SEED == 1 and failures["left"] > 0:
            failures["left"] -= 1
            raise RuntimeError("transient worker death")
        return real_dock(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock", flaky)
    with make_runner(
        receptor, tmp_path, max_attempts=3, backoff_base=0.5, sleep=sleeps.append
    ).run() as store:
        assert store.counts()["done"] == N_LIGANDS
        row = [r for r in store.iter_results() if r["ordinal"] == 1][0]
        assert row["attempts"] == 3  # two transient failures, third try wins
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_screen_raises_instead_of_recording_failures(receptor, monkeypatch):
    # screen() is a one-shot in-memory campaign with raise_on_failure.
    monkeypatch.setattr(runner_mod, "dock", DockSpy(poison_ordinal=1))
    library = synthetic_library(3, atoms_range=(8, 12), seed=2)
    with pytest.raises(ValueError, match="poisoned"):
        screen(receptor, library, n_spots=2, metaheuristic="M1",
               workload_scale=0.05, seed=SEED)


def test_progress_snapshots(receptor, tmp_path):
    snapshots = []
    with make_runner(receptor, tmp_path, progress=snapshots.append).run():
        pass
    assert [s.shard_id for s in snapshots] == [0, 1, 2]
    assert [s.done for s in snapshots] == [2, 4, 5]
    assert all(s.total == N_LIGANDS for s in snapshots)
    assert all(s.ligands_per_second > 0 for s in snapshots)
    assert all(not math.isnan(s.eta_seconds) for s in snapshots)
    assert snapshots[-1].eta_seconds == 0.0


def test_resume_config_mismatch_rejected(receptor, tmp_path):
    make_runner(receptor, tmp_path).run().close()
    with pytest.raises(CampaignError, match="config mismatch"):
        make_runner(receptor, tmp_path, seed=SEED + 1).resume()
    with pytest.raises(CampaignError, match="config mismatch"):
        make_runner(receptor, tmp_path, n_spots=3).resume()


def parent_config_hash(config, prune_spots):
    """``config_hash`` as commit bdbb2c9 computed it: the last commit with
    per-spot pruning, where ``prune_spots`` was a hashed config key."""
    hashed = {key: config.get(key) for key in runner_mod.HASHED_KEYS}
    hashed["prune_spots"] = prune_spots
    return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()


def test_config_hash_is_the_one_stores_were_written_with():
    """Both constants were printed by bdbb2c9 for this config, with
    ``prune_spots=False`` and ``True``."""
    receptor = Receptor(
        [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.25]], ["C", "N", "O"]
    )
    config = campaign_config(
        receptor,
        SyntheticSource(7, atoms_range=(8, 12), seed=2),
        n_spots=2,
        metaheuristic="M1",
        scoring=None,
        seed=11,
        workload_scale=0.05,
        shard_size=2,
        node=None,
        mode="gpu-heterogeneous",
    )
    assert "prune_spots" not in config
    unpruned = "decb7ab2bf236172debc07e12fc382cab1ef55b47d474356a22808c2efca5941"
    pruned = "0b19fe542b34027d383497e0a2080dbfdf7937f539f4a1a8bdafd845fff87398"
    assert config_hash(config) == parent_config_hash(config, False) == unpruned
    assert parent_config_hash(config, True) == pruned


def test_resume_of_a_store_written_while_pruning_was_an_option(
    receptor, tmp_path, monkeypatch
):
    with make_runner(receptor, tmp_path, name="ref.sqlite").run() as store:
        expected = store.science_digest()
    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(runner_mod, "dock", DockSpy(interrupt_before_call=4))
        make_runner(receptor, tmp_path).run()

    def rewrite_as_parent(prune_spots):
        with open_store(tmp_path / "c.sqlite") as store:
            config = {**store.config, "prune_spots": prune_spots}
            store._set_meta("config", json.dumps(config, sort_keys=True))
            store._set_meta("config_hash", parent_config_hash(config, prune_spots))

    # Written with the flag: refused, to be finished by the version that wrote it.
    rewrite_as_parent(True)
    with pytest.raises(CampaignError, match="config mismatch"):
        make_runner(receptor, tmp_path).resume()
    # Written without it, as every store the flag's default made: same hash.
    rewrite_as_parent(False)
    with make_runner(receptor, tmp_path).resume() as store:
        assert store.config["prune_spots"] is False
        assert store.is_complete()
        assert store.science_digest() == expected


@pytest.mark.parametrize("backend", ["sqlite", "columnar"])
def test_store_written_without_autotune_keeps_its_hash(receptor, tmp_path, backend):
    """The constant was printed by 24c88e5, the last commit with the option,
    for this campaign run without it."""
    with make_runner(receptor, tmp_path, store_backend=backend).run() as store:
        assert "autotune" not in store.config
        assert store.config_hash == (
            "d964735e9c85a790c458171015baf2e598e2746ad806ab4bd09d2b7cafc78331"
        )


@pytest.mark.parametrize("backend", ["sqlite", "columnar"])
def test_store_that_records_autotune_is_refused_by_name(
    receptor, tmp_path, monkeypatch, capsys, backend
):
    from repro.cli import main

    path = tmp_path / f"c.{backend}"
    knobs = dict(
        name=path.name,
        store_backend=backend,
        receptor_descriptor={"kind": "synthetic", "n_atoms": 300, "seed": 11},
    )
    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(runner_mod, "dock", DockSpy(interrupt_before_call=4))
        make_runner(receptor, tmp_path, **knobs).run()
    with open_store(path) as store:
        config = {**store.config, "autotune": True, "calibration_hash": "ab" * 32}
    # The same store as 24c88e5 wrote it with --autotune.
    if backend == "sqlite":
        with open_store(path) as store:
            store._set_meta("config", json.dumps(config, sort_keys=True))
            store._set_meta("config_hash", config_hash(config))
    else:
        meta = json.loads((path / "meta.json").read_text())
        meta.update(config=config, config_hash=config_hash(config))
        (path / "meta.json").write_text(json.dumps(meta, sort_keys=True))

    spy = DockSpy()
    monkeypatch.setattr(runner_mod, "dock", spy)
    refusal = "records autotune: true.*was removed.*has to be re-run"
    with pytest.raises(CampaignError, match=refusal):
        make_runner(receptor, tmp_path, **knobs).resume()
    assert main(["campaign", "resume", "--store", str(path)]) == 2
    assert "records autotune: true" in capsys.readouterr().err
    assert spy.calls == 0


def test_runner_validation(receptor, tmp_path):
    with pytest.raises(CampaignError):
        make_runner(receptor, tmp_path, host_workers=-1)
    with pytest.raises(CampaignError):
        make_runner(receptor, tmp_path, parallel_mode="magic")
    with pytest.raises(CampaignError):
        make_runner(receptor, tmp_path, shard_size=0)
    with pytest.raises(CampaignError):
        make_runner(receptor, tmp_path, max_attempts=0)


def test_resume_missing_store_rejected(receptor, tmp_path):
    with pytest.raises(CampaignError, match="no campaign store"):
        make_runner(receptor, tmp_path).resume()
