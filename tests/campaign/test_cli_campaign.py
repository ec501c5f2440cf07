"""End-to-end CLI coverage for ``repro-vs campaign`` and flag validation."""

import json
import sqlite3

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import CampaignRunner, SyntheticSource
from repro.cli import main
from repro.molecules.synthetic import generate_receptor

RUN_ARGS = [
    "campaign", "run",
    "--receptor-atoms", "60",
    "--ligands", "4",
    "--atoms-min", "8",
    "--atoms-max", "12",
    "--spots", "2",
    "--metaheuristic", "M1",
    "--scale", "0.05",
    "--seed", "3",
    "--shard-size", "2",
    "--node", "none",
]


def run_campaign(store_path, capsys):
    rc = main(RUN_ARGS + ["--store", str(store_path)])
    out = capsys.readouterr().out
    assert rc == 0
    return out


def test_campaign_run_status_top_export(tmp_path, capsys):
    store = tmp_path / "c.store"
    out = run_campaign(store, capsys)
    assert "campaign complete: 4 done, 0 failed, 0 outstanding" in out
    assert "shard" not in out  # progress is opt-in (--progress) and on stderr

    assert main(["campaign", "status", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "4 done" in out and "complete" in out

    assert main(["campaign", "top", "--store", str(store), "-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["rank", "score", "spot", "ligand"]
    assert [line.split()[0] for line in lines[1:]] == ["1", "2"]

    dump = tmp_path / "dump.json"
    assert main([
        "campaign", "export", "--store", str(store), "--out", str(dump),
    ]) == 0
    payload = json.loads(dump.read_text())
    assert len(payload["results"]) == 4

    report_path = tmp_path / "report.json"
    assert main([
        "campaign", "export", "--store", str(store),
        "--out", str(report_path), "--format", "report",
    ]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["entries"]) == 4

    csv_path = tmp_path / "dump.csv"
    assert main([
        "campaign", "export", "--store", str(store),
        "--out", str(csv_path), "--format", "csv",
    ]) == 0
    assert csv_path.read_text().count("\n") == 5  # header + 4 rows


def test_campaign_progress_flag_writes_refreshing_stderr_line(tmp_path, capsys):
    store = tmp_path / "c.store"
    rc = main(RUN_ARGS + ["--store", str(store), "--progress"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "shard" not in captured.out  # stdout stays pipe-clean
    # Carriage-return refresh, one frame per shard, with rate and ETA.
    frames = [f for f in captured.err.split("\r") if f.strip()]
    assert len(frames) == 2
    assert frames[0].startswith("shard 1/2")
    assert frames[1].startswith("shard 2/2")
    assert "lig/s" in frames[1] and "ETA" in frames[1]
    assert captured.err.endswith("\n")  # closed with a trailing newline


def test_campaign_resume_completed_is_noop(tmp_path, capsys):
    store = tmp_path / "c.store"
    run_campaign(store, capsys)
    assert main(["campaign", "resume", "--store", str(store)]) == 0
    assert "campaign complete" in capsys.readouterr().out


def test_status_top_export_and_doctor_read_a_live_campaign(tmp_path, capsys):
    # Every read command opens the store over and over while another
    # process writes it; the campaign must still end at an undisturbed run's
    # digest. A second writer is refused while the first holds the store.
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    from repro.campaign import open_store

    args = list(RUN_ARGS)
    args[args.index("--ligands") + 1] = "24"
    live = tmp_path / "live.store"
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, "--store", str(live)],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    reads = []
    try:
        while child.poll() is None:
            if not (live / "meta.json").exists():
                time.sleep(0.01)
                continue
            assert main(["campaign", "status", "--store", str(live)]) == 0
            assert main(["campaign", "top", "--store", str(live), "-k", "3"]) == 0
            assert main([
                "campaign", "export", "--store", str(live),
                "--out", str(tmp_path / "live.csv"), "--format", "csv",
            ]) == 0
            assert main(["doctor", "--store", str(live)]) == 0
            if not reads:
                rc = main(["campaign", "resume", "--store", str(live)])
                assert rc == 0 or "already open for writing" in capsys.readouterr().err
            reads.append(capsys.readouterr().out)
        assert child.wait() == 0
    finally:
        child.kill()
        child.wait()
    assert reads, "the campaign finished before any read"
    reference = tmp_path / "ref.store"
    assert main(args + ["--store", str(reference)]) == 0
    with open_store(live) as a, open_store(reference) as b:
        assert a.counts()["done"] == 24
        assert a.science_digest() == b.science_digest()


def test_cli_resume_finishes_interrupted_campaign(tmp_path, capsys, monkeypatch):
    # Build the identical campaign the CLI `run` above would, but kill it
    # mid-flight; the CLI `resume` must reconstruct everything from the
    # store's descriptors and finish the job.
    receptor = generate_receptor(60, seed=3)
    runner = CampaignRunner(
        receptor,
        SyntheticSource(4, atoms_range=(8, 12), seed=13),
        store_path=tmp_path / "c.store",
        n_spots=2,
        metaheuristic="M1",
        seed=3,
        workload_scale=0.05,
        shard_size=2,
        receptor_descriptor={"kind": "synthetic", "n_atoms": 60, "seed": 3},
    )
    real_dock = runner_mod.dock
    calls = {"n": 0}

    def dying_dock(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        return real_dock(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "dock", dying_dock)
    with pytest.raises(KeyboardInterrupt):
        runner.run()
    monkeypatch.setattr(runner_mod, "dock", real_dock)

    assert main(["campaign", "resume", "--store", str(tmp_path / "c.store")]) == 0
    out = capsys.readouterr().out
    assert "campaign complete: 4 done" in out

    # And it matches a never-interrupted CLI run bitwise.
    reference = tmp_path / "ref.store"
    ref_out = run_campaign(reference, capsys)
    assert [l for l in out.splitlines() if l.startswith("  ")] == [
        l for l in ref_out.splitlines() if l.startswith("  ")
    ]


def test_an_older_builds_sqlite_store_resumes_and_reads(
    tmp_path, capsys, monkeypatch, sqlite_campaigns
):
    # Killed mid-run, the SQLite file an older build wrote resumes through the
    # API and through the CLI to the serial digest, and every read verb,
    # doctor included, still opens it.
    from repro.campaign import CampaignStore, open_store

    def runner(store_path):
        return CampaignRunner(
            generate_receptor(60, seed=3),
            SyntheticSource(4, atoms_range=(8, 12), seed=13),
            store_path=store_path,
            n_spots=2,
            metaheuristic="M1",
            seed=3,
            workload_scale=0.05,
            shard_size=2,
            receptor_descriptor={"kind": "synthetic", "n_atoms": 60, "seed": 3},
        )

    with runner(":memory:").run() as store:
        serial = store.science_digest()
    real_dock = runner_mod.dock
    for name in ("api.sqlite", "cli.sqlite"):
        calls = iter(range(100))

        def dying_dock(*args, **kwargs):
            if next(calls) == 2:
                raise KeyboardInterrupt
            return real_dock(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "dock", dying_dock)
        with pytest.raises(KeyboardInterrupt):
            runner(tmp_path / name).run()
    monkeypatch.setattr(runner_mod, "dock", real_dock)

    with runner(tmp_path / "api.sqlite").resume() as store:
        assert isinstance(store, CampaignStore)
        assert store.science_digest() == serial
    store = tmp_path / "cli.sqlite"
    assert main(["campaign", "resume", "--store", str(store)]) == 0
    assert "campaign complete: 4 done" in capsys.readouterr().out
    assert store.is_file()
    with open_store(store) as reopened:
        assert reopened.science_digest() == serial

    assert main(["campaign", "status", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "backend: sqlite" in out and "4 done" in out
    assert main(["campaign", "top", "--store", str(store), "-k", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    dump = tmp_path / "dump.json"
    assert main(["campaign", "export", "--store", str(store), "--out", str(dump)]) == 0
    assert len(json.loads(dump.read_text())["results"]) == 4
    assert main(["doctor", "--store", str(store)]) == 0
    assert "store: 4 done, 0 failed, 0 pending" in capsys.readouterr().out


def test_negative_host_workers_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--store", str(tmp_path / "c.store"),
                         "--host-workers", "-2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be >= 0, got -2" in err
    assert "Traceback" not in err


def test_unknown_parallel_mode_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(RUN_ARGS + ["--store", str(tmp_path / "c.store"),
                         "--parallel-mode", "quantum"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'quantum'" in err
    assert "Traceback" not in err


def test_run_onto_existing_store_is_clean_error(tmp_path, capsys):
    store = tmp_path / "c.store"
    run_campaign(store, capsys)
    assert main(RUN_ARGS + ["--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "already exists" in err
    assert "Traceback" not in err


def test_resume_missing_store_is_clean_error(tmp_path, capsys):
    assert main(["campaign", "resume", "--store", str(tmp_path / "nope.store")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no campaign store" in err


def test_resume_config_mismatch_is_clean_error(tmp_path, capsys, sqlite_campaigns):
    store = tmp_path / "c.sqlite"  # an older build's store
    run_campaign(store, capsys)
    # Tamper with a science-affecting config key behind the store's back.
    conn = sqlite3.connect(store)
    raw = conn.execute("SELECT value FROM meta WHERE key = 'config'").fetchone()[0]
    config = json.loads(raw)
    config["seed"] = 999
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'config'", (json.dumps(config),)
    )
    conn.commit()
    conn.close()

    assert main(["campaign", "resume", "--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert "config mismatch" in err
    assert "Traceback" not in err


def test_status_of_missing_store_is_clean_error(tmp_path, capsys):
    assert main(["campaign", "status", "--store", str(tmp_path / "x.store")]) == 2
    assert "no campaign store" in capsys.readouterr().err
