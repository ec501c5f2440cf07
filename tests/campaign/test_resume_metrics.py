"""Regression: resuming a complete campaign is an observable no-op.

``repro-vs campaign resume`` on an already-complete store must exit 0
without re-docking anything, and still leave a *valid* metrics snapshot
behind — one that says, in telemetry, "this was a no-op".
"""

import pytest

from repro import observability as obs
from repro.cli import main
from repro.observability import load_snapshot

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


@pytest.fixture
def complete_store(tmp_path, capsys):
    store = tmp_path / "c.store"
    assert main(RUN_ARGS + ["--store", str(store)]) == 0
    capsys.readouterr()
    return store


def _counters(snapshot):
    return {(c["name"]): c["value"] for c in snapshot["counters"] if not c["tags"]}


def test_noop_resume_exits_zero_with_valid_metrics(complete_store, capsys):
    obs.reset()  # isolate the resume's telemetry from the run's
    assert main(["campaign", "resume", "--store", str(complete_store)]) == 0
    out = capsys.readouterr().out
    assert "campaign complete" in out

    metrics_path = str(complete_store) + ".metrics.json"
    snapshot = load_snapshot(metrics_path)  # validates schema + version

    counters = _counters(snapshot)
    assert counters.get("campaign.resumes.noop") == 1
    assert "campaign.ligands.done" not in counters, "no-op must not re-dock"

    resume_spans = [s for s in snapshot["spans"] if s["name"] == "campaign.resume"]
    assert len(resume_spans) == 1
    assert resume_spans[0]["tags"].get("noop") is True


def test_noop_resume_metrics_out_flag_overrides_default(
    complete_store, tmp_path, capsys
):
    obs.reset()
    out_path = tmp_path / "custom-metrics.json"
    assert main([
        "campaign", "resume", "--store", str(complete_store),
        "--metrics-out", str(out_path),
    ]) == 0
    capsys.readouterr()
    snapshot = load_snapshot(out_path)
    assert _counters(snapshot).get("campaign.resumes.noop") == 1


def test_repeated_noop_resume_stays_a_noop(complete_store, capsys):
    obs.reset()
    for _ in range(2):
        assert main(["campaign", "resume", "--store", str(complete_store)]) == 0
    capsys.readouterr()
    snapshot = load_snapshot(str(complete_store) + ".metrics.json")
    assert _counters(snapshot).get("campaign.resumes.noop") == 2
    assert "campaign.ligands.done" not in _counters(snapshot)
