"""The harness's own tests, at ``--smoke`` scale (under a minute).

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run as harness
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*flags: str, out: Path | None = None) -> tuple[int, dict, list[dict]]:
    """(exit code, last-line result, records appended to ``out``)."""
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", *flags]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=170)
    result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    records = [json.loads(line) for line in out.read_text().splitlines()] if out else []
    return done.returncode, result, records


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run(out=tmp_path_factory.mktemp("perf") / "plain.jsonl")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run("--trace", "1", out=tmp_path_factory.mktemp("perf") / "traced.jsonl")


def test_benchmark_json_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("kind, fixture", [("end_to_end", "plain"), ("per_layer", "traced")])
def test_every_workload_and_metric_is_emitted(kind, fixture, request):
    code, result, records = request.getfixturevalue(fixture)
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(records[0]["results"]) == set(WORKLOADS)
    for workload, report in records[0]["results"].items():
        assert report["correct"], workload
        assert {n: m["unit"] for n, m in report["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())
    # the last line carries the same metrics, prefixed by workload
    assert set(result["metrics"]) == {f"{w}/{n}" for w in WORKLOADS for n in expected}
    assert set(records[0]["env"]) >= {"nproc", "workdir_fs", "python", "numpy", "loadavg_start"}


def test_end_to_end_metrics_are_never_zero(plain):
    _, result, _ = plain
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_pool_digest_equals_serial_and_the_pinned_one(plain):
    _, _, records = plain
    results = records[0]["results"]
    pinned = json.loads((HERE / "pinned.json").read_text())["smoke"]
    assert results["dock_serial"]["digest"] == results["dock_pool2"]["digest"]
    if results["dock_serial"]["platform"] == pinned["platform"]:
        assert results["dock_serial"]["digest"] == pinned["digest"]


def test_another_seed_changes_inputs_and_keeps_parity(plain, tmp_path):
    # dock_pool2 alone: the run docks the serial campaign itself for parity.
    _, _, base = plain
    code, result, other = run("--seed", "8", "--workload", "dock_pool2", out=tmp_path / "seed8.jsonl")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert other[0]["results"]["dock_pool2"]["digest"] != base[0]["results"]["dock_pool2"]["digest"]
    sizes = inputs.SMOKE
    assert inputs.dock_ligand_atoms(sizes, 7) != inputs.dock_ligand_atoms(sizes, 8)
    assert sorted(inputs.dock_ligand_atoms(sizes, 7)) == sorted(inputs.dock_ligand_atoms(sizes, 8))
    libraries = [tmp_path / "a.smi", tmp_path / "b.smi", tmp_path / "c.smi"]
    for path, seed in zip(libraries, (7, 8, 7)):
        inputs.write_smiles_library(path, sizes, seed)
    assert libraries[0].read_text() != libraries[1].read_text()
    assert libraries[0].read_text() == libraries[2].read_text()


def test_corrupted_digest_fails_the_whole_run(tmp_path):
    code, result, records = run(
        "--workload", "dock_serial", "--expect-digest", "0" * 64, out=tmp_path / "corrupt.jsonl")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert records[0]["results"]["dock_serial"]["failed_share"] == 1.0
    assert result["metrics"]["completed_share"]["value"] == 0.0


def test_layer_times_fit_inside_the_wall(traced):
    _, _, records = traced
    for workload, report in records[0]["results"].items():
        value = {name: metric["value"] for name, metric in report["metrics"].items()}
        shares = [v for name, v in value.items() if name.endswith(".share")]
        assert all(0.0 <= share <= 1.0 for share in shares), workload
        # sum of layer self times <= wall, and most of the wall is attributed
        assert -1e-9 <= value["unattributed_share"] <= 0.10, workload
        assert sum(shares) <= 1.0 + 1e-9
    dock = {n: m["value"] for n, m in records[0]["results"]["dock_pool2"]["metrics"].items()}
    assert dock["host_runtime.launches"] > 0 and dock["host_runtime.worker_busy_s"] > 0
    assert dock["cluster.fleet2.digest_match"] == 1.0
    serial = {n: m["value"] for n, m in records[0]["results"]["dock_serial"]["metrics"].items()}
    assert serial["host_runtime.launches"] == 0 and serial["scoring.share"] > 0.5


def test_store_open_and_sharding_are_attributed(traced):
    # The workloads call these through their modules, where the wrappers sit.
    _, _, records = traced
    spans = {w: r["span_counts"] for w, r in records[0]["results"].items()}
    assert spans["readback"]["repro.campaign.backends.open_store"] == inputs.SMOKE.read_cycles
    assert spans["readback"]["repro.campaign.backends.create_store"] == 1
    assert spans["ingest_stream"]["repro.campaign.library.iter_shards"] > 1


def test_a_traced_run_fails_past_its_limits():
    within = {"unattributed_share": 0.10, "trace.overhead_share": 0.05}
    assert harness.trace_problems(within) == []
    assert len(harness.trace_problems({**within, "unattributed_share": 0.11})) == 1
    assert len(harness.trace_problems({**within, "trace.overhead_share": 0.06})) == 1


def test_wrappers_are_installed_only_between_install_and_remove():
    from repro.campaign.runner import CampaignRunner

    original = CampaignRunner.run
    assert tracing.installed() == []
    patches = tracing.install(tracing.Recorder())
    try:
        assert "CampaignRunner.run" in tracing.installed()
        assert CampaignRunner.run is not original
    finally:
        tracing.remove(patches)
    assert tracing.installed() == []
    assert CampaignRunner.run is original


def test_self_times_split_concurrent_threads_and_sum_to_the_wall():
    # run [0,10] on the main thread; two dock threads [1,9] and [2,8] that it
    # caused; one scoring call [3,4] inside the first dock.
    spans = [
        ["campaign.runner", "run", 0.0, 10.0, -1],
        ["vs.docking", "dock", 1.0, 9.0, 0],
        ["vs.docking", "dock", 2.0, 8.0, 0],
        ["scoring", "score", 3.0, 4.0, 1],
        [None, tracing.FSYNC, 9.5, 9.75, 0],
    ]
    times = tracing.self_times(spans)
    assert sum(times.values()) == pytest.approx(10.0)
    # runner: [0,1] + [9,10], fsync inside it takes the runner's layer
    assert times[("campaign.runner", "run")] == pytest.approx(1.75)
    assert times[("campaign.runner", tracing.FSYNC)] == pytest.approx(0.25)
    # [3,4] is shared by score and the second dock; [2,8] minus that by both docks
    assert times[("scoring", "score")] == pytest.approx(0.5)
    assert times[("vs.docking", "dock")] == pytest.approx(10.0 - 2.0 - 0.5)
