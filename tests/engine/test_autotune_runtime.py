"""Runtime integration of the batched kernel and the autotuner.

The acceptance matrix for the determinism invariant: the batched scorer —
selected by hand or by a calibration table — produces bitwise-identical
scores across serial, static/dynamic multi-worker, and campaign-leased /
one-shot ``dock()`` pool execution, because every path cuts pose blocks on
the same absolute chunk grid.
"""

import json
import math

import numpy as np
import pytest

from repro import observability as obs
from repro.engine.host_runtime import (
    LigandSlotStage,
    SharedArrayStage,
    rebuild_scorer,
    stage_scorer,
)
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.scoring.autotune import CalibrationCell, CalibrationTable
from repro.scoring.batched import BatchedLJScoring, BoundBatchedLJ
from repro.scoring.lennard_jones import LennardJonesScoring
from repro.vs.docking import dock
from repro.vs.screening import screen


# ----------------------------------------------------------------------
# Staging: the tuned (variant, chunk_size) rides the spec to workers
# ----------------------------------------------------------------------
def test_stage_rebuild_batched_round_trip_bitwise(receptor, ligand, pose_batch):
    scorer = BatchedLJScoring(chunk_size=5).bind(receptor, ligand)
    t, q = pose_batch
    stage, slots = SharedArrayStage(), LigandSlotStage()
    try:
        spec = stage_scorer(scorer, stage, slots, {})
        assert spec["kind"] == "batched", "batched scorers stage structurally"
        assert spec["chunk_size"] == 5, "the tuned chunk size rides the spec"
        rebuilt = rebuild_scorer(spec)
        assert isinstance(rebuilt, BoundBatchedLJ)
        assert rebuilt.chunk_size == 5
        assert np.array_equal(rebuilt.score(t, q), scorer.score(t, q))
    finally:
        stage.close()
        slots.close()


# ----------------------------------------------------------------------
# Parity matrix: batched scorer through the full screen() stack
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_complexes():
    receptor = generate_receptor(150, seed=5, title="autotune parity receptor")
    ligands = [
        generate_ligand(8 + i, seed=40 + i, title=f"L{i}") for i in range(3)
    ]
    return receptor, ligands


def _entries(report):
    return [
        (e.ligand_title, e.best_score, e.best_spot, e.evaluations)
        for e in report.entries
    ]


def _run_batched(receptor, ligands, workers, mode, campaign):
    """The library by title: through ``screen()`` (every ligand a lease on
    one pool) or, ``campaign=False``, one one-shot ``dock()`` per ligand."""
    knobs = dict(
        n_spots=2,
        metaheuristic="M1",
        scoring=BatchedLJScoring(),
        workload_scale=0.02,
        host_workers=workers,
        parallel_mode=mode,
    )
    if campaign:
        return sorted(_entries(screen(receptor, ligands, seed=9, **knobs)))
    results = [
        dock(receptor, ligand, seed=9 + i, **knobs)
        for i, ligand in enumerate(ligands)
    ]
    return sorted(
        (r.ligand.title, r.best_score, r.best.spot_index, r.evaluations)
        for r in results
    )


@pytest.fixture(scope="module")
def serial_batched_entries(parity_complexes):
    receptor, ligands = parity_complexes
    return _run_batched(receptor, ligands, 0, "static", True)


@pytest.mark.parametrize(
    "workers,mode,campaign",
    [
        (1, "static", True),
        (4, "static", True),
        (4, "dynamic", True),
        (4, "static", False),
        (4, "dynamic", False),
    ],
)
def test_batched_parallel_matches_serial_bitwise(
    parity_complexes, serial_batched_entries, workers, mode, campaign
):
    receptor, ligands = parity_complexes
    got = _run_batched(receptor, ligands, workers, mode, campaign)
    assert len(got) == len(serial_batched_entries) == len(ligands)
    for a, b in zip(got, serial_batched_entries):
        assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]
        assert math.isfinite(a[1])
        assert a[1] == b[1], (
            f"batched score drifted: {a} vs serial {b} "
            f"(workers={workers} mode={mode} campaign={campaign})"
        )


# ----------------------------------------------------------------------
# Autotuned screening: fixed table ⇒ bitwise-stable scores in every mode
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def calibration_path(tmp_path_factory):
    """A hand-built table whose exact-family winner is the batched kernel.

    Cells are recorded at worker_count=0 only (like the default sweep), so
    every execution mode nearest-matches the *same* cells and receives the
    same ``(variant, chunk_size)`` — the precondition for cross-mode
    bitwise equality.
    """
    table = CalibrationTable(
        [
            CalibrationCell(150, 10, 0, "exact", "lennard-jones", 256, 1000.0),
            CalibrationCell(
                150, 10, 0, "exact", "lennard-jones-batched", 64, 5000.0
            ),
        ]
    )
    path = tmp_path_factory.mktemp("autotune") / "calibration.json"
    table.save(path)
    return str(path)


def _run_autotuned(receptor, ligands, workers, mode, calibration_path):
    obs.reset()
    report = screen(
        receptor,
        ligands,
        n_spots=2,
        metaheuristic="M1",
        scoring=LennardJonesScoring(),
        seed=9,
        workload_scale=0.02,
        host_workers=workers,
        parallel_mode=mode,
        autotune=True,
        calibration_file=calibration_path,
    )
    return _entries(report)


def test_autotuned_screen_is_bitwise_stable_across_modes(
    parity_complexes, calibration_path
):
    receptor, ligands = parity_complexes
    serial = _run_autotuned(receptor, ligands, 0, "static", calibration_path)
    counters = {
        (c["name"], tuple(sorted(c["tags"].items()))): c["value"]
        for c in obs.snapshot()["counters"]
    }
    picked = counters.get(
        ("autotune.selections", (("variant", "lennard-jones-batched"),))
    )
    assert picked and picked >= len(ligands), (
        "the selector must have picked the batched kernel from the table"
    )
    for workers, mode in [(1, "static"), (4, "static"), (4, "dynamic")]:
        got = _run_autotuned(receptor, ligands, workers, mode, calibration_path)
        assert got == serial, f"autotuned scores drifted at {workers}/{mode}"


def test_autotuned_screen_matches_untuned_scores(parity_complexes, calibration_path):
    """Autotuning changes the kernel, not the science: the selected batched
    kernel agrees with the requested dense scorer to GEMM round-off, and
    spot/evaluation bookkeeping is untouched."""
    receptor, ligands = parity_complexes
    tuned = _run_autotuned(receptor, ligands, 0, "static", calibration_path)
    plain = _entries(
        screen(
            receptor,
            ligands,
            n_spots=2,
            metaheuristic="M1",
            scoring=LennardJonesScoring(),
            seed=9,
            workload_scale=0.02,
        )
    )
    for a, b in zip(tuned, plain):
        assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]
        assert a[1] == pytest.approx(b[1], rel=1e-9)


def test_campaign_config_hash_covers_calibration(
    parity_complexes, calibration_path, tmp_path
):
    """Two different tables ⇒ two different campaign config hashes, and the
    same table twice ⇒ the same hash (resume compatibility)."""
    from repro.campaign.library import IterableSource
    from repro.campaign.runner import CampaignRunner

    receptor, ligands = parity_complexes

    def runner_with(path):
        return CampaignRunner(
            receptor,
            IterableSource(iter(ligands)),
            store_path=":memory:",
            n_spots=2,
            metaheuristic="M1",
            scoring=LennardJonesScoring(),
            workload_scale=0.02,
            autotune=True,
            calibration_file=path,
        )

    base_hash = runner_with(calibration_path).config_hash
    assert runner_with(calibration_path).config_hash == base_hash
    doc = json.loads(open(calibration_path).read())
    doc["cells"][0]["poses_per_s"] = 123.0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert runner_with(str(other)).config_hash != base_hash
    # And an untuned campaign keeps its pre-autotune hash shape: the keys
    # are omitted entirely, not recorded as nulls.
    untuned = CampaignRunner(
        receptor,
        IterableSource(iter(ligands)),
        store_path=":memory:",
        n_spots=2,
        metaheuristic="M1",
        scoring=LennardJonesScoring(),
        workload_scale=0.02,
    )
    assert "autotune" not in untuned.config
    assert "calibration_hash" not in untuned.config
