"""End-to-end integration tests across all subsystems."""

import numpy as np
import pytest

from repro.engine.executor import MultiGpuExecutor
from repro.hardware.node import custom_node, hertz, jupiter
from repro.metaheuristics.presets import make_preset, preset_names
from repro.molecules.pdb import dumps_pdb, loads_pdb
from repro.molecules.spots import find_spots
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.vs.docking import dock


def test_full_stack_pdb_roundtrip_then_dock():
    """Generate → serialise → parse → dock: the I/O and compute paths
    compose."""
    receptor = loads_pdb(dumps_pdb(generate_receptor(250, seed=1)), kind="receptor")
    ligand = loads_pdb(dumps_pdb(generate_ligand(14, seed=2)), kind="ligand")
    result = dock(receptor, ligand, n_spots=3, metaheuristic="M1", workload_scale=0.05)
    assert result.best_score < 0


@pytest.mark.parametrize("preset", preset_names())
def test_every_preset_runs_on_every_mode(preset, receptor, ligand, spots):
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    executor = MultiGpuExecutor(hertz(), seed=4)
    spec = make_preset(preset, workload_scale=0.03)
    report = executor.run(spec, spots, scorer, "gpu-heterogeneous", search_seed=6)
    assert report.simulated_seconds > 0
    assert report.result.best.score < 0


def test_custom_node_end_to_end():
    """The future-work scenario: a user models their own K20 cluster node."""
    node = custom_node("lab", "Xeon E3-1220", 2, ["Tesla K20", "Tesla K20X"])
    receptor = generate_receptor(220, seed=3)
    ligand = generate_ligand(12, seed=4)
    result = dock(
        receptor, ligand, n_spots=2, metaheuristic="M1", workload_scale=0.05, node=node
    )
    assert result.simulated_seconds > 0


def test_better_metaheuristic_budget_finds_better_poses(receptor, ligand, spots):
    """More search effort must not hurt the best score (elitist presets)."""
    cheap = dock(
        receptor, ligand, spots=spots, metaheuristic="M2",
        workload_scale=0.03, seed=11,
    )
    rich = dock(
        receptor, ligand, spots=spots, metaheuristic="M2",
        workload_scale=0.3, seed=11,
    )
    assert rich.best_score <= cheap.best_score + 1e-9


def test_docked_pose_is_physically_sane(receptor, ligand, spots):
    """The best pose should sit near the receptor surface, not inside the
    core and not in deep solvent, with no hard clash."""
    result = dock(
        receptor, ligand, spots=spots, metaheuristic="M2",
        workload_scale=0.2, seed=13,
    )
    placed = result.docked_ligand()
    # No catastrophic clash: a finite, clearly negative LJ score.
    assert -1e4 < result.best_score < -5.0
    # Ligand centroid within the receptor's bounding sphere + search slack.
    dist = np.linalg.norm(placed.coords.mean(axis=0) - receptor.centroid())
    assert dist < receptor.max_radius() + 10.0
    # Minimum heavy-atom contact distance is in the vdW-contact range.
    d = np.linalg.norm(
        receptor.coords[None, :, :] - placed.coords[:, None, :], axis=-1
    )
    assert 1.0 < d.min() < 6.0


def test_jupiter_vs_hertz_cpu_ratio_matches_model(receptor, ligand, spots):
    """12 cores @2 GHz (×76 Mpairs) vs 4 cores @3.1 GHz (×68.5 Mpairs):
    Jupiter's CPU path should be ≈2.2× faster."""
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    spec = make_preset("M1", workload_scale=0.05)
    t_jup = (
        MultiGpuExecutor(jupiter()).run(spec, spots, scorer, "openmp", search_seed=1)
    ).timing.scoring_s
    t_her = (
        MultiGpuExecutor(hertz()).run(spec, spots, scorer, "openmp", search_seed=1)
    ).timing.scoring_s
    expected = (12 * 2.0 * 76.06) / (4 * 3.1 * 68.5)
    assert t_her / t_jup == pytest.approx(expected, rel=0.05)


def test_spot_independence_under_different_spot_counts(receptor, ligand):
    """Adding more spots never worsens the best overall score for the same
    per-spot seeds (spots are independent searches)."""
    spots8 = find_spots(receptor, 8)
    spots4 = spots8[:4]
    a = dock(receptor, ligand, spots=spots4, metaheuristic="M1", workload_scale=0.05, seed=2)
    b = dock(receptor, ligand, spots=spots8, metaheuristic="M1", workload_scale=0.05, seed=2)
    assert b.best_score <= a.best_score + 1e-9
    # The shared spots give identical per-spot results.
    np.testing.assert_allclose(
        [c.score for c in a.per_spot],
        [c.score for c in b.per_spot[:4]],
        rtol=1e-7,
    )
