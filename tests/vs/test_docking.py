"""Docking API tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.hardware.node import hertz
from repro.metaheuristics.extra import make_pso, make_simulated_annealing, make_vns
from repro.metaheuristics.presets import make_preset
from repro.molecules.pdb import loads_pdb
from repro.vs.docking import dock


@pytest.fixture(scope="module")
def docked(request):
    receptor = request.getfixturevalue("receptor")
    ligand = request.getfixturevalue("ligand")
    return dock(
        receptor,
        ligand,
        n_spots=4,
        metaheuristic="M2",
        seed=3,
        workload_scale=0.1,
        node=hertz(),
    )


def test_dock_finds_binding_pose(docked):
    assert docked.best_score < -5.0
    assert docked.metaheuristic == "M2"
    assert docked.evaluations > 0
    assert len(docked.per_spot) == 4


def test_dock_best_is_min_over_spots(docked):
    assert docked.best_score == pytest.approx(
        min(c.score for c in docked.per_spot)
    )


def test_dock_simulated_seconds_present(docked):
    assert np.isfinite(docked.simulated_seconds)
    assert docked.simulated_seconds > 0


def test_dock_without_node_has_nan_seconds(receptor, ligand):
    result = dock(receptor, ligand, n_spots=2, metaheuristic="M1", workload_scale=0.05)
    assert np.isnan(result.simulated_seconds)


def test_dock_with_custom_spec(receptor, ligand):
    spec = make_preset("M1", workload_scale=0.05)
    result = dock(receptor, ligand, n_spots=2, metaheuristic=spec)
    assert result.metaheuristic == "M1"


def test_dock_with_precomputed_spots(receptor, ligand, spots):
    result = dock(receptor, ligand, spots=spots, metaheuristic="M1", workload_scale=0.05)
    assert len(result.per_spot) == len(spots)


def test_dock_empty_spots_rejected(receptor, ligand):
    with pytest.raises(ReproError):
        dock(receptor, ligand, spots=[])


def test_dock_is_deterministic(receptor, ligand, spots):
    a = dock(receptor, ligand, spots=spots, metaheuristic="M1", seed=7, workload_scale=0.05)
    b = dock(receptor, ligand, spots=spots, metaheuristic="M1", seed=7, workload_scale=0.05)
    assert a.best_score == b.best_score


def test_docked_ligand_geometry(docked):
    placed = docked.docked_ligand()
    assert placed.n_atoms == docked.ligand.n_atoms
    np.testing.assert_allclose(
        placed.coords.mean(axis=0), docked.best.translation, atol=1e-6
    )
    # Rigid-body: internal distances preserved.
    orig = docked.ligand.coords - docked.ligand.coords.mean(axis=0)
    d0 = np.linalg.norm(orig[:, None] - orig[None, :], axis=-1)
    d1 = np.linalg.norm(
        placed.coords[:, None] - placed.coords[None, :], axis=-1
    )
    np.testing.assert_allclose(d0, d1, atol=1e-6)


def test_complex_molecule_merges(docked):
    complex_mol = docked.complex_molecule()
    assert complex_mol.n_atoms == docked.receptor.n_atoms + docked.ligand.n_atoms
    # Writable as PDB (Figure 1 artifact).
    from repro.molecules.pdb import dumps_pdb

    text = dumps_pdb(complex_mol)
    back = loads_pdb(text)
    assert back.n_atoms == complex_mol.n_atoms


def test_hot_spots_ranking(docked):
    hot = docked.hot_spots(2)
    assert len(hot) == 2
    assert hot[0].score <= hot[1].score
    assert hot[0].score == docked.best_score
    with pytest.raises(ReproError):
        docked.hot_spots(0)


def test_spot_scores_array(docked):
    scores = docked.spot_scores()
    assert scores.shape == (4,)
    assert scores.min() == pytest.approx(docked.best_score)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_simulated_annealing(walkers=4, iterations=3),
        lambda: make_vns(walkers=4, iterations=3),
        lambda: make_pso(swarm_size=4, iterations=3),
    ],
    ids=["SA", "VNS", "PSO"],
)
def test_one_custom_spec_docks_the_same_every_time(receptor, ligand, make):
    # SA's step count, VNS's neighbourhood and PSO's bests and velocities
    # live on the operators; each dock searches with a copy of the spec, so
    # a second dock with the same object is the first one again.
    spec = make()
    knobs = dict(n_spots=2, seed=1)
    first = dock(receptor, ligand, metaheuristic=spec, **knobs)
    again = dock(receptor, ligand, metaheuristic=spec, **knobs)
    fresh = dock(receptor, ligand, metaheuristic=make(), **knobs)
    assert first.best_score == again.best_score == fresh.best_score
    assert [p.score for p in again.per_spot] == [p.score for p in fresh.per_spot]
