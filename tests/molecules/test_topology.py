"""Topology (bond graph) tests."""

import numpy as np
import pytest

from repro.errors import MoleculeError
from repro.molecules import topology
from repro.molecules.elements import get_element
from repro.molecules.flexibility import FlexibleLigand
from repro.molecules.structures import Ligand, Molecule
from repro.molecules.synthetic import generate_ligand
from repro.molecules.topology import (
    bond_graph,
    connected_components,
    infer_bonds,
    is_connected,
    ring_atoms,
    rotatable_bonds,
    topology_summary,
)


def _chain(n, spacing=1.5):
    """A straight carbon chain with ``spacing`` Å bonds."""
    coords = np.zeros((n, 3))
    coords[:, 0] = np.arange(n) * spacing
    return Ligand(coords=coords, elements=["C"] * n)


def _triangle():
    """A 3-ring of carbons at bonding distance."""
    coords = np.array([[0.0, 0, 0], [1.5, 0, 0], [0.75, 1.3, 0]])
    return Ligand(coords=coords, elements=["C", "C", "C"])


def test_infer_bonds_chain():
    bonds = infer_bonds(_chain(4))
    assert bonds == [(0, 1), (1, 2), (2, 3)]


def test_infer_bonds_respects_distance():
    far = _chain(3, spacing=5.0)
    assert infer_bonds(far) == []


def test_infer_bonds_tolerance_validation():
    with pytest.raises(MoleculeError):
        infer_bonds(_chain(3), tolerance=-0.1)


def test_bond_graph_nodes_carry_elements():
    g = bond_graph(_chain(3))
    assert g.number_of_nodes() == 3
    assert g.nodes[0]["element"] == "C"


def test_connectivity_checks():
    assert is_connected(_chain(5))
    two_parts = Ligand(
        coords=np.array([[0.0, 0, 0], [1.5, 0, 0], [50.0, 0, 0], [51.5, 0, 0]]),
        elements=["C"] * 4,
    )
    assert not is_connected(two_parts)
    comps = connected_components(two_parts)
    assert len(comps) == 2
    assert all(len(c) == 2 for c in comps)


def test_ring_detection():
    assert ring_atoms(_triangle()) == {0, 1, 2}
    assert ring_atoms(_chain(5)) == set()


def test_rotatable_bonds_chain():
    """In a 5-chain, only the middle bonds are rotatable (terminal bonds
    rotate nothing)."""
    assert rotatable_bonds(_chain(5)) == [(1, 2), (2, 3)]
    assert rotatable_bonds(_chain(3)) == []  # all bonds touch terminals


def test_ring_bonds_not_rotatable():
    assert rotatable_bonds(_triangle()) == []


def test_synthetic_ligands_are_connected():
    for seed in range(5):
        lig = generate_ligand(24, seed=seed)
        assert is_connected(lig), f"seed {seed} produced a disconnected ligand"


def test_topology_summary_fields():
    summary = topology_summary(generate_ligand(30, seed=9))
    assert summary["n_atoms"] == 30
    assert summary["connected"] is True
    assert summary["n_components"] == 1
    assert summary["n_bonds"] >= 29  # spanning tree at minimum
    assert summary["n_rotatable_bonds"] >= 0


def test_single_atom_topology():
    atom = Molecule(coords=np.zeros((1, 3)), elements=["C"])
    summary = topology_summary(atom)
    assert summary["n_bonds"] == 0
    assert summary["connected"] is True  # one node is trivially connected


# ----------------------------------------------------------------------
# infer_bonds used to list its pairs in KD-tree traversal order. Nothing
# downstream may depend on that order: compare against the old function.
# ----------------------------------------------------------------------


def _infer_bonds_kdtree(molecule, tolerance=topology.BOND_TOLERANCE):
    """``infer_bonds`` as it was while it used ``scipy.spatial.cKDTree`` (frozen)."""
    from scipy.spatial import cKDTree

    radii = np.array([get_element(str(e)).covalent_radius for e in molecule.elements])
    max_bond = 2.0 * radii.max() + tolerance
    pairs = cKDTree(molecule.coords).query_pairs(max_bond, output_type="ndarray")
    if pairs.size == 0:
        return []
    d = np.linalg.norm(molecule.coords[pairs[:, 0]] - molecule.coords[pairs[:, 1]], axis=1)
    limit = radii[pairs[:, 0]] + radii[pairs[:, 1]] + tolerance
    return [(int(i), int(j)) for i, j in pairs[d <= limit]]


@pytest.fixture(scope="module")
def ligand_set():
    """≥ 200 ligands: 1-3 atoms, every size to 80, rounded copies, one unbonded."""
    ligands = [generate_ligand(n, seed=seed) for n in (1, 2, 3) for seed in range(4)]
    ligands += [generate_ligand(n, seed=seed) for n in range(4, 81) for seed in (0, 1)]
    ligands += [
        Ligand(coords=np.round(lig.coords, decimals), elements=list(lig.elements))
        for decimals in (1, 2)
        for lig in (generate_ligand(n, seed=5) for n in range(10, 70, 3))
    ]
    ligands.append(Ligand(coords=np.arange(12.0).reshape(4, 3) * 5.0, elements=["C"] * 4))
    return ligands


def _flexibility(ligand):
    flex = FlexibleLigand(ligand)
    return (
        flex.torsion_bonds,
        [flex.moving_atoms(t).tolist() for t in range(flex.n_torsions)],
        rotatable_bonds(ligand),
        ring_atoms(ligand),
    )


def test_bonds_are_sorted_and_the_same_set_as_the_kdtree_found(ligand_set):
    pytest.importorskip("scipy")
    assert len(ligand_set) >= 200
    assert infer_bonds(ligand_set[-1]) == []
    was_unsorted = 0
    for ligand in ligand_set:
        old = _infer_bonds_kdtree(ligand)
        assert infer_bonds(ligand) == sorted(old)
        was_unsorted += old != sorted(old)
    assert was_unsorted  # the docstring's "sorted" was not true before


def test_torsions_rings_and_rotatable_bonds_do_not_depend_on_bond_order(monkeypatch, ligand_set):
    pytest.importorskip("scipy")
    now = [_flexibility(ligand) for ligand in ligand_set]
    monkeypatch.setattr(topology, "infer_bonds", _infer_bonds_kdtree)
    assert [_flexibility(ligand) for ligand in ligand_set] == now
    assert any(torsions for torsions, *_ in now)


def test_flexible_dock_does_not_depend_on_bond_order(monkeypatch, receptor, spots):
    pytest.importorskip("scipy")
    from repro.vs.flexible import dock_flexible

    def run(ligand):
        result = dock_flexible(
            receptor, ligand, spots=spots, walkers_per_spot=2, steps=4, seed=3
        )
        poses = [result.best, *result.per_spot]
        return (
            result.n_torsions,
            result.evaluations,
            [p.score for p in poses],
            np.concatenate([np.r_[p.translation, p.quaternion, p.torsions] for p in poses]).tobytes(),
        )

    ligands = [generate_ligand(n, seed=n) for n in (3, 12, 24, 40)]
    now = [run(ligand) for ligand in ligands]
    monkeypatch.setattr(topology, "infer_bonds", _infer_bonds_kdtree)
    assert [run(ligand) for ligand in ligands] == now
