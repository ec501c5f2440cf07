"""Molecular topology: bond inference and graph analysis.

The rigid-body docking core never needs bonds, but the substrate around it
does: the synthetic-ligand generator promises *connected, drug-like*
molecules, the flexible-ligand extension needs rotatable bonds, and
screening reports benefit from descriptors (rings, branching). Bonds are
inferred geometrically — two atoms bond when their distance is below the
sum of covalent radii plus a tolerance — and analysed with :mod:`networkx`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import MoleculeError
from repro.molecules.elements import get_element
from repro.molecules.neighbors import neighbor_pairs
from repro.molecules.structures import Molecule

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "infer_bonds",
    "bond_graph",
    "is_connected",
    "connected_components",
    "rotatable_bonds",
    "ring_atoms",
    "topology_summary",
]

#: Slack added to the covalent-radii sum when classifying a contact as a
#: bond (accounts for generator jitter and real-structure variance).
BOND_TOLERANCE: float = 0.45


def infer_bonds(molecule: Molecule, tolerance: float = BOND_TOLERANCE) -> list[tuple[int, int]]:
    """Geometric bond inference.

    Returns sorted ``(i, j)`` index pairs with ``i < j``. Candidates come
    from one neighbour search at the maximum possible bond length; each is
    then held to its own elements' limit.
    """
    if tolerance < 0:
        raise MoleculeError(f"tolerance must be >= 0, got {tolerance}")
    radii = np.array(
        [get_element(str(e)).covalent_radius for e in molecule.elements]
    )
    max_bond = 2.0 * radii.max() + tolerance
    pairs = neighbor_pairs(molecule.coords, max_bond)
    if pairs.size == 0:
        return []
    d = np.linalg.norm(
        molecule.coords[pairs[:, 0]] - molecule.coords[pairs[:, 1]], axis=1
    )
    limit = radii[pairs[:, 0]] + radii[pairs[:, 1]] + tolerance
    keep = pairs[d <= limit]
    return [(int(i), int(j)) for i, j in keep]


def bond_graph(molecule: Molecule, tolerance: float = BOND_TOLERANCE) -> nx.Graph:
    """The molecule as an undirected graph (nodes carry ``element``)."""
    import networkx as nx

    graph = nx.Graph()
    for i in range(molecule.n_atoms):
        graph.add_node(i, element=str(molecule.elements[i]))
    graph.add_edges_from(infer_bonds(molecule, tolerance))
    return graph


def is_connected(molecule: Molecule) -> bool:
    """True when the bond graph is a single connected component."""
    import networkx as nx

    graph = bond_graph(molecule)
    return nx.is_connected(graph) if graph.number_of_nodes() > 0 else False


def connected_components(molecule: Molecule) -> list[set[int]]:
    """Atom-index sets of the bond graph's components (largest first)."""
    import networkx as nx

    graph = bond_graph(molecule)
    return sorted(nx.connected_components(graph), key=len, reverse=True)


def ring_atoms(molecule: Molecule) -> set[int]:
    """Atoms that belong to at least one ring (cycle basis union)."""
    import networkx as nx

    graph = bond_graph(molecule)
    atoms: set[int] = set()
    for cycle in nx.cycle_basis(graph):
        atoms.update(cycle)
    return atoms


def rotatable_bonds(molecule: Molecule) -> list[tuple[int, int]]:
    """Bonds a flexible-docking engine may rotate about.

    The standard definition: acyclic single bonds whose removal leaves both
    fragments with at least two atoms (rotating a terminal atom is a
    no-op), i.e. bridge edges between non-terminal atoms outside rings.
    """
    import networkx as nx

    graph = bond_graph(molecule)
    in_ring = ring_atoms(molecule)
    bridges = set(nx.bridges(graph)) if graph.number_of_edges() else set()
    rotatable = []
    for i, j in sorted(tuple(sorted(e)) for e in bridges):
        if i in in_ring and j in in_ring:
            continue
        if graph.degree[i] < 2 or graph.degree[j] < 2:
            continue
        rotatable.append((i, j))
    return rotatable


def topology_summary(molecule: Molecule) -> dict[str, int | bool]:
    """Descriptor bundle for reports: bonds, rings, rotatables, connectivity."""
    import networkx as nx

    graph = bond_graph(molecule)
    return {
        "n_atoms": molecule.n_atoms,
        "n_bonds": graph.number_of_edges(),
        "n_components": nx.number_connected_components(graph),
        "connected": nx.is_connected(graph) if graph.number_of_nodes() else False,
        "n_ring_atoms": len(ring_atoms(molecule)),
        "n_rotatable_bonds": len(rotatable_bonds(molecule)),
    }
