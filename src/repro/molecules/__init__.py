"""Molecular substrate: structures, force field, transforms, surface, spots."""

from repro import _lazy_exports
from repro.molecules.elements import Element, get_element, is_known, known_elements
from repro.molecules.forcefield import ForceField, LJParameters, default_forcefield
from repro.molecules.pdb import dumps_pdb, loads_pdb, read_pdb, write_pdb
from repro.molecules.spots import Spot, farthest_point_sample, find_spots
from repro.molecules.structures import Atom, Ligand, Molecule, Receptor
from repro.molecules.surface import surface_atoms, surface_fraction, surface_mask
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.molecules.transforms import (
    apply_pose,
    apply_poses,
    identity_quaternion,
    normalize_quaternion,
    quaternion_conjugate,
    quaternion_from_axis_angle,
    quaternion_multiply,
    quaternion_to_matrix,
    random_quaternion,
    rotate_points,
    small_random_rotation,
)

__all__ = [
    "Atom",
    "Element",
    "FlexibleLigand",
    "ForceField",
    "LJParameters",
    "Ligand",
    "Molecule",
    "Receptor",
    "Spot",
    "apply_pose",
    "bond_graph",
    "connected_components",
    "apply_poses",
    "default_forcefield",
    "dumps_pdb",
    "farthest_point_sample",
    "find_spots",
    "generate_ligand",
    "generate_receptor",
    "get_element",
    "identity_quaternion",
    "infer_bonds",
    "is_connected",
    "is_known",
    "known_elements",
    "loads_pdb",
    "normalize_quaternion",
    "quaternion_conjugate",
    "quaternion_from_axis_angle",
    "quaternion_multiply",
    "quaternion_to_matrix",
    "random_quaternion",
    "read_pdb",
    "ring_atoms",
    "rotatable_bonds",
    "rotate_points",
    "small_random_rotation",
    "surface_atoms",
    "surface_fraction",
    "surface_mask",
    "topology_summary",
    "write_pdb",
]

# Off the campaign path: loaded on first use. ``pdb`` stays eager, because a
# PDB-directory library parses its files inside the campaign's run.
__getattr__ = _lazy_exports(globals(), {
    "repro.molecules.flexibility": ("FlexibleLigand",),
    "repro.molecules.topology": (
        "bond_graph",
        "connected_components",
        "infer_bonds",
        "is_connected",
        "ring_atoms",
        "rotatable_bonds",
        "topology_summary",
    ),
})
