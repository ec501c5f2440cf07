"""Synthetic protein/ligand structure generators.

The paper benchmarks on PDB entries 2BSM and 2BXG (Human Serum Albumin
crystal structures). This environment has no network access to RCSB, so we
generate *structurally realistic stand-ins* with the exact atom counts of the
paper's Table 5:

========== ========= =======
compound   receptor  ligand
========== ========= =======
2BSM       3264      45
2BXG       8609      32
========== ========= =======

Realism requirements (what the docking code actually depends on):

* compact globular packing at protein density (~10 Å³ per heavy atom),
* a residue/backbone organisation (Cα-trace random walk at 3.8 Å steps),
* crystal-structure element composition (heavy atoms only, protein ratios),
* drug-like ligands: connected atom graphs at covalent bond lengths,
* small partial charges with near-zero net charge.

These statistics determine both the scoring cost (``O(n_rec × n_lig)``) and
the shape of the Lennard-Jones landscape the metaheuristics optimise, which
is what the paper's evaluation exercises.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import FLOAT_DTYPE, default_rng
from repro.errors import MoleculeError
from repro.molecules.elements import get_element
from repro.molecules.structures import Ligand, Receptor

__all__ = [
    "generate_receptor",
    "generate_bound_complex",
    "generate_receptor_with_pocket",
    "generate_ligand",
    "PROTEIN_HEAVY_COMPOSITION",
    "LIGAND_HEAVY_COMPOSITION",
]

#: Heavy-atom element frequencies in globular proteins (crystal structures
#: deposit no hydrogens), approximated from PDB-wide statistics.
PROTEIN_HEAVY_COMPOSITION: dict[str, float] = {
    "C": 0.63,
    "N": 0.17,
    "O": 0.19,
    "S": 0.01,
}

#: Heavy-atom element frequencies for drug-like small molecules.
LIGAND_HEAVY_COMPOSITION: dict[str, float] = {
    "C": 0.70,
    "N": 0.12,
    "O": 0.14,
    "S": 0.02,
    "Cl": 0.01,
    "F": 0.01,
}

#: Mean volume per heavy atom in a folded protein interior (Å³).
_VOLUME_PER_ATOM = 10.0

#: Cα–Cα virtual bond length along a protein backbone (Å).
_CA_STEP = 3.8

#: Average heavy atoms per residue (protein-wide mean ≈ 7.8; we use 8).
_ATOMS_PER_RESIDUE = 8

_RESIDUE_NAMES = (
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
)


def _sample_elements(
    rng: np.random.Generator, n: int, composition: dict[str, float]
) -> list[str]:
    """Draw ``n`` element symbols from a composition distribution."""
    symbols = list(composition)
    probs = np.array([composition[s] for s in symbols], dtype=FLOAT_DTYPE)
    probs = probs / probs.sum()
    return [symbols[i] for i in rng.choice(len(symbols), size=n, p=probs)]


def _confined_walk(rng: np.random.Generator, n_steps: int, radius: float) -> np.ndarray:
    """Random walk of ``n_steps`` points with step ``_CA_STEP`` confined to a
    sphere of ``radius`` — the Cα trace of a compact globule.

    Steps that would exit the sphere are re-drawn (up to a bound); if the walk
    gets stuck it restarts the step towards the centre, which cannot fail.
    """
    points = np.empty((n_steps, 3), dtype=FLOAT_DTYPE)
    points[0] = 0.0
    for i in range(1, n_steps):
        for _ in range(16):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            candidate = points[i - 1] + _CA_STEP * direction
            if np.linalg.norm(candidate) <= radius:
                break
        else:
            # Fall back: step straight towards the centre.
            inward = -points[i - 1]
            norm = np.linalg.norm(inward)
            inward = inward / norm if norm > 1e-9 else np.array([1.0, 0.0, 0.0])
            candidate = points[i - 1] + _CA_STEP * inward
        points[i] = candidate
    return points


def generate_receptor(
    n_atoms: int,
    seed: int | None = None,
    title: str = "synthetic receptor",
) -> Receptor:
    """Generate a globular protein-like receptor with exactly ``n_atoms``.

    The construction: a confined Cα random walk defines residue centres at
    protein density; each residue contributes a cluster of heavy atoms placed
    at covalent-ish distances around its centre; element identities follow
    protein composition; small partial charges are assigned with net charge
    ~0 (side-chain charge pattern).

    Parameters
    ----------
    n_atoms:
        Exact number of atoms in the result.
    seed:
        Deterministic generation seed.
    title:
        Stored in :attr:`Molecule.title`.
    """
    if n_atoms < _ATOMS_PER_RESIDUE:
        raise MoleculeError(
            f"receptor needs at least {_ATOMS_PER_RESIDUE} atoms, got {n_atoms}"
        )
    rng = default_rng(seed)
    n_residues = max(1, n_atoms // _ATOMS_PER_RESIDUE)
    globule_radius = (3.0 * n_atoms * _VOLUME_PER_ATOM / (4.0 * np.pi)) ** (1.0 / 3.0)
    centers = _confined_walk(rng, n_residues, globule_radius)

    # Distribute atoms over residues: base count + remainder spread over the
    # first residues, so the total is exactly n_atoms.
    base = n_atoms // n_residues
    extra = n_atoms % n_residues
    counts = np.full(n_residues, base, dtype=np.int64)
    counts[:extra] += 1

    coords = np.empty((n_atoms, 3), dtype=FLOAT_DTYPE)
    residue_indices = np.empty(n_atoms, dtype=np.int64)
    residues: list[str] = []
    cursor = 0
    residue_choices = rng.choice(len(_RESIDUE_NAMES), size=n_residues)
    for r in range(n_residues):
        k = int(counts[r])
        # First atom of the residue sits on the trace (the "Cα"); the rest
        # scatter at 1.5 Å shells around it (bonded side-chain geometry).
        offsets = rng.normal(size=(k, 3))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        shell = 1.5 * np.sqrt(rng.random((k, 1))) * 2.0  # 0..3 Å, crowded near centre
        offsets *= shell
        offsets[0] = 0.0
        coords[cursor : cursor + k] = centers[r] + offsets
        residue_indices[cursor : cursor + k] = r + 1
        residues.extend([_RESIDUE_NAMES[residue_choices[r]]] * k)
        cursor += k

    elements = _sample_elements(rng, n_atoms, PROTEIN_HEAVY_COMPOSITION)
    # Charges: polar atoms (N, O) carry partial charges, carbons near zero.
    charges = np.zeros(n_atoms, dtype=FLOAT_DTYPE)
    for i, sym in enumerate(elements):
        if sym == "N":
            charges[i] = rng.normal(0.25, 0.1)
        elif sym == "O":
            charges[i] = rng.normal(-0.35, 0.1)
        elif sym == "S":
            charges[i] = rng.normal(-0.1, 0.05)
        else:
            charges[i] = rng.normal(0.02, 0.05)
    charges -= charges.mean()  # enforce neutrality

    names = [f"{sym}{i % 100}" for i, sym in enumerate(elements)]
    receptor = Receptor(
        coords=coords,
        elements=elements,
        charges=charges,
        names=names,
        residues=residues,
        residue_indices=residue_indices,
        title=title,
    )
    return receptor.centered()


def generate_ligand(
    n_atoms: int,
    seed: int | None = None,
    title: str = "synthetic ligand",
) -> Ligand:
    """Generate a connected drug-like ligand with exactly ``n_atoms``.

    Atoms are grown one at a time: each new atom bonds to a random existing
    atom at the sum of covalent radii, rejecting placements that clash with
    atoms it is not bonded to. The result is a connected molecular graph with
    realistic bond lengths, centred at the origin (the pose convention of
    :func:`repro.molecules.transforms.apply_pose`).
    """
    if n_atoms < 1:
        raise MoleculeError(f"ligand needs at least one atom, got {n_atoms}")
    rng = default_rng(seed)
    elements = _sample_elements(rng, n_atoms, LIGAND_HEAVY_COMPOSITION)
    radii = [get_element(s).covalent_radius for s in elements]
    placed = [(0.0, 0.0, 0.0)]

    # Ligand generation is most of a library-ingest pass, and an attempt
    # tests at most 63 atoms, so the placement and clash test run on Python
    # floats and stop at the first clash. Stored campaigns key on these
    # bytes, and tests/molecules/test_synthetic.py holds the array form as
    # the bitwise reference. The scalar form matches it bit for bit: IEEE-754
    # rounds each ``-``, ``*`` and ``/`` correctly in either form, the array
    # form's row sum (``np.add.reduce`` over a 3-wide row) adds left to
    # right as ``(dx*dx + dy*dy) + dz*dz`` does, ``math.sqrt`` and
    # ``np.sqrt`` are both correctly rounded, and which clash is found first
    # does not change the accept decision. The dot product of the direction
    # stays in NumPy: BLAS ``ddot`` may fuse multiply-adds, which Python
    # floats cannot reproduce. The RNG draws keep their order and shapes,
    # one ``integers`` and one ``normal(size=3)`` per attempt.
    for i in range(1, n_atoms):
        radius = radii[i]
        limits = [r + radius + 0.5 for r in radii[:i]]
        for _ in range(64):
            parent = int(rng.integers(0, i))
            bond = radius + radii[parent]
            direction = rng.normal(size=3)
            norm = math.sqrt(direction.dot(direction))
            ux, uy, uz = direction.tolist()
            px, py, pz = placed[parent]
            x = px + bond * (ux / norm)
            y = py + bond * (uy / norm)
            z = pz + bond * (uz / norm)
            # Keep the bond graph a tree: the new atom must bond *only* to
            # its parent. Reject placements within geometric bonding range
            # (covalent sum + tolerance) of any other atom — that is what
            # gives the generated molecules drug-like topology (n−1 bonds,
            # several rotatable bonds) instead of fused clusters.
            for j, (qx, qy, qz) in enumerate(placed):
                if j == parent:
                    continue  # the bonded parent is allowed to be close
                dx = qx - x
                dy = qy - y
                dz = qz - z
                if not math.sqrt(dx * dx + dy * dy + dz * dz) >= limits[j]:
                    break
            else:
                break
        # When no clash-free placement is found within the attempt budget,
        # the last candidate is accepted: one extra contact does not break
        # the LJ landscape and connectivity is preserved either way.
        placed.append((x, y, z))
    coords = np.array(placed, dtype=FLOAT_DTYPE)

    charges = rng.normal(0.0, 0.15, size=n_atoms).astype(FLOAT_DTYPE)
    charges -= charges.mean()
    names = [f"{sym}{i + 1}" for i, sym in enumerate(elements)]
    ligand = Ligand(
        coords=coords,
        elements=elements,
        charges=charges,
        names=names,
        residues=["LIG"] * n_atoms,
        residue_indices=np.ones(n_atoms, dtype=np.int64),
        title=title,
    )
    return ligand.centered()


def generate_receptor_with_pocket(
    n_atoms: int,
    pocket_radius: float = 6.0,
    seed: int | None = None,
    title: str = "synthetic receptor with pocket",
) -> tuple[Receptor, np.ndarray]:
    """Generate a receptor with a concave surface *pocket* — a known
    binding site for validating blind whole-surface screening.

    BINDSURF's premise (§2.1) is that screening the entire surface finds
    binding sites no one specified. A testable version of that claim needs
    ground truth: this generator carves a hemispherical cavity into the
    globule's surface. A ligand nestled in the cavity touches receptor
    atoms on most sides, so its Lennard-Jones well is substantially deeper
    than at any convex surface spot — the screening engine should rank the
    pocket first without being told where it is.

    The construction over-generates atoms, removes everything inside the
    pocket sphere, and trims the farthest leftovers so the final count is
    exactly ``n_atoms``.

    Returns
    -------
    (Receptor, numpy.ndarray)
        The receptor (centred) and the pocket-mouth position ``(3,)`` in
        the returned receptor's coordinates.
    """
    if n_atoms < 4 * _ATOMS_PER_RESIDUE:
        raise MoleculeError(
            f"pocket receptors need at least {4 * _ATOMS_PER_RESIDUE} atoms"
        )
    if pocket_radius <= 0:
        raise MoleculeError(f"pocket_radius must be positive, got {pocket_radius}")
    rng = default_rng(seed)

    # Over-generate: the pocket removes roughly its sphere's share of atoms.
    globule_radius = (3.0 * n_atoms * _VOLUME_PER_ATOM / (4.0 * np.pi)) ** (1.0 / 3.0)
    if pocket_radius >= 0.9 * globule_radius:
        raise MoleculeError(
            f"pocket_radius {pocket_radius} does not fit a {n_atoms}-atom "
            f"globule (radius ~{globule_radius:.1f} A); lower pocket_radius"
        )
    overhead = 1.0 + 1.5 * (pocket_radius / globule_radius) ** 3 + 0.15
    base = generate_receptor(
        int(np.ceil(n_atoms * overhead)),
        seed=int(rng.integers(0, 2**31 - 1)),
        title=title,
    )

    # Pocket centre: on the surface shell, along a random direction.
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius_now = base.max_radius()
    center = direction * (radius_now - 0.55 * pocket_radius)

    d_pocket = np.linalg.norm(base.coords - center, axis=1)
    keep = d_pocket > pocket_radius
    if keep.sum() < n_atoms:
        raise MoleculeError(
            "pocket carving removed too many atoms; lower pocket_radius"
        )
    # Trim the farthest-from-centroid leftovers down to the exact count,
    # preserving the pocket walls (closest to the pocket are kept).
    kept_idx = np.flatnonzero(keep)
    order = np.argsort(d_pocket[kept_idx])  # pocket-wall atoms first
    final_idx = np.sort(kept_idx[order[:n_atoms]])

    receptor = Receptor(
        coords=base.coords[final_idx],
        elements=[str(e) for e in base.elements[final_idx]],
        charges=base.charges[final_idx],
        names=[str(n) for n in base.names[final_idx]],
        residues=[str(r) for r in base.residues[final_idx]],
        residue_indices=base.residue_indices[final_idx],
        title=title,
    )
    shift = receptor.centroid()
    return receptor.centered(), center - shift


def generate_bound_complex(
    n_atoms: int,
    ligand: Ligand,
    seed: int | None = None,
    clearance: float = 3.9,
    burial: float = 0.25,
    title: str = "synthetic co-crystal receptor",
) -> tuple[Receptor, np.ndarray, np.ndarray]:
    """Generate a receptor with a binding site *molded around a ligand pose*
    — a synthetic co-crystal for re-docking experiments.

    The classic docking validation is re-docking: take a complex of known
    geometry, strip the ligand, and ask the engine to recover a pose at
    least as good. This generator manufactures the ground truth: a globule
    is over-generated, the ligand is placed partially buried at the
    surface in a random orientation, every receptor atom closer than
    ``clearance`` (≈ the LJ contact distance) to any ligand atom is
    removed, and the structure is trimmed (farthest-from-site first) to
    exactly ``n_atoms``. The molded cavity's walls start right at van der
    Waals contact, so the reference pose is well-bound by construction.

    Returns
    -------
    (Receptor, numpy.ndarray, numpy.ndarray)
        The receptor (centred), the reference ligand-centroid position
        ``(3,)`` and the reference orientation quaternion ``(4,)``, both in
        the returned receptor's frame.
    """
    if n_atoms < 8 * _ATOMS_PER_RESIDUE:
        raise MoleculeError(
            f"bound complexes need at least {8 * _ATOMS_PER_RESIDUE} atoms"
        )
    if clearance <= 0:
        raise MoleculeError(f"clearance must be positive, got {clearance}")
    if not 0.0 <= burial <= 1.0:
        raise MoleculeError(f"burial must be in [0, 1], got {burial}")
    from repro.molecules.transforms import random_quaternion, rotate_points

    rng = default_rng(seed)
    base = generate_receptor(
        int(np.ceil(n_atoms * 1.15)),
        seed=int(rng.integers(0, 2**31 - 1)),
        title=title,
    )
    lig_centred = ligand.coords - ligand.coords.mean(axis=0)
    orientation = random_quaternion(rng)
    lig_rotated = rotate_points(lig_centred, orientation)

    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    lig_radius = float(np.linalg.norm(lig_rotated, axis=1).max())
    site_center = direction * (base.max_radius() - burial * lig_radius - 3.0)
    placed = lig_rotated + site_center

    # Distance of every receptor atom to its nearest ligand atom.
    d = np.linalg.norm(
        base.coords[:, None, :] - placed[None, :, :], axis=2
    ).min(axis=1)
    kept = np.flatnonzero(d > clearance)
    if kept.size < n_atoms:
        raise MoleculeError(
            "site carving removed too many atoms; reduce clearance or burial"
        )
    order = np.argsort(d[kept])  # site walls first — trimming spares them
    final = np.sort(kept[order[:n_atoms]])

    receptor = Receptor(
        coords=base.coords[final],
        elements=[str(e) for e in base.elements[final]],
        charges=base.charges[final],
        names=[str(n) for n in base.names[final]],
        residues=[str(r) for r in base.residues[final]],
        residue_indices=base.residue_indices[final],
        title=title,
    )
    shift = receptor.centroid()
    return receptor.centered(), site_center - shift, orientation
