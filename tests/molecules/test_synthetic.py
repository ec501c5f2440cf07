"""Tests for the synthetic structure generators (the Table 5 stand-ins)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import FLOAT_DTYPE, default_rng
from repro.errors import MoleculeError
from repro.molecules.elements import get_element
from repro.molecules.structures import Ligand
from repro.molecules.synthetic import (
    LIGAND_HEAVY_COMPOSITION,
    PROTEIN_HEAVY_COMPOSITION,
    _sample_elements,
    generate_ligand,
    generate_receptor,
)


def test_receptor_exact_atom_count():
    for n in (64, 300, 3264):
        assert generate_receptor(n, seed=1).n_atoms == n


def test_ligand_exact_atom_count():
    for n in (1, 18, 45):
        assert generate_ligand(n, seed=1).n_atoms == n


def test_generation_is_deterministic():
    a = generate_receptor(200, seed=42)
    b = generate_receptor(200, seed=42)
    np.testing.assert_array_equal(a.coords, b.coords)
    assert list(a.elements) == list(b.elements)
    c = generate_receptor(200, seed=43)
    assert not np.allclose(a.coords, c.coords)


def test_receptor_rejects_tiny_sizes():
    with pytest.raises(MoleculeError):
        generate_receptor(3)
    with pytest.raises(MoleculeError):
        generate_ligand(0)


def test_receptor_is_centered_and_compact():
    r = generate_receptor(500, seed=2)
    np.testing.assert_allclose(r.centroid(), 0.0, atol=1e-9)
    # Packing density: the bounding sphere should be close to the target
    # globule radius for protein density (~10 Å³/atom), not dispersed.
    target_radius = (3 * 500 * 10.0 / (4 * np.pi)) ** (1 / 3)
    assert r.max_radius() < 2.5 * target_radius


def test_receptor_composition_close_to_protein_statistics():
    r = generate_receptor(3000, seed=3)
    counts = r.element_counts()
    for sym, frac in PROTEIN_HEAVY_COMPOSITION.items():
        observed = counts.get(sym, 0) / r.n_atoms
        assert observed == pytest.approx(frac, abs=0.05)


def test_receptor_charges_are_neutral_overall():
    r = generate_receptor(800, seed=4)
    assert abs(r.charges.sum()) < 1e-9
    assert r.charges.std() > 0.01  # but individually non-trivial


def test_receptor_has_residue_structure():
    r = generate_receptor(160, seed=5)
    assert len(set(r.residue_indices)) == 160 // 8
    assert all(res != "UNK" for res in r.residues)


def test_ligand_is_connected_graph():
    """Every atom must be within covalent bonding distance of some other."""
    lig = generate_ligand(30, seed=6)
    radii = np.array([get_element(str(e)).covalent_radius for e in lig.elements])
    d = np.linalg.norm(lig.coords[:, None] - lig.coords[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    bond_limit = radii[:, None] + radii[None, :] + 0.45
    adjacency = d <= bond_limit
    # BFS from atom 0 must reach everything.
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.flatnonzero(adjacency[i]):
                if j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    assert len(seen) == lig.n_atoms


def test_ligand_composition_is_drug_like():
    lig = generate_ligand(200, seed=7)  # generate via Molecule? 200 > 256 guard no
    counts = lig.element_counts()
    carbon_fraction = counts.get("C", 0) / lig.n_atoms
    assert carbon_fraction == pytest.approx(
        LIGAND_HEAVY_COMPOSITION["C"], abs=0.12
    )


def test_ligand_centered():
    lig = generate_ligand(25, seed=8)
    np.testing.assert_allclose(lig.coords.mean(axis=0), 0.0, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(8, 400), seed=st.integers(0, 2**31 - 1))
def test_receptor_generation_never_produces_invalid_structures(n, seed):
    r = generate_receptor(n, seed=seed)
    assert r.n_atoms == n
    assert np.all(np.isfinite(r.coords))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**31 - 1))
def test_ligand_generation_never_produces_invalid_structures(n, seed):
    lig = generate_ligand(n, seed=seed)
    assert lig.n_atoms == n
    assert np.all(np.isfinite(lig.coords))


def _generate_ligand_reference(n_atoms, seed, title="synthetic ligand"):
    """``generate_ligand`` as it stood before its attempt loop called the
    ufuncs directly — frozen here as the bitwise reference."""
    rng = default_rng(seed)
    elements = _sample_elements(rng, n_atoms, LIGAND_HEAVY_COMPOSITION)
    coords = np.zeros((n_atoms, 3), dtype=FLOAT_DTYPE)
    radii = np.array([get_element(s).covalent_radius for s in elements])
    for i in range(1, n_atoms):
        for _ in range(64):
            parent = int(rng.integers(0, i))
            bond = radii[i] + radii[parent]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            candidate = coords[parent] + bond * direction
            d = np.linalg.norm(coords[:i] - candidate, axis=1)
            limits = radii[:i] + radii[i] + 0.5
            d[parent] = np.inf
            if np.all(d >= limits):
                break
        coords[i] = candidate
    charges = rng.normal(0.0, 0.15, size=n_atoms).astype(FLOAT_DTYPE)
    charges -= charges.mean()
    return Ligand(
        coords=coords,
        elements=elements,
        charges=charges,
        names=[f"{sym}{i + 1}" for i, sym in enumerate(elements)],
        residues=["LIG"] * n_atoms,
        residue_indices=np.ones(n_atoms, dtype=np.int64),
        title=title,
    ).centered()


def _library_cases(tmp_path, monkeypatch):
    """``(n_atoms, seed)`` of each ligand the library sources build, as they
    pass them: a line's seed is a 64-bit content digest."""
    from repro.campaign import library

    cases = []
    real = library.generate_ligand

    def spy(n_atoms, seed, title):
        cases.append((n_atoms, seed))
        return real(n_atoms, seed=seed, title=title)

    monkeypatch.setattr(library, "generate_ligand", spy)
    rng = random.Random(26)
    lines = [
        ("".join(rng.choice("CCCCCNNOOS") for _ in range(rng.randint(4, 30))), f"Z{k:04d}")
        for k in range(300)
    ]
    # atoms_range (4, 64) clamps both ends: 2 heavy atoms -> 4, 70 -> 64.
    lines += [("CO", "two"), ("C" * 70, "seventy")]
    smi = tmp_path / "lib.smi"
    smi.write_text("".join(f"{smiles} {title}\n" for smiles, title in lines))
    list(library.SmilesSource(smi, seed=7))
    csv = tmp_path / "lib.csv"
    csv.write_text("smiles,title\n" + "".join(f"{s},{t}\n" for s, t in lines[:12]))
    list(library.CsvSource(csv, seed=8))
    synthetic = library.SyntheticSource(400, seed=5)
    for ordinal in (0, 1, 199, 399):
        synthetic.ligand_at(ordinal)
    assert cases[300:302] == [(4, cases[300][1]), (64, cases[301][1])]
    return cases


def test_generate_ligand_is_bitwise_the_reference(tmp_path, monkeypatch):
    # Every ligand of every stored campaign is keyed by these bytes.
    cases = [(n, seed) for n in (1, 2, 3) for seed in range(20)]
    cases += [(4 + k % 61, 1000 + k) for k in range(1800)]
    # The perf ledger's dock libraries: generate_ligand(atoms, seed * 100003 + i).
    cases += [
        (atoms, seed * 100003 + i)
        for seed in (7, 8, 11)
        for i, atoms in enumerate((16, 18, 20, 22, 26, 28, 30, 32) * 8)
    ]
    cases += _library_cases(tmp_path, monkeypatch)
    assert len(cases) >= 2300 and max(seed for _, seed in cases) >= 2**60
    for n_atoms, seed in cases:
        got = generate_ligand(n_atoms, seed=seed, title="T")
        want = _generate_ligand_reference(n_atoms, seed, title="T")
        assert got.coords.tobytes() == want.coords.tobytes(), (n_atoms, seed)
        assert got.charges.tobytes() == want.charges.tobytes(), (n_atoms, seed)
        assert list(got.elements) == list(want.elements), (n_atoms, seed)
