"""Surface-detection tests."""

import platform

import numpy as np
import pytest

from repro.errors import MoleculeError
from repro.molecules.neighbors import neighbor_counts
from repro.molecules.structures import Molecule
from repro.molecules.surface import surface_atoms, surface_fraction, surface_mask
from repro.molecules.synthetic import generate_receptor


def test_surface_fraction_in_plausible_band():
    r = generate_receptor(2000, seed=1)
    frac = surface_fraction(r)
    assert 0.15 < frac < 0.75


def test_outermost_atoms_are_surface():
    r = generate_receptor(1500, seed=2)
    mask = surface_mask(r)
    radii = np.linalg.norm(r.coords - r.centroid(), axis=1)
    outer10 = np.argsort(radii)[-10:]
    assert mask[outer10].all()


def test_innermost_atoms_are_buried():
    r = generate_receptor(1500, seed=3)
    mask = surface_mask(r)
    radii = np.linalg.norm(r.coords - r.centroid(), axis=1)
    inner10 = np.argsort(radii)[:10]
    assert not mask[inner10].any()


def test_tiny_molecule_everything_is_surface():
    m = Molecule(coords=np.eye(3) * 2.0, elements=["C", "C", "C"])
    assert surface_mask(m).all()


def test_absolute_threshold_override():
    r = generate_receptor(400, seed=4)
    none_buried = surface_mask(r, neighbor_threshold=10**6)
    assert none_buried.all()
    all_buried = surface_mask(r, neighbor_threshold=1)
    assert not all_buried.any() or all_buried.mean() < 0.2


def test_surface_atoms_returns_sorted_indices():
    r = generate_receptor(300, seed=5)
    idx = surface_atoms(r)
    assert np.all(np.diff(idx) > 0)
    assert surface_mask(r)[idx].all()


def test_parameter_validation():
    r = generate_receptor(100, seed=6)
    with pytest.raises(MoleculeError):
        surface_mask(r, probe_radius=-1.0)
    with pytest.raises(MoleculeError):
        surface_mask(r, neighbor_threshold=0)
    with pytest.raises(MoleculeError):
        surface_mask(r, threshold_fraction=0.0)


def test_surface_fraction_shrinks_with_size():
    """Bigger globules have proportionally less surface (area/volume)."""
    small = surface_fraction(generate_receptor(300, seed=7))
    large = surface_fraction(generate_receptor(5000, seed=7))
    assert large < small + 0.1  # allow noise, but no large inversion


# ----------------------------------------------------------------------
# Oracle: the counts are what scipy.spatial.cKDTree used to return.
# ----------------------------------------------------------------------

#: Pairs at *exactly* the probe radius: SciPy decides them in compiled code,
#: which an FMA-contracting build rounds differently from NumPy's separate
#: multiply and add (the definition, see ``repro.molecules.neighbors``).
exact_ties = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"),
    reason="SciPy builds off x86_64 may contract the leaf test into an FMA "
    "and break exact ties differently; the NumPy expression is the definition",
)


def _kdtree_counts(coords, radius):
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    lengths = cKDTree(coords).query_ball_point(coords, radius, return_length=True)
    return np.asarray(lengths) - 1


@exact_ties
@pytest.mark.parametrize("decimals", [1, 2, 3])
def test_counts_match_kdtree_on_rounded_receptors(decimals):
    for n_atoms in (200, 1500, 3000):
        for seed in range(4):
            coords = np.round(generate_receptor(n_atoms, seed=seed).coords, decimals)
            for radius in (4.0, 6.0, 7.5, 8.0):
                assert np.array_equal(
                    neighbor_counts(coords, radius), _kdtree_counts(coords, radius)
                ), (n_atoms, seed, radius)


@exact_ties
@pytest.mark.parametrize("spacing, radius", [(0.5, 6.0), (1.5, 6.0), (2.0, 8.0), (0.75, 7.5)])
def test_counts_match_kdtree_on_a_lattice_whose_spacing_divides_the_radius(spacing, radius):
    axis = np.arange(int(radius / spacing) + 3) * spacing
    coords = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert radius in axis  # atoms at exactly the radius along every axis
    assert np.array_equal(neighbor_counts(coords, radius), _kdtree_counts(coords, radius))


def test_counts_match_kdtree_on_duplicates_and_tiny_inputs():
    base = generate_receptor(300, seed=11).coords
    doubled = np.concatenate([base, base[::3], base[:5]])
    assert np.array_equal(neighbor_counts(doubled, 6.0), _kdtree_counts(doubled, 6.0))
    for coords in (np.zeros((1, 3)), np.array([[0.0, 0, 0], [3.0, 4.0, 0]])):
        assert np.array_equal(neighbor_counts(coords, 6.0), _kdtree_counts(coords, 6.0))


def test_molecule_thinner_than_the_probe_is_all_surface():
    coords = np.zeros((40, 3))
    coords[:, 0] = np.arange(40) * 1.9
    rod = Molecule(coords=coords, elements=["C"] * 40)
    counts = neighbor_counts(rod.coords, 6.0)
    assert np.array_equal(counts, _kdtree_counts(rod.coords, 6.0))
    assert counts.max() == 6 and np.median(counts) < 8.0
    assert surface_mask(rod).all()


def test_unrounded_receptor_counts_match_kdtree():
    for seed in range(5):
        coords = generate_receptor(1000, seed=seed).coords
        assert np.array_equal(neighbor_counts(coords, 6.0), _kdtree_counts(coords, 6.0))
