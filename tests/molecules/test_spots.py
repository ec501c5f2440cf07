"""Spot-extraction tests."""

import numpy as np
import pytest

from repro.errors import MoleculeError
from repro.molecules.spots import DEFAULT_STANDOFF, farthest_point_sample, find_spots
from repro.molecules.surface import surface_mask
from repro.molecules.synthetic import generate_receptor


def test_find_spots_count_and_indices():
    r = generate_receptor(600, seed=1)
    spots = find_spots(r, 8)
    assert len(spots) == 8
    assert [s.index for s in spots] == list(range(8))


def test_spot_normals_are_unit_and_outward():
    r = generate_receptor(600, seed=2)
    centroid = r.centroid()
    for spot in find_spots(r, 6):
        assert np.linalg.norm(spot.normal) == pytest.approx(1.0)
        anchor = r.coords[spot.anchor_atom]
        # normal points from centroid through the anchor
        assert np.dot(spot.normal, anchor - centroid) > 0


def test_spot_centers_offset_outward_from_anchor():
    r = generate_receptor(600, seed=3)
    for spot in find_spots(r, 4):
        anchor = r.coords[spot.anchor_atom]
        np.testing.assert_allclose(
            spot.center, anchor + DEFAULT_STANDOFF * spot.normal, atol=1e-9
        )


def test_spot_anchors_are_surface_atoms():
    r = generate_receptor(800, seed=4)
    mask = surface_mask(r)
    for spot in find_spots(r, 10):
        assert mask[spot.anchor_atom]


def test_spots_are_well_separated():
    """Farthest-point sampling spreads spots across the surface."""
    r = generate_receptor(1200, seed=5)
    spots = find_spots(r, 8)
    centers = np.stack([s.center for s in spots])
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    # minimum pairwise separation should be several Å on a globule this size
    assert d.min() > 4.0


def test_anchor_element_fallback():
    """When the anchor element is rare, all surface atoms become anchors."""
    r = generate_receptor(400, seed=6)
    spots = find_spots(r, 5, anchor_element="I")  # no iodine in proteins
    assert len(spots) == 5


def test_validation():
    r = generate_receptor(200, seed=7)
    with pytest.raises(MoleculeError):
        find_spots(r, 0)
    with pytest.raises(MoleculeError):
        find_spots(r, 4, search_radius=-1.0)
    with pytest.raises(MoleculeError):
        find_spots(r, 10**6)  # more spots than surface atoms


def test_farthest_point_sample_properties(rng):
    pts = rng.normal(size=(50, 3))
    idx = farthest_point_sample(pts, 10)
    assert len(set(idx.tolist())) == 10
    assert idx[0] == 0  # default start
    with pytest.raises(MoleculeError):
        farthest_point_sample(pts, 51)


def test_farthest_point_sample_is_deterministic(rng):
    pts = rng.normal(size=(30, 3))
    a = farthest_point_sample(pts, 7)
    b = farthest_point_sample(pts, 7)
    np.testing.assert_array_equal(a, b)


def test_spots_on_the_perf_ledger_receptor_are_pinned():
    """Anchors and centres captured while ``surface_mask`` counted with
    ``scipy.spatial.cKDTree``: the neighbour search must not move a spot."""
    spots = find_spots(generate_receptor(1500, seed=7), 8)
    assert [s.anchor_atom for s in spots] == [0, 920, 191, 1261, 1480, 1440, 1195, 816]
    centres = np.stack([s.center for s in spots])
    assert centres.tobytes().hex() == (
        "fdcfd1203bed1d4064f15e94a9af1840667fe542b86a06402e03998db31023c0"
        "1dbc8a72cbc323c0bad71fbe1043ef3f85179bdb756317c0b9b1b6d68f662940"
        "b69c8c4db5a425c025717911d4aaf43f9a8255bbf78d27408cd25db8bcbb3240"
        "22b1c67918e42140c8b457170ee82cc08a1f0ffa306c0240cdd2904147433440"
        "c837a8bfe45ec0bf5cb7e6b6c4491e40277b1e5ce4e325c08067517f09842340"
        "a6d60cca285b13405f2e7812d11ef5bfd6169b97f182efbfd3c2d714d58c2dc0"
    )
