"""Neighbour-search tests: its contract, its footprint and the work it does.

Agreement with ``scipy.spatial.cKDTree`` is checked where the search is
used (``test_surface.py``, ``test_topology.py``); here are the properties
that need no oracle, and the two guards that keep the search cheap.
"""

import tracemalloc

import numpy as np
import pytest

from repro.molecules import neighbors
from repro.molecules.neighbors import neighbor_counts, neighbor_pairs
from repro.molecules.synthetic import generate_ligand, generate_receptor


def _all_pairs_counts(coords, radius):
    """The definition, without the slabs or the blocks."""
    d = coords[:, None, :] - coords[None, :, :]
    d2 = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    return (d2 <= radius * radius).sum(axis=1) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
def test_counts_equal_the_all_pairs_definition(n):
    generate = generate_ligand if n < 8 else generate_receptor
    coords = np.round(generate(n, seed=n).coords, 1)
    for radius in (1.0, 4.0, 6.0, 1e3):
        assert np.array_equal(
            neighbor_counts(coords, radius), _all_pairs_counts(coords, radius)
        )


def test_pairs_are_lexicographic_and_agree_with_counts():
    coords = generate_receptor(300, seed=1).coords
    pairs = neighbor_pairs(coords, 5.0)
    assert pairs.dtype.kind == "i" and pairs.shape[1] == 2
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert pairs.tolist() == sorted(map(list, set(map(tuple, pairs.tolist()))))
    per_atom = np.bincount(pairs.ravel(), minlength=300)
    assert np.array_equal(per_atom, neighbor_counts(coords, 5.0))


def test_no_pairs_is_an_empty_two_column_array():
    assert neighbor_pairs(np.zeros((1, 3)), 2.0).shape == (0, 2)
    apart = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
    assert neighbor_pairs(apart, 2.0).shape == (0, 2)
    assert neighbor_counts(apart, 2.0).tolist() == [0, 0, 0]


def test_a_slab_wider_than_the_budget_is_still_searched(monkeypatch):
    # Every atom shares one x: a single row's slab is the whole molecule.
    monkeypatch.setattr(neighbors, "BLOCK_BUDGET_BYTES", 64)
    coords = np.zeros((40, 3))
    coords[:, 1] = np.arange(40)
    assert np.array_equal(neighbor_counts(coords, 2.0), _all_pairs_counts(coords, 2.0))
    assert len(neighbor_pairs(coords, 2.0)) == 39 + 38


@pytest.mark.parametrize("n_atoms, ceiling_mib", [(1500, 2), (12000, 4)])
def test_search_stays_under_its_memory_ceiling(n_atoms, ceiling_mib):
    """Blocks are sized by bytes: 256-row blocks once made this search, not
    the scoring kernel, the peak of the whole docking process."""
    coords = generate_receptor(n_atoms, seed=7).coords
    tracemalloc.start()
    try:
        neighbor_counts(coords, 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mib * 2**20


def test_slabs_prune_most_of_the_all_pairs_work():
    n = 12000
    coords = generate_receptor(n, seed=7).coords
    compared = 0
    for _, _, within in neighbors._blocks(coords, 6.0):
        assert within.size * neighbors._BYTES_PER_PAIR <= neighbors.BLOCK_BUDGET_BYTES
        compared += within.size
    assert compared < 0.35 * n * n
