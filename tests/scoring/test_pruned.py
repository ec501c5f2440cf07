"""Tests for per-spot receptor pruning (repro.scoring.pruned).

The contract under test: pruning the cutoff scorer is *bitwise* exact, and
pruning the dense scorer stays within the reported tail bound — while the
accounting (`flops_per_pose`, pair stats) keeps the modelled kernel honest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScoringError
from repro.metaheuristics.evaluation import SerialEvaluator
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.scoring.lennard_jones import LennardJonesScoring
from repro.scoring.pruned import (
    BoundSpotPruned,
    SpotPrunedScoring,
    prune_bound,
    spot_prune_indices,
)


def _spot_batch(spots, rng, per_spot=6):
    """In-box poses: each spot contributes ``per_spot`` clipped translations."""
    from repro.molecules.transforms import random_quaternion

    spot_ids, translations = [], []
    for s in spots:
        t = s.center + rng.uniform(-s.radius, s.radius, size=(per_spot, 3))
        translations.append(t)
        spot_ids.extend([s.index] * per_spot)
    translations = np.concatenate(translations)
    quaternions = random_quaternion(rng, translations.shape[0])
    return np.asarray(spot_ids, dtype=np.int64), translations, quaternions


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pruned_cutoff_is_bitwise_exact(receptor, ligand, spots, rng, dtype):
    plain = CutoffLennardJonesScoring(dtype=dtype).bind(receptor, ligand)
    pruned = prune_bound(CutoffLennardJonesScoring(dtype=dtype).bind(receptor, ligand), spots)
    spot_ids, t, q = _spot_batch(spots, rng)
    expected = plain.score(t, q)
    got = pruned.score_spots(spot_ids, t, q)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_pruned_cutoff_bitwise_under_permutation(receptor, ligand, spots, rng):
    scorer = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    spot_ids, t, q = _spot_batch(spots, rng)
    baseline = scorer.score_spots(spot_ids, t, q)
    perm = rng.permutation(spot_ids.size)
    permuted = scorer.score_spots(spot_ids[perm], t[perm], q[perm])
    assert np.array_equal(permuted, baseline[perm])


def test_pruned_dense_within_reported_bound(receptor, ligand, spots, rng):
    dense = LennardJonesScoring().bind(receptor, ligand)
    pruned = prune_bound(LennardJonesScoring().bind(receptor, ligand), spots)
    spot_ids, t, q = _spot_batch(spots, rng)
    exact = dense.score(t, q)
    approx = pruned.score_spots(spot_ids, t, q)
    for spot in np.unique(spot_ids):
        rows = spot_ids == spot
        err = np.abs(approx[rows] - exact[rows]).max()
        assert err <= pruned.error_bounds[int(spot)] + 1e-12
    # Cutoff mode reports an exact (zero) bound.
    exact_pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    assert all(b == 0.0 for b in exact_pruned.error_bounds.values())


def test_pair_stats_and_prune_ratio(receptor, ligand, spots, rng):
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    assert np.isnan(pruned.prune_ratio)  # nothing evaluated yet
    spot_ids, t, q = _spot_batch(spots, rng)
    pruned.score_spots(spot_ids, t, q)
    n_dense = spot_ids.size * receptor.n_atoms * ligand.n_atoms
    assert pruned.pairs_dense == n_dense
    assert 0 < pruned.pairs_evaluated <= n_dense
    assert pruned.prune_ratio >= 1.0
    pruned.reset_pair_stats()
    assert pruned.pairs_dense == 0 and pruned.pairs_evaluated == 0


def test_pruned_never_touches_more_pairs_than_the_default_path(dock_shape, rng):
    """On the ledger's dock shape (1,500 x 24 atoms, 8 spots x 6 poses) the
    pruned gathers are the default tile gathers restricted to the spot
    subsets: same bits, and never more pairs."""
    receptor, ligand, spots = dock_shape
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    spot_ids, t, q = _spot_batch(spots, rng)
    default_pairs = 0
    score_gathered = plain._score_gathered

    def counting(posed, idx):
        nonlocal default_pairs
        default_pairs += posed.shape[0] * posed.shape[1] * idx.size
        return score_gathered(posed, idx)

    plain._score_gathered = counting
    expected = plain.score_spots(spot_ids, t, q)
    assert np.array_equal(pruned.score_spots(spot_ids, t, q), expected)
    assert 0 < pruned.pairs_evaluated <= default_pairs < pruned.pairs_dense


def test_flops_per_pose_stays_full_dense(receptor, ligand, spots):
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    inner = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    assert pruned.flops_per_pose == inner.flops_per_pose
    assert pruned.n_pairs == receptor.n_atoms * ligand.n_atoms


def test_out_of_box_poses_fall_back_bitwise(receptor, ligand, spots, rng):
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    from repro.molecules.transforms import random_quaternion

    s = spots[0]
    # Far outside the spot's search box: the wrapper must route these through
    # the unpruned inner scorer, bitwise.
    t = s.center + np.array([[s.radius * 50, 0.0, 0.0], [0.0, s.radius * 80, 0.0]])
    q = random_quaternion(rng, 2)
    got = pruned.score_spots(np.full(2, s.index), t, q)
    assert np.array_equal(got, plain.score(t, q))


def test_unknown_spot_id_falls_back(receptor, ligand, spots, rng):
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    from repro.molecules.transforms import random_quaternion

    t = spots[0].center + rng.normal(scale=1.0, size=(3, 3))
    q = random_quaternion(rng, 3)
    got = pruned.score_spots(np.full(3, 999_999), t, q)
    assert np.array_equal(got, plain.score(t, q))


def test_plain_score_delegates_to_inner(receptor, ligand, spots, pose_batch):
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    t, q = pose_batch
    assert np.array_equal(pruned.score(t, q), plain.score(t, q))


def test_prune_cutoff_below_scoring_cutoff_raises(receptor, ligand, spots):
    inner = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    with pytest.raises(ScoringError, match="prune_cutoff"):
        prune_bound(inner, spots, prune_cutoff=inner.cutoff / 2)


def test_unsupported_inner_scorer_raises(receptor, ligand, spots):
    from repro.scoring.coulomb import CoulombScoring

    with pytest.raises(ScoringError, match="spot pruning supports"):
        prune_bound(CoulombScoring().bind(receptor, ligand), spots)


def test_needs_at_least_one_spot(receptor, ligand):
    inner = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    with pytest.raises(ScoringError, match="at least one spot"):
        prune_bound(inner, [])


def test_spot_prune_indices_validation(receptor, spots):
    with pytest.raises(ScoringError, match="must be"):
        spot_prune_indices(np.zeros((4, 2)), spots, 5.0)
    with pytest.raises(ScoringError, match="non-negative"):
        spot_prune_indices(receptor.coords, spots, -1.0)


def test_spot_prune_indices_subsets_shrink(receptor, spots):
    tight = spot_prune_indices(receptor.coords, spots, 2.0)
    loose = spot_prune_indices(receptor.coords, spots, 1e6)
    for s in spots:
        assert tight[s.index].size <= loose[s.index].size
        assert loose[s.index].size == receptor.n_atoms
        assert np.all(np.diff(tight[s.index]) > 0)  # sorted, unique


def test_serial_evaluator_dispatches_to_score_spots(receptor, ligand, spots, rng):
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pruned = prune_bound(
        CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand), spots
    )
    spot_ids, t, q = _spot_batch(spots, rng)
    scores = SerialEvaluator(pruned).evaluate(spot_ids, t, q)
    assert np.array_equal(scores, plain.score(t, q))
    assert pruned.pairs_evaluated < pruned.pairs_dense  # pruning actually ran


def test_spot_pruned_scoring_factory(receptor, ligand, spots, rng):
    bound = SpotPrunedScoring(spots).bind(receptor, ligand)
    assert isinstance(bound, BoundSpotPruned)
    assert bound.mode == "cutoff"
    spot_ids, t, q = _spot_batch(spots, rng, per_spot=2)
    plain = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    assert np.array_equal(bound.score_spots(spot_ids, t, q), plain.score(t, q))
