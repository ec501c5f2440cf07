"""Cutoff scorer: exactness at large cutoff, ranking fidelity at 12 Å."""

import numpy as np
import pytest

from repro.errors import ScoringError
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.scoring.lennard_jones import LennardJonesScoring


def test_huge_cutoff_matches_dense_exactly(receptor, ligand, pose_batch):
    translations, quaternions = pose_batch
    dense = LennardJonesScoring().bind(receptor, ligand).score(translations, quaternions)
    cutoff = CutoffLennardJonesScoring(cutoff=1e5).bind(receptor, ligand).score(
        translations, quaternions
    )
    np.testing.assert_allclose(cutoff, dense, rtol=1e-9)


def test_default_cutoff_preserves_ranking(receptor, ligand, pose_batch):
    translations, quaternions = pose_batch
    dense = LennardJonesScoring().bind(receptor, ligand).score(translations, quaternions)
    fast = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand).score(
        translations, quaternions
    )
    assert int(np.argmin(fast)) == int(np.argmin(dense))
    # Spearman rank correlation must be near-perfect.
    rank_a = np.argsort(np.argsort(dense))
    rank_b = np.argsort(np.argsort(fast))
    corr = np.corrcoef(rank_a, rank_b)[0, 1]
    assert corr > 0.95


def test_cutoff_truncation_error_is_bounded_tail(receptor, ligand, pose_batch):
    """With a 12 Å cutoff the error equals the (attractive) LJ tail — small
    relative to well depths, and strictly reduces binding energy magnitude
    for non-clashed poses."""
    translations, quaternions = pose_batch
    dense = LennardJonesScoring().bind(receptor, ligand).score(translations, quaternions)
    cut = CutoffLennardJonesScoring().bind(receptor, ligand).score(
        translations, quaternions
    )
    good = dense < 1e3
    # Tail is attractive: removing it makes the score greater (less negative).
    assert np.all(cut[good] >= dense[good] - 1e-6)
    assert np.max(cut[good] - dense[good]) < 10.0


def test_chunking_consistency(receptor, ligand, pose_batch):
    """Cutoff zeroing makes results chunk-independent (to fp reduction)."""
    translations, quaternions = pose_batch
    a = CutoffLennardJonesScoring(chunk_size=2).bind(receptor, ligand).score(
        translations, quaternions
    )
    b = CutoffLennardJonesScoring(chunk_size=12).bind(receptor, ligand).score(
        translations, quaternions
    )
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_far_away_pose_scores_zero(receptor, ligand):
    scorer = CutoffLennardJonesScoring().bind(receptor, ligand)
    t = np.array([[1000.0, 1000.0, 1000.0]])
    q = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert scorer.score(t, q)[0] == 0.0


def test_float32_path_close_to_float64(receptor, ligand, pose_batch):
    translations, quaternions = pose_batch
    f64 = CutoffLennardJonesScoring(dtype=np.float64).bind(receptor, ligand).score(
        translations, quaternions
    )
    f32 = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand).score(
        translations, quaternions
    )
    good = np.abs(f64) < 1e3
    np.testing.assert_allclose(f32[good], f64[good], rtol=5e-2, atol=1e-2)


def test_parameter_validation(receptor, ligand):
    with pytest.raises(ScoringError):
        CutoffLennardJonesScoring(cutoff=-1.0).bind(receptor, ligand)
    with pytest.raises(ScoringError):
        CutoffLennardJonesScoring(dtype=np.int32).bind(receptor, ligand)


def test_flops_per_pose_models_full_sweep(receptor, ligand):
    """Host-side pruning must NOT change the modelled kernel cost."""
    cut = CutoffLennardJonesScoring().bind(receptor, ligand)
    dense = LennardJonesScoring().bind(receptor, ligand)
    assert cut.flops_per_pose == dense.flops_per_pose


# ----------------------------------------------------------------------
# Spot-aligned tiles: any tiling, any spot ids, same bits
# ----------------------------------------------------------------------
def _tiling_batch(receptor, spots, rng, per_spot=7):
    """Spot-major in-box poses, plus the two edge cases of the compress:
    a pose with no receptor atom within the cutoff inside an otherwise
    ordinary spot group, and a group so far away that its gather is empty."""
    from repro.molecules.transforms import random_quaternion

    ids, translations = [], []
    for s in spots:
        translations.append(s.center + rng.uniform(-s.radius, s.radius, (per_spot, 3)))
        ids += [s.index] * per_spot
    outward = spots[0].center - receptor.coords.mean(axis=0)
    outward /= np.linalg.norm(outward)
    translations.append((spots[0].center + 40.0 * outward)[None, :])
    ids.append(spots[0].index)
    translations.append(np.full((3, 3), 1000.0) + rng.normal(0, 1.0, (3, 3)))
    ids += [10**6] * 3  # an id no spot table knows
    translations = np.concatenate(translations)
    return (
        np.asarray(ids, dtype=np.int64),
        translations,
        random_quaternion(rng, translations.shape[0]),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tiling_and_spot_ids_never_change_a_bit(receptor, ligand, spots, rng, dtype):
    from repro.scoring.cutoff import cutoff_tile_size

    spot_ids, t, q = _tiling_batch(receptor, spots, rng)
    n = spot_ids.size
    default_tile = cutoff_tile_size(
        receptor.n_atoms, ligand.n_atoms, np.dtype(dtype).itemsize
    )
    reference = CutoffLennardJonesScoring(dtype=dtype).bind(receptor, ligand)
    assert reference.supports_spot_scoring
    assert reference.chunk_size == default_tile
    expected = np.array([reference.score_one(t[i], q[i]) for i in range(n)])
    assert expected[-4] == 0.0  # gathered, but nothing within the cutoff
    assert np.all(expected[-3:] == 0.0)  # nothing gathered at all
    assert np.count_nonzero(expected) == n - 4

    shuffled = rng.permutation(n)
    id_layouts = {
        "spot-major": spot_ids,
        "interleaved": np.arange(n) % len(spots),
        "shuffled": spot_ids[shuffled],
        "unknown": np.full(n, -7),
    }
    for chunk_size in (1, 5, default_tile, 256):
        scorer = CutoffLennardJonesScoring(dtype=dtype, chunk_size=chunk_size).bind(
            receptor, ligand
        )
        assert np.array_equal(scorer.score(t, q), expected), chunk_size
        for name, ids in id_layouts.items():
            got = scorer.score_spots(ids, t, q)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (chunk_size, name)
        # The same poses in another order: scores follow their poses.
        assert np.array_equal(
            scorer.score_spots(spot_ids[shuffled], t[shuffled], q[shuffled]),
            expected[shuffled],
        ), chunk_size


def test_score_spots_validates_like_score(fast_scorer, pose_batch):
    t, q = pose_batch
    with pytest.raises(ScoringError, match="spot ids"):
        fast_scorer.score_spots(np.zeros(len(t) - 1, dtype=np.int64), t, q)
    with pytest.raises(ScoringError, match="translations"):
        fast_scorer.score_spots(np.zeros(3, dtype=np.int64), np.zeros((3, 2)), q[:3])
    empty = fast_scorer.score_spots(np.zeros(0, dtype=np.int64), t[:0], q[:0])
    assert empty.shape == (0,)
    # A NaN pose must not gather nothing and score its whole tile 0.0.
    bad = t.copy()
    bad[2, 0] = np.nan
    for call in (
        lambda: fast_scorer.score_spots(np.zeros(len(t), dtype=np.int64), bad, q),
        lambda: fast_scorer.score(bad, q),
        lambda: fast_scorer.score_one(bad[2], q[2]),
    ):
        with pytest.raises(ScoringError, match="non-finite ligand coordinates in 1 of"):
            call()


def test_launch_scratch_is_small_and_resident(dock_shape):
    """One ledger-shaped launch (48 poses, 8 spots, 1,500 x 24 atoms, float32)
    stays under 4 MiB of traced allocations — the 8 MiB chunk rule peaked near
    20 MB here — and the next launch reuses the pair block it left behind."""
    import tracemalloc

    from repro.molecules.transforms import random_quaternion

    receptor, ligand, spots = dock_shape
    rng = np.random.default_rng(9)
    spot_ids = np.repeat([s.index for s in spots], 6)
    centers = np.repeat([s.center for s in spots], 6, axis=0)
    radii = np.repeat([s.radius for s in spots], 6)[:, None]
    t = centers + rng.uniform(-1.0, 1.0, (48, 3)) * radii
    q = random_quaternion(rng, 48)
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pair_block = 6 * ligand.n_atoms * receptor.n_atoms * 4

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        first = scorer.score_spots(spot_ids, t, q)
        held, first_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        second = scorer.score_spots(spot_ids, t, q)
        held_after, second_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    assert first_peak - before < 4 * 2**20
    assert held - before >= pair_block  # the resident pair block
    assert abs(held_after - held) < 64 * 1024  # nothing new kept
    assert second_peak - held <= first_peak - before - pair_block
