"""Tests for the scoring abstractions and registry."""

import numpy as np
import pytest

from repro.errors import ScoringError
from repro.molecules.transforms import identity_quaternion
from repro.scoring.base import available_scorings, get_scoring
from repro.scoring.lennard_jones import LennardJonesScoring


def test_registry_contains_all_builtin_scorings():
    names = available_scorings()
    for expected in (
        "lennard-jones",
        "lennard-jones-cutoff",
        "lennard-jones-tiled",
        "lennard-jones-softcore",
        "coulomb",
        "gridmap",
    ):
        assert expected in names


def test_get_scoring_instantiates(receptor, ligand):
    sf = get_scoring("lennard-jones")
    assert isinstance(sf, LennardJonesScoring)
    bound = sf.bind(receptor, ligand)
    assert bound.n_pairs == receptor.n_atoms * ligand.n_atoms


def test_get_scoring_unknown_name():
    with pytest.raises(ScoringError, match="unknown scoring function"):
        get_scoring("does-not-exist")


def test_flops_per_pose_scales_with_pairs(receptor, ligand, dense_scorer):
    assert dense_scorer.flops_per_pose == pytest.approx(
        receptor.n_atoms * ligand.n_atoms * 18
    )


def test_score_validates_shapes(dense_scorer):
    with pytest.raises(ScoringError):
        dense_scorer.score(np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(ScoringError):
        dense_scorer.score(np.zeros((3, 3)), np.zeros((2, 4)))


def test_score_empty_batch(dense_scorer):
    out = dense_scorer.score(np.zeros((0, 3)), np.zeros((0, 4)))
    assert out.shape == (0,)


def test_score_one_matches_batch(dense_scorer, pose_batch):
    translations, quaternions = pose_batch
    batch = dense_scorer.score(translations, quaternions)
    single = dense_scorer.score_one(translations[0], quaternions[0])
    assert single == pytest.approx(batch[0])


def test_score_one_fast_path_is_bitwise(dense_scorer, fast_scorer, pose_batch):
    """The chunk-direct fast path returns exactly score(t[None])[0] bits."""
    translations, quaternions = pose_batch
    for scorer in (dense_scorer, fast_scorer):
        for i in range(3):
            single = scorer.score_one(translations[i], quaternions[i])
            batch = scorer.score(
                translations[i][None, :], quaternions[i][None, :]
            )
            assert single == batch[0], "score_one must not drift from score"


def test_score_one_validates_shapes(dense_scorer):
    with pytest.raises(ScoringError, match="score_one expects one pose"):
        dense_scorer.score_one(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ScoringError, match="score_one expects one pose"):
        dense_scorer.score_one(np.zeros(3), np.zeros(3))


def test_score_spots_rejects_mismatched_spot_ids(dense_scorer, pose_batch):
    """A spot-id array shorter or longer than the batch is a caller bug the
    base scorer must name, not broadcast away (both lengths in the error)."""
    translations, quaternions = pose_batch
    n = translations.shape[0]
    with pytest.raises(ScoringError, match=rf"\b{n - 2}\b.*\b{n}\b"):
        dense_scorer.score_spots(
            np.zeros(n - 2, dtype=np.int64), translations, quaternions
        )
    with pytest.raises(ScoringError, match=rf"\b{n + 3}\b.*\b{n}\b"):
        dense_scorer.score_spots(
            np.zeros(n + 3, dtype=np.int64), translations, quaternions
        )
    ok = dense_scorer.score_spots(
        np.zeros(n, dtype=np.int64), translations, quaternions
    )
    assert ok.shape == (n,)


def test_spot_groups_are_stable_and_ascending():
    from repro.scoring.base import spot_groups

    order, groups = spot_groups(np.array([7, 2, 7, 2, 9, 7]))
    assert groups == [(2, 0, 2), (7, 2, 5), (9, 5, 6)]
    assert order.tolist() == [1, 3, 0, 2, 5, 4]  # batch order inside a group
    order, groups = spot_groups(np.empty(0, dtype=np.int64))
    assert order.size == 0 and groups == []


def test_chunking_is_invisible(receptor, ligand, pose_batch):
    """Different chunk sizes give identical dense results."""
    translations, quaternions = pose_batch
    a = LennardJonesScoring(chunk_size=1).bind(receptor, ligand).score(
        translations, quaternions
    )
    b = LennardJonesScoring(chunk_size=7).bind(receptor, ligand).score(
        translations, quaternions
    )
    c = LennardJonesScoring(chunk_size=100).bind(receptor, ligand).score(
        translations, quaternions
    )
    np.testing.assert_allclose(a, b, rtol=1e-12)
    np.testing.assert_allclose(a, c, rtol=1e-12)


def test_posed_ligand_coords_center_convention(dense_scorer):
    t = np.array([[5.0, 0.0, 0.0]])
    q = identity_quaternion()[None, :]
    posed = dense_scorer.posed_ligand_coords(t, q)
    np.testing.assert_allclose(posed[0].mean(axis=0), [5.0, 0.0, 0.0], atol=1e-9)


def test_auto_chunk_size_budget_formula():
    from repro.scoring.base import (
        CHUNK_BUDGET_BYTES,
        MAX_CHUNK_SIZE,
        MIN_CHUNK_SIZE,
        auto_chunk_size,
    )

    # Mid-range complex: the budget formula applies un-clamped.
    n_rec, n_lig = 3000, 45
    got = auto_chunk_size(n_rec, n_lig, itemsize=8)
    assert got == CHUNK_BUDGET_BYTES // (n_rec * n_lig * 8)
    assert MIN_CHUNK_SIZE <= got <= MAX_CHUNK_SIZE
    # Tiny complex: clamped at the ceiling.
    assert auto_chunk_size(10, 4, itemsize=4) == MAX_CHUNK_SIZE
    # Enormous complex: clamped at the floor, never zero.
    assert auto_chunk_size(10**6, 500, itemsize=8) == MIN_CHUNK_SIZE
    # Halving the itemsize doubles the chunk (power-of-two pair size, so the
    # floor division is exact and both values stay inside the clamp range).
    assert auto_chunk_size(2048, 16, itemsize=4) == 2 * auto_chunk_size(
        2048, 16, itemsize=8
    )


def test_auto_chunk_size_is_default_for_bound_scorers(receptor, ligand):
    """Dense scorers size chunks from the shared 8 MiB rule; the cutoff
    kernel tiles by its own, smaller budget (tile x pair bytes <= budget,
    clamped to the shared floor)."""
    from repro.scoring.base import MIN_CHUNK_SIZE, auto_chunk_size
    from repro.scoring.cutoff import (
        TILE_BUDGET_BYTES,
        CutoffLennardJonesScoring,
        cutoff_tile_size,
    )

    dense = LennardJonesScoring().bind(receptor, ligand)
    assert dense.chunk_size == auto_chunk_size(
        receptor.n_atoms, ligand.n_atoms, itemsize=8
    )
    bound = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    pair_bytes = receptor.n_atoms * ligand.n_atoms * 4
    assert bound.chunk_size == cutoff_tile_size(receptor.n_atoms, ligand.n_atoms, 4)
    assert bound.chunk_size * pair_bytes <= TILE_BUDGET_BYTES
    assert (bound.chunk_size + 1) * pair_bytes > TILE_BUDGET_BYTES
    # The ledger's dock shape: a 6-pose spot group is one tile.
    assert cutoff_tile_size(1500, 24, 4) == 7
    # A pose's pair block over a quarter of the budget clamps at the floor.
    assert cutoff_tile_size(1500, 32, 8) == MIN_CHUNK_SIZE
    explicit = CutoffLennardJonesScoring(dtype=np.float32, chunk_size=7).bind(
        receptor, ligand
    )
    assert explicit.chunk_size == 7


def test_non_finite_error_names_poses_and_shape():
    from repro.scoring.base import non_finite_error

    out = np.zeros(6)
    out[[1, 4]] = np.nan
    err = non_finite_error(out, (6, 3))
    msg = str(err)
    assert "1" in msg and "4" in msg
    assert "(6, 3)" in msg


def test_non_finite_error_truncates_long_index_lists():
    from repro.scoring.base import non_finite_error

    out = np.full(64, np.inf)
    msg = str(non_finite_error(out, (64, 3)))
    assert "more" in msg  # long lists are elided, not dumped


def test_score_raises_detailed_non_finite_error(receptor, ligand):
    from repro.errors import ScoringError
    from repro.scoring.lennard_jones import LennardJonesScoring

    scorer = LennardJonesScoring().bind(receptor, ligand)
    # A NaN translation propagates to a NaN energy for that pose only.
    t = np.zeros((3, 3))
    t[:, 0] = [0.0, 100.0, np.nan]
    q = np.repeat(identity_quaternion()[None, :], 3, axis=0)
    with pytest.raises(ScoringError, match=r"pose.*\b2\b") as excinfo:
        scorer.score(t, q)
    assert "(3, 3)" in str(excinfo.value)  # batch shape reported
