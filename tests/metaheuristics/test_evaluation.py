"""Evaluator accounting tests."""

from unittest.mock import Mock

import numpy as np
import pytest

from repro.errors import MetaheuristicError
from repro.metaheuristics.evaluation import (
    EvaluationStats,
    Evaluator,
    LaunchRecord,
    SerialEvaluator,
)
from repro.molecules.transforms import random_quaternion


def test_serial_evaluator_scores_match_scorer(fast_scorer, pose_batch):
    translations, quaternions = pose_batch
    ev = SerialEvaluator(fast_scorer)
    spot_ids = np.zeros(len(translations), dtype=int)
    scores = ev.evaluate(spot_ids, translations, quaternions)
    np.testing.assert_allclose(scores, fast_scorer.score(translations, quaternions))


def test_serial_evaluator_dispatches_to_score_spots(
    fast_scorer, dense_scorer, pose_batch, monkeypatch
):
    """A spot-aware scorer gets the batch's spot ids through ``score_spots``;
    a plain one is scored through ``score`` and never sees them."""
    translations, quaternions = pose_batch
    spot_ids = np.arange(len(translations)) % 4
    assert fast_scorer.supports_spot_scoring and not dense_scorer.supports_spot_scoring
    for scorer in (fast_scorer, dense_scorer):
        for name in ("score", "score_spots"):
            monkeypatch.setattr(scorer, name, Mock(wraps=getattr(scorer, name)))

    scores = SerialEvaluator(fast_scorer).evaluate(spot_ids, translations, quaternions)
    fast_scorer.score_spots.assert_called_once()
    assert fast_scorer.score_spots.call_args.args[0] is spot_ids
    fast_scorer.score.assert_not_called()
    assert np.array_equal(scores, fast_scorer.score(translations, quaternions))

    SerialEvaluator(dense_scorer).evaluate(spot_ids, translations, quaternions)
    dense_scorer.score.assert_called_once()
    dense_scorer.score_spots.assert_not_called()


def test_launch_records_accumulate(fast_scorer, rng):
    ev = SerialEvaluator(fast_scorer)
    t = rng.normal(size=(6, 3))
    q = random_quaternion(rng, 6)
    ev.evaluate(np.array([0, 0, 1, 1, 2, 2]), t, q, kind="population")
    ev.evaluate(np.array([0, 1, 2, 0, 1, 2]), t, q, kind="improve")
    stats = ev.stats
    assert stats.n_launches == 2
    assert stats.n_conformations == 12
    assert stats.total_flops == pytest.approx(12 * fast_scorer.flops_per_pose)
    assert stats.launches[0].kind == "population"
    assert stats.launches[0].spot_counts == {0: 2, 1: 2, 2: 2}
    assert stats.launches[1].kind == "improve"
    assert stats.launches[0].n_receptor_atoms == fast_scorer.receptor.n_atoms


def test_mismatched_spot_ids_raise(fast_scorer, rng):
    ev = SerialEvaluator(fast_scorer)
    t = rng.normal(size=(4, 3))
    q = random_quaternion(rng, 4)
    with pytest.raises(MetaheuristicError):
        ev.evaluate(np.zeros(3, dtype=int), t, q)


def test_serial_evaluator_satisfies_protocol(fast_scorer):
    assert isinstance(SerialEvaluator(fast_scorer), Evaluator)


def test_stats_record_manual():
    stats = EvaluationStats()
    stats.record(LaunchRecord(10, 100.0, {0: 10}))
    stats.record(LaunchRecord(5, 100.0, {1: 5}, kind="improve"))
    assert stats.n_launches == 2
    assert stats.n_conformations == 15
    assert stats.total_flops == 1500.0
