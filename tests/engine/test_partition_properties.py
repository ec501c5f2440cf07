"""Property-based invariants of the partitioners and the Eq. 1 warm-up.

Uses hypothesis when the container provides it; otherwise the same
properties run over a seeded-random case battery (deterministic across
runs), so the suite degrades without losing the invariants.
"""

import numpy as np
import pytest

from repro.engine.partition import (
    eq1_weights,
    equal_partition,
    proportional_partition,
)
from repro.engine.warmup import run_warmup
from repro.hardware.node import hertz, jupiter
from repro.scoring.base import OPS_PER_LJ_PAIR

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container ships hypothesis
    HAVE_HYPOTHESIS = False

FLOPS = 3264 * 45 * OPS_PER_LJ_PAIR

#: Device pool the warm-up properties sample from (both paper machines).
GPU_POOL = tuple(hertz().gpus) + tuple(jupiter().gpus)


def _seeded_cases(draw, n=60, seed=20260805):
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(n)]


# ----------------------------------------------------------------------
# equal_partition
# ----------------------------------------------------------------------
def check_equal_partition(total, n_parts):
    shares = equal_partition(total, n_parts)
    assert shares.shape == (n_parts,)
    assert shares.sum() == total, "shares must conserve the population"
    assert np.all(shares >= 0)
    assert shares.max() - shares.min() <= 1, "equal split is near-equal"
    assert np.all(np.diff(shares) <= 0), "extra items go to the first parts"


if HAVE_HYPOTHESIS:

    @settings(max_examples=80, deadline=None)
    @given(total=st.integers(0, 100_000), n_parts=st.integers(1, 64))
    def test_equal_partition_properties(total, n_parts):
        check_equal_partition(total, n_parts)

else:

    @pytest.mark.parametrize(
        "total,n_parts",
        _seeded_cases(
            lambda rng: (int(rng.integers(0, 100_000)), int(rng.integers(1, 65)))
        ),
    )
    def test_equal_partition_properties(total, n_parts):
        check_equal_partition(total, n_parts)


# ----------------------------------------------------------------------
# proportional_partition
# ----------------------------------------------------------------------
def check_proportional_partition(total, weights, granularity):
    weights = np.asarray(weights, dtype=float)
    shares = proportional_partition(total, weights, granularity=granularity)
    assert shares.sum() == total, "shares must conserve the population"
    assert np.all(shares >= 0)
    # Monotone in weight: a strictly heavier part never gets fewer items.
    for i in range(len(weights)):
        for j in range(len(weights)):
            if weights[i] > weights[j]:
                assert shares[i] >= shares[j], (
                    f"w[{i}]={weights[i]} > w[{j}]={weights[j]} "
                    f"but shares {shares[i]} < {shares[j]}"
                )
    # Proportionality bound (granularity=1): each share is within one unit
    # of its exact Hamilton quota.
    if granularity == 1:
        exact = total * weights / weights.sum()
        assert np.all(np.abs(shares - exact) < 1.0 + 1e-9)


def _draw_proportional(rng):
    n = int(rng.integers(1, 9))
    weights = rng.uniform(0.0, 10.0, n)
    if weights.sum() == 0:
        weights[0] = 1.0
    return (
        int(rng.integers(0, 50_000)),
        tuple(float(w) for w in weights),
        int(rng.choice([1, 1, 1, 32, 256])),
    )


if HAVE_HYPOTHESIS:

    @settings(max_examples=80, deadline=None)
    @given(
        total=st.integers(0, 50_000),
        weights=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=8
        ).filter(lambda w: sum(w) > 0),
        granularity=st.sampled_from([1, 1, 1, 32, 256]),
    )
    def test_proportional_partition_properties(total, weights, granularity):
        check_proportional_partition(total, weights, granularity)

else:

    @pytest.mark.parametrize(
        "total,weights,granularity", _seeded_cases(_draw_proportional)
    )
    def test_proportional_partition_properties(total, weights, granularity):
        check_proportional_partition(total, weights, granularity)


def test_proportional_matches_equal_on_uniform_weights():
    for total in (0, 1, 97, 1000):
        got = proportional_partition(total, np.ones(5))
        want = equal_partition(total, 5)
        assert got.sum() == want.sum() == total
        assert got.max() - got.min() <= 1


# ----------------------------------------------------------------------
# Eq. 1 warm-up shares
# ----------------------------------------------------------------------
def check_warmup_properties(gpus, iterations, poses):
    # noise=0: measurements equal the perf model exactly, so Eq. 1's
    # structure is checkable without stochastic slack.
    result = run_warmup(
        gpus, FLOPS, iterations=iterations, poses_per_device=poses, noise=0.0
    )
    measured = result.measured_times
    # The one Eq. 1: the warm-up publishes exactly what eq1_weights computes
    # (as do the host runtime's workers and the fleet's nodes), so the
    # structure checked below is checked for every caller.
    percent, weights = eq1_weights(measured)
    assert np.array_equal(result.percent, percent)
    assert np.array_equal(result.weights, weights)
    assert percent.max() == pytest.approx(1.0), "slowest device anchors Eq. 1"
    assert np.all(percent > 0) and np.all(percent <= 1.0 + 1e-12)
    assert weights.sum() == pytest.approx(1.0), "shares are a distribution"
    assert np.all(weights > 0), "every device gets work"
    # Monotone in measured device time: strictly slower -> strictly smaller
    # share; equal times -> equal shares.
    for i in range(len(gpus)):
        for j in range(len(gpus)):
            if measured[i] < measured[j]:
                assert weights[i] > weights[j]
            elif measured[i] == measured[j]:
                assert weights[i] == pytest.approx(weights[j])
    # Shares are exactly inverse-proportional to measured times.
    inv = 1.0 / measured
    np.testing.assert_allclose(weights, inv / inv.sum(), rtol=1e-12)
    # The warm-up itself waits for the slowest device each iteration.
    assert result.elapsed_s == pytest.approx(iterations * measured.max())


def _draw_warmup(rng):
    n = int(rng.integers(1, 7))
    picks = rng.integers(0, len(GPU_POOL), n)
    return (
        tuple(GPU_POOL[int(p)] for p in picks),
        int(rng.integers(1, 21)),
        int(rng.choice([32, 256, 1024])),
    )


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        gpus=st.lists(st.sampled_from(GPU_POOL), min_size=1, max_size=6),
        iterations=st.integers(1, 20),
        poses=st.sampled_from([32, 256, 1024]),
    )
    def test_eq1_warmup_share_properties(gpus, iterations, poses):
        check_warmup_properties(tuple(gpus), iterations, poses)

else:

    @pytest.mark.parametrize(
        "gpus,iterations,poses", _seeded_cases(_draw_warmup, n=40)
    )
    def test_eq1_warmup_share_properties(gpus, iterations, poses):
        check_warmup_properties(gpus, iterations, poses)


def test_eq1_shares_shift_away_from_a_slowed_device():
    """Scaling one device's measured time down (a faster GPU) must raise its
    share and lower everyone else's — the heterogeneous algorithm's whole
    point, stated as a monotonicity property across runs."""
    gpus = hertz().gpus
    base = run_warmup(gpus, FLOPS, noise=0.0).weights
    # Same devices, heavier per-pose work: relative speeds change, but the
    # faster device keeps at least its relative advantage.
    heavier = run_warmup(gpus, FLOPS * 4, noise=0.0).weights
    assert base.argmax() == heavier.argmax()
    # And with identical devices the split collapses to equal shares.
    twin = run_warmup((gpus[0], gpus[0]), FLOPS, noise=0.0).weights
    np.testing.assert_allclose(twin, [0.5, 0.5], rtol=1e-12)
