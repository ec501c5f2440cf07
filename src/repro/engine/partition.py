"""Work partitioners: how many conformations each device gets.

Algorithm 2 splits the candidate set equally; the heterogeneous algorithm
(§3.3) splits proportionally to the warm-up speeds — :func:`eq1_weights`
turns measured times into those speeds. Both partitioners
guarantee exact conservation (shares sum to the total) via largest-remainder
rounding, and can optionally round shares to whole thread-blocks (the
granularity at which conformations are actually shipped to a device).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError

__all__ = ["eq1_weights", "equal_partition", "proportional_partition"]


def equal_partition(total: int, n_parts: int) -> np.ndarray:
    """Split ``total`` items into ``n_parts`` near-equal integer shares.

    The first ``total % n_parts`` parts receive one extra item. Shares sum
    to ``total`` exactly; some may be zero when ``total < n_parts``.
    """
    if total < 0:
        raise SchedulingError(f"total must be >= 0, got {total}")
    if n_parts < 1:
        raise SchedulingError(f"n_parts must be >= 1, got {n_parts}")
    base, extra = divmod(total, n_parts)
    shares = np.full(n_parts, base, dtype=np.int64)
    shares[:extra] += 1
    return shares


def eq1_weights(times) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 1: ``Percent = t / t_slowest``; shares ∝ ``1 / Percent``.

    Returns ``(percent, weights)`` for a 1-D sequence of measured times;
    ``percent`` is 1.0 for the slowest part and ``weights`` sum to 1. The one
    place the formula lives: simulated devices, host worker processes and
    fleet nodes all reduce their warm-up measurements here.

    A non-positive or non-finite entry (a probe that misfired, a worker that
    never reported) takes the slowest usable time — the most conservative
    share, not a crash; with no usable entry at all the shares are equal.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise SchedulingError("Eq. 1 needs a non-empty 1-D array of times")
    usable = np.isfinite(times) & (times > 0)
    if not usable.any():
        return np.ones(times.size), np.full(times.size, 1.0 / times.size)
    slowest = float(times[usable].max())
    percent = np.where(usable, times, slowest) / slowest
    inv = 1.0 / percent
    return percent, inv / inv.sum()


def proportional_partition(
    total: int, weights: np.ndarray, granularity: int = 1
) -> np.ndarray:
    """Split ``total`` items proportionally to ``weights``.

    Largest-remainder (Hamilton) apportionment: each part gets
    ``floor(total · w_i / Σw)`` items, and the leftover items go to the
    parts with the largest fractional remainders. Deterministic ties break
    toward lower indices.

    Parameters
    ----------
    granularity:
        Shares are built in units of ``granularity`` items (e.g. a thread
        block's worth of conformations); the remainder (< granularity ×
        n_parts) is then distributed one item at a time by remainder rank.

    Raises
    ------
    SchedulingError
        On non-positive weight sums, negative weights, or bad arguments.
    """
    if total < 0:
        raise SchedulingError(f"total must be >= 0, got {total}")
    if granularity < 1:
        raise SchedulingError(f"granularity must be >= 1, got {granularity}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise SchedulingError("weights must be a non-empty 1-D array")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise SchedulingError("weights must be finite and non-negative")
    wsum = weights.sum()
    if wsum <= 0:
        raise SchedulingError("at least one weight must be positive")

    units = total // granularity
    exact = units * (weights / wsum)
    shares_units = np.floor(exact).astype(np.int64)
    leftover_units = units - int(shares_units.sum())
    if leftover_units > 0:
        remainders = exact - shares_units
        # argsort is ascending; take the largest remainders, stable ties.
        order = np.argsort(-remainders, kind="stable")
        shares_units[order[:leftover_units]] += 1
    shares = shares_units * granularity

    # Distribute the sub-granularity tail one item at a time, by weight rank.
    tail = total - int(shares.sum())
    if tail > 0:
        order = np.argsort(-weights, kind="stable")
        for i in range(tail):
            shares[order[i % len(order)]] += 1
    return shares
