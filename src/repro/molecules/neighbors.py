"""Exact fixed-radius neighbour search in plain NumPy.

Two things in the substrate ask "which atoms lie within ``r`` of which":
:func:`repro.molecules.surface.surface_mask` (how many, per atom, once per
campaign) and :func:`repro.molecules.topology.infer_bonds` (which pairs, on
a ligand of at most a few hundred atoms). Both are answered here.

**The definition.** Atoms ``a`` and ``b`` are neighbours when::

    ((dx * dx + dy * dy) + dz * dz) <= r * r        # float64, this order

with ``dx, dy, dz`` the coordinate *differences*. Each product and each sum
is its own NumPy ufunc call, so nothing is fused into an FMA and a pair at
distance exactly ``r`` is decided the same way on every machine. The
GEMM-expanded form ``|a|² + |b|² − 2 a·b`` is *not* equivalent: it rounds
differently and flips such ties (251 of 1,440 sampled receptors).

**The search.** Atoms are sorted along x, so a block of consecutive rows can
only have neighbours inside the slab ``|dx| <= r·(1 + 1e-9)`` around it —
a superset found by two binary searches; the test above decides. Blocks are
sized by bytes, not rows (:data:`BLOCK_BUDGET_BYTES`), and reuse one set of
buffers: the search must not become the peak of the process that docks.
What it costs is recorded where it is paid, in :mod:`repro.molecules.surface`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["BLOCK_BUDGET_BYTES", "neighbor_counts", "neighbor_pairs"]

#: Ceiling on the temporaries of one block: two float64 work arrays and the
#: boolean result, ``rows × slab`` each. Same rule and size as the scoring
#: kernel's ``TILE_BUDGET_BYTES``.
BLOCK_BUDGET_BYTES: int = 1024 * 1024

_BYTES_PER_PAIR = 2 * np.dtype(np.float64).itemsize + np.dtype(np.bool_).itemsize

#: Slab half-width relative to ``r``: wide enough that rounding in
#: ``x ± reach`` can never drop a pair the exact test would accept.
_SLAB_SLACK = 1.0 + 1e-9


def _blocks(
    coords: np.ndarray, radius: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(rows, cols, within)`` covering every neighbour pair once per order.

    ``rows`` and ``cols`` are original atom indices and ``within[i, j]`` says
    whether ``rows[i]`` and ``cols[j]`` are neighbours (an atom is its own).
    ``within`` is a view of a reused buffer: consume it before the next block.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    order = np.argsort(coords[:, 0], kind="stable")
    x, y, z = (np.ascontiguousarray(coords[order, k]) for k in range(3))
    reach = radius * _SLAB_SLACK
    r2 = radius * radius

    budget = BLOCK_BUDGET_BYTES // _BYTES_PER_PAIR
    d2 = np.empty(min(budget, n * n), dtype=np.float64)
    tmp = np.empty_like(d2)
    hit = np.empty(d2.shape, dtype=np.bool_)

    def slab_end(row: int) -> int:
        return int(np.searchsorted(x, x[row] + reach, side="right"))

    start = 0
    while start < n:
        lo = int(np.searchsorted(x, x[start] - reach, side="left"))
        # Size the block from its first row's slab; more rows widen the
        # slab, so fit once more against the real one. One row against its
        # slab is the floor, whatever that costs.
        stop = min(n, start + max(1, budget // (slab_end(start) - lo)))
        hi = slab_end(stop - 1)
        if (stop - start) * (hi - lo) > budget:
            stop = start + max(1, budget // (hi - lo))
            hi = slab_end(stop - 1)
        shape = (stop - start, hi - lo)
        size = shape[0] * shape[1]
        if size > d2.size:  # one row whose slab alone exceeds the budget
            d2, tmp, hit = np.empty(size), np.empty(size), np.empty(size, dtype=np.bool_)
        block_d2 = d2[:size].reshape(shape)
        block_tmp = tmp[:size].reshape(shape)
        within = hit[:size].reshape(shape)

        np.subtract(x[start:stop, None], x[None, lo:hi], out=block_d2)
        np.multiply(block_d2, block_d2, out=block_d2)
        np.subtract(y[start:stop, None], y[None, lo:hi], out=block_tmp)
        np.multiply(block_tmp, block_tmp, out=block_tmp)
        np.add(block_d2, block_tmp, out=block_d2)
        np.subtract(z[start:stop, None], z[None, lo:hi], out=block_tmp)
        np.multiply(block_tmp, block_tmp, out=block_tmp)
        np.add(block_d2, block_tmp, out=block_d2)
        np.less_equal(block_d2, r2, out=within)
        yield order[start:stop], order[lo:hi], within
        start = stop


def neighbor_counts(coords: np.ndarray, radius: float) -> np.ndarray:
    """Per atom, how many *other* atoms of ``(n, 3)`` ``coords`` lie within ``radius``."""
    counts = np.empty(len(coords), dtype=np.int64)
    for rows, _, within in _blocks(coords, radius):
        counts[rows] = within.sum(axis=1) - 1  # an atom is its own neighbour
    return counts


def neighbor_pairs(coords: np.ndarray, radius: float) -> np.ndarray:
    """All ``(i, j)``, ``i < j``, within ``radius`` of each other, as a sorted ``(m, 2)`` array."""
    found = []
    for rows, cols, within in _blocks(coords, radius):
        r, c = np.nonzero(within)
        i, j = rows[r], cols[c]
        keep = i < j
        found.append(np.stack((i[keep], j[keep]), axis=1))
    pairs = np.concatenate(found) if found else np.empty((0, 2), dtype=np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
