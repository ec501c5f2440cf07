"""Cutoff-accelerated Lennard-Jones scoring.

LJ decays as ``r⁻⁶``; pairs beyond ~12 Å contribute negligibly. This scorer
evaluates a batch in **tiles**: a few poses at a time, it gathers the
receptor atoms inside the bounding sphere of the tile's ligand atoms grown
by the cutoff, builds the ``(poses, n_lig, gathered)`` block of squared
distances with one GEMM, and sums the Lennard-Jones terms of the
within-cutoff pairs only.

A tile is sized to cache, not to the allocator: :data:`TILE_BUDGET_BYTES`
(1 MiB) of pair block, a rule that belongs to this kernel alone. The shared
8 MiB chunk made a whole 48-pose launch one chunk whose sphere spanned the
protein — every receptor atom gathered every time, a ~20 MB working set,
17-19% of it kept. :meth:`BoundCutoffLennardJones.score_spots` therefore
cuts tiles *inside* spot groups: a spot's poses share one search box, so
their sphere reaches a part of the receptor (445-1,500 of 1,500 atoms, mean
~940, on the ledger's dock shape). The gather is a brute-force
squared-distance test on the staged coordinates — cheaper at this size than
a KD-tree query that returns a Python list — the pair block, keep mask and
gathered tables live in resident per-thread scratch, and the kept pairs are
compressed in one pass (:func:`lj_cutoff_energy_sums`).

This is a *host-side* optimisation: the modelled GPU kernel still performs
the full tiled ``n_rec × n_lig`` sweep (``flops_per_pose`` is inherited
unchanged from :class:`~repro.scoring.base.BoundScorer`), so using this
scorer changes nothing in the simulated timings — it only makes the Python
reproduction run faster. Accuracy versus the dense scorer is bounded by the
LJ tail beyond the cutoff (verified in tests to a loose tolerance).

Reduction order is *canonical*: energies sum only the within-cutoff pairs,
in (pose, ligand-atom, ascending receptor-index) order, via a compressed
:func:`numpy.add.reduceat`. The result therefore depends only on the set of
within-cutoff pairs — not on how the batch was tiled, which spot ids it
carried, nor on how large a receptor superset a tile gathered — which is
what lets :meth:`~BoundCutoffLennardJones.score`,
:meth:`~BoundCutoffLennardJones.score_spots` and ``score_one`` agree bit for
bit, and the process-parallel host runtime
(:mod:`repro.engine.host_runtime`) reproduce serial results *bitwise*.

``dtype=float32`` selects the single-precision path — the same precision the
paper's CUDA kernels use — which is ~3× faster on the host.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.constants import DEFAULT_CUTOFF, FLOAT_DTYPE
from repro.errors import ScoringError
from repro.molecules.forcefield import ForceField, default_forcefield
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import (
    OPS_PER_LJ_PAIR,
    BoundScorer,
    ScorerShape,
    ScoringFunction,
    auto_chunk_size,
    check_poses,
    check_spot_ids,
    non_finite_error,
    register_scoring,
    spot_groups,
)
from repro.scoring.lennard_jones import lj_energy_terms_inplace

__all__ = [
    "CutoffLennardJonesScoring",
    "BoundCutoffLennardJones",
    "lj_cutoff_energy_sums",
    "cutoff_tile_size",
    "tile_bounds",
    "GATHER_SLACK",
    "TILE_BUDGET_BYTES",
]

#: Pair-block budget of one tile of this kernel (the dense/tiled/batched
#: scorers keep :data:`repro.scoring.base.CHUNK_BUDGET_BYTES`). A tile makes
#: five passes over its ``(poses, n_lig, gathered)`` block — GEMM, two
#: in-place adds, the keep test, the compress — and keeps under a third of
#: it, so the block should stay in L2 between passes while a tile still
#: amortises its ~0.1 ms of Python. Measured on a 2 MiB-L2 host with 64-pose
#: spot groups on 1,500 × 16-32 atoms (float32): 0.25 MiB scores 10-25%
#: slower than 1 MiB; 2-8 MiB score 7-13% faster but a launch's traced
#: allocations grow from 3.2-3.7 MiB to 4.7-6.3 (2 MiB) and 13-18 (8 MiB).
#: 1 MiB is the knee, and makes the 6-pose spot groups of a small launch one
#: or two tiles each.
TILE_BUDGET_BYTES: int = 1024 * 1024

#: Absolute slack (Å) added to gather radii. The keep test is
#: ``r² ≤ cutoff²`` in the scorer's dtype; float32 round-off in the GEMM
#: distance can keep a pair whose true distance is marginally beyond the
#: cutoff, so gathers must over-reach slightly or a kept pair could be
#: missed by one gather geometry and found by another — breaking the
#: bitwise gather-invariance the canonical reduction otherwise provides.
GATHER_SLACK: float = 0.01


def cutoff_tile_size(n_receptor: int, n_ligand: int, itemsize: int) -> int:
    """Poses per tile: ``clamp(TILE_BUDGET_BYTES / (n_rec * n_lig * itemsize))``."""
    return auto_chunk_size(
        n_receptor, n_ligand, itemsize, budget_bytes=TILE_BUDGET_BYTES
    )


def tile_bounds(n: int, tile: int) -> list[tuple[int, int]]:
    """Cut ``n`` poses into the fewest near-equal runs of at most ``tile``."""
    n_tiles = -(-n // tile)
    return [(k * n // n_tiles, (k + 1) * n // n_tiles) for k in range(n_tiles)]


def lj_cutoff_energy_sums(
    r2: np.ndarray,
    sigma2: np.ndarray,
    epsilon4: np.ndarray,
    cutoff2: float,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pose LJ sums over within-cutoff pairs only, in canonical order.

    Compresses the kept pairs (``r² ≤ cutoff²``) of each pose into one flat
    run — pose-major, ligand-atom-major, receptor index ascending — computes
    the elementwise terms, and segment-sums with :func:`numpy.add.reduceat`.
    Because excluded pairs never enter the accumulation, the result is
    *bitwise* independent of which receptor superset was gathered and of how
    the batch was tiled (NumPy's pairwise summation groups differently for
    different array lengths, so summing explicit zeros would not be).

    One compress pass: the flat positions of the kept pairs are found once
    and index ``r2`` directly; subtracting each pose's block offset turns
    them into positions in the ``(a, m)`` pair tables.

    Parameters
    ----------
    r2:
        ``(p, a, m)`` squared distances; the receptor axis must be in
        ascending receptor-index order. Not modified.
    sigma2, epsilon4:
        ``(a, m)`` pair tables aligned with ``r2``'s trailing axes.
    cutoff2:
        Squared cutoff distance; pairs with ``r² ≤ cutoff²`` are kept.
    keep:
        Optional boolean scratch shaped like ``r2`` for the keep mask.

    Returns
    -------
    numpy.ndarray
        ``(p,)`` per-pose energy sums in ``r2``'s dtype.
    """
    p, a, m = r2.shape
    keep = np.less_equal(r2, r2.dtype.type(cutoff2), out=keep)
    sums = np.zeros(p, dtype=r2.dtype)
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return sums
    # Pose k owns flat positions [k·a·m, (k+1)·a·m): its run of ``kept``.
    block_starts = np.arange(0, (p + 1) * a * m, a * m)
    offsets = np.searchsorted(kept, block_starts)
    counts = np.diff(offsets)
    kept_r2 = r2.reshape(-1).take(kept)
    kept -= np.repeat(block_starts[:-1], counts)
    terms = lj_energy_terms_inplace(
        kept_r2, sigma2.reshape(-1).take(kept), epsilon4.reshape(-1).take(kept)
    )
    nonzero = counts > 0
    sums[nonzero] = np.add.reduceat(terms, offsets[:-1][nonzero])
    return sums


def _checked_tiling(
    receptor: Receptor, ligand: Ligand, cutoff: float, chunk_size: int | None, dtype
) -> tuple[np.dtype, int]:
    """Validate a bind's arguments; return its ``(dtype, poses per tile)``.

    The one rule behind both :class:`BoundCutoffLennardJones` and
    :meth:`CutoffLennardJonesScoring.shape`, so a shape read without
    binding cannot disagree with the scorer a worker binds.
    """
    if cutoff <= 0:
        raise ScoringError(f"cutoff must be positive, got {cutoff}")
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ScoringError(f"dtype must be float32 or float64, got {dtype}")
    if chunk_size is not None:
        return resolved, int(chunk_size)
    return resolved, cutoff_tile_size(
        receptor.n_atoms, ligand.n_atoms, resolved.itemsize
    )


class BoundCutoffLennardJones(BoundScorer):
    """Cutoff-pruned LJ scorer for one complex, scored in spot-aligned tiles."""

    supports_spot_scoring = True

    def __init__(
        self,
        receptor: Receptor,
        ligand: Ligand,
        forcefield: ForceField,
        cutoff: float = DEFAULT_CUTOFF,
        chunk_size: int | None = None,
        dtype: np.dtype | type = FLOAT_DTYPE,
    ) -> None:
        super().__init__(receptor, ligand)
        self.cutoff = float(cutoff)
        self.dtype, self.chunk_size = _checked_tiling(
            receptor, ligand, cutoff, chunk_size, dtype
        )
        lig_classes = [str(e) for e in ligand.elements]
        rec_classes = [str(e) for e in receptor.elements]
        sigma, epsilon = forcefield.pair_tables(lig_classes, rec_classes)
        self._sigma2 = np.ascontiguousarray(sigma * sigma, dtype=self.dtype)
        self._epsilon4 = np.ascontiguousarray(4.0 * epsilon, dtype=self.dtype)
        self.receptor_coords = np.ascontiguousarray(receptor.coords, dtype=self.dtype)
        self._scratch = threading.local()

    def __getstate__(self) -> dict:
        # Scratch is a per-thread cache: never pickled, rebuilt on first use.
        state = self.__dict__.copy()
        del state["_scratch"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = threading.local()

    # ------------------------------------------------------------------
    def score_spots(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
    ) -> np.ndarray:
        """Score a batch in tiles that never straddle two spots.

        Poses are grouped by spot id with a stable sort — so interleaved ids
        (``arange % n_spots``) form the same groups as a spot-major batch —
        and each group is cut into near-equal tiles of at most
        ``chunk_size`` poses. A spot's poses sit in one search box, so a
        tile's bounding sphere reaches a fraction of the receptor; ids with
        no geometry behind them only make the gathers larger. Bitwise equal
        to :meth:`score` for any ids (see the module docstring).
        """
        translations, quaternions = check_poses(translations, quaternions)
        n = translations.shape[0]
        spot_ids = check_spot_ids(spot_ids, n)
        out = np.empty(n, dtype=FLOAT_DTYPE)
        if n == 0:
            return out
        posed = self.posed_ligand_coords(translations, quaternions)
        order, groups = spot_groups(spot_ids)
        for _, start, stop in groups:
            for lo, hi in tile_bounds(stop - start, self.chunk_size):
                rows = order[start + lo : start + hi]
                out[rows] = self._score_posed_chunk(posed[rows])
        if not np.all(np.isfinite(out)):
            raise non_finite_error(out, translations.shape)
        return out

    def _score_chunk(
        self, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        return self._score_posed_chunk(
            self.posed_ligand_coords(translations, quaternions)
        )

    def _score_posed_chunk(self, posed: np.ndarray) -> np.ndarray:
        return self._score_gathered(posed, self._gather(posed))

    def _gather(self, posed: np.ndarray) -> np.ndarray:
        """Ascending receptor indices inside one tile's reach.

        The reach is the bounding sphere of the tile's ligand atoms grown by
        ``cutoff + GATHER_SLACK``, tested by brute force on the staged
        coordinates: a few thousand squared distances cost less than a
        KD-tree query returning a Python list, and any superset of the
        within-cutoff atoms gives the same energies.
        """
        atoms = posed.reshape(-1, 3)
        center = atoms.mean(axis=0)
        offsets = atoms - center
        spread = float(np.sqrt(np.einsum("ij,ij->i", offsets, offsets).max()))
        reach = spread + self.cutoff + GATHER_SLACK
        if not np.isfinite(reach):
            # A NaN reach would gather nothing and score the whole tile 0.0.
            bad = np.count_nonzero(~np.isfinite(posed).all(axis=(1, 2)))
            raise ScoringError(
                f"non-finite ligand coordinates in {bad} of {posed.shape[0]} "
                "poses of one tile; check the batch's translations and "
                "quaternions for NaN/inf"
            )
        offsets = self.receptor_coords - center.astype(self.dtype)
        return np.flatnonzero(
            np.einsum("ij,ij->i", offsets, offsets) <= self.dtype.type(reach * reach)
        )

    def _tile_scratch(
        self, rows: int, m: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resident ``(r2, keep, tables)`` views for a ``rows × m`` pair block.

        Allocated once per scorer and thread for the widest possible gather
        and reused by every tile of every call, so the hot path never goes
        back to the allocator for its largest arrays.
        """
        n_rec = self.receptor_coords.shape[0]
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None or buffers[0].size < rows * n_rec:
            buffers = (
                np.empty(rows * n_rec, dtype=self.dtype),
                np.empty(rows * n_rec, dtype=np.bool_),
                np.empty((2, self._sigma2.size), dtype=self.dtype),
            )
            self._scratch.buffers = buffers
        r2, keep, tables = buffers
        a = self._sigma2.shape[0]
        return (
            r2[: rows * m].reshape(rows, m),
            keep[: rows * m].reshape(rows, m),
            tables[:, : a * m].reshape(2, a, m),
        )

    def _score_gathered(self, posed: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Score one tile against the receptor subset ``idx`` (ascending).

        The canonical reduction makes the result bitwise independent of the
        subset, provided ``idx`` covers every within-cutoff receptor atom of
        every pose.
        """
        p, a, _ = posed.shape
        m = idx.size
        if m == 0:
            return np.zeros(p, dtype=FLOAT_DTYPE)
        r2, keep, tables = self._tile_scratch(p * a, m)
        if m == self.receptor_coords.shape[0]:
            rec, sigma2, epsilon4 = self.receptor_coords, self._sigma2, self._epsilon4
        else:
            rec = self.receptor_coords[idx]
            sigma2, epsilon4 = tables
            # idx is in range by construction; "clip" only unlocks writing
            # straight into ``out`` ("raise" buffers the whole result first).
            np.take(self._sigma2, idx, axis=1, out=sigma2, mode="clip")
            np.take(self._epsilon4, idx, axis=1, out=epsilon4, mode="clip")
        rec_sq = np.einsum("ij,ij->i", rec, rec)
        flat = posed.reshape(p * a, 3).astype(self.dtype, copy=False)
        lig_sq = np.einsum("ij,ij->i", flat, flat)
        # Squared distances via one GEMM: |lig|² + |rec|² − 2 lig·rec. The
        # −2 rides on the (p·a, 3) operand, not on the block: scaling by a
        # power of two commutes with every rounding of the dot product, so
        # the bits are those of ``(flat @ rec.T) * -2``.
        np.matmul(flat * self.dtype.type(-2.0), rec.T, out=r2)
        r2 += lig_sq[:, None]
        r2 += rec_sq[None, :]
        return lj_cutoff_energy_sums(
            r2.reshape(p, a, m),
            sigma2,
            epsilon4,
            self.cutoff * self.cutoff,
            keep=keep.reshape(p, a, m),
        ).astype(FLOAT_DTYPE)


@register_scoring("lennard-jones-cutoff")
class CutoffLennardJonesScoring(ScoringFunction):
    """Factory for cutoff-pruned LJ scorers (host-side acceleration)."""

    def __init__(
        self,
        forcefield: ForceField | None = None,
        cutoff: float = DEFAULT_CUTOFF,
        chunk_size: int | None = None,
        dtype: np.dtype | type = FLOAT_DTYPE,
    ) -> None:
        self.forcefield = forcefield if forcefield is not None else default_forcefield()
        self.cutoff = cutoff
        self.chunk_size = chunk_size
        self.dtype = dtype

    def shape(self, receptor: Receptor, ligand: Ligand) -> ScorerShape:
        """The bound scorer's facts from atom counts alone: no pair tables."""
        _, chunk = _checked_tiling(
            receptor, ligand, self.cutoff, self.chunk_size, self.dtype
        )
        n_pairs = receptor.n_atoms * ligand.n_atoms
        return ScorerShape(
            supports_spot_scoring=BoundCutoffLennardJones.supports_spot_scoring,
            n_pairs=n_pairs,
            chunk_size=chunk,
            flops_per_pose=float(n_pairs * OPS_PER_LJ_PAIR),
            n_receptor_atoms=receptor.n_atoms,
        )

    def bind(self, receptor: Receptor, ligand: Ligand) -> BoundCutoffLennardJones:
        return BoundCutoffLennardJones(
            receptor,
            ligand,
            self.forcefield,
            cutoff=self.cutoff,
            chunk_size=self.chunk_size,
            dtype=self.dtype,
        )
