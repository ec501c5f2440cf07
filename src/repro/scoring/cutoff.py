"""Cutoff-accelerated Lennard-Jones scoring.

LJ decays as ``r⁻⁶``; pairs beyond ~12 Å contribute negligibly. This scorer
prunes receptor atoms with a KD-tree: for each chunk of poses it gathers the
receptor atoms within ``cutoff + ligand_radius`` of the chunk's pose centres
and runs the dense kernel on that subset only. Because pose batches arrive
spot-major from the population layout, chunks are spatially tight and the
gathered subset is a fraction of the receptor.

This is a *host-side* optimisation: the modelled GPU kernel still performs
the full tiled ``n_rec × n_lig`` sweep (``flops_per_pose`` is inherited
unchanged from :class:`~repro.scoring.base.BoundScorer`), so using this
scorer changes nothing in the simulated timings — it only makes the Python
reproduction run faster. Accuracy versus the dense scorer is bounded by the
LJ tail beyond the cutoff (verified in tests to a loose tolerance).

Reduction order is *canonical*: energies sum only the within-cutoff pairs,
in (pose, ligand-atom, ascending receptor-index) order, via a compressed
:func:`numpy.add.reduceat`. The result therefore depends only on the set of
within-cutoff pairs — not on how the batch was chunked nor on how large a
receptor superset the KD-tree gathered — which is what lets the per-spot
pruned scorer (:mod:`repro.scoring.pruned`) and the process-parallel host
runtime (:mod:`repro.engine.host_runtime`) reproduce serial results
*bitwise*.

``dtype=float32`` selects the single-precision path — the same precision the
paper's CUDA kernels use — which is ~3× faster on the host.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_CUTOFF, FLOAT_DTYPE
from repro.errors import ScoringError
from repro.molecules.forcefield import ForceField, default_forcefield
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import (
    BoundScorer,
    ScoringFunction,
    auto_chunk_size,
    register_scoring,
)
from repro.scoring.lennard_jones import lj_energy_terms_inplace

__all__ = [
    "CutoffLennardJonesScoring",
    "BoundCutoffLennardJones",
    "lj_cutoff_energy_sums",
    "GATHER_SLACK",
]

#: Absolute slack (Å) added to KD-tree gather radii. The keep test is
#: ``r² ≤ cutoff²`` in the scorer's dtype; float32 round-off in the GEMM
#: distance can keep a pair whose true distance is marginally beyond the
#: cutoff, so gathers must over-reach slightly or a kept pair could be
#: missed by one gather geometry and found by another — breaking the
#: bitwise gather-invariance the canonical reduction otherwise provides.
GATHER_SLACK: float = 0.01


def lj_cutoff_energy_sums(
    r2: np.ndarray,
    sigma2: np.ndarray,
    epsilon4: np.ndarray,
    cutoff2: float,
) -> np.ndarray:
    """Per-pose LJ sums over within-cutoff pairs only, in canonical order.

    Compresses the kept pairs (``r² ≤ cutoff²``) of each pose into one flat
    run — pose-major, ligand-atom-major, receptor index ascending — computes
    the elementwise terms, and segment-sums with :func:`numpy.add.reduceat`.
    Because excluded pairs never enter the accumulation, the result is
    *bitwise* independent of which receptor superset was gathered and of how
    the batch was chunked (NumPy's pairwise summation groups differently for
    different array lengths, so summing explicit zeros would not be).

    Parameters
    ----------
    r2:
        ``(p, a, m)`` squared distances; the receptor axis must be in
        ascending receptor-index order. Not modified.
    sigma2, epsilon4:
        ``(a, m)`` pair tables aligned with ``r2``'s trailing axes.
    cutoff2:
        Squared cutoff distance; pairs with ``r² ≤ cutoff²`` are kept.

    Returns
    -------
    numpy.ndarray
        ``(p,)`` per-pose energy sums in ``r2``'s dtype.
    """
    p, a, m = r2.shape
    keep = r2 <= r2.dtype.type(cutoff2)
    counts = keep.sum(axis=(1, 2))
    sums = np.zeros(p, dtype=r2.dtype)
    if not counts.any():
        return sums
    terms = lj_energy_terms_inplace(
        r2[keep],
        np.broadcast_to(sigma2, r2.shape)[keep],
        np.broadcast_to(epsilon4, r2.shape)[keep],
    )
    offsets = np.zeros(p, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    nonzero = counts > 0
    sums[nonzero] = np.add.reduceat(terms, offsets[nonzero])
    return sums


class BoundCutoffLennardJones(BoundScorer):
    """KD-tree pruned LJ scorer for one complex."""

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
        if cutoff <= 0:
            raise ScoringError(f"cutoff must be positive, got {cutoff}")
        self.cutoff = float(cutoff)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ScoringError(f"dtype must be float32 or float64, got {dtype}")
        if chunk_size is not None:
            self.chunk_size = int(chunk_size)
        else:
            self.chunk_size = auto_chunk_size(
                receptor.n_atoms, ligand.n_atoms, self.dtype.itemsize
            )
        lig_classes = [str(e) for e in ligand.elements]
        rec_classes = [str(e) for e in receptor.elements]
        sigma, epsilon = forcefield.pair_tables(lig_classes, rec_classes)
        self._sigma2 = np.ascontiguousarray(sigma * sigma, dtype=self.dtype)
        self._epsilon4 = np.ascontiguousarray(4.0 * epsilon, dtype=self.dtype)
        self.receptor_coords = np.ascontiguousarray(receptor.coords, dtype=self.dtype)
        # The KD-tree is always built on the float64 coordinates so that the
        # gathered supersets are identical wherever the scorer is rebuilt
        # (e.g. in host-runtime worker processes), even on the float32 path.
        self._tree_coords = np.ascontiguousarray(receptor.coords, dtype=np.float64)
        from scipy.spatial import cKDTree

        self._tree = cKDTree(self._tree_coords)

    def _score_chunk(
        self, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        return self._score_posed_chunk(
            self.posed_ligand_coords(translations, quaternions)
        )

    def _score_posed_chunk(self, posed: np.ndarray) -> np.ndarray:
        # One shared receptor subset for the whole chunk: ball around the
        # chunk's bounding sphere of ligand atoms.
        flat_atoms = posed.reshape(-1, 3)
        center = flat_atoms.mean(axis=0)
        spread = float(np.linalg.norm(flat_atoms - center, axis=1).max())
        gather_radius = spread + self.cutoff + GATHER_SLACK
        idx = self._tree.query_ball_point(center, gather_radius)
        if len(idx) == 0:
            return np.zeros(posed.shape[0], dtype=FLOAT_DTYPE)
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        return self._score_gathered(posed, idx).astype(FLOAT_DTYPE)

    def _score_gathered(self, posed: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Score a chunk against the receptor subset ``idx`` (ascending).

        The canonical reduction makes the result bitwise independent of the
        subset, provided ``idx`` covers every within-cutoff receptor atom of
        every pose — the per-spot pruned scorer calls this with its own
        gathers.
        """
        rec = self.receptor_coords[idx]  # (m, 3) in self.dtype
        rec_sq = np.einsum("ij,ij->i", rec, rec)
        sigma2 = self._sigma2[:, idx]
        epsilon4 = self._epsilon4[:, idx]
        posed = posed.astype(self.dtype, copy=False)
        p, a, _ = posed.shape
        flat = posed.reshape(p * a, 3)
        lig_sq = np.einsum("ij,ij->i", flat, flat)
        # Squared distances via one GEMM: |lig|² + |rec|² − 2 lig·rec.
        r2 = flat @ rec.T
        r2 *= self.dtype.type(-2.0)
        r2 += lig_sq[:, None]
        r2 += rec_sq[None, :]
        return lj_cutoff_energy_sums(
            r2.reshape(p, a, -1), sigma2, epsilon4, self.cutoff * self.cutoff
        )


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

    def bind(self, receptor: Receptor, ligand: Ligand) -> BoundCutoffLennardJones:
        return BoundCutoffLennardJones(
            receptor,
            ligand,
            self.forcefield,
            cutoff=self.cutoff,
            chunk_size=self.chunk_size,
            dtype=self.dtype,
        )
