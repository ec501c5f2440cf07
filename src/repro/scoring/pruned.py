"""Per-spot receptor pruning: score each spot against its active-site subset.

Spots are fixed spheres on the receptor surface, and every metaheuristic
operator clips translations back into its spot's search box
(:meth:`repro.metaheuristics.context.SearchContext.clip_to_bounds`). Poses
belonging to a spot therefore can only ever interact with receptor atoms
near that spot — so each spot's scoring GEMM can shrink from ``n_receptor``
columns to the precomputed subset of receptor atoms within reach of the
spot's box. This is the input-aware pruning direction of Accordi et al.
(*Improving computation efficiency using input and architecture features*),
applied at the host level.

Exactness contract:

* Wrapping :class:`~repro.scoring.cutoff.BoundCutoffLennardJones` is
  **exact — bitwise**. The subset margin is ``ligand_extent + cutoff``, so
  every within-cutoff pair of every in-box pose survives pruning, and the
  cutoff scorer's canonical reduction
  (:func:`~repro.scoring.cutoff.lj_cutoff_energy_sums`) makes the energy
  independent of the gathered superset.
* Wrapping :class:`~repro.scoring.lennard_jones.BoundLennardJones` is
  **approximate**: the dense sum runs over all pairs, so dropping
  beyond-``prune_cutoff`` receptor atoms truncates the LJ tail. The
  truncation is bounded by ``n_dropped · n_lig · max(4ε) · (max σ²/c²)³``
  per pose, reported per spot in :attr:`BoundSpotPruned.error_bounds`.

Poses that fall outside their spot's box (or carry an unknown spot id) are
scored through the unpruned inner scorer, so pruning never changes *which*
answer is produced — only how much of the receptor is touched computing it.

``flops_per_pose`` stays the full dense ``n_receptor × n_ligand`` count per
the contract in :mod:`repro.scoring.base`: the *modelled* GPU kernel still
sweeps everything; pruning only accelerates the Python host math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import DEFAULT_CUTOFF, FLOAT_DTYPE
from repro.errors import ScoringError
from repro.molecules.spots import Spot
from repro.scoring.base import (
    BoundScorer,
    ScoringFunction,
    check_spot_ids,
    non_finite_error,
)
from repro.scoring.cutoff import GATHER_SLACK, BoundCutoffLennardJones
from repro.scoring.lennard_jones import BoundLennardJones, lj_energy_sum_inplace

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = ["spot_prune_indices", "prune_bound", "BoundSpotPruned", "SpotPrunedScoring"]

#: Tolerance (Å) for the "translation inside the spot box" test; operators
#: clip exactly to the box, so anything beyond round-off means a pose from a
#: different pipeline and is routed to the unpruned fallback.
_BOX_EPS: float = 1e-9


def spot_prune_indices(
    receptor_coords: np.ndarray,
    spots: list[Spot],
    margin: float,
) -> dict[int, np.ndarray]:
    """Receptor-atom subset within ``margin`` of each spot's search box.

    Uses the exact point-to-axis-aligned-box distance for the box
    ``center ± radius`` (the region translations are clipped into), so the
    subsets are as tight as the geometry allows without per-pose knowledge.

    Returns a mapping ``spot.index -> sorted int64 atom indices``.
    """
    coords = np.asarray(receptor_coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ScoringError(f"receptor coords must be (n, 3), got {coords.shape}")
    if margin < 0:
        raise ScoringError(f"margin must be non-negative, got {margin}")
    subsets: dict[int, np.ndarray] = {}
    for spot in spots:
        d = np.abs(coords - np.asarray(spot.center, dtype=np.float64)[None, :])
        d -= spot.radius
        np.maximum(d, 0.0, out=d)
        dist2 = np.einsum("ij,ij->i", d, d)
        subsets[spot.index] = np.flatnonzero(dist2 <= margin * margin).astype(np.int64)
    return subsets


@dataclass
class _SpotView:
    """Lazily built per-spot scoring state (one per spot actually scored)."""

    idx: np.ndarray  # sorted global receptor-atom indices
    tree: cKDTree | None = None  # cutoff mode: KD-tree over the subset
    rec: np.ndarray | None = None  # dense mode: subset coords
    rec_sq: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    epsilon4: np.ndarray | None = None


class BoundSpotPruned(BoundScorer):
    """Spot-aware wrapper pruning the receptor per spot.

    Parameters
    ----------
    inner:
        The scorer to accelerate — a
        :class:`~repro.scoring.cutoff.BoundCutoffLennardJones` (exact) or a
        :class:`~repro.scoring.lennard_jones.BoundLennardJones`
        (bounded-error; see module docstring).
    spots:
        The search spots; their ``center``/``radius`` boxes define the
        subsets.
    prune_cutoff:
        Interaction reach used for pruning. Defaults to the inner scorer's
        ``cutoff`` (cutoff mode) or :data:`repro.constants.DEFAULT_CUTOFF`
        (dense mode).
    """

    supports_spot_scoring = True

    def __init__(
        self,
        inner: BoundScorer,
        spots: list[Spot],
        prune_cutoff: float | None = None,
    ) -> None:
        if isinstance(inner, BoundCutoffLennardJones):
            self.mode = "cutoff"
            reach = inner.cutoff if prune_cutoff is None else float(prune_cutoff)
            if reach < inner.cutoff:
                raise ScoringError(
                    f"prune_cutoff {reach} below the scoring cutoff "
                    f"{inner.cutoff} would change cutoff-scorer results"
                )
        elif isinstance(inner, BoundLennardJones):
            self.mode = "dense"
            reach = DEFAULT_CUTOFF if prune_cutoff is None else float(prune_cutoff)
        else:
            raise ScoringError(
                f"spot pruning supports the dense/cutoff LJ scorers, "
                f"not {type(inner).__name__}"
            )
        if not spots:
            raise ScoringError("spot pruning needs at least one spot")
        super().__init__(inner.receptor, inner.ligand)
        self.inner = inner
        self.chunk_size = inner.chunk_size
        self.prune_cutoff = float(reach)
        #: Farthest ligand atom from the centroid — poses reach at most this
        #: far beyond their translation.
        self.lig_extent = float(np.linalg.norm(self.ligand_coords, axis=1).max())
        self.margin = self.lig_extent + self.prune_cutoff + GATHER_SLACK
        tree_coords = (
            inner._tree_coords if self.mode == "cutoff" else inner.receptor_coords
        )
        self._tree_coords = np.asarray(tree_coords, dtype=np.float64)
        self.subsets = spot_prune_indices(self._tree_coords, spots, self.margin)
        order = sorted(self.subsets)
        by_index = {s.index: s for s in spots}
        self.spot_indices = np.asarray(order, dtype=np.int64)
        self.spot_centers = np.ascontiguousarray(
            [by_index[i].center for i in order], dtype=np.float64
        )
        self.spot_radii = np.asarray(
            [by_index[i].radius for i in order], dtype=np.float64
        )
        self._finish_init()

    @classmethod
    def _from_parts(
        cls,
        inner: BoundScorer,
        mode: str,
        prune_cutoff: float,
        lig_extent: float,
        margin: float,
        subsets: dict[int, np.ndarray],
        spot_indices: np.ndarray,
        spot_centers: np.ndarray,
        spot_radii: np.ndarray,
    ) -> "BoundSpotPruned":
        """Rebuild from precomputed parts (host-runtime worker processes).

        Skips all geometry recomputation: the parent's subsets are reused
        verbatim so worker results are bitwise identical to the parent's.
        """
        self = cls.__new__(cls)
        self.inner = inner
        self.mode = mode
        self.receptor = inner.receptor
        self.ligand = inner.ligand
        self.ligand_coords = inner.ligand_coords
        self.chunk_size = inner.chunk_size
        self.prune_cutoff = float(prune_cutoff)
        self.lig_extent = float(lig_extent)
        self.margin = float(margin)
        self._tree_coords = (
            inner._tree_coords if mode == "cutoff" else inner.receptor_coords
        )
        self.subsets = subsets
        self.spot_indices = np.asarray(spot_indices, dtype=np.int64)
        self.spot_centers = np.asarray(spot_centers, dtype=np.float64)
        self.spot_radii = np.asarray(spot_radii, dtype=np.float64)
        self._finish_init()
        return self

    def _finish_init(self) -> None:
        self._spot_row = {int(s): i for i, s in enumerate(self.spot_indices)}
        self._views: dict[int, _SpotView] = {}
        self.reset_pair_stats()
        n_rec = self.receptor.n_atoms
        n_lig = self.ligand.n_atoms
        if self.mode == "dense":
            # Tail bound per dropped pair at r ≥ c: |4ε(s¹²−s⁶)| ≤ 4ε s⁶.
            c2 = self.prune_cutoff * self.prune_cutoff
            s2_max = float(np.max(self.inner._sigma2)) / c2
            per_pair = float(np.max(self.inner._epsilon4)) * s2_max**3
            self.error_bounds = {
                spot: float((n_rec - idx.size) * n_lig * per_pair)
                for spot, idx in self.subsets.items()
            }
        else:
            self.error_bounds = {spot: 0.0 for spot in self.subsets}

    # ------------------------------------------------------------------
    # pair accounting
    # ------------------------------------------------------------------
    def reset_pair_stats(self) -> None:
        """Zero the evaluated/dense pair counters."""
        self.pairs_evaluated = 0
        self.pairs_dense = 0

    @property
    def prune_ratio(self) -> float:
        """Dense pair count over actually evaluated pairs (≥ 1 is a win)."""
        if self.pairs_evaluated == 0:
            return float("nan")
        return self.pairs_dense / self.pairs_evaluated

    def _charge(self, n_poses: int, gathered: int) -> None:
        self.pairs_evaluated += n_poses * self.ligand.n_atoms * gathered
        self.pairs_dense += n_poses * self.n_pairs

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _score_chunk(
        self, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        # Plain (spot-blind) scoring cannot prune; delegate to the inner
        # scorer. chunk_size matches inner's, so the chunk grid is identical
        # to calling inner.score directly.
        self._charge(translations.shape[0], self.receptor.n_atoms)
        return self.inner._score_chunk(translations, quaternions)

    def score_spots(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
    ) -> np.ndarray:
        """Score poses against their spots' receptor subsets.

        Poses are grouped by spot id (stable within a group, so results land
        back in input order); each group is scored in ``chunk_size`` chunks
        against its subset. Out-of-box or unknown-spot poses fall back to the
        unpruned inner scorer.
        """
        translations = np.asarray(translations, dtype=FLOAT_DTYPE)
        quaternions = np.asarray(quaternions, dtype=FLOAT_DTYPE)
        if translations.ndim != 2 or translations.shape[1] != 3:
            raise ScoringError(
                f"translations must have shape (n, 3), got {translations.shape}"
            )
        if quaternions.shape != (translations.shape[0], 4):
            raise ScoringError(
                "quaternions must have shape "
                f"({translations.shape[0]}, 4), got {quaternions.shape}"
            )
        n = translations.shape[0]
        spot_ids = check_spot_ids(spot_ids, n)
        if n == 0:
            return np.empty(0, dtype=FLOAT_DTYPE)
        out = np.empty(n, dtype=FLOAT_DTYPE)
        order = np.argsort(spot_ids, kind="stable")
        sorted_ids = spot_ids[order]
        start = 0
        while start < n:
            end = int(np.searchsorted(sorted_ids, sorted_ids[start], side="right"))
            rows = order[start:end]
            out[rows] = self._score_group(
                int(sorted_ids[start]), translations[rows], quaternions[rows]
            )
            start = end
        if not np.all(np.isfinite(out)):
            raise non_finite_error(out, translations.shape)
        return out

    def _score_group(
        self, spot: int, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        row = self._spot_row.get(spot)
        if row is None:
            self._charge(translations.shape[0], self.receptor.n_atoms)
            return self.inner.score(translations, quaternions)
        in_box = np.all(
            np.abs(translations - self.spot_centers[row])
            <= self.spot_radii[row] + _BOX_EPS,
            axis=1,
        )
        if in_box.all():
            return self._score_pruned(spot, translations, quaternions)
        out = np.empty(translations.shape[0], dtype=FLOAT_DTYPE)
        outside = ~in_box
        self._charge(int(outside.sum()), self.receptor.n_atoms)
        out[outside] = self.inner.score(translations[outside], quaternions[outside])
        if in_box.any():
            out[in_box] = self._score_pruned(
                spot, translations[in_box], quaternions[in_box]
            )
        return out

    def _score_pruned(
        self, spot: int, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        view = self._view(spot)
        n = translations.shape[0]
        out = np.empty(n, dtype=FLOAT_DTYPE)
        for lo in range(0, n, self.chunk_size):
            hi = min(lo + self.chunk_size, n)
            out[lo:hi] = self._score_pruned_chunk(
                view, translations[lo:hi], quaternions[lo:hi]
            )
        return out

    def _score_pruned_chunk(
        self, view: _SpotView, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        posed = self.posed_ligand_coords(translations, quaternions)
        if self.mode == "cutoff":
            # Gather the union of per-pose reach balls over the spot subset:
            # tighter than one chunk-wide ball, and still a superset of every
            # within-cutoff pair, so the canonical reduction is bitwise
            # unchanged.
            reach = self.lig_extent + self.inner.cutoff + GATHER_SLACK
            hits = view.tree.query_ball_point(translations, reach)
            local = np.unique(
                np.concatenate([np.asarray(h, dtype=np.int64) for h in hits])
                if len(hits)
                else np.empty(0, dtype=np.int64)
            )
            self._charge(posed.shape[0], int(local.size))
            if local.size == 0:
                return np.zeros(posed.shape[0], dtype=FLOAT_DTYPE)
            idx = view.idx[local]  # ascending: view.idx sorted, local sorted
            return self.inner._score_gathered(posed, idx).astype(FLOAT_DTYPE)
        # dense mode: full subset, no per-chunk gather
        self._charge(posed.shape[0], int(view.idx.size))
        if view.idx.size == 0:
            return np.zeros(posed.shape[0], dtype=FLOAT_DTYPE)
        p, a, _ = posed.shape
        flat = posed.reshape(p * a, 3)
        lig_sq = np.einsum("ij,ij->i", flat, flat)
        r2 = flat @ view.rec.T
        r2 *= -2.0
        r2 += lig_sq[:, None]
        r2 += view.rec_sq[None, :]
        return lj_energy_sum_inplace(
            r2.reshape(p, a, -1), view.sigma2, view.epsilon4
        ).astype(FLOAT_DTYPE)

    def _view(self, spot: int) -> _SpotView:
        view = self._views.get(spot)
        if view is not None:
            return view
        idx = self.subsets[spot]
        if self.mode == "cutoff":
            from scipy.spatial import cKDTree

            view = _SpotView(idx=idx, tree=cKDTree(self._tree_coords[idx]))
        else:
            rec = np.ascontiguousarray(self.inner.receptor_coords[idx])
            view = _SpotView(
                idx=idx,
                rec=rec,
                rec_sq=np.einsum("ij,ij->i", rec, rec),
                sigma2=np.ascontiguousarray(self.inner._sigma2[:, idx]),
                epsilon4=np.ascontiguousarray(self.inner._epsilon4[:, idx]),
            )
        self._views[spot] = view
        return view


def prune_bound(
    scorer: BoundScorer,
    spots: list[Spot],
    prune_cutoff: float | None = None,
) -> BoundSpotPruned:
    """Wrap an already-bound dense/cutoff LJ scorer with per-spot pruning."""
    return BoundSpotPruned(scorer, spots, prune_cutoff=prune_cutoff)


class SpotPrunedScoring(ScoringFunction):
    """Factory wrapping another scoring factory with per-spot pruning.

    Spots must be known before binding, so this factory takes them up front —
    use :func:`prune_bound` when the inner scorer is already bound.
    """

    name = "spot-pruned"

    def __init__(
        self,
        spots: list[Spot],
        inner: ScoringFunction | None = None,
        prune_cutoff: float | None = None,
    ) -> None:
        from repro.scoring.cutoff import CutoffLennardJonesScoring

        self.spots = spots
        self.inner = (
            inner
            if inner is not None
            else CutoffLennardJonesScoring(dtype=np.float32)
        )
        self.prune_cutoff = prune_cutoff

    def bind(self, receptor, ligand) -> BoundSpotPruned:
        return prune_bound(
            self.inner.bind(receptor, ligand), self.spots, self.prune_cutoff
        )
