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

import numpy as np

from repro.constants import DEFAULT_CUTOFF, FLOAT_DTYPE
from repro.errors import ScoringError
from repro.molecules.spots import Spot
from repro.scoring.base import (
    BoundScorer,
    ScoringFunction,
    check_poses,
    check_spot_ids,
    non_finite_error,
    spot_groups,
)
from repro.scoring.cutoff import GATHER_SLACK, BoundCutoffLennardJones, tile_bounds
from repro.scoring.lennard_jones import BoundLennardJones, lj_energy_sum_inplace

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
    rec: np.ndarray  # subset coords
    rec_sq: np.ndarray | None = None  # dense mode only, like the tables
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
        self.subsets = spot_prune_indices(self.receptor.coords, spots, self.margin)
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
        translations, quaternions = check_poses(translations, quaternions)
        n = translations.shape[0]
        spot_ids = check_spot_ids(spot_ids, n)
        if n == 0:
            return np.empty(0, dtype=FLOAT_DTYPE)
        out = np.empty(n, dtype=FLOAT_DTYPE)
        posed = self.posed_ligand_coords(translations, quaternions)
        order, groups = spot_groups(spot_ids)
        for spot, lo, hi in groups:
            rows = order[lo:hi]
            out[rows] = self._score_group(
                spot, translations[rows], quaternions[rows], posed[rows]
            )
        if not np.all(np.isfinite(out)):
            raise non_finite_error(out, translations.shape)
        return out

    def _score_group(
        self,
        spot: int,
        translations: np.ndarray,
        quaternions: np.ndarray,
        posed: np.ndarray,
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
            return self._score_pruned(spot, posed)
        out = np.empty(translations.shape[0], dtype=FLOAT_DTYPE)
        outside = ~in_box
        self._charge(int(outside.sum()), self.receptor.n_atoms)
        out[outside] = self.inner.score(translations[outside], quaternions[outside])
        if in_box.any():
            out[in_box] = self._score_pruned(spot, posed[in_box])
        return out

    def _score_pruned(self, spot: int, posed: np.ndarray) -> np.ndarray:
        view = self._view(spot)
        n = posed.shape[0]
        out = np.empty(n, dtype=FLOAT_DTYPE)
        # In cutoff mode these are the inner scorer's own tiles, so its gathers
        # bound ours; dense-mode chunking is invisible either way.
        for lo, hi in tile_bounds(n, self.chunk_size):
            out[lo:hi] = self._score_pruned_chunk(view, posed[lo:hi])
        return out

    def _score_pruned_chunk(self, view: _SpotView, posed: np.ndarray) -> np.ndarray:
        if self.mode == "cutoff":
            # The cutoff scorer's own tile gather, restricted to the spot
            # subset: never more atoms than the unpruned path touches, and
            # still a superset of every within-cutoff pair, so the canonical
            # reduction is bitwise unchanged.
            idx = self.inner._gather(posed, view.idx, view.rec)
            self._charge(posed.shape[0], int(idx.size))
            return self.inner._score_gathered(posed, idx)
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
        rec = np.ascontiguousarray(self.inner.receptor_coords[idx])
        if self.mode == "cutoff":
            view = _SpotView(idx=idx, rec=rec)
        else:
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
