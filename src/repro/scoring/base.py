"""Scoring-function abstractions.

A :class:`ScoringFunction` is a *factory*: :meth:`ScoringFunction.bind`
precomputes everything that depends only on the (receptor, ligand) pair —
mixed LJ parameter tables, grids — and returns a
:class:`BoundScorer` whose :meth:`BoundScorer.score` evaluates batches of
poses. This mirrors the CUDA structure in the paper: per-complex constants
are staged once on the device, then scoring kernels are launched repeatedly
on candidate-solution batches.

The bound scorer also reports ``flops_per_pose``: the arithmetic cost the
*modelled* GPU kernel performs per conformation (always the full
``n_receptor × n_ligand`` interaction count with tiling, regardless of any
host-side pruning used to make the Python math fast). The hardware
performance model consumes this number.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import FLOAT_DTYPE
from repro.errors import ScoringError
from repro.molecules.structures import Ligand, Receptor
from repro.molecules.transforms import apply_poses

__all__ = [
    "BoundScorer",
    "ScorerShape",
    "ScoringFunction",
    "register_scoring",
    "get_scoring",
    "available_scorings",
    "auto_chunk_size",
    "check_poses",
    "check_spot_ids",
    "spot_groups",
    "OPS_PER_LJ_PAIR",
    "CHUNK_BUDGET_BYTES",
    "MIN_CHUNK_SIZE",
    "MAX_CHUNK_SIZE",
]

#: Floating-point operations per receptor-ligand atom pair in the tiled LJ
#: kernel: 3 subs + 3 muls + 2 adds (distance²), rsqrt-free form uses the
#: squared distance: 1 div, powers (~6), 4ε(..) (~4) ≈ 18; plus tile loads.
OPS_PER_LJ_PAIR: int = 18

#: Target size of the per-chunk pair matrix (the ``(poses, n_lig, n_rec)``
#: scratch that dominates peak memory) of the dense, tiled, soft-core and
#: batched scorers. 8 MiB is the block alone: with the elementwise
#: temporaries beside it a dense chunk's working set measured ~20 MB, an L3
#: size, chosen to fill the GEMM. The cutoff scorer — the default — does not
#: use it: it tiles by :data:`repro.scoring.cutoff.TILE_BUDGET_BYTES`.
CHUNK_BUDGET_BYTES: int = 8 * 1024 * 1024

#: Chunk-size clamp: below this the GEMM degenerates into tiny matmuls …
MIN_CHUNK_SIZE: int = 4

#: … above this the chunk loop stops amortising anything and scratch arrays
#: just grow.
MAX_CHUNK_SIZE: int = 256


def auto_chunk_size(
    n_receptor: int,
    n_ligand: int,
    itemsize: int = 8,
    budget_bytes: int = CHUNK_BUDGET_BYTES,
) -> int:
    """Poses per chunk so the pair matrix stays within ``budget_bytes``.

    ``clamp(budget_bytes / (n_rec * n_lig * itemsize))`` — one rule for every
    pairwise scorer, replacing the historical per-class constants (32 vs 16
    vs 64) that let big receptors blow peak memory and small ones under-fill
    the GEMM.
    """
    pair_bytes = max(1, int(n_receptor) * int(n_ligand) * int(itemsize))
    return int(np.clip(budget_bytes // pair_bytes, MIN_CHUNK_SIZE, MAX_CHUNK_SIZE))


def check_poses(
    translations: np.ndarray, quaternions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a pose batch; return it as ``(n, 3)`` / ``(n, 4)`` float arrays."""
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
    return translations, quaternions


def check_spot_ids(spot_ids: np.ndarray, n_poses: int) -> np.ndarray:
    """Validate one spot id per pose; return the ids as an int64 array.

    A shorter-than-batch id array used to be silently accepted (base scorers
    ignore the ids entirely; NumPy indexing would broadcast or truncate in
    spot-aware ones) — which turns a caller-side bookkeeping bug into wrong
    scores attributed to wrong spots. Both lengths are named in the error.
    """
    spot_ids = np.asarray(spot_ids, dtype=np.int64)
    if spot_ids.shape != (int(n_poses),):
        got = (
            spot_ids.shape[0] if spot_ids.ndim == 1 else f"shape {spot_ids.shape}"
        )
        raise ScoringError(
            f"score_spots got {got} spot ids for {int(n_poses)} poses; "
            "exactly one spot id per pose is required"
        )
    return spot_ids


def spot_groups(spot_ids: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Group a batch by spot id: ``(order, [(spot, lo, hi), ...])``.

    ``order[lo:hi]`` are the batch positions of one spot's poses, in batch
    order (the sort is stable); groups come in ascending spot id. Interleaved
    ids therefore form the same groups as a spot-major batch.
    """
    n = spot_ids.shape[0]
    order = np.argsort(spot_ids, kind="stable")
    if n == 0:
        return order, []
    sorted_ids = spot_ids[order]
    edges = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    return order, [
        (int(sorted_ids[lo]), int(lo), int(hi))
        for lo, hi in zip((0, *edges), (*edges, n))
    ]


def non_finite_error(out: np.ndarray, batch_shape: tuple[int, ...]) -> ScoringError:
    """Build the diagnostic for a batch that scored to NaN/inf.

    Names the offending pose indices (these surface from worker processes in
    the parallel host runtime, where "something was non-finite" alone is
    undebuggable) and the batch shape.
    """
    bad = np.flatnonzero(~np.isfinite(np.asarray(out)))
    shown = ", ".join(str(int(i)) for i in bad[:10])
    if bad.size > 10:
        shown += f", … ({bad.size - 10} more)"
    return ScoringError(
        f"scoring produced non-finite values for {bad.size} of {out.size} "
        f"poses (pose indices [{shown}]; batch shape {batch_shape})"
    )


class BoundScorer(ABC):
    """A scoring function specialised to one (receptor, ligand) pair."""

    #: Poses per evaluation chunk; bounds peak memory of the dense kernels.
    #: Set per-instance in ``__init__`` from the memory budget; subclasses
    #: may override with an explicit constructor argument.
    chunk_size: int = 32

    #: True for scorers whose :meth:`score_spots` exploits the spot ids of a
    #: batch (the cutoff scorer cuts its tiles inside spot groups).
    #: Evaluators check this flag and route through :meth:`score_spots`
    #: when set.
    supports_spot_scoring: bool = False

    def __init__(self, receptor: Receptor, ligand: Ligand) -> None:
        self.receptor = receptor
        self.ligand = ligand
        #: Ligand coordinates centred at the origin — poses are applied to
        #: these (see :func:`repro.molecules.transforms.apply_pose`).
        self.ligand_coords = np.ascontiguousarray(
            ligand.coords - ligand.coords.mean(axis=0), dtype=FLOAT_DTYPE
        )
        self.chunk_size = auto_chunk_size(
            receptor.n_atoms, ligand.n_atoms, np.dtype(FLOAT_DTYPE).itemsize
        )

    # ------------------------------------------------------------------
    @property
    def n_pairs(self) -> int:
        """Full receptor×ligand interaction count (modelled kernel work)."""
        return self.receptor.n_atoms * self.ligand.n_atoms

    @property
    def flops_per_pose(self) -> float:
        """Modelled floating-point operations to score one conformation."""
        return float(self.n_pairs * OPS_PER_LJ_PAIR)

    # ------------------------------------------------------------------
    def score(self, translations: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
        """Score a batch of poses; lower is better (free energy).

        Parameters
        ----------
        translations:
            ``(n_poses, 3)`` placements of the ligand centroid (Å).
        quaternions:
            ``(n_poses, 4)`` unit orientations.

        Returns
        -------
        numpy.ndarray
            ``(n_poses,)`` scores in kcal/mol.
        """
        translations, quaternions = check_poses(translations, quaternions)
        n = translations.shape[0]
        if n == 0:
            return np.empty(0, dtype=FLOAT_DTYPE)
        out = np.empty(n, dtype=FLOAT_DTYPE)
        for lo in range(0, n, self.chunk_size):
            hi = min(lo + self.chunk_size, n)
            out[lo:hi] = self._score_chunk(translations[lo:hi], quaternions[lo:hi])
        if not np.all(np.isfinite(out)):
            raise non_finite_error(out, translations.shape)
        return out

    def score_spots(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
    ) -> np.ndarray:
        """Score a batch whose poses are tagged with global spot indices.

        The base implementation ignores the spot ids for scoring (scorers
        with ``supports_spot_scoring = True`` override this to tile by
        spot), but still validates that there is exactly one id
        per pose — a mismatch is a caller bookkeeping bug, not something to
        broadcast away.
        """
        translations = np.asarray(translations, dtype=FLOAT_DTYPE)
        if translations.ndim == 2:
            check_spot_ids(spot_ids, translations.shape[0])
        return self.score(translations, quaternions)

    def score_one(self, translation: np.ndarray, quaternion: np.ndarray) -> float:
        """Score a single pose.

        Fast path for per-candidate calls (improvement loops evaluate one
        neighbour at a time): builds the ``(1, 3)``/``(1, 4)`` views and
        calls ``_score_chunk`` directly, skipping :meth:`score`'s batch
        bookkeeping — bitwise identical to ``score(t[None], q[None])[0]``,
        since a one-pose batch is exactly one chunk.
        """
        translation = np.asarray(translation, dtype=FLOAT_DTYPE)
        quaternion = np.asarray(quaternion, dtype=FLOAT_DTYPE)
        if translation.shape != (3,) or quaternion.shape != (4,):
            raise ScoringError(
                "score_one expects one pose — shapes (3,) and (4,), got "
                f"{translation.shape} and {quaternion.shape}"
            )
        out = self._score_chunk(translation[None, :], quaternion[None, :])
        value = float(out[0])
        if not np.isfinite(value):
            raise non_finite_error(np.asarray(out), (1, 3))
        return value

    def posed_ligand_coords(
        self, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        """``(n_poses, n_lig_atoms, 3)`` transformed ligand coordinates."""
        return apply_poses(self.ligand_coords, translations, quaternions)

    def score_coords(self, posed: np.ndarray) -> np.ndarray:
        """Score pre-built ligand coordinate sets.

        The flexible-ligand extension builds conformers whose *internal*
        geometry varies per pose, so the rigid ``(translation, quaternion)``
        channel is not enough; this entry point scores arbitrary
        ``(n_poses, n_lig_atoms, 3)`` coordinate batches. Supported by the
        pairwise scorers (dense/cutoff/tiled/soft-core); grid/composite
        scorers raise.
        """
        posed = np.asarray(posed, dtype=FLOAT_DTYPE)
        if posed.ndim != 3 or posed.shape[1:] != (self.ligand.n_atoms, 3):
            raise ScoringError(
                f"posed coords must have shape (n, {self.ligand.n_atoms}, 3), "
                f"got {posed.shape}"
            )
        n = posed.shape[0]
        if n == 0:
            return np.empty(0, dtype=FLOAT_DTYPE)
        out = np.empty(n, dtype=FLOAT_DTYPE)
        for lo in range(0, n, self.chunk_size):
            hi = min(lo + self.chunk_size, n)
            out[lo:hi] = self._score_posed_chunk(posed[lo:hi])
        if not np.all(np.isfinite(out)):
            raise non_finite_error(out, posed.shape)
        return out

    def _score_posed_chunk(self, posed: np.ndarray) -> np.ndarray:
        """Score one chunk of pre-built coordinates (optional capability)."""
        raise ScoringError(
            f"{type(self).__name__} does not support scoring raw coordinates"
        )

    @abstractmethod
    def _score_chunk(
        self, translations: np.ndarray, quaternions: np.ndarray
    ) -> np.ndarray:
        """Score one validated chunk of poses (implemented by subclasses)."""


@dataclass(frozen=True)
class ScorerShape:
    """What a launch planner reads off a bound scorer: no tables, no scoring.

    The process that plans a pooled launch and records its
    :class:`~repro.metaheuristics.evaluation.LaunchRecord` never scores, so
    these five facts are all it needs of the scorer its workers bind.
    """

    supports_spot_scoring: bool
    n_pairs: int
    chunk_size: int
    flops_per_pose: float
    n_receptor_atoms: int

    @classmethod
    def of(cls, scorer: BoundScorer) -> "ScorerShape":
        """The facts of an already-bound scorer."""
        return cls(
            supports_spot_scoring=scorer.supports_spot_scoring,
            n_pairs=scorer.n_pairs,
            chunk_size=scorer.chunk_size,
            flops_per_pose=scorer.flops_per_pose,
            n_receptor_atoms=scorer.receptor.n_atoms,
        )


class ScoringFunction(ABC):
    """Factory producing :class:`BoundScorer` instances for complexes."""

    #: Registry key; subclasses override.
    name: str = ""

    @abstractmethod
    def bind(self, receptor: Receptor, ligand: Ligand) -> BoundScorer:
        """Precompute pair data and return a bound scorer."""

    def shape(self, receptor: Receptor, ligand: Ligand) -> ScorerShape:
        """The :class:`ScorerShape` of ``bind(receptor, ligand)``.

        This default binds, reads the facts and drops the scorer, so a
        factory that defines only :meth:`bind` works everywhere; a factory
        whose facts follow from atom counts overrides it with the
        arithmetic.
        """
        return ScorerShape.of(self.bind(receptor, ligand))


_REGISTRY: dict[str, Callable[[], ScoringFunction]] = {}

#: Importing these registers the built-in scorers. ``repro.scoring`` loads
#: them only on use, so a lookup loads them before it reports a name missing.
_BUILTIN_MODULES = (
    "batched", "composite", "coulomb", "cutoff", "gridmap", "hbond",
    "lennard_jones", "softcore", "tiled",
)


def _load_builtin_scorings() -> None:
    for module in _BUILTIN_MODULES:
        importlib.import_module(f"repro.scoring.{module}")


def register_scoring(name: str) -> Callable[[type], type]:
    """Class decorator registering a scoring function under ``name``."""

    def decorate(cls: type) -> type:
        if name in _REGISTRY:
            raise ScoringError(f"scoring function {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_scoring(name: str, **kwargs) -> ScoringFunction:
    """Instantiate a registered scoring function by name."""
    if name not in _REGISTRY:
        _load_builtin_scorings()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ScoringError(
            f"unknown scoring function {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_scorings() -> tuple[str, ...]:
    """Names of all registered scoring functions."""
    _load_builtin_scorings()
    return tuple(sorted(_REGISTRY))
