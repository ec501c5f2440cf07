"""Scoring functions: the fitness landscape the metaheuristics optimise."""

from repro import _lazy_exports
from repro.scoring.base import (
    CHUNK_BUDGET_BYTES,
    OPS_PER_LJ_PAIR,
    BoundScorer,
    ScoringFunction,
    auto_chunk_size,
    available_scorings,
    check_spot_ids,
    get_scoring,
    register_scoring,
)
from repro.scoring.cutoff import BoundCutoffLennardJones, CutoffLennardJonesScoring
from repro.scoring.lennard_jones import (
    BoundLennardJones,
    LennardJonesScoring,
    lj_energy_from_r2,
)

__all__ = [
    "CHUNK_BUDGET_BYTES",
    "DEFAULT_TILE",
    "OPS_PER_LJ_PAIR",
    "BatchedLJScoring",
    "BoundBatchedLJ",
    "BoundComposite",
    "BoundCoulomb",
    "BoundCutoffLennardJones",
    "BoundGridMap",
    "BoundHydrogenBond",
    "BoundLennardJones",
    "BoundReferenceLJ",
    "BoundScorer",
    "BoundSoftcoreLJ",
    "BoundTiledLennardJones",
    "CompositeScoring",
    "CoulombScoring",
    "CutoffLennardJonesScoring",
    "GridMapScoring",
    "HydrogenBondScoring",
    "LennardJonesScoring",
    "ReferenceLJScoring",
    "ScoringFunction",
    "SoftcoreLJScoring",
    "TiledLennardJonesScoring",
    "auto_chunk_size",
    "available_scorings",
    "batched_chunk_size",
    "check_spot_ids",
    "get_scoring",
    "lj_energy_from_r2",
    "make_lj_coulomb",
    "register_scoring",
]

# Off the campaign path: loaded on first use. ``get_scoring`` and
# ``available_scorings`` load the built-in scorers they register themselves.
__getattr__ = _lazy_exports(globals(), {
    "repro.scoring.batched": ("BatchedLJScoring", "BoundBatchedLJ", "batched_chunk_size"),
    "repro.scoring.composite": ("BoundComposite", "CompositeScoring", "make_lj_coulomb"),
    "repro.scoring.coulomb": ("BoundCoulomb", "CoulombScoring"),
    "repro.scoring.gridmap": ("BoundGridMap", "GridMapScoring"),
    "repro.scoring.hbond": ("BoundHydrogenBond", "HydrogenBondScoring"),
    "repro.scoring.reference": ("BoundReferenceLJ", "ReferenceLJScoring"),
    "repro.scoring.softcore": ("BoundSoftcoreLJ", "SoftcoreLJScoring"),
    "repro.scoring.tiled": ("DEFAULT_TILE", "BoundTiledLennardJones", "TiledLennardJonesScoring"),
})
