"""Scoring functions: the fitness landscape the metaheuristics optimise."""

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
from repro.scoring.batched import (
    BatchedLJScoring,
    BoundBatchedLJ,
    batched_chunk_size,
)
from repro.scoring.composite import BoundComposite, CompositeScoring, make_lj_coulomb
from repro.scoring.coulomb import BoundCoulomb, CoulombScoring
from repro.scoring.cutoff import BoundCutoffLennardJones, CutoffLennardJonesScoring
from repro.scoring.gridmap import BoundGridMap, GridMapScoring
from repro.scoring.hbond import BoundHydrogenBond, HydrogenBondScoring
from repro.scoring.lennard_jones import (
    BoundLennardJones,
    LennardJonesScoring,
    lj_energy_from_r2,
)
from repro.scoring.reference import BoundReferenceLJ, ReferenceLJScoring
from repro.scoring.softcore import BoundSoftcoreLJ, SoftcoreLJScoring
from repro.scoring.tiled import (
    DEFAULT_TILE,
    BoundTiledLennardJones,
    TiledLennardJonesScoring,
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
