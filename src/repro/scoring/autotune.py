"""Input-aware kernel autotuning: calibration tables and variant selection.

Following "Improving computation efficiency using input and architecture
features" (arXiv 2303.06150), the best scoring kernel and chunk size depend
jointly on the input size and the machine — no single static choice wins
everywhere. This module makes the choice *measured* instead of hard-coded:

* A **calibration table** persists throughput measurements per *feature
  cell* ``(receptor_atoms, ligand_atoms, worker_count)``, one row per
  ``(variant, chunk_size)`` candidate, produced by the one-time
  ``repro-vs calibrate`` sweep (:func:`run_calibration_sweep`).
* A **selector** (:class:`KernelSelector`) picks the fastest recorded
  ``(variant, chunk_size)`` for a complex — exact feature-cell match when
  available (``autotune.cell_hits``), nearest cell in log-feature space
  otherwise (``autotune.cell_misses``).
* A per-campaign **controller** (:class:`AutotuneController`) pins each
  feature cell's selection for the whole campaign and refines the table's
  throughput expectations online from observed poses/s with hysteresis
  (EWMA + margin + patience, ``autotune.refinements``).

Two invariants shape the design:

**Numerics families.** A selection never crosses a numerics family: exact
double-precision LJ (dense / tiled / batched) may substitute for each
other, but a cutoff approximation never silently replaces an exact scorer
(or vice versa), and float32 never replaces float64. Scorings outside the
known families (soft-core, composite, grids, custom classes) pass through
untouched. Autotuning changes *which* kernel runs, never *what* it
computes — up to the GEMM-association round-off documented per family.

**Bitwise reproducibility.** Selection is a pure function of (table,
features), and the controller pins it at first use per feature cell — so
for a fixed calibration table, a campaign scores every ligand with the
same ``(variant, chunk_size)`` in every execution mode, and the host
runtime's grid-aligned planning then makes parallel scores bitwise equal
to serial ones. Online refinement deliberately does **not** switch the
active selection mid-campaign (a wall-clock-driven switch would make two
runs of the same campaign disagree in the low bits): it accumulates into
a *refined* table (:meth:`AutotuneController.refined_table`) that seeds
the next campaign. Hysteresis — sustained shortfall beyond the margin for
``patience`` consecutive observations — keeps transient stalls (page
cache, a neighbour process) from demoting a healthy cell, so expectations
never flip-flop.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from threading import Lock

import numpy as np

from repro import observability as obs
from repro.constants import FLOAT_DTYPE
from repro.errors import ScoringError
from repro.scoring.base import (
    MAX_CHUNK_SIZE,
    ScoringFunction,
    auto_chunk_size,
)
from repro.scoring.batched import (
    BATCHED_MAX_CHUNK_SIZE,
    BatchedLJScoring,
    batched_chunk_size,
)
from repro.scoring.cutoff import CutoffLennardJonesScoring, cutoff_tile_size
from repro.scoring.lennard_jones import LennardJonesScoring
from repro.scoring.tiled import TiledLennardJonesScoring

__all__ = [
    "CALIBRATION_FORMAT_VERSION",
    "CalibrationCell",
    "CalibrationTable",
    "Selection",
    "KernelSelector",
    "AutotuneController",
    "scoring_family",
    "variant_candidates",
    "run_calibration_sweep",
]

CALIBRATION_FORMAT_VERSION = 1

#: Hysteresis margin: observed throughput must fall below expectation by
#: this factor before a shortfall counts (and a candidate would need to
#: beat the incumbent by the same factor to displace it on re-selection).
DEFAULT_MARGIN = 1.15

#: Consecutive shortfall observations before a refinement lands.
DEFAULT_PATIENCE = 3

#: EWMA smoothing for observed poses/s.
EWMA_ALPHA = 0.3


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationCell:
    """One throughput measurement: a (feature cell, variant, chunk) row."""

    receptor_atoms: int
    ligand_atoms: int
    worker_count: int
    family: str
    variant: str
    chunk_size: int
    poses_per_s: float

    @property
    def features(self) -> tuple[int, int, int]:
        return (self.receptor_atoms, self.ligand_atoms, self.worker_count)

    def to_json(self) -> dict:
        return {
            "receptor_atoms": self.receptor_atoms,
            "ligand_atoms": self.ligand_atoms,
            "worker_count": self.worker_count,
            "family": self.family,
            "variant": self.variant,
            "chunk_size": self.chunk_size,
            "poses_per_s": self.poses_per_s,
        }

    @classmethod
    def from_json(cls, row: dict) -> "CalibrationCell":
        try:
            return cls(
                receptor_atoms=int(row["receptor_atoms"]),
                ligand_atoms=int(row["ligand_atoms"]),
                worker_count=int(row["worker_count"]),
                family=str(row["family"]),
                variant=str(row["variant"]),
                chunk_size=int(row["chunk_size"]),
                poses_per_s=float(row["poses_per_s"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScoringError(f"malformed calibration cell {row!r}: {exc}") from None


class CalibrationTable:
    """A persisted set of :class:`CalibrationCell` measurements."""

    def __init__(self, cells: list[CalibrationCell] | None = None) -> None:
        self.cells: list[CalibrationCell] = list(cells or [])

    def __len__(self) -> int:
        return len(self.cells)

    def add(self, cell: CalibrationCell) -> None:
        self.cells.append(cell)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        ordered = sorted(
            self.cells,
            key=lambda c: (c.family, c.features, c.variant, c.chunk_size),
        )
        return {
            "format_version": CALIBRATION_FORMAT_VERSION,
            "kind": "repro-vs-calibration",
            "cells": [c.to_json() for c in ordered],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CalibrationTable":
        if not isinstance(doc, dict) or doc.get("kind") != "repro-vs-calibration":
            raise ScoringError(
                "not a calibration table (missing kind='repro-vs-calibration')"
            )
        version = doc.get("format_version")
        if version != CALIBRATION_FORMAT_VERSION:
            raise ScoringError(
                f"calibration table format_version {version!r} unsupported "
                f"(expected {CALIBRATION_FORMAT_VERSION})"
            )
        return cls([CalibrationCell.from_json(row) for row in doc.get("cells", [])])

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationTable":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ScoringError(f"calibration file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ScoringError(f"unreadable calibration file {path}: {exc}") from None
        return cls.from_json(doc)

    # ------------------------------------------------------------------
    def lookup(
        self,
        family: str,
        receptor_atoms: int,
        ligand_atoms: int,
        worker_count: int,
    ) -> tuple[CalibrationCell | None, bool]:
        """Best cell for the features: ``(cell, exact_feature_match)``.

        Deterministic by construction: nearest feature point under
        :func:`_log_distance` (ties broken by the feature tuple), then the
        highest recorded throughput within it (ties broken by variant name
        and chunk size) — the same table and features always produce the
        same cell, which is what makes selection reproducible.
        """
        features = (int(receptor_atoms), int(ligand_atoms), int(worker_count))
        candidates = [c for c in self.cells if c.family == family]
        if not candidates:
            return None, False
        # Log-feature distance: sizes span orders of magnitude, so a ratio
        # metric is the meaningful one (+1 keeps worker_count=0 finite).
        nearest = min(
            {c.features for c in candidates},
            key=lambda f: (_log_distance_key(f, features), f),
        )
        in_cell = [c for c in candidates if c.features == nearest]
        best = min(in_cell, key=lambda c: (-c.poses_per_s, c.variant, c.chunk_size))
        return best, nearest == features


def _log_distance_key(
    cell_features: tuple[int, int, int], features: tuple[int, int, int]
) -> float:
    rec, lig, workers = features
    crec, clig, cworkers = cell_features
    return (
        math.log(crec / max(rec, 1)) ** 2
        + math.log(clig / max(lig, 1)) ** 2
        + math.log((cworkers + 1) / (workers + 1)) ** 2
    )


# ----------------------------------------------------------------------
# Families and variant construction
# ----------------------------------------------------------------------
def scoring_family(scoring: ScoringFunction) -> str | None:
    """Numerics family of a scoring function, or None if untunable.

    Families bound what a selection may substitute: members of a family
    compute the same physics in the same precision (scores agree to GEMM
    round-off), so swapping within one changes speed, not results.
    """
    if type(scoring) is CutoffLennardJonesScoring:
        return f"cutoff-{np.dtype(scoring.dtype).name}"
    if type(scoring) in (
        LennardJonesScoring,
        TiledLennardJonesScoring,
        BatchedLJScoring,
    ):
        return "exact"
    return None


def build_scoring(cell: CalibrationCell, base: ScoringFunction) -> ScoringFunction:
    """Materialise a cell's ``(variant, chunk_size)`` choice.

    Physics parameters (force field, cutoff radius, dtype) always come from
    the *requested* scoring — the table only decides kernel shape.
    """
    chunk = int(cell.chunk_size)
    if cell.variant == "lennard-jones":
        return LennardJonesScoring(forcefield=base.forcefield, chunk_size=chunk)
    if cell.variant == "lennard-jones-tiled":
        return TiledLennardJonesScoring(forcefield=base.forcefield, chunk_size=chunk)
    if cell.variant == "lennard-jones-batched":
        return BatchedLJScoring(forcefield=base.forcefield, chunk_size=chunk)
    if cell.variant == "lennard-jones-cutoff":
        return CutoffLennardJonesScoring(
            forcefield=base.forcefield,
            cutoff=base.cutoff,
            dtype=base.dtype,
            chunk_size=chunk,
        )
    raise ScoringError(f"calibration cell names unknown variant {cell.variant!r}")


def variant_candidates(
    family: str, receptor_atoms: int, ligand_atoms: int
) -> list[tuple[str, int]]:
    """``(variant, chunk_size)`` candidates the sweep measures for a cell."""
    itemsize = np.dtype(FLOAT_DTYPE).itemsize
    auto = auto_chunk_size(receptor_atoms, ligand_atoms, itemsize)
    if family == "exact":
        batched = batched_chunk_size(receptor_atoms, ligand_atoms, itemsize)
        # lennard-jones-tiled is not measured: a Python loop over 128-atom
        # tiles reads 0.36x dense; a table that names it still loads.
        out = [
            ("lennard-jones", auto),
            ("lennard-jones", min(2 * auto, MAX_CHUNK_SIZE)),
            ("lennard-jones-batched", batched),
            ("lennard-jones-batched", min(2 * batched, BATCHED_MAX_CHUNK_SIZE)),
        ]
    elif family in ("cutoff-float32", "cutoff-float64"):
        # The cutoff kernel tiles by its own rule, not the shared 8 MiB one.
        itemsize = 4 if family == "cutoff-float32" else 8
        tile = cutoff_tile_size(receptor_atoms, ligand_atoms, itemsize)
        out = [
            ("lennard-jones-cutoff", tile),
            ("lennard-jones-cutoff", min(2 * tile, MAX_CHUNK_SIZE)),
        ]
    else:
        raise ScoringError(f"unknown calibration family {family!r}")
    seen: list[tuple[str, int]] = []
    for cand in out:
        if cand not in seen:
            seen.append(cand)
    return seen


# ----------------------------------------------------------------------
# Selector and controller
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Selection:
    """A resolved ``(variant, chunk_size)`` decision for one feature cell."""

    variant: str
    chunk_size: int
    family: str
    predicted_poses_per_s: float
    exact_cell: bool
    cell: CalibrationCell


class KernelSelector:
    """Pure table lookup: same table + same features ⇒ same selection."""

    def __init__(self, table: CalibrationTable) -> None:
        self.table = table

    def select(
        self,
        family: str,
        receptor_atoms: int,
        ligand_atoms: int,
        worker_count: int,
    ) -> Selection | None:
        cell, exact = self.table.lookup(
            family, receptor_atoms, ligand_atoms, worker_count
        )
        if cell is None:
            return None
        return Selection(
            variant=cell.variant,
            chunk_size=cell.chunk_size,
            family=family,
            predicted_poses_per_s=cell.poses_per_s,
            exact_cell=exact,
            cell=cell,
        )


class AutotuneController:
    """Per-campaign selection pinning plus online table refinement.

    Thread-safe: the persistent runtime resolves prefetched ligands from
    its stager thread while the campaign loop reports observations.
    """

    def __init__(
        self,
        table: CalibrationTable,
        margin: float = DEFAULT_MARGIN,
        patience: int = DEFAULT_PATIENCE,
    ) -> None:
        self.selector = KernelSelector(table)
        self.margin = float(margin)
        self.patience = int(patience)
        self._lock = Lock()
        self._pinned: dict[tuple, Selection | None] = {}
        self._active: Selection | None = None
        self._ewma: dict[CalibrationCell, float] = {}
        self._shortfalls = 0
        self._demoted: dict[CalibrationCell, float] = {}

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "AutotuneController":
        return cls(CalibrationTable.load(path), **kwargs)

    # ------------------------------------------------------------------
    def resolve(
        self,
        scoring: ScoringFunction,
        receptor_atoms: int,
        ligand_atoms: int,
        worker_count: int,
    ) -> ScoringFunction:
        """The tuned scoring for one complex (or ``scoring`` unchanged).

        The first resolution of a feature cell consults the table and pins
        the result; later resolutions of the same cell replay the pin —
        selections never move underneath a running campaign.
        """
        family = scoring_family(scoring)
        if family is None:
            obs.counter("autotune.cell_misses").inc()
            return scoring
        key = (family, int(receptor_atoms), int(ligand_atoms), int(worker_count))
        with self._lock:
            if key in self._pinned:
                selection = self._pinned[key]
            else:
                selection = self.selector.select(family, *key[1:])
                self._pinned[key] = selection
                if selection is None or not selection.exact_cell:
                    obs.counter("autotune.cell_misses").inc()
                else:
                    obs.counter("autotune.cell_hits").inc()
            if selection is None:
                return scoring
            self._active = selection
        obs.counter("autotune.selections", variant=selection.variant).inc()
        return build_scoring(selection.cell, scoring)

    # ------------------------------------------------------------------
    def observe(self, poses_per_s: float) -> None:
        """Fold one observed throughput (poses/s) into the refinement state.

        EWMA-smooths the observation for the active selection's source
        cell; after ``patience`` consecutive observations short of the
        prediction by more than ``margin``, the cell's expectation is
        demoted to the observed EWMA (``autotune.refinements``). The
        *active* selection is never switched — see the module docstring —
        so observation order can only change the refined table, never a
        campaign's scores.
        """
        if not (isinstance(poses_per_s, (int, float)) and math.isfinite(poses_per_s)):
            return
        if poses_per_s <= 0:
            return
        with self._lock:
            selection = self._active
            if selection is None:
                return
            cell = selection.cell
            prev = self._ewma.get(cell)
            ewma = (
                poses_per_s
                if prev is None
                else EWMA_ALPHA * poses_per_s + (1.0 - EWMA_ALPHA) * prev
            )
            self._ewma[cell] = ewma
            predicted = self._demoted.get(cell, selection.predicted_poses_per_s)
            if predicted > 0 and ewma * self.margin < predicted:
                self._shortfalls += 1
                if self._shortfalls >= self.patience:
                    self._demoted[cell] = ewma
                    self._shortfalls = 0
                    obs.counter("autotune.refinements").inc()
            else:
                self._shortfalls = 0

    def refined_table(self) -> CalibrationTable:
        """The loaded table with demoted expectations folded in.

        Persist this (``repro-vs campaign run --refine-calibration``) to
        let one campaign's telemetry improve the next one's selections.
        """
        with self._lock:
            demoted = dict(self._demoted)
        cells = [
            replace(c, poses_per_s=demoted[c]) if c in demoted else c
            for c in self.selector.table.cells
        ]
        return CalibrationTable(cells)

    @property
    def refinements(self) -> int:
        with self._lock:
            return len(self._demoted)


# ----------------------------------------------------------------------
# The calibration sweep
# ----------------------------------------------------------------------
def _family_base(family: str) -> ScoringFunction:
    if family == "exact":
        return LennardJonesScoring()
    if family == "cutoff-float32":
        return CutoffLennardJonesScoring(dtype=np.float32)
    if family == "cutoff-float64":
        return CutoffLennardJonesScoring(dtype=FLOAT_DTYPE)
    raise ScoringError(f"unknown calibration family {family!r}")


def run_calibration_sweep(
    receptor_atoms: tuple[int, ...] = (256, 1000, 3264),
    ligand_atoms: tuple[int, ...] = (16, 32, 48),
    worker_counts: tuple[int, ...] = (0,),
    families: tuple[str, ...] = ("exact", "cutoff-float32"),
    poses: int = 256,
    repeats: int = 3,
    seed: int = 0,
) -> CalibrationTable:
    """Measure every ``(feature cell, variant, chunk)`` candidate.

    For ``worker_count == 0`` each candidate scorer is timed directly on
    one synthetic pose batch (best of ``repeats``, after one warm pass —
    the same discipline the Eq. 1 warm-up uses). For ``worker_count > 0``
    the candidate runs under a real :class:`ParallelSpotEvaluator` pool,
    so the recorded throughput includes staging and queue effects at that
    worker count. Synthetic structures are seeded from ``seed``, so two
    sweeps on one machine produce comparable tables.
    """
    from repro.engine.host_runtime import ParallelSpotEvaluator
    from repro.molecules.synthetic import generate_ligand, generate_receptor
    from repro.molecules.transforms import random_quaternion

    table = CalibrationTable()
    for n_rec in receptor_atoms:
        receptor = generate_receptor(
            int(n_rec), seed=seed + int(n_rec), title=f"calib rec {n_rec}"
        )
        for n_lig in ligand_atoms:
            ligand = generate_ligand(
                int(n_lig), seed=seed + 7919 + int(n_lig), title=f"calib lig {n_lig}"
            )
            rng = np.random.default_rng(seed + 104729 + n_rec * 31 + n_lig)
            center = receptor.coords.mean(axis=0)
            translations = center[None, :] + rng.normal(0.0, 6.0, (poses, 3))
            quaternions = random_quaternion(rng, poses)
            for family in families:
                base = _family_base(family)
                for variant, chunk in variant_candidates(family, n_rec, n_lig):
                    cell_template = CalibrationCell(
                        receptor_atoms=int(n_rec),
                        ligand_atoms=int(n_lig),
                        worker_count=0,
                        family=family,
                        variant=variant,
                        chunk_size=int(chunk),
                        poses_per_s=0.0,
                    )
                    scorer = build_scoring(cell_template, base).bind(
                        receptor, ligand
                    )
                    for workers in worker_counts:
                        rate = _measure_throughput(
                            scorer,
                            translations,
                            quaternions,
                            int(workers),
                            repeats,
                            ParallelSpotEvaluator,
                        )
                        table.add(
                            replace(
                                cell_template,
                                worker_count=int(workers),
                                poses_per_s=rate,
                            )
                        )
    return table


def _measure_throughput(
    scorer,
    translations: np.ndarray,
    quaternions: np.ndarray,
    workers: int,
    repeats: int,
    evaluator_cls,
) -> float:
    poses = translations.shape[0]
    if workers == 0:
        scorer.score(translations[:8], quaternions[:8])  # warm caches and scratch
        best = math.inf
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            scorer.score(translations, quaternions)
            best = min(best, time.perf_counter() - t0)
        return poses / best
    spot_ids = np.zeros(poses, dtype=np.int64)
    with evaluator_cls(scorer, n_workers=workers, mode="static", warmup=False) as ev:
        ev.evaluate(spot_ids[:8], translations[:8], quaternions[:8])
        best = math.inf
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            ev.evaluate(spot_ids, translations, quaternions)
            best = min(best, time.perf_counter() - t0)
    return poses / best
