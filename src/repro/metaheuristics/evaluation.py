"""Evaluators: where candidate solutions meet the scoring function.

The metaheuristic template never calls a scorer directly: it yields each
flat batch as a launch ``(spot_ids, translations, quaternions, kind)`` and
is sent back its energies. :func:`drive` scores the launches of one search
on an :class:`Evaluator`, one at a time; a campaign runner instead
interleaves many ligands' launches on a worker pool. This indirection is the
seam the parallel runtime plugs into: a :class:`SerialEvaluator` scores on
the host, while :class:`repro.engine.executor.DeviceBatchEvaluator`
additionally charges the batch to simulated devices. Every evaluator records
a :class:`LaunchRecord` per call — the workload trace the hardware model
times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Protocol, runtime_checkable

import numpy as np

from repro.errors import MetaheuristicError
from repro.scoring.base import BoundScorer

__all__ = ["Evaluator", "LaunchRecord", "EvaluationStats", "SerialEvaluator", "drive"]


@dataclass(frozen=True, slots=True)
class LaunchRecord:
    """One scoring-kernel launch: the unit of modelled device work.

    Attributes
    ----------
    n_conformations:
        Total poses scored in this launch.
    flops_per_pose:
        Modelled arithmetic per pose (from the bound scorer).
    spot_counts:
        Poses per *global* spot index for this launch — what spot-level
        partitioners need to charge devices correctly.
    kind:
        What template stage issued the launch: ``"population"`` (initialize
        or fresh offspring — carries full Select/Combine/Include host
        bookkeeping) or ``"improve"`` (a local-search step — lighter host
        work). The performance model charges host overhead by kind.
    n_receptor_atoms:
        Receptor size behind this launch's scoring kernel (drives the CPU
        cache-degradation term of the performance model).
    """

    n_conformations: int
    flops_per_pose: float
    spot_counts: dict[int, int]
    kind: str = "population"
    n_receptor_atoms: int = 0


@dataclass
class EvaluationStats:
    """Running totals over an evaluator's lifetime."""

    n_launches: int = 0
    n_conformations: int = 0
    total_flops: float = 0.0
    launches: list[LaunchRecord] = field(default_factory=list)

    def record(self, launch: LaunchRecord) -> None:
        """Append one launch and update totals."""
        self.n_launches += 1
        self.n_conformations += launch.n_conformations
        self.total_flops += launch.n_conformations * launch.flops_per_pose
        self.launches.append(launch)


@runtime_checkable
class Evaluator(Protocol):
    """Scores flat pose batches; implementations decide *where* that runs."""

    stats: EvaluationStats

    def evaluate(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
    ) -> np.ndarray:
        """Return ``(n,)`` scores for ``n`` poses tagged with global spot ids."""
        ...


class SerialEvaluator:
    """Host-only evaluator wrapping one bound scorer."""

    def __init__(self, scorer: BoundScorer) -> None:
        self.scorer = scorer
        self.stats = EvaluationStats()

    def evaluate(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
    ) -> np.ndarray:
        spot_ids = np.asarray(spot_ids)
        if spot_ids.shape[0] != translations.shape[0]:
            raise MetaheuristicError(
                f"{spot_ids.shape[0]} spot ids for {translations.shape[0]} poses"
            )
        unique, counts = np.unique(spot_ids, return_counts=True)
        self.stats.record(
            LaunchRecord(
                n_conformations=int(translations.shape[0]),
                flops_per_pose=self.scorer.flops_per_pose,
                spot_counts={int(s): int(c) for s, c in zip(unique, counts)},
                kind=kind,
                n_receptor_atoms=self.scorer.receptor.n_atoms,
            )
        )
        # Spot-aware scorers (the cutoff scorer's spot-aligned tiles) exploit
        # the spot tags; plain scorers ignore them via the base passthrough.
        if self.scorer.supports_spot_scoring:
            return self.scorer.score_spots(spot_ids, translations, quaternions)
        return self.scorer.score(translations, quaternions)


def drive(steps: Generator, evaluator: Evaluator):
    """Run ``steps`` to its end, scoring each launch it yields on ``evaluator``.

    The serial driver: ``steps`` yields ``(spot_ids, translations,
    quaternions, kind)`` and is sent that launch's energies; returns what
    ``steps`` returns.
    """
    try:
        launch = next(steps)
        while True:
            launch = steps.send(evaluator.evaluate(*launch))
    except StopIteration as stop:
        return stop.value
