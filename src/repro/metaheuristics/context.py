"""Shared search context handed to every template operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FLOAT_DTYPE
from repro.errors import MetaheuristicError
from repro.metaheuristics.evaluation import Evaluator
from repro.metaheuristics.population import Population
from repro.metaheuristics.rng import SpotRngPool
from repro.molecules.spots import Spot

__all__ = ["SearchContext"]


@dataclass
class SearchContext:
    """Everything operators need: spots, bounds, RNG streams, the evaluator.

    Attributes
    ----------
    spots:
        The receptor spots this search covers (may be a subset of the full
        spot list when a device owns a spot partition).
    evaluator:
        Keeps the launch trace; :func:`~repro.metaheuristics.template.run_metaheuristic`
        also scores the search's launches on it.
    rng:
        Per-spot random streams (see :class:`repro.metaheuristics.rng.SpotRngPool`).
    """

    spots: list[Spot]
    evaluator: Evaluator
    rng: SpotRngPool

    def __post_init__(self) -> None:
        if not self.spots:
            raise MetaheuristicError("search context needs at least one spot")
        if self.rng.n_spots != len(self.spots):
            raise MetaheuristicError(
                f"rng pool covers {self.rng.n_spots} spots but context has "
                f"{len(self.spots)}"
            )
        #: (n_spots, 3) spot centres.
        self.centers = np.stack([s.center for s in self.spots]).astype(FLOAT_DTYPE)
        #: (n_spots,) translation search half-widths.
        self.radii = np.array([s.radius for s in self.spots], dtype=FLOAT_DTYPE)
        #: (n_spots,) global spot indices (for evaluator accounting).
        self.global_ids = np.array([s.index for s in self.spots], dtype=np.int64)

    @property
    def n_spots(self) -> int:
        """Number of spots in this context."""
        return len(self.spots)

    def clip_to_bounds(self, translations: np.ndarray) -> np.ndarray:
        """Clamp ``(n_spots, k, 3)`` translations into each spot's search box."""
        lo = (self.centers - self.radii[:, None])[:, None, :]
        hi = (self.centers + self.radii[:, None])[:, None, :]
        return np.clip(translations, lo, hi)

    def evaluate_population(self, population: Population, kind: str = "population"):
        """Score every individual in place: yields one launch, is sent its energies.

        A generator, like every operator step that scores: call it with
        ``yield from`` (see :func:`repro.metaheuristics.evaluation.drive`).
        """
        spot_local, translations, quaternions = population.flat()
        energies = yield self.global_ids[spot_local], translations, quaternions, kind
        population.set_scores_flat(energies)

    def evaluate_arrays(
        self, translations: np.ndarray, quaternions: np.ndarray, kind: str = "improve"
    ):
        """Score ``(n_spots, k, …)`` arrays in one launch; returns ``(n_spots, k)`` scores.

        A generator, as :meth:`evaluate_population`.
        """
        s, k = translations.shape[:2]
        if s != self.n_spots:
            raise MetaheuristicError(
                f"arrays cover {s} spots, context has {self.n_spots}"
            )
        energies = yield (
            np.repeat(self.global_ids, k),
            translations.reshape(s * k, 3),
            quaternions.reshape(s * k, 4),
            kind,
        )
        return energies.reshape(s, k)
