"""Tabu Search as a template instantiation.

A neighbourhood metaheuristic (§2.2). Each individual is a tabu walker: per
step it samples several candidate moves, discards candidates landing in
recently visited pose-space cells (the tabu list, a discretised memory), and
moves to the best non-tabu candidate — even if worse than the current pose
(that is what lets tabu search escape local minima).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

import numpy as np

from repro.errors import MetaheuristicError
from repro.metaheuristics.combination import NoCombination
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.improvement import Improvement
from repro.metaheuristics.inclusion import Inclusion
from repro.metaheuristics.initialization import UniformSpotInitializer
from repro.metaheuristics.population import Population
from repro.metaheuristics.selection import IdentitySelection
from repro.metaheuristics.template import MetaheuristicSpec
from repro.metaheuristics.termination import MaxIterations
from repro.molecules.transforms import quaternion_multiply

__all__ = ["TabuImprovement", "make_tabu_search"]


class _ReplaceInclusion(Inclusion):
    """Walkers replace themselves (move acceptance happens in Improve)."""

    def include(
        self, ctx: SearchContext, offspring: Population, current: Population
    ) -> Population:
        if offspring.size_per_spot != current.size_per_spot:
            raise MetaheuristicError("tabu search keeps the walker count constant")
        return offspring.copy()


class TabuImprovement(Improvement):
    """Best-non-tabu move selection with a bounded visited-cell memory.

    Parameters
    ----------
    candidates:
        Moves proposed per walker per step (scored in one launch).
    tenure:
        Tabu-list length (visited cells remembered per walker).
    cell_size:
        Discretisation of translation space for the memory (Å).
    translation_sigma, rotation_angle:
        Move proposal sizes.
    """

    def __init__(
        self,
        candidates: int = 4,
        tenure: int = 16,
        cell_size: float = 0.75,
        translation_sigma: float = 0.6,
        rotation_angle: float = 0.4,
    ) -> None:
        if candidates < 1:
            raise MetaheuristicError(f"candidates must be >= 1, got {candidates}")
        if tenure < 1:
            raise MetaheuristicError(f"tenure must be >= 1, got {tenure}")
        if cell_size <= 0:
            raise MetaheuristicError(f"cell_size must be positive, got {cell_size}")
        self.candidates = int(candidates)
        self.tenure = int(tenure)
        self.cell_size = float(cell_size)
        self.translation_sigma = float(translation_sigma)
        self.rotation_angle = float(rotation_angle)
        # (spot, walker) -> deque of visited cells. Keyed lazily.
        self._memory: dict[tuple[int, int], deque[tuple[int, int, int]]] = {}

    def _cell(self, translation: np.ndarray) -> tuple[int, int, int]:
        c = np.floor(translation / self.cell_size).astype(int)
        return int(c[0]), int(c[1]), int(c[2])

    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        result = population.copy()
        if not result.is_evaluated():
            yield from ctx.evaluate_population(result)
        s, k = result.n_spots, result.size_per_spot
        c = self.candidates

        # Propose c candidates per walker; score all in one launch.
        cand_t = (
            result.translations[:, :, None, :]
            + ctx.rng.normal((k, c, 3), scale=self.translation_sigma)
        ).reshape(s, k * c, 3)
        cand_t = ctx.clip_to_bounds(cand_t)
        spins = ctx.rng.small_rotations(k * c, self.rotation_angle)
        cand_q = quaternion_multiply(
            spins, np.repeat(result.quaternions, c, axis=1)
        )
        cand_s = (yield from ctx.evaluate_arrays(cand_t, cand_q)).reshape(s, k, c)
        cand_t = cand_t.reshape(s, k, c, 3)
        cand_q = cand_q.reshape(s, k, c, 4)

        for si in range(s):
            for wi in range(k):
                memory = self._memory.setdefault(
                    (si, wi), deque(maxlen=self.tenure)
                )
                order = np.argsort(cand_s[si, wi], kind="stable")
                chosen = None
                for ci in order:
                    cell = self._cell(cand_t[si, wi, ci])
                    if cell not in memory:
                        chosen = int(ci)
                        break
                    # Aspiration criterion: a tabu move is allowed if it
                    # beats the walker's current score outright.
                    if cand_s[si, wi, ci] < result.scores[si, wi]:
                        chosen = int(ci)
                        break
                if chosen is None:
                    chosen = int(order[0])  # all tabu: take the best anyway
                memory.append(self._cell(result.translations[si, wi]))
                result.translations[si, wi] = cand_t[si, wi, chosen]
                result.quaternions[si, wi] = cand_q[si, wi, chosen]
                result.scores[si, wi] = cand_s[si, wi, chosen]
        return result


def make_tabu_search(
    walkers: int = 16,
    iterations: int = 30,
    candidates: int = 4,
    tenure: int = 16,
) -> MetaheuristicSpec:
    """Tabu Search from the Algorithm 1 template."""
    return MetaheuristicSpec(
        name="TABU",
        population_size=walkers,
        offspring_size=walkers,
        initialize=UniformSpotInitializer(),
        end=MaxIterations(iterations),
        select=IdentitySelection(),
        combine=NoCombination(),
        improve=TabuImprovement(candidates=candidates, tenure=tenure),
        include=_ReplaceInclusion(),
    )
