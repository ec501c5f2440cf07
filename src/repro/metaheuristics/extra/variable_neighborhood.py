"""Variable Neighbourhood Search as a template instantiation.

§2.2 lists VNS among the neighbourhood metaheuristics. Each walker keeps a
neighbourhood index ``κ``: moves are drawn at scale ``κ · base``; an
improving move resets ``κ = 1``, a failed one grows it (shake harder), up to
``k_max``. State (per-walker κ) lives in the Improve operator.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.errors import MetaheuristicError
from repro.metaheuristics.combination import NoCombination
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.improvement import Improvement
from repro.metaheuristics.inclusion import ElitistInclusion
from repro.metaheuristics.initialization import UniformSpotInitializer
from repro.metaheuristics.population import Population
from repro.metaheuristics.selection import IdentitySelection
from repro.metaheuristics.template import MetaheuristicSpec
from repro.metaheuristics.termination import MaxIterations
from repro.molecules.transforms import quaternion_multiply

__all__ = ["VnsImprovement", "make_vns"]


class VnsImprovement(Improvement):
    """Shake-and-descend with adaptive neighbourhood sizes.

    Parameters
    ----------
    steps:
        Shake/descend rounds per template iteration.
    k_max:
        Largest neighbourhood index.
    base_sigma, base_angle:
        Neighbourhood-1 move sizes; neighbourhood κ scales both by κ.
    """

    def __init__(
        self,
        steps: int = 4,
        k_max: int = 4,
        base_sigma: float = 0.3,
        base_angle: float = 0.2,
    ) -> None:
        if steps < 1:
            raise MetaheuristicError(f"steps must be >= 1, got {steps}")
        if k_max < 1:
            raise MetaheuristicError(f"k_max must be >= 1, got {k_max}")
        self.steps = int(steps)
        self.k_max = int(k_max)
        self.base_sigma = float(base_sigma)
        self.base_angle = float(base_angle)
        self._kappa: np.ndarray | None = None  # (s, k) neighbourhood indices

    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        result = population.copy()
        if not result.is_evaluated():
            yield from ctx.evaluate_population(result)
        s, k = result.n_spots, result.size_per_spot
        if self._kappa is None or self._kappa.shape != (s, k):
            self._kappa = np.ones((s, k), dtype=np.int64)

        for _ in range(self.steps):
            scale = self._kappa.astype(float)  # (s, k)
            cand_t = result.translations + scale[:, :, None] * ctx.rng.normal(
                (k, 3), scale=self.base_sigma
            )
            cand_t = ctx.clip_to_bounds(cand_t)
            # Rotation scale grows with κ by compounding κ base rotations
            # (keeps every walker's draw count equal per round).
            cand_q = result.quaternions
            max_kappa = int(self._kappa.max())
            applied = np.zeros((s, k), dtype=np.int64)
            for _round in range(max_kappa):
                need = applied < self._kappa
                spun = quaternion_multiply(
                    ctx.rng.small_rotations(k, self.base_angle), cand_q
                )
                cand_q = np.where(need[:, :, None], spun, cand_q)
                applied += need.astype(np.int64)
            cand_s = yield from ctx.evaluate_arrays(cand_t, cand_q)
            better = cand_s < result.scores
            result.translations = np.where(better[:, :, None], cand_t, result.translations)
            result.quaternions = np.where(better[:, :, None], cand_q, result.quaternions)
            result.scores = np.where(better, cand_s, result.scores)
            # κ: reset on success, grow on failure.
            self._kappa = np.where(
                better, 1, np.minimum(self._kappa + 1, self.k_max)
            )
        return result


def make_vns(
    walkers: int = 16,
    iterations: int = 30,
    steps_per_iteration: int = 4,
    k_max: int = 4,
) -> MetaheuristicSpec:
    """Variable Neighbourhood Search from the Algorithm 1 template."""
    return MetaheuristicSpec(
        name="VNS",
        population_size=walkers,
        offspring_size=walkers,
        initialize=UniformSpotInitializer(),
        end=MaxIterations(iterations),
        select=IdentitySelection(),
        combine=NoCombination(),
        improve=VnsImprovement(steps=steps_per_iteration, k_max=k_max),
        include=ElitistInclusion(),
    )
