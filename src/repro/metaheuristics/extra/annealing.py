"""Simulated Annealing as a template instantiation.

A neighbourhood metaheuristic (§2.2): every individual is an independent
annealing walker. The Improve stage proposes a perturbed pose and accepts
with the Metropolis criterion; temperature decays geometrically across
template iterations (state held in the operator, like PSO's velocities).
"""

from __future__ import annotations

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

__all__ = ["AnnealingImprovement", "ReplaceInclusion", "make_simulated_annealing"]


class ReplaceInclusion(Inclusion):
    """Walkers replace themselves (acceptance happened inside Improve)."""

    def include(
        self, ctx: SearchContext, offspring: Population, current: Population
    ) -> Population:
        if offspring.size_per_spot != current.size_per_spot:
            raise MetaheuristicError("annealing keeps the walker count constant")
        return offspring.copy()


class AnnealingImprovement(Improvement):
    """Metropolis steps at a geometrically cooling temperature.

    Parameters
    ----------
    steps:
        Proposals per walker per template iteration.
    t_start, t_end:
        Temperature endpoints (score units). The schedule interpolates
        geometrically over the *expected* total step budget
        ``steps × iterations_hint``.
    iterations_hint:
        Template iterations the schedule should span.
    translation_sigma, rotation_angle:
        Proposal move sizes.
    """

    def __init__(
        self,
        steps: int = 4,
        t_start: float = 5.0,
        t_end: float = 0.05,
        iterations_hint: int = 30,
        translation_sigma: float = 0.5,
        rotation_angle: float = 0.4,
    ) -> None:
        if steps < 1:
            raise MetaheuristicError(f"steps must be >= 1, got {steps}")
        if t_start <= 0 or t_end <= 0 or t_end > t_start:
            raise MetaheuristicError(
                f"need 0 < t_end <= t_start, got {t_end}, {t_start}"
            )
        if iterations_hint < 1:
            raise MetaheuristicError("iterations_hint must be >= 1")
        self.steps = int(steps)
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.total_steps = self.steps * int(iterations_hint)
        self.translation_sigma = float(translation_sigma)
        self.rotation_angle = float(rotation_angle)
        self._step_count = 0

    def temperature(self) -> float:
        """Current temperature on the geometric schedule."""
        frac = min(1.0, self._step_count / max(1, self.total_steps - 1))
        return float(self.t_start * (self.t_end / self.t_start) ** frac)

    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        result = population.copy()
        if not result.is_evaluated():
            yield from ctx.evaluate_population(result)
        k = result.size_per_spot
        for _ in range(self.steps):
            t = self.temperature()
            cand_t = result.translations + ctx.rng.normal(
                (k, 3), scale=self.translation_sigma
            )
            cand_t = ctx.clip_to_bounds(cand_t)
            cand_q = quaternion_multiply(
                ctx.rng.small_rotations(k, self.rotation_angle), result.quaternions
            )
            cand_s = yield from ctx.evaluate_arrays(cand_t, cand_q)
            delta = cand_s - result.scores
            # Metropolis: always accept improvements; accept worsening moves
            # with probability exp(-Δ/T).
            with np.errstate(over="ignore"):
                accept_prob = np.exp(np.minimum(0.0, -delta) / t)
            accept = (delta <= 0) | (ctx.rng.random((k,)) < accept_prob)
            result.translations = np.where(accept[:, :, None], cand_t, result.translations)
            result.quaternions = np.where(accept[:, :, None], cand_q, result.quaternions)
            result.scores = np.where(accept, cand_s, result.scores)
            self._step_count += 1
        return result


def make_simulated_annealing(
    walkers: int = 32,
    iterations: int = 30,
    steps_per_iteration: int = 4,
    t_start: float = 5.0,
    t_end: float = 0.05,
) -> MetaheuristicSpec:
    """Simulated Annealing from the Algorithm 1 template."""
    return MetaheuristicSpec(
        name="SA",
        population_size=walkers,
        offspring_size=walkers,
        initialize=UniformSpotInitializer(),
        end=MaxIterations(iterations),
        select=IdentitySelection(),
        combine=NoCombination(),
        improve=AnnealingImprovement(
            steps=steps_per_iteration,
            t_start=t_start,
            t_end=t_end,
            iterations_hint=iterations,
        ),
        include=ReplaceInclusion(),
    )
