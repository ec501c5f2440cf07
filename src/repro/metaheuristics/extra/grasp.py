"""GRASP (Greedy Randomized Adaptive Search Procedure) as a template
instantiation.

§2.2 lists GRASP among the neighbourhood metaheuristics. Per template
iteration: *construct* greedily-randomised candidate poses (sample a larger
candidate cloud per spot, keep a random choice among the best α-fraction),
then *improve* them with hill climbing, then keep the best seen (elitist
inclusion). The construction lives in the Combine slot, so each iteration is
one fresh GRASP restart — the canonical multi-start structure. It is the
one Combine that scores, so it is a generator that yields its launch.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.errors import MetaheuristicError
from repro.metaheuristics.combination import Combination
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.improvement import HillClimb
from repro.metaheuristics.inclusion import ElitistInclusion
from repro.metaheuristics.initialization import UniformSpotInitializer
from repro.metaheuristics.population import Population
from repro.metaheuristics.selection import BestFraction
from repro.metaheuristics.template import MetaheuristicSpec
from repro.metaheuristics.termination import MaxIterations

__all__ = ["GreedyRandomizedConstruction", "make_grasp"]


class GreedyRandomizedConstruction(Combination):
    """The GRASP construction phase in the Combine slot.

    Samples ``oversample × n_offspring`` random poses per spot, scores
    them, and draws the offspring uniformly from the restricted candidate
    list (the best ``alpha`` fraction).

    Parameters
    ----------
    alpha:
        RCL fraction in (0, 1]: 1.0 degenerates to pure random sampling,
        small values approach pure greedy construction.
    oversample:
        Candidate-cloud multiplier.
    """

    def __init__(self, alpha: float = 0.3, oversample: int = 4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise MetaheuristicError(f"alpha must be in (0, 1], got {alpha}")
        if oversample < 1:
            raise MetaheuristicError(f"oversample must be >= 1, got {oversample}")
        self.alpha = float(alpha)
        self.oversample = int(oversample)

    def combine(
        self, ctx: SearchContext, selected: Population, n_offspring: int
    ) -> Generator:
        """Yield the candidate cloud's launch; return the offspring (scored)."""
        if n_offspring < 1:
            raise MetaheuristicError(f"n_offspring must be >= 1, got {n_offspring}")
        cloud = n_offspring * self.oversample
        u = ctx.rng.random((cloud, 3))
        translations = ctx.centers[:, None, :] + (2.0 * u - 1.0) * ctx.radii[:, None, None]
        quaternions = ctx.rng.quaternions(cloud)
        scores = yield from ctx.evaluate_arrays(translations, quaternions, kind="population")

        rcl = max(n_offspring, int(round(cloud * self.alpha)))
        order = np.argsort(scores, axis=1, kind="stable")[:, :rcl]
        pick = ctx.rng.integers(0, rcl, (n_offspring,))  # (s, n_offspring)
        rows = np.arange(translations.shape[0])[:, None]
        chosen = np.take_along_axis(order, pick, axis=1)
        return Population(
            translations[rows, chosen],
            quaternions[rows, chosen],
            scores[rows, chosen],
        )


def make_grasp(
    restarts: int = 8,
    per_restart: int = 16,
    alpha: float = 0.3,
    local_search_steps: int = 8,
) -> MetaheuristicSpec:
    """GRASP from the Algorithm 1 template.

    Parameters
    ----------
    restarts:
        Template iterations (= GRASP restarts).
    per_restart:
        Constructed solutions per spot per restart.
    """
    return MetaheuristicSpec(
        name="GRASP",
        population_size=per_restart,
        offspring_size=per_restart,
        initialize=UniformSpotInitializer(),
        end=MaxIterations(restarts),
        select=BestFraction(1.0),
        combine=GreedyRandomizedConstruction(alpha=alpha),
        improve=HillClimb(steps=local_search_steps, fraction=1.0),
        include=ElitistInclusion(),
    )
