"""``Improve(Scom)`` strategies — the local-search stage.

§3.1: candidate solutions "can be also improved by applying a local search;
i.e. moving, translating and/or rotating with respect to each spot". The
*intensity* of this stage is the axis the paper varies between M2 (100 % of
elements improved), M3 (20 %) and M4 (pure local search on a huge set):
more intensification ⇒ more scoring launches ⇒ higher GPU speed-ups (§5).

The hill climber is vectorised: each step perturbs every improving
individual at once, scores the batch in one launch, and keeps the moves that
helped (first-improvement acceptance, per individual).

``improve`` is a generator: it yields each scoring launch through the
context (``yield from ctx.evaluate_arrays(...)``) and returns the population.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator

import numpy as np

from repro.errors import MetaheuristicError
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.population import Population
from repro.molecules.transforms import quaternion_multiply

__all__ = ["Improvement", "NoImprovement", "HillClimb"]


class Improvement(ABC):
    """Local search applied to (a fraction of) ``Scom``.

    Implementations are generators that yield their scoring launches and
    must return a fully evaluated population.
    """

    @abstractmethod
    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        """Yield each launch; return the improved, fully evaluated population."""


class NoImprovement(Improvement):
    """Skip local search (the paper's M1: 0 % of elements improved).

    Only guarantees evaluation: unevaluated individuals are scored.
    """

    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        result = population.copy()
        if not result.is_evaluated():
            yield from ctx.evaluate_population(result)
        return result


class HillClimb(Improvement):
    """Stochastic hill climbing on pose space.

    Parameters
    ----------
    steps:
        Local-search iterations (the intensification knob).
    fraction:
        Fraction of each spot group improved (Table 4's "% of elements to be
        improved"); the *best* individuals are picked.
    translation_sigma:
        Gaussian move width in Å.
    rotation_angle:
        Maximum rotation move in radians.
    anneal:
        When True, move sizes shrink linearly to 20 % over the steps —
        coarse-to-fine refinement.
    """

    def __init__(
        self,
        steps: int = 8,
        fraction: float = 1.0,
        translation_sigma: float = 0.4,
        rotation_angle: float = 0.3,
        anneal: bool = True,
    ) -> None:
        if steps < 1:
            raise MetaheuristicError(f"steps must be >= 1, got {steps}")
        if not 0.0 < fraction <= 1.0:
            raise MetaheuristicError(f"fraction must be in (0, 1], got {fraction}")
        self.steps = int(steps)
        self.fraction = float(fraction)
        self.translation_sigma = float(translation_sigma)
        self.rotation_angle = float(rotation_angle)
        self.anneal = bool(anneal)

    def improve(self, ctx: SearchContext, population: Population) -> Generator:
        result = population.copy()
        if not result.is_evaluated():
            yield from ctx.evaluate_population(result)

        k = result.size_per_spot
        m = max(1, min(k, int(round(k * self.fraction))))
        # Improve the best m of each spot group (memetic convention).
        order = np.argsort(result.scores, axis=1, kind="stable")[:, :m]
        rows = np.arange(result.n_spots)[:, None]

        cur_t = result.translations[rows, order].copy()  # (s, m, 3)
        cur_q = result.quaternions[rows, order].copy()  # (s, m, 4)
        cur_s = result.scores[rows, order].copy()  # (s, m)

        for step in range(self.steps):
            scale = 1.0 - 0.8 * (step / max(1, self.steps - 1)) if self.anneal else 1.0
            cand_t = cur_t + ctx.rng.normal((m, 3), scale=self.translation_sigma * scale)
            cand_t = ctx.clip_to_bounds(cand_t)
            spins = ctx.rng.small_rotations(m, self.rotation_angle * scale)
            cand_q = quaternion_multiply(spins, cur_q)
            cand_s = yield from ctx.evaluate_arrays(cand_t, cand_q)
            better = cand_s < cur_s
            cur_t = np.where(better[:, :, None], cand_t, cur_t)
            cur_q = np.where(better[:, :, None], cand_q, cur_q)
            cur_s = np.where(better, cand_s, cur_s)

        result.translations[rows, order] = cur_t
        result.quaternions[rows, order] = cur_q
        result.scores[rows, order] = cur_s
        return result
