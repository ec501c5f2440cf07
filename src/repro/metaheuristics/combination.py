"""``Combine(Ssel, Scom)`` strategies.

Combiners produce an *unevaluated* offspring population from the selected
parents. Translations recombine with blend (BLX-α) crossover; orientations
recombine with normalised linear interpolation (nlerp) between parent
quaternions, which stays on the sphere after re-normalisation. Gaussian
mutation keeps the stochastic pressure the paper's GA relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import MetaheuristicError
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.population import Population

__all__ = ["Combination", "BlendCrossover", "UniformCrossover", "NoCombination"]


class Combination(ABC):
    """Generates ``Scom`` offspring from the selected parents."""

    @abstractmethod
    def combine(
        self, ctx: SearchContext, selected: Population, n_offspring: int
    ) -> Population:
        """Return ``n_offspring`` individuals per spot (scores unset unless
        the combiner passes parents through unchanged).

        A combiner that scores returns a generator instead, which yields
        its launches and returns the population (see
        :class:`~repro.metaheuristics.extra.grasp.GreedyRandomizedConstruction`).
        """


def _parent_pairs(
    ctx: SearchContext, k: int, n_offspring: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two (n_spots, n_offspring) parent index arrays, pairwise distinct
    whenever the parent pool has more than one member."""
    p1 = ctx.rng.integers(0, k, (n_offspring,))
    p2 = ctx.rng.integers(0, k, (n_offspring,))
    if k > 1:
        clash = p1 == p2
        p2 = np.where(clash, (p2 + 1) % k, p2)
    return p1, p2


def _mutate(
    ctx: SearchContext,
    translations: np.ndarray,
    quaternions: np.ndarray,
    rate: float,
    translation_sigma: float,
    rotation_angle: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-individual mutation with probability ``rate``."""
    from repro.molecules.transforms import quaternion_multiply

    k = translations.shape[1]
    mask = ctx.rng.random((k,)) < rate  # (s, k)
    noise = ctx.rng.normal((k, 3), scale=translation_sigma)
    translations = translations + noise * mask[:, :, None]
    spins = ctx.rng.small_rotations(k, rotation_angle)
    spun = quaternion_multiply(spins, quaternions)
    quaternions = np.where(mask[:, :, None], spun, quaternions)
    return translations, quaternions


class BlendCrossover(Combination):
    """BLX-α on translations + nlerp on orientations, plus mutation.

    Parameters
    ----------
    alpha:
        Blend expansion: the child gene is uniform in the parents' interval
        expanded by ``alpha`` on both sides.
    mutation_rate:
        Per-child probability of a Gaussian kick.
    translation_sigma:
        Mutation kick width (Å).
    rotation_angle:
        Maximum mutation rotation (radians).
    """

    def __init__(
        self,
        alpha: float = 0.25,
        mutation_rate: float = 0.15,
        translation_sigma: float = 0.75,
        rotation_angle: float = 0.5,
    ) -> None:
        if alpha < 0:
            raise MetaheuristicError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 <= mutation_rate <= 1.0:
            raise MetaheuristicError(
                f"mutation_rate must be in [0, 1], got {mutation_rate}"
            )
        self.alpha = float(alpha)
        self.mutation_rate = float(mutation_rate)
        self.translation_sigma = float(translation_sigma)
        self.rotation_angle = float(rotation_angle)

    def combine(
        self, ctx: SearchContext, selected: Population, n_offspring: int
    ) -> Population:
        if n_offspring < 1:
            raise MetaheuristicError(f"n_offspring must be >= 1, got {n_offspring}")
        k = selected.size_per_spot
        p1, p2 = _parent_pairs(ctx, k, n_offspring)
        rows = np.arange(selected.n_spots)[:, None]
        t1 = selected.translations[rows, p1]
        t2 = selected.translations[rows, p2]
        q1 = selected.quaternions[rows, p1]
        q2 = selected.quaternions[rows, p2]

        # BLX-α: uniform in [min - α·span, max + α·span] per coordinate.
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        span = hi - lo
        u = ctx.rng.random((n_offspring, 3))
        translations = lo - self.alpha * span + u * (1.0 + 2.0 * self.alpha) * span

        # nlerp between parent orientations; align hemispheres first so the
        # interpolation takes the short arc.
        dots = np.einsum("skj,skj->sk", q1, q2)
        q2 = np.where(dots[:, :, None] < 0.0, -q2, q2)
        w = ctx.rng.random((n_offspring,))[:, :, None]
        quaternions = (1.0 - w) * q1 + w * q2  # Population normalises

        translations, quaternions = _mutate(
            ctx,
            translations,
            quaternions,
            self.mutation_rate,
            self.translation_sigma,
            self.rotation_angle,
        )
        translations = ctx.clip_to_bounds(translations)
        return Population(translations, quaternions)


class UniformCrossover(Combination):
    """Per-component uniform crossover: each translation axis and the whole
    quaternion come from either parent independently, plus mutation."""

    def __init__(
        self,
        mutation_rate: float = 0.15,
        translation_sigma: float = 0.75,
        rotation_angle: float = 0.5,
    ) -> None:
        if not 0.0 <= mutation_rate <= 1.0:
            raise MetaheuristicError(
                f"mutation_rate must be in [0, 1], got {mutation_rate}"
            )
        self.mutation_rate = float(mutation_rate)
        self.translation_sigma = float(translation_sigma)
        self.rotation_angle = float(rotation_angle)

    def combine(
        self, ctx: SearchContext, selected: Population, n_offspring: int
    ) -> Population:
        if n_offspring < 1:
            raise MetaheuristicError(f"n_offspring must be >= 1, got {n_offspring}")
        k = selected.size_per_spot
        p1, p2 = _parent_pairs(ctx, k, n_offspring)
        rows = np.arange(selected.n_spots)[:, None]
        t1 = selected.translations[rows, p1]
        t2 = selected.translations[rows, p2]
        pick_t = ctx.rng.random((n_offspring, 3)) < 0.5
        translations = np.where(pick_t, t1, t2)
        pick_q = (ctx.rng.random((n_offspring,)) < 0.5)[:, :, None]
        quaternions = np.where(
            pick_q, selected.quaternions[rows, p1], selected.quaternions[rows, p2]
        )
        translations, quaternions = _mutate(
            ctx,
            translations,
            quaternions,
            self.mutation_rate,
            self.translation_sigma,
            self.rotation_angle,
        )
        translations = ctx.clip_to_bounds(translations)
        return Population(translations, quaternions)


class NoCombination(Combination):
    """Pass-through for neighbourhood metaheuristics (the paper's M4): the
    selected individuals *are* ``Scom``, scores preserved, nothing re-scored."""

    def combine(
        self, ctx: SearchContext, selected: Population, n_offspring: int
    ) -> Population:
        if n_offspring != selected.size_per_spot:
            raise MetaheuristicError(
                "NoCombination cannot change the population size "
                f"({selected.size_per_spot} -> {n_offspring})"
            )
        return selected.copy()
