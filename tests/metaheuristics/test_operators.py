"""Tests for the six template-function families: Initialize, End, Select,
Combine, Improve, Include."""

import numpy as np
import pytest

from repro.errors import MetaheuristicError
from repro.metaheuristics.combination import (
    BlendCrossover,
    NoCombination,
    UniformCrossover,
)
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.evaluation import SerialEvaluator, drive
from repro.metaheuristics.improvement import HillClimb, NoImprovement
from repro.metaheuristics.inclusion import (
    ElitistInclusion,
    GenerationalInclusion,
    SteadyStateInclusion,
)
from repro.metaheuristics.initialization import ShellInitializer, UniformSpotInitializer
from repro.metaheuristics.population import Population
from repro.metaheuristics.rng import SpotRngPool
from repro.metaheuristics.selection import (
    BestFraction,
    IdentitySelection,
    RouletteWheel,
    Tournament,
)
from repro.metaheuristics.termination import (
    AllOf,
    AnyOf,
    MaxIterations,
    Stagnation,
    TargetScore,
    TerminationState,
)


@pytest.fixture()
def ctx(spots, fast_scorer):
    return SearchContext(
        spots=spots,
        evaluator=SerialEvaluator(fast_scorer),
        rng=SpotRngPool(99, [s.index for s in spots]),
    )


# ----------------------------------------------------------------------
# Initialize
# ----------------------------------------------------------------------
def test_uniform_initializer_within_bounds(ctx):
    pop = UniformSpotInitializer().initialize(ctx, 32)
    assert pop.n_spots == ctx.n_spots
    assert pop.size_per_spot == 32
    assert not pop.is_evaluated()
    lo = ctx.centers[:, None, :] - ctx.radii[:, None, None]
    hi = ctx.centers[:, None, :] + ctx.radii[:, None, None]
    assert np.all(pop.translations >= lo - 1e-9)
    assert np.all(pop.translations <= hi + 1e-9)


def test_shell_initializer_outward_bias(ctx):
    pop = ShellInitializer(bias=0.5).initialize(ctx, 64)
    normals = np.stack([s.normal for s in ctx.spots])
    offsets = pop.translations - ctx.centers[:, None, :]
    along = np.einsum("skj,sj->sk", offsets, normals)
    # outward component must be non-negative for (nearly) all individuals
    assert (along > -1e-6).mean() > 0.99


def test_initializer_validates_size(ctx):
    with pytest.raises(MetaheuristicError):
        UniformSpotInitializer().initialize(ctx, 0)
    with pytest.raises(MetaheuristicError):
        ShellInitializer(bias=1.5)


def test_initializer_is_deterministic(ctx, spots, fast_scorer):
    pop1 = UniformSpotInitializer().initialize(ctx, 8)
    ctx2 = SearchContext(
        spots=spots,
        evaluator=SerialEvaluator(fast_scorer),
        rng=SpotRngPool(99, [s.index for s in spots]),
    )
    pop2 = UniformSpotInitializer().initialize(ctx2, 8)
    np.testing.assert_array_equal(pop1.translations, pop2.translations)


# ----------------------------------------------------------------------
# End
# ----------------------------------------------------------------------
def _state(iteration, best=0.0, history=()):
    return TerminationState(iteration=iteration, best_score=best, best_history=history)


def test_max_iterations():
    end = MaxIterations(3)
    assert not end.should_stop(_state(2))
    assert end.should_stop(_state(3))
    with pytest.raises(MetaheuristicError):
        MaxIterations(0)


def test_target_score():
    end = TargetScore(-10.0)
    assert not end.should_stop(_state(0, best=-5.0))
    assert end.should_stop(_state(0, best=-10.0))
    assert end.should_stop(_state(0, best=-12.0))


def test_stagnation():
    end = Stagnation(patience=2)
    h = (-1.0, -2.0, -2.0, -2.0)
    assert end.should_stop(_state(4, best=-2.0, history=h))
    improving = (-1.0, -2.0, -3.0, -4.0)
    assert not end.should_stop(_state(4, best=-4.0, history=improving))
    assert not end.should_stop(_state(1, best=-1.0, history=(-1.0,)))


def test_any_all_combinators():
    fires = MaxIterations(1)
    never = TargetScore(-1e18)
    assert AnyOf(fires, never).should_stop(_state(5))
    assert not AllOf(fires, never).should_stop(_state(5))
    with pytest.raises(MetaheuristicError):
        AnyOf()


# ----------------------------------------------------------------------
# Select
# ----------------------------------------------------------------------
def _scored_population(ctx, k=16):
    pop = UniformSpotInitializer().initialize(ctx, k)
    drive(ctx.evaluate_population(pop), ctx.evaluator)
    return pop


def test_identity_selection_preserves_order(ctx):
    pop = _scored_population(ctx)
    sel = IdentitySelection().select(ctx, pop)
    np.testing.assert_array_equal(sel.translations, pop.translations)
    np.testing.assert_array_equal(sel.scores, pop.scores)


def test_best_fraction_truncates_sorted(ctx):
    pop = _scored_population(ctx)
    sel = BestFraction(0.25).select(ctx, pop)
    assert sel.size_per_spot == 4
    np.testing.assert_allclose(sel.scores[:, 0], pop.scores.min(axis=1))
    assert np.all(np.diff(sel.scores, axis=1) >= 0)
    with pytest.raises(MetaheuristicError):
        BestFraction(0.0)


def test_tournament_biases_toward_better(ctx):
    pop = _scored_population(ctx)
    sel = Tournament(arity=4, count=64).select(ctx, pop)
    assert sel.size_per_spot == 64
    # Selected mean must beat the population mean (selection pressure).
    assert sel.scores.mean() < pop.scores.mean()
    with pytest.raises(MetaheuristicError):
        Tournament(arity=1)


def test_roulette_selection(ctx):
    pop = _scored_population(ctx)
    sel = RouletteWheel(count=64).select(ctx, pop)
    assert sel.size_per_spot == 64
    assert sel.scores.mean() < pop.scores.mean()


# ----------------------------------------------------------------------
# Combine
# ----------------------------------------------------------------------
def test_blend_crossover_properties(ctx):
    pop = _scored_population(ctx)
    children = BlendCrossover().combine(ctx, pop, 24)
    assert children.size_per_spot == 24
    assert not children.is_evaluated()
    # children stay inside the spot search boxes (clipped)
    lo = ctx.centers[:, None, :] - ctx.radii[:, None, None]
    hi = ctx.centers[:, None, :] + ctx.radii[:, None, None]
    assert np.all(children.translations >= lo - 1e-9)
    assert np.all(children.translations <= hi + 1e-9)
    np.testing.assert_allclose(
        np.linalg.norm(children.quaternions, axis=2), 1.0, atol=1e-9
    )


def test_uniform_crossover_inherits_parent_axes(ctx):
    pop = _scored_population(ctx, k=8)
    children = UniformCrossover(mutation_rate=0.0).combine(ctx, pop, 16)
    # With no mutation, each child coordinate equals some parent coordinate.
    for s in range(children.n_spots):
        parents = pop.translations[s]
        for child in children.translations[s]:
            for axis in range(3):
                assert np.any(np.isclose(parents[:, axis], child[axis]))


def test_combination_validation(ctx):
    pop = _scored_population(ctx, k=4)
    with pytest.raises(MetaheuristicError):
        BlendCrossover().combine(ctx, pop, 0)
    with pytest.raises(MetaheuristicError):
        BlendCrossover(alpha=-1.0)
    with pytest.raises(MetaheuristicError):
        UniformCrossover(mutation_rate=2.0)


def test_no_combination_passthrough(ctx):
    pop = _scored_population(ctx, k=4)
    out = NoCombination().combine(ctx, pop, 4)
    assert out.is_evaluated()
    np.testing.assert_array_equal(out.scores, pop.scores)
    with pytest.raises(MetaheuristicError):
        NoCombination().combine(ctx, pop, 8)


# ----------------------------------------------------------------------
# Improve
# ----------------------------------------------------------------------
def test_no_improvement_evaluates(ctx):
    pop = UniformSpotInitializer().initialize(ctx, 8)
    out = drive(NoImprovement().improve(ctx, pop), ctx.evaluator)
    assert out.is_evaluated()


def test_hill_climb_never_worsens(ctx):
    pop = _scored_population(ctx, k=8)
    before = pop.scores.copy()
    out = drive(HillClimb(steps=5, fraction=1.0).improve(ctx, pop), ctx.evaluator)
    assert np.all(out.scores <= before + 1e-9)


def test_hill_climb_usually_improves(ctx):
    pop = _scored_population(ctx, k=16)
    out = drive(HillClimb(steps=10, fraction=1.0).improve(ctx, pop), ctx.evaluator)
    assert out.scores.min() < pop.scores.min()


def test_hill_climb_fraction_limits_work(ctx):
    pop = _scored_population(ctx, k=10)
    evaluator = ctx.evaluator
    launches_before = evaluator.stats.n_launches
    drive(HillClimb(steps=3, fraction=0.2).improve(ctx, pop), evaluator)
    new_launches = evaluator.stats.launches[launches_before:]
    # 3 improve launches of 2 individuals per spot (20% of 10).
    assert len(new_launches) == 3
    assert all(
        rec.n_conformations == 2 * ctx.n_spots and rec.kind == "improve"
        for rec in new_launches
    )


def test_hill_climb_validation():
    with pytest.raises(MetaheuristicError):
        HillClimb(steps=0)
    with pytest.raises(MetaheuristicError):
        HillClimb(fraction=0.0)


# ----------------------------------------------------------------------
# Include
# ----------------------------------------------------------------------
def test_elitist_inclusion_keeps_best_of_union(ctx):
    current = _scored_population(ctx, k=8)
    offspring = _scored_population(ctx, k=8)
    nxt = ElitistInclusion().include(ctx, offspring, current)
    assert nxt.size_per_spot == 8
    union_best = np.minimum(current.scores.min(axis=1), offspring.scores.min(axis=1))
    np.testing.assert_allclose(nxt.scores.min(axis=1), union_best)
    # monotone: the new best can never be worse than the old best
    assert np.all(nxt.scores.min(axis=1) <= current.scores.min(axis=1))


def test_generational_inclusion_preserves_elites(ctx):
    current = _scored_population(ctx, k=8)
    offspring = _scored_population(ctx, k=8)
    nxt = GenerationalInclusion(elites=2).include(ctx, offspring, current)
    assert nxt.size_per_spot == 8
    # The old top-2 of each spot must survive.
    for s in range(ctx.n_spots):
        old_top2 = np.sort(current.scores[s])[:2]
        for v in old_top2:
            assert np.any(np.isclose(nxt.scores[s], v))


def test_steady_state_inclusion(ctx):
    current = _scored_population(ctx, k=8)
    offspring = _scored_population(ctx, k=4)
    nxt = SteadyStateInclusion().include(ctx, offspring, current)
    assert nxt.size_per_spot == 8
    # mean can only improve (each replacement strictly improves the worst)
    assert nxt.scores.mean() <= current.scores.mean() + 1e-9


def test_inclusion_requires_evaluated(ctx):
    current = _scored_population(ctx, k=4)
    unevaluated = UniformSpotInitializer().initialize(ctx, 4)
    with pytest.raises(MetaheuristicError):
        ElitistInclusion().include(ctx, unevaluated, current)
