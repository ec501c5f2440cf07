"""Extension metaheuristics: each template instantiation must optimise."""

import numpy as np
import pytest

from repro.errors import MetaheuristicError
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.evaluation import SerialEvaluator, drive
from repro.metaheuristics.extra import (
    AnnealingImprovement,
    AntColonySampling,
    DifferentialMove,
    GreedyRandomizedConstruction,
    PsoMove,
    TabuImprovement,
    VnsImprovement,
    make_ant_colony,
    make_differential_evolution,
    make_grasp,
    make_pso,
    make_simulated_annealing,
    make_tabu_search,
    make_vns,
)
from repro.metaheuristics.rng import SpotRngPool
from repro.metaheuristics.template import run_metaheuristic


def _ctx(spots, scorer, seed=17):
    return SearchContext(
        spots=spots,
        evaluator=SerialEvaluator(scorer),
        rng=SpotRngPool(seed, [s.index for s in spots]),
    )


FACTORIES = {
    "PSO": lambda: make_pso(swarm_size=12, iterations=8),
    "SA": lambda: make_simulated_annealing(walkers=8, iterations=6),
    "TABU": lambda: make_tabu_search(walkers=4, iterations=5),
    "GRASP": lambda: make_grasp(restarts=3, per_restart=8, local_search_steps=4),
    "VNS": lambda: make_vns(walkers=8, iterations=6),
    "DE": lambda: make_differential_evolution(population=12, iterations=10),
    "ACO": lambda: make_ant_colony(archive_size=10, ants=10, iterations=10),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_extension_optimises(name, spots, fast_scorer):
    spec = FACTORIES[name]()
    result = run_metaheuristic(spec, _ctx(spots, fast_scorer))
    assert result.spec_name == name
    assert result.best_history[-1] <= result.best_history[0]
    assert result.best_history[-1] < -5.0  # found real binding wells


#: ``best_score`` and ``best_history`` at seed 17 of ``_ctx``, taken from
#: the build whose operators called the evaluator directly: scoring through
#: yielded launches must not move a float.
PINNED = {
    "SA": [
        -3.130221128463745, -11.856566429138184, -12.197059631347656,
        -12.197059631347656, -12.310922622680664, -13.10085678100586,
        -13.10085678100586,
    ],
    "TABU": [
        -5.261326313018799, -10.855621337890625, -10.855621337890625,
        -11.36413288116455, -12.773517608642578, -14.269268035888672,
    ],
    "GRASP": [
        -3.130221128463745, -24.52621841430664, -24.52621841430664,
        -24.52621841430664,
    ],
    "VNS": [
        -3.130221128463745, -5.187808990478516, -8.0462007522583,
        -11.669780731201172, -12.896406173706055, -12.896406173706055,
        -12.896406173706055,
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_extension_matches_its_pinned_history(name, spots, fast_scorer):
    result = run_metaheuristic(FACTORIES[name](), _ctx(spots, fast_scorer))
    assert result.best_history == PINNED[name]
    assert result.best_score == PINNED[name][-1]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_extension_is_deterministic(name, spots, fast_scorer):
    a = run_metaheuristic(FACTORIES[name](), _ctx(spots, fast_scorer, 3))
    b = run_metaheuristic(FACTORIES[name](), _ctx(spots, fast_scorer, 3))
    assert a.best.score == pytest.approx(b.best.score, rel=1e-9)


def test_pso_validation():
    with pytest.raises(MetaheuristicError):
        PsoMove(inertia=1.5)
    with pytest.raises(MetaheuristicError):
        PsoMove(cognitive=-1.0)


def test_sa_validation():
    with pytest.raises(MetaheuristicError):
        AnnealingImprovement(steps=0)
    with pytest.raises(MetaheuristicError):
        AnnealingImprovement(t_start=1.0, t_end=2.0)


def test_sa_temperature_schedule_decays():
    imp = AnnealingImprovement(steps=2, t_start=10.0, t_end=0.1, iterations_hint=5)
    t0 = imp.temperature()
    imp._step_count = 9
    t_end = imp.temperature()
    assert t0 == pytest.approx(10.0)
    assert t_end == pytest.approx(0.1, rel=1e-6)


def test_tabu_validation():
    with pytest.raises(MetaheuristicError):
        TabuImprovement(candidates=0)
    with pytest.raises(MetaheuristicError):
        TabuImprovement(tenure=0)
    with pytest.raises(MetaheuristicError):
        TabuImprovement(cell_size=-1.0)


def test_grasp_validation():
    with pytest.raises(MetaheuristicError):
        GreedyRandomizedConstruction(alpha=0.0)
    with pytest.raises(MetaheuristicError):
        GreedyRandomizedConstruction(oversample=0)


def test_vns_validation():
    with pytest.raises(MetaheuristicError):
        VnsImprovement(steps=0)
    with pytest.raises(MetaheuristicError):
        VnsImprovement(k_max=0)


def test_grasp_construction_beats_uniform(spots, fast_scorer):
    """The RCL construction must produce better-than-random candidates."""
    ctx = _ctx(spots, fast_scorer)
    from repro.metaheuristics.initialization import UniformSpotInitializer

    uniform = UniformSpotInitializer().initialize(ctx, 16)
    drive(ctx.evaluate_population(uniform), ctx.evaluator)
    construction = GreedyRandomizedConstruction(alpha=0.25).combine(ctx, uniform, 16)
    constructed = drive(construction, ctx.evaluator)
    assert constructed.is_evaluated()
    assert constructed.scores.mean() < uniform.scores.mean()


def test_pso_moves_toward_best(spots, fast_scorer):
    """After several iterations the swarm concentrates: mean distance to the
    per-spot best position shrinks."""
    ctx = _ctx(spots, fast_scorer)
    spec = make_pso(swarm_size=16, iterations=1)
    r1 = run_metaheuristic(spec, ctx)
    spread_1 = np.mean(
        np.linalg.norm(
            r1.population.translations
            - r1.population.translations.mean(axis=1, keepdims=True),
            axis=2,
        )
    )
    ctx2 = _ctx(spots, fast_scorer)
    r10 = run_metaheuristic(make_pso(swarm_size=16, iterations=12), ctx2)
    spread_10 = np.mean(
        np.linalg.norm(
            r10.population.translations
            - r10.population.translations.mean(axis=1, keepdims=True),
            axis=2,
        )
    )
    assert spread_10 < spread_1


def test_de_validation():
    with pytest.raises(MetaheuristicError):
        DifferentialMove(weight=0.0)
    with pytest.raises(MetaheuristicError):
        DifferentialMove(crossover=1.5)


def test_de_needs_minimum_population(spots, fast_scorer):
    spec = make_differential_evolution(population=3, iterations=2)
    with pytest.raises(MetaheuristicError, match="at least 4"):
        run_metaheuristic(spec, _ctx(spots, fast_scorer))


def test_aco_validation():
    with pytest.raises(MetaheuristicError):
        AntColonySampling(locality=0.0)
    with pytest.raises(MetaheuristicError):
        AntColonySampling(evaporation=3.0)


def test_de_monotone_best(spots, fast_scorer):
    """Greedy pair selection makes DE's per-individual scores monotone."""
    spec = make_differential_evolution(population=8, iterations=6)
    result = run_metaheuristic(spec, _ctx(spots, fast_scorer, 21))
    assert all(
        b <= a + 1e-12
        for a, b in zip(result.best_history, result.best_history[1:])
    )
