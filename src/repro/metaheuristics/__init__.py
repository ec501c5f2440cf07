"""Metaheuristic framework: Algorithm 1 template, operators, M1–M4 presets."""

from repro import _lazy_exports
from repro.metaheuristics.combination import (
    BlendCrossover,
    Combination,
    NoCombination,
    UniformCrossover,
)
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.evaluation import (
    EvaluationStats,
    Evaluator,
    LaunchRecord,
    SerialEvaluator,
)
from repro.metaheuristics.improvement import HillClimb, Improvement, NoImprovement
from repro.metaheuristics.inclusion import (
    ElitistInclusion,
    GenerationalInclusion,
    Inclusion,
    SteadyStateInclusion,
)
from repro.metaheuristics.individual import POSE_DIM, Conformation, decode_pose, encode_pose
from repro.metaheuristics.initialization import (
    Initializer,
    ShellInitializer,
    UniformSpotInitializer,
)
from repro.metaheuristics.population import Population
from repro.metaheuristics.presets import (
    PRESET_TABLE,
    PresetParameters,
    expected_evaluations_per_spot,
    make_preset,
    preset_names,
)
from repro.metaheuristics.rng import SpotRngPool
from repro.metaheuristics.selection import BestFraction, RouletteWheel, Selection, Tournament
from repro.metaheuristics.template import (
    MetaheuristicResult,
    MetaheuristicSpec,
    run_metaheuristic,
)
from repro.metaheuristics.termination import (
    AllOf,
    AnyOf,
    EndCondition,
    MaxIterations,
    Stagnation,
    TargetScore,
    TerminationState,
)

__all__ = [
    "POSE_DIM",
    "PRESET_TABLE",
    "AllOf",
    "AnyOf",
    "BestFraction",
    "BlendCrossover",
    "Combination",
    "Conformation",
    "ElitistInclusion",
    "EndCondition",
    "EvaluationStats",
    "Evaluator",
    "GenerationalInclusion",
    "HillClimb",
    "Improvement",
    "Inclusion",
    "Initializer",
    "LaunchRecord",
    "MaxIterations",
    "MetaheuristicResult",
    "MetaheuristicSpec",
    "MultistartResult",
    "NoCombination",
    "NoImprovement",
    "Population",
    "PresetParameters",
    "RouletteWheel",
    "SearchContext",
    "Selection",
    "SerialEvaluator",
    "ShellInitializer",
    "SpotRngPool",
    "Stagnation",
    "SteadyStateInclusion",
    "TargetScore",
    "TerminationState",
    "Tournament",
    "UniformCrossover",
    "UniformSpotInitializer",
    "decode_pose",
    "encode_pose",
    "expected_evaluations_per_spot",
    "make_preset",
    "preset_names",
    "run_metaheuristic",
    "run_multistart",
]

# Off the campaign path: loaded on first use.
__getattr__ = _lazy_exports(globals(), {
    "repro.metaheuristics.multistart": ("MultistartResult", "run_multistart"),
})
