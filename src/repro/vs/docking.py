"""Single-complex docking: one ligand over the whole receptor surface.

The BINDSURF-style flow of §3.1: find spots → place conformations at every
spot → run a metaheuristic over all spots simultaneously → report the best
pose per spot and overall.

:func:`dock_steps` is one dock as a generator of scoring launches (see
:mod:`repro.metaheuristics.template`); :func:`dock` builds an evaluator and
drives it serially, and a campaign runner drives many at once on its pool.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro import observability as obs
from repro.engine.host_runtime import ParallelSpotEvaluator
from repro.errors import ReproError
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.evaluation import Evaluator, SerialEvaluator, drive
from repro.metaheuristics.presets import make_preset
from repro.metaheuristics.rng import SpotRngPool
from repro.metaheuristics.template import MetaheuristicSpec, metaheuristic_steps

# ``run_metaheuristic`` is not called here: the perf harness's traced pass
# wraps it under this module's name.
from repro.metaheuristics.template import run_metaheuristic  # noqa: F401
from repro.molecules.spots import Spot, find_spots
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import ScoringFunction
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.vs.results import DockingResult

if TYPE_CHECKING:  # the simulator loads only when a dock is timed on a node
    from repro.hardware.node import NodeSpec

__all__ = ["dock", "dock_steps"]


def _resolve_spec(metaheuristic: str | MetaheuristicSpec, workload_scale: float) -> MetaheuristicSpec:
    """The dock's own spec: a preset built afresh, or a deep copy of a custom
    one. Operators keep state within a search (simulated annealing's step
    count, VNS's neighbourhood, tabu memory, PSO's bests), so a spec shared
    by two docks would make the second depend on the first."""
    if isinstance(metaheuristic, MetaheuristicSpec):
        return copy.deepcopy(metaheuristic)
    return make_preset(metaheuristic, workload_scale)


def dock(
    receptor: Receptor,
    ligand: Ligand,
    n_spots: int = 16,
    spots: list[Spot] | None = None,
    metaheuristic: str | MetaheuristicSpec = "M2",
    scoring: ScoringFunction | None = None,
    seed: int = 0,
    workload_scale: float = 1.0,
    node: NodeSpec | None = None,
    mode: str = "gpu-heterogeneous",
    host_workers: int = 0,
    parallel_mode: str = "static",
    evaluator_factory=None,
) -> DockingResult:
    """Dock ``ligand`` against every surface spot of ``receptor``.

    Parameters
    ----------
    receptor, ligand:
        The complex. Ligand coordinates are re-centred internally; any input
        frame is fine.
    n_spots:
        Surface spots to search (ignored when ``spots`` is given).
    spots:
        Pre-computed spots (e.g. from a previous run, or hand-placed around
        a known binding site).
    metaheuristic:
        Preset name (``"M1"``–``"M4"``) or a custom
        :class:`~repro.metaheuristics.template.MetaheuristicSpec` (the dock
        searches with a deep copy of it).
    scoring:
        Scoring function factory; defaults to the float32 cutoff LJ (the
        GPU-precision fast path).
    seed:
        Base seed for the per-spot search streams.
    workload_scale:
        Preset workload scaling (only applies to preset names).
    node:
        Optional machine model; when given, the run is also timed on it
        under ``mode`` and the result carries ``simulated_seconds``.
    mode:
        Execution mode for the timing replay.
    host_workers:
        When > 0, score on this many real worker processes: a one-shot
        :class:`repro.engine.host_runtime.ParallelSpotEvaluator` built for
        this ligand and closed on exit. Results are bitwise identical to
        the serial path for the same ``seed``.
    parallel_mode:
        ``"static"`` (warm-up-weighted shares) or ``"dynamic"``
        (work-stealing spot queue); only used with ``host_workers > 0``.
    evaluator_factory:
        Externally-owned runtime seam: a callable ``(receptor, ligand,
        spots) -> Evaluator`` (e.g.
        :meth:`repro.engine.host_runtime.LigandLease.evaluator_factory`).
        When given it takes precedence over ``scoring``/``host_workers``/
        ``parallel_mode`` — binding and pooling belong to the owner — and
        the evaluator is *not* closed here; its lifecycle stays with the
        caller (a campaign keeps one pool across ligands).

    Returns
    -------
    DockingResult
        Best pose per spot and overall, with workload statistics.
    """
    if host_workers < 0:
        raise ReproError(f"host_workers must be >= 0, got {host_workers}")
    if spots is None:
        spots = find_spots(receptor, n_spots)
    if not spots:
        raise ReproError("docking needs at least one spot")
    if evaluator_factory is not None:
        evaluator = evaluator_factory(receptor, ligand, spots)
        owns_evaluator = False
    else:
        scoring = (
            scoring if scoring is not None else CutoffLennardJonesScoring(dtype=np.float32)
        )
        if host_workers > 0:
            evaluator = ParallelSpotEvaluator(
                scoring, receptor, ligand, n_workers=host_workers, mode=parallel_mode
            )
            owns_evaluator = True
        else:
            evaluator = SerialEvaluator(scoring.bind(receptor, ligand))
            owns_evaluator = False
    steps = dock_steps(
        receptor, ligand, spots=spots, metaheuristic=metaheuristic, seed=seed,
        evaluator=evaluator, workload_scale=workload_scale, node=node, mode=mode,
    )
    name = getattr(metaheuristic, "name", metaheuristic)
    try:
        with obs.span("vs.dock", metaheuristic=name, host_workers=host_workers):
            return drive(steps, evaluator)
    finally:
        if owns_evaluator:
            evaluator.close()


def dock_steps(
    receptor: Receptor,
    ligand: Ligand,
    *,
    spots: list[Spot],
    metaheuristic: str | MetaheuristicSpec,
    seed: int,
    evaluator: Evaluator,
    workload_scale: float = 1.0,
    node: NodeSpec | None = None,
    mode: str = "gpu-heterogeneous",
) -> Generator:
    """One :func:`dock` as a generator: yields each scoring launch
    ``(spot_ids, translations, quaternions, kind)``, is sent its energies,
    and returns the :class:`DockingResult`.

    ``evaluator`` keeps the launch trace the result reads (evaluations, and
    the replay on ``node``); whoever drives the generator scores the
    launches, recording each in that trace. Parameters are :func:`dock`'s.
    """
    spec = _resolve_spec(metaheuristic, workload_scale)
    ctx = SearchContext(
        spots=spots,
        evaluator=evaluator,
        rng=SpotRngPool(seed, [s.index for s in spots]),
    )
    result = yield from metaheuristic_steps(spec, ctx)

    simulated = float("nan")
    if node is not None:
        from repro.engine.executor import MultiGpuExecutor

        executor = MultiGpuExecutor(node, seed=seed)
        timing, _ = executor.replay(evaluator.stats.launches, mode)
        simulated = timing.total_s

    return DockingResult(
        receptor=receptor,
        ligand=ligand,
        best=result.best,
        per_spot=result.best_per_spot,
        evaluations=evaluator.stats.n_conformations,
        metaheuristic=spec.name,
        simulated_seconds=simulated,
    )
