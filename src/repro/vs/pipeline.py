"""High-level pipeline facade.

One object that wires the whole system together — structures in, ranked
poses and simulated timings out — so downstream users don't have to touch
the subpackages individually. This is the "public API implementing the
paper's primary contribution" entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.executor import EXECUTION_MODES, MultiGpuExecutor
from repro.engine.reporting import ExecutionReport
from repro.errors import ReproError
from repro.hardware.node import NodeSpec, hertz
from repro.metaheuristics.presets import make_preset
from repro.metaheuristics.template import MetaheuristicSpec
from repro.molecules.spots import Spot, find_spots
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import ScoringFunction
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.vs.docking import dock
from repro.vs.results import DockingResult, ScreeningReport
from repro.vs.screening import screen

__all__ = ["VirtualScreeningPipeline", "PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline-wide settings.

    Attributes
    ----------
    n_spots:
        Surface spots searched per receptor.
    metaheuristic:
        Preset name or custom spec.
    workload_scale:
        Preset workload scaling (1.0 = paper-scale per-spot effort).
    mode:
        Execution mode used for simulated timing.
    seed:
        Base seed for all stochastic stages.
    host_workers:
        When > 0, score on real worker processes (bitwise identical to the
        serial path).
    parallel_mode:
        ``"static"`` or ``"dynamic"`` host scheduling (with
        ``host_workers > 0``).
    nodes:
        When >= 2, :meth:`VirtualScreeningPipeline.screen` distributes the
        library over a local fleet of worker-node processes
        (:mod:`repro.cluster`); rankings stay bitwise identical to
        ``nodes=0``. Single-ligand :meth:`~VirtualScreeningPipeline.dock`
        always runs in-process.
    pipeline_depth:
        Ligands co-scheduled through the persistent pool during
        :meth:`VirtualScreeningPipeline.screen` (default ``None``: one more
        than the host workers): one ligand's barrier tails and host
        bookkeeping overlap another's scoring. Depth 1 docks one ligand at
        a time. Purely an execution knob — rankings are bitwise identical
        at every depth.
    """

    n_spots: int = 16
    metaheuristic: str = "M2"
    workload_scale: float = 1.0
    mode: str = "gpu-heterogeneous"
    seed: int = 0
    host_workers: int = 0
    parallel_mode: str = "static"
    nodes: int = 0
    pipeline_depth: int | None = None

    def __post_init__(self) -> None:
        if self.n_spots < 1:
            raise ReproError(f"n_spots must be >= 1, got {self.n_spots}")
        if self.mode not in EXECUTION_MODES:
            raise ReproError(
                f"unknown mode {self.mode!r}; choose from {EXECUTION_MODES}"
            )
        if self.host_workers < 0:
            raise ReproError(
                f"host_workers must be >= 0, got {self.host_workers}"
            )
        if self.parallel_mode not in ("static", "dynamic"):
            raise ReproError(
                "parallel_mode must be 'static' or 'dynamic', "
                f"got {self.parallel_mode!r}"
            )
        if self.nodes < 0:
            raise ReproError(f"nodes must be >= 0, got {self.nodes}")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ReproError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )


class VirtualScreeningPipeline:
    """End-to-end metaheuristic virtual screening on a modelled node.

    Example
    -------
    >>> from repro.molecules import generate_receptor, generate_ligand
    >>> from repro.vs import VirtualScreeningPipeline
    >>> pipe = VirtualScreeningPipeline()          # Hertz node, M2, 16 spots
    >>> rec = generate_receptor(500, seed=1)
    >>> lig = generate_ligand(24, seed=2)
    >>> result = pipe.dock(rec, lig)
    >>> result.best_score < 0                      # found a binding pose
    True
    """

    def __init__(
        self,
        node: NodeSpec | None = None,
        config: PipelineConfig | None = None,
        scoring: ScoringFunction | None = None,
    ) -> None:
        self.node = node if node is not None else hertz()
        self.config = config if config is not None else PipelineConfig()
        self.scoring = (
            scoring
            if scoring is not None
            else CutoffLennardJonesScoring(dtype=np.float32)
        )

    # ------------------------------------------------------------------
    def spec(self) -> MetaheuristicSpec:
        """The resolved metaheuristic specification."""
        if isinstance(self.config.metaheuristic, MetaheuristicSpec):
            return self.config.metaheuristic
        return make_preset(self.config.metaheuristic, self.config.workload_scale)

    def find_spots(self, receptor: Receptor) -> list[Spot]:
        """Spot extraction with the pipeline's settings."""
        return find_spots(receptor, self.config.n_spots)

    def dock(self, receptor: Receptor, ligand: Ligand) -> DockingResult:
        """Dock one ligand; result carries simulated node timing."""
        return dock(
            receptor,
            ligand,
            n_spots=self.config.n_spots,
            metaheuristic=self.config.metaheuristic,
            scoring=self.scoring,
            seed=self.config.seed,
            workload_scale=self.config.workload_scale,
            node=self.node,
            mode=self.config.mode,
            host_workers=self.config.host_workers,
            parallel_mode=self.config.parallel_mode,
        )

    def screen(self, receptor: Receptor, ligands: list[Ligand]) -> ScreeningReport:
        """Screen a library; report carries accumulated simulated time."""
        return screen(
            receptor,
            ligands,
            n_spots=self.config.n_spots,
            metaheuristic=self.config.metaheuristic,
            scoring=self.scoring,
            seed=self.config.seed,
            workload_scale=self.config.workload_scale,
            node=self.node,
            mode=self.config.mode,
            host_workers=self.config.host_workers,
            parallel_mode=self.config.parallel_mode,
            nodes=self.config.nodes,
            pipeline_depth=self.config.pipeline_depth,
        )

    def compare_modes(
        self, receptor: Receptor, ligand: Ligand
    ) -> dict[str, ExecutionReport]:
        """Run one docking workload and time it under every execution mode.

        The search runs once (results are mode-invariant); each mode replays
        the same trace — exactly the paper's experimental design.
        """
        from repro.metaheuristics.context import SearchContext
        from repro.metaheuristics.evaluation import SerialEvaluator
        from repro.metaheuristics.rng import SpotRngPool
        from repro.metaheuristics.template import run_metaheuristic

        spots = self.find_spots(receptor)
        scorer = self.scoring.bind(receptor, ligand)
        evaluator = SerialEvaluator(scorer)
        ctx = SearchContext(
            spots=spots,
            evaluator=evaluator,
            rng=SpotRngPool(self.config.seed, [s.index for s in spots]),
        )
        result = run_metaheuristic(self.spec(), ctx)
        executor = MultiGpuExecutor(self.node, seed=self.config.seed)
        reports: dict[str, ExecutionReport] = {}
        for mode in EXECUTION_MODES:
            timing, scheduler_name = executor.replay(evaluator.stats.launches, mode)
            reports[mode] = ExecutionReport(
                mode=mode,
                node_name=self.node.name,
                scheduler_name=scheduler_name,
                timing=timing,
                result=result,
            )
        return reports
