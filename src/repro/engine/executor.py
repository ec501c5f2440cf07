"""The multicore+multiGPU execution engine.

Separation of concerns mirrors the reproduction strategy: the metaheuristic
*math* runs on the host (NumPy), producing a trace of scoring launches; the
*time* those launches would have cost on a modelled machine comes from
replaying the trace through the performance model under a scheduler. Because
scoring is a pure function, results are identical no matter how launches are
partitioned — which is also why the paper's parallel runs need no
communication.

Trace replay implements Algorithm 2's synchronisation structure: every
launch is split across devices, each device scores its share concurrently,
and the iteration proceeds when the slowest share finishes.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EXECUTION_MODES
from repro.engine.reporting import ExecutionReport, TimingBreakdown
from repro.engine.scheduler import (
    DynamicSpotQueueScheduler,
    Scheduler,
    StaticEqualScheduler,
    StaticProportionalScheduler,
)
from repro.engine.warmup import WarmupResult, run_warmup
from repro.errors import SchedulingError
from repro.hardware.cuda import KernelConfig
from repro.hardware.node import NodeSpec
from repro.hardware.perf_model import (
    DEFAULT_PARAMS,
    PerfModelParams,
    cpu_batch_time,
    gpu_launch_time,
)
from repro.metaheuristics.context import SearchContext
from repro.metaheuristics.evaluation import LaunchRecord, SerialEvaluator
from repro.metaheuristics.rng import SpotRngPool
from repro.metaheuristics.template import MetaheuristicSpec, run_metaheuristic
from repro.molecules.spots import Spot
from repro.scoring.base import BoundScorer

__all__ = [
    "host_overhead_s",
    "simulate_cpu_trace",
    "simulate_gpu_trace",
    "MultiGpuExecutor",
    "EXECUTION_MODES",
]


def host_overhead_s(record: LaunchRecord, params: PerfModelParams) -> float:
    """Serial host cost charged to one launch.

    Template stages (sort/crossover/include) cost ``host_op_cost_s`` per
    individual on ``population`` launches; local-search steps
    (perturb/accept) are cheaper by ``improve_host_factor``. Every launch
    additionally pays the marshalling/launch/sync overhead.
    """
    stage_factor = 1.0 if record.kind == "population" else params.improve_host_factor
    return (
        record.n_conformations * params.host_op_cost_s * stage_factor
        + params.launch_host_overhead_s
    )


def simulate_cpu_trace(
    records: list[LaunchRecord],
    node: NodeSpec,
    params: PerfModelParams = DEFAULT_PARAMS,
) -> TimingBreakdown:
    """Replay a trace on the node's CPU cores (the OpenMP baseline)."""
    timing = TimingBreakdown(device_busy_s=np.zeros(1))
    for record in records:
        if record.n_receptor_atoms < 1:
            raise SchedulingError(
                "launch record lacks n_receptor_atoms (needed by the CPU model)"
            )
        t = cpu_batch_time(
            node.cpu,
            node.total_cpu_cores,
            record.n_conformations,
            record.flops_per_pose,
            record.n_receptor_atoms,
            params,
        )
        timing.scoring_s += t
        timing.device_busy_s[0] += t
        # The CPU version pays the template bookkeeping too, but not the
        # GPU marshalling/launch overhead.
        stage = 1.0 if record.kind == "population" else params.improve_host_factor
        timing.host_s += record.n_conformations * params.host_op_cost_s * stage
        timing.n_launches += 1
        timing.n_conformations += record.n_conformations
    return timing


def simulate_gpu_trace(
    records: list[LaunchRecord],
    node: NodeSpec,
    scheduler: Scheduler,
    params: PerfModelParams = DEFAULT_PARAMS,
    config: KernelConfig | None = None,
    failures: dict[int, float] | None = None,
    timeline: list[tuple[int, float, float, str]] | None = None,
) -> TimingBreakdown:
    """Replay a trace on the node's GPUs under a scheduler.

    Parameters
    ----------
    failures:
        Optional ``device index -> simulated failure time``. From that time
        on the device is excluded from planning (launch-granular dropout;
        mid-job dropout lives in :mod:`repro.engine.device_worker`).
    timeline:
        Optional list the replay appends ``(device, start_s, end_s, kind)``
        busy intervals to — feed it to
        :func:`repro.vs.visualize.gantt` for a schedule rendering.

    Raises
    ------
    SchedulingError
        If the node has no GPUs, or every GPU has failed.
    """
    if node.n_gpus == 0:
        raise SchedulingError(f"node {node.name!r} has no GPUs")
    failures = failures or {}
    timing = TimingBreakdown(device_busy_s=np.zeros(node.n_gpus))
    now = 0.0
    for record in records:
        alive = np.array(
            [failures.get(i, np.inf) > now for i in range(node.n_gpus)], dtype=bool
        )
        if not alive.any():
            raise SchedulingError(f"all devices failed by t={now:.3f}s")
        shares = scheduler.plan(record, node.gpus, alive)
        if int(shares.sum()) != record.n_conformations:
            raise SchedulingError(
                f"scheduler {scheduler.name} lost work: "
                f"{int(shares.sum())} != {record.n_conformations}"
            )
        launch_times = np.zeros(node.n_gpus)
        for d in range(node.n_gpus):
            if shares[d] > 0:
                launch_times[d] = gpu_launch_time(
                    node.gpus[d], int(shares[d]), record.flops_per_pose, params, config
                ).total_s
                if timeline is not None:
                    timeline.append(
                        (d, now, now + launch_times[d], record.kind)
                    )
        step = float(launch_times.max())  # barrier: slowest share gates
        timing.scoring_s += step
        timing.device_busy_s += launch_times
        timing.host_s += host_overhead_s(record, params)
        timing.n_launches += 1
        timing.n_conformations += record.n_conformations
        now = timing.total_s
    return timing


class MultiGpuExecutor:
    """Run a metaheuristic against a modelled heterogeneous node.

    Parameters
    ----------
    node:
        Machine model (e.g. :func:`repro.hardware.node.jupiter`).
    params:
        Performance-model calibration constants.
    config:
        Kernel launch configuration (block granularity etc.).
    seed:
        Seed for warm-up measurement noise (deterministic tables).
    """

    def __init__(
        self,
        node: NodeSpec,
        params: PerfModelParams = DEFAULT_PARAMS,
        config: KernelConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.node = node
        self.params = params
        self.config = config
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        spec: MetaheuristicSpec,
        spots: list[Spot],
        scorer: BoundScorer,
        mode: str,
        search_seed: int = 0,
        failures: dict[int, float] | None = None,
    ) -> ExecutionReport:
        """Execute ``spec`` over ``spots`` and time it under ``mode``.

        The host math runs once (mode-independent, by design); the timing
        is then computed for the requested mode. Identical ``search_seed``
        values therefore give *identical scientific results* across modes —
        the executor-equivalence property the tests pin down.
        """
        evaluator = SerialEvaluator(scorer)
        ctx = SearchContext(
            spots=spots,
            evaluator=evaluator,
            rng=SpotRngPool(search_seed, [s.index for s in spots]),
        )
        result = run_metaheuristic(spec, ctx)
        timing, scheduler_name = self.replay(
            evaluator.stats.launches, mode, failures=failures
        )
        return ExecutionReport(
            mode=mode,
            node_name=self.node.name,
            scheduler_name=scheduler_name,
            timing=timing,
            result=result,
        )

    # ------------------------------------------------------------------
    def replay(
        self,
        records: list[LaunchRecord],
        mode: str,
        failures: dict[int, float] | None = None,
    ) -> tuple[TimingBreakdown, str]:
        """Time an existing launch trace under ``mode`` (no host math)."""
        if mode not in EXECUTION_MODES:
            raise SchedulingError(
                f"unknown mode {mode!r}; choose from {EXECUTION_MODES}"
            )
        if not records:
            raise SchedulingError("cannot replay an empty trace")
        if mode == "openmp":
            return simulate_cpu_trace(records, self.node, self.params), "-"

        if mode == "gpu-homogeneous":
            scheduler: Scheduler = StaticEqualScheduler()
            warmup: WarmupResult | None = None
        elif mode == "gpu-heterogeneous":
            warmup = self.warmup(records[0].flops_per_pose)
            scheduler = StaticProportionalScheduler(warmup.weights)
        else:  # gpu-dynamic
            scheduler = DynamicSpotQueueScheduler(self.params, self.config)
            warmup = None

        timing = simulate_gpu_trace(
            records, self.node, scheduler, self.params, self.config, failures
        )
        if warmup is not None:
            timing.warmup_s = warmup.elapsed_s
        return timing, scheduler.name

    def warmup(self, flops_per_pose: float) -> WarmupResult:
        """Run the Eq. 1 warm-up phase for this node's GPUs."""
        rng = np.random.default_rng(self.seed)
        return run_warmup(
            self.node.gpus,
            flops_per_pose,
            params=self.params,
            config=self.config,
            rng=rng,
        )
