"""Parallel runtime: schedulers, warm-up, simulated execution, reporting."""

from repro.engine.async_mode import partition_spots_by_weight, simulate_async_trace
from repro.engine.device_worker import Job, QueueResult, SimulatedDevice, run_job_queue
from repro.engine.events import Event, EventLoop
from repro.engine.executor import (
    EXECUTION_MODES,
    MultiGpuExecutor,
    host_overhead_s,
    simulate_cpu_trace,
    simulate_gpu_trace,
)
from repro.engine.host_runtime import (
    HostWarmupResult,
    ParallelSpotEvaluator,
    SharedArrayStage,
    rebuild_scorer,
    stage_scorer,
)
from repro.engine.partition import equal_partition, proportional_partition
from repro.engine.reporting import ExecutionReport, TimingBreakdown
from repro.engine.screening_schedule import (
    LigandWorkload,
    ScreeningSchedule,
    dynamic_screening_makespan,
    static_screening_makespan,
)
from repro.engine.traceio import dump_trace, dumps_trace, load_trace, loads_trace
from repro.engine.scheduler import (
    DynamicSpotQueueScheduler,
    Scheduler,
    StaticEqualScheduler,
    StaticProportionalScheduler,
)
from repro.engine.warmup import (
    DEFAULT_WARMUP_ITERATIONS,
    WarmupResult,
    run_warmup,
)

__all__ = [
    "DEFAULT_WARMUP_ITERATIONS",
    "EXECUTION_MODES",
    "DynamicSpotQueueScheduler",
    "Event",
    "EventLoop",
    "ExecutionReport",
    "HostWarmupResult",
    "ParallelSpotEvaluator",
    "SharedArrayStage",
    "Job",
    "LigandWorkload",
    "MultiGpuExecutor",
    "QueueResult",
    "Scheduler",
    "SimulatedDevice",
    "StaticEqualScheduler",
    "ScreeningSchedule",
    "StaticProportionalScheduler",
    "TimingBreakdown",
    "WarmupResult",
    "dump_trace",
    "dumps_trace",
    "dynamic_screening_makespan",
    "equal_partition",
    "host_overhead_s",
    "load_trace",
    "partition_spots_by_weight",
    "loads_trace",
    "proportional_partition",
    "rebuild_scorer",
    "run_job_queue",
    "run_warmup",
    "stage_scorer",
    "simulate_async_trace",
    "simulate_cpu_trace",
    "simulate_gpu_trace",
    "static_screening_makespan",
]
