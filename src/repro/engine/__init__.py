"""Parallel runtime: schedulers, warm-up, simulated execution, reporting."""

from repro import _lazy_exports
from repro.engine.executor import (
    EXECUTION_MODES,
    MultiGpuExecutor,
    host_overhead_s,
    simulate_cpu_trace,
    simulate_gpu_trace,
)
from repro.engine.host_runtime import HostWarmupResult, ParallelSpotEvaluator
from repro.engine.partition import equal_partition, proportional_partition
from repro.engine.reporting import ExecutionReport, TimingBreakdown
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
    "run_job_queue",
    "run_warmup",
    "simulate_async_trace",
    "simulate_cpu_trace",
    "simulate_gpu_trace",
    "static_screening_makespan",
]

# Off the campaign path: loaded on first use.
__getattr__ = _lazy_exports(globals(), {
    "repro.engine.async_mode": ("partition_spots_by_weight", "simulate_async_trace"),
    "repro.engine.device_worker": ("Job", "QueueResult", "SimulatedDevice", "run_job_queue"),
    "repro.engine.events": ("Event", "EventLoop"),
    "repro.engine.screening_schedule": (
        "LigandWorkload",
        "ScreeningSchedule",
        "dynamic_screening_makespan",
        "static_screening_makespan",
    ),
    "repro.engine.traceio": ("dump_trace", "dumps_trace", "load_trace", "loads_trace"),
})
