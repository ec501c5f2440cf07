"""Parallel runtime: schedulers, warm-up, simulated execution, reporting.

What loads when: importing the package loads the real host runtime
(:mod:`~repro.engine.host_runtime`, whose process-pool stack loads only
when a pool is set up) and :mod:`~repro.engine.partition`. The simulator —
:mod:`~repro.engine.executor`, :mod:`~repro.engine.scheduler`,
:mod:`~repro.engine.reporting`, :mod:`~repro.engine.warmup` and with them
:mod:`repro.hardware` — and the other modelling modules are lazy exports,
loaded on first use of one of their names: a campaign that times no dock
on a node model never loads them.
"""

from repro import _lazy_exports
from repro.constants import EXECUTION_MODES
from repro.engine.host_runtime import HostWarmupResult, ParallelSpotEvaluator
from repro.engine.partition import equal_partition, proportional_partition

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
    "repro.engine.executor": (
        "MultiGpuExecutor",
        "host_overhead_s",
        "simulate_cpu_trace",
        "simulate_gpu_trace",
    ),
    "repro.engine.reporting": ("ExecutionReport", "TimingBreakdown"),
    "repro.engine.scheduler": (
        "DynamicSpotQueueScheduler",
        "Scheduler",
        "StaticEqualScheduler",
        "StaticProportionalScheduler",
    ),
    "repro.engine.warmup": ("DEFAULT_WARMUP_ITERATIONS", "WarmupResult", "run_warmup"),
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
