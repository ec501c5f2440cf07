"""The heterogeneous algorithm's warm-up phase (§3.3, Eq. 1).

"a warm-up phase is performed to establish performance differences among all
targeted GPUs, running the scoring function for a few candidate solutions.
This phase measures, at run-time, the execution time of a small number of
iterations of the metaheuristic (five to ten) […] The execution times in
this warm-up phase on all GPUs are reduced to obtain the maximum value"

::

    Percent = Ex.time_actualGPU / Ex.time_slowestGPU            (Eq. 1)

The slowest GPU gets ``Percent = 1``; a GPU twice as fast gets 0.5. Devices
then receive conformation counts proportional to ``1 / Percent``.

In the simulation the per-iteration measurement is the performance model's
launch time perturbed by multiplicative noise (real warm-ups measure a noisy
quantity — clocks boost, the driver JITs, the bus warms). That noise is what
spreads the paper's heterogeneous-vs-homogeneous gains across metaheuristics
(1.31–1.56× on Hertz instead of a single deterministic ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.engine.partition import eq1_weights
from repro.errors import SchedulingError
from repro.hardware.cuda import KernelConfig
from repro.hardware.perf_model import DEFAULT_PARAMS, PerfModelParams, gpu_launch_time
from repro.hardware.specs import GpuSpec

__all__ = ["WarmupResult", "run_warmup", "DEFAULT_WARMUP_ITERATIONS"]

#: "five to ten" iterations; we default to the middle.
DEFAULT_WARMUP_ITERATIONS: int = 8

#: Poses scored per device per warm-up iteration ("a few candidate
#: solutions" — one thread block's worth times a few SMs).
DEFAULT_WARMUP_POSES: int = 256

#: Relative standard deviation of a single warm-up time measurement.
DEFAULT_MEASUREMENT_NOISE: float = 0.04


@dataclass(frozen=True)
class WarmupResult:
    """Outcome of the warm-up phase.

    Attributes
    ----------
    measured_times:
        ``(n_devices,)`` mean measured per-iteration times (seconds).
    percent:
        Eq. 1 values — 1.0 for the slowest device.
    weights:
        Normalised conformation shares, ``∝ 1/percent``; sum to 1.
    elapsed_s:
        Simulated wall time the warm-up itself consumed (devices warm up in
        parallel; the omp reduction waits for the slowest).
    """

    measured_times: np.ndarray
    percent: np.ndarray
    weights: np.ndarray
    elapsed_s: float


def run_warmup(
    gpus: tuple[GpuSpec, ...] | list[GpuSpec],
    flops_per_pose: float,
    iterations: int = DEFAULT_WARMUP_ITERATIONS,
    poses_per_device: int = DEFAULT_WARMUP_POSES,
    noise: float = DEFAULT_MEASUREMENT_NOISE,
    params: PerfModelParams = DEFAULT_PARAMS,
    config: KernelConfig | None = None,
    rng: np.random.Generator | None = None,
) -> WarmupResult:
    """Simulate the warm-up phase and compute Eq. 1.

    Parameters
    ----------
    gpus:
        Devices to profile.
    flops_per_pose:
        Scoring cost per conformation (the warm-up runs the *real* kernel).
    iterations:
        Metaheuristic iterations measured (5–10 in the paper).
    poses_per_device:
        Candidate solutions scored per device per iteration.
    noise:
        Relative σ of each time measurement; 0 disables noise.
    rng:
        Source of measurement noise; required when ``noise > 0``.
    """
    if not gpus:
        raise SchedulingError("warm-up needs at least one device")
    if iterations < 1:
        raise SchedulingError(f"iterations must be >= 1, got {iterations}")
    if poses_per_device < 1:
        raise SchedulingError(f"poses_per_device must be >= 1, got {poses_per_device}")
    if noise < 0:
        raise SchedulingError(f"noise must be >= 0, got {noise}")
    if noise > 0 and rng is None:
        raise SchedulingError("a seeded rng is required when noise > 0")

    true_times = np.array(
        [
            gpu_launch_time(g, poses_per_device, flops_per_pose, params, config).total_s
            for g in gpus
        ]
    )
    samples = np.tile(true_times, (iterations, 1))
    if noise > 0:
        assert rng is not None
        factors = 1.0 + noise * rng.standard_normal(samples.shape)
        samples = samples * np.clip(factors, 0.5, 1.5)
    measured = samples.mean(axis=0)

    percent, weights = eq1_weights(measured)
    # Devices run concurrently; each iteration ends at the slowest device
    # (the omp reduction in the paper), so elapsed = iterations × max.
    elapsed = float(samples.max(axis=1).sum())
    # The Eq. 1 decision on the record: the share each device was assigned.
    for i, gpu in enumerate(gpus):
        obs.gauge("engine.warmup.weight", device=i, gpu=gpu.name).set(
            float(weights[i])
        )
    return WarmupResult(
        measured_times=measured,
        percent=percent,
        weights=weights,
        elapsed_s=elapsed,
    )
