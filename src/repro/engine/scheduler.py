"""Job schedulers: how conformations are assigned to devices.

Three strategies, matching the paper's narrative arc:

* :class:`StaticEqualScheduler` — Algorithm 2's homogeneous computation:
  every device gets the same share, so "the slowest GPU will determine the
  overall execution time".
* :class:`StaticProportionalScheduler` — the heterogeneous computation:
  shares ∝ warm-up speed (Eq. 1 weights).
* :class:`DynamicSpotQueueScheduler` — the abstract's "dynamic assignment
  of jobs to heterogeneous resources": independent per-spot jobs are pulled
  from a cooperative queue by whichever device frees up first (simulated
  with the event loop). Needs no warm-up and tolerates device dropout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.engine.partition import equal_partition, proportional_partition
from repro.errors import SchedulingError
from repro.hardware.cuda import KernelConfig
from repro.hardware.perf_model import DEFAULT_PARAMS, PerfModelParams, gpu_launch_time
from repro.hardware.specs import GpuSpec
from repro.metaheuristics.evaluation import LaunchRecord

__all__ = [
    "Scheduler",
    "StaticEqualScheduler",
    "StaticProportionalScheduler",
    "DynamicSpotQueueScheduler",
]


class Scheduler(ABC):
    """Maps one scoring launch onto device shares.

    ``plan`` returns integer conformation counts per device (zeros allowed),
    summing to the launch's total. ``alive`` masks out failed devices.
    """

    name: str = "scheduler"

    @abstractmethod
    def plan(
        self,
        record: LaunchRecord,
        gpus: tuple[GpuSpec, ...],
        alive: np.ndarray,
    ) -> np.ndarray:
        """Return ``(n_devices,)`` conformation shares for this launch."""

    @staticmethod
    def _check_alive(alive: np.ndarray) -> np.ndarray:
        alive = np.asarray(alive, dtype=bool)
        if not alive.any():
            raise SchedulingError("no devices alive")
        return alive


class StaticEqualScheduler(Scheduler):
    """Equal split over alive devices (the homogeneous computation)."""

    name = "static-equal"

    def plan(
        self,
        record: LaunchRecord,
        gpus: tuple[GpuSpec, ...],
        alive: np.ndarray,
    ) -> np.ndarray:
        alive = self._check_alive(alive)
        idx = np.flatnonzero(alive)
        shares = np.zeros(len(gpus), dtype=np.int64)
        shares[idx] = equal_partition(record.n_conformations, idx.size)
        return shares


class StaticProportionalScheduler(Scheduler):
    """Warm-up-weighted split (the heterogeneous computation, §3.3).

    Parameters
    ----------
    weights:
        Per-device shares from :func:`repro.engine.warmup.run_warmup`
        (``∝ 1/Percent``).
    granularity:
        Conformations are handed out in blocks of this size (warp/block
        granularity); remainder items follow weight order.
    """

    name = "static-proportional"

    def __init__(self, weights: np.ndarray, granularity: int = 1) -> None:
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise SchedulingError("weights must be a non-empty 1-D array")
        self.granularity = int(granularity)

    def plan(
        self,
        record: LaunchRecord,
        gpus: tuple[GpuSpec, ...],
        alive: np.ndarray,
    ) -> np.ndarray:
        alive = self._check_alive(alive)
        if self.weights.size != len(gpus):
            raise SchedulingError(
                f"{self.weights.size} weights for {len(gpus)} devices"
            )
        idx = np.flatnonzero(alive)
        shares = np.zeros(len(gpus), dtype=np.int64)
        shares[idx] = proportional_partition(
            record.n_conformations, self.weights[idx], granularity=self.granularity
        )
        return shares


class DynamicSpotQueueScheduler(Scheduler):
    """Cooperative job queue over per-spot work units.

    The launch's conformations are grouped by spot (spots are independent,
    §3.1). Jobs are ordered largest-first (LPT list scheduling) and pulled
    by the device with the earliest finish time, computed from the
    performance model via the event loop. This is the "cooperative
    scheduling of jobs [that] optimizes […] the overall performance" from
    the abstract: no warm-up phase, automatic adaptation to heterogeneity,
    graceful behaviour when a device disappears mid-run.
    """

    name = "dynamic-spot-queue"

    def __init__(
        self,
        params: PerfModelParams = DEFAULT_PARAMS,
        config: KernelConfig | None = None,
    ) -> None:
        self.params = params
        self.config = config

    def plan(
        self,
        record: LaunchRecord,
        gpus: tuple[GpuSpec, ...],
        alive: np.ndarray,
    ) -> np.ndarray:
        alive = self._check_alive(alive)
        jobs = sorted(record.spot_counts.values(), reverse=True)
        if not jobs:
            jobs = [record.n_conformations]
        shares = np.zeros(len(gpus), dtype=np.int64)
        finish = np.full(len(gpus), np.inf)
        finish[alive] = 0.0

        def job_time(device: int, count: int) -> float:
            return gpu_launch_time(
                gpus[device], count, record.flops_per_pose, self.params, self.config
            ).total_s

        # LPT list scheduling: hand each job (largest first) to the device
        # that would finish it earliest. With deterministic job times this
        # is exactly what the event-driven pull queue in
        # repro.engine.device_worker converges to; the closed form avoids
        # simulating every pull.
        for count in jobs:
            candidate_finish = np.array(
                [
                    finish[d] + job_time(d, count) if alive[d] else np.inf
                    for d in range(len(gpus))
                ]
            )
            device = int(np.argmin(candidate_finish))
            shares[device] += count
            finish[device] = candidate_finish[device]
        return shares
