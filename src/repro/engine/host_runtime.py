"""Process-parallel host runtime: real cores, same answers.

Everything else in :mod:`repro.engine` *models* parallel hardware; this
module actually uses the machine. A :class:`ParallelSpotEvaluator` shards a
launch's poses across a persistent :class:`~concurrent.futures.ProcessPoolExecutor`,
mirroring the paper's device strategy at the host level:

* **Staging** — receptor coordinates and the precomputed σ²/4ε pair tables
  are written once into :mod:`multiprocessing.shared_memory` segments and
  attached zero-copy by every worker (the Python analogue of staging
  per-complex constants on each GPU before launching scoring kernels; see
  the bind/BoundScorer split in :mod:`repro.scoring.base`).
* **Warm-up (Eq. 1)** — at pool start each worker times a few scoring
  launches; shares are assigned ∝ 1/Percent, exactly the paper's
  ``Percent = t_worker / t_slowest`` heterogeneous split, but with wall
  clocks instead of the simulated performance model.
* **Scheduling** — ``static`` mode LPT-packs per-spot jobs onto workers
  weighted by measured throughput (one task per worker per launch);
  ``dynamic`` mode submits jobs individually in LPT order
  (largest-first, the ordering :mod:`repro.engine.device_worker` uses) so
  whichever worker frees up first pulls the next job — a work-stealing
  queue with no warm-up required.

Determinism contract: for any scorer, ``ParallelSpotEvaluator`` returns
*bitwise* the same energies as :class:`~repro.metaheuristics.evaluation.SerialEvaluator`
with the same seed, for any worker count and either mode. Work is split only
along boundaries the serial path already has — whole chunks of the serial
chunk grid for plain scorers, whole per-spot groups for spot-aware scorers —
and workers rebuild the scorer from the staged arrays, so every chunk's
arithmetic is identical to its serial counterpart.

**One launch path** — the paper runs warm-up once and reuses the shares for
the whole screening; a campaign likewise pays for pool spawn, receptor
staging and warm-up once. Receptor-side arrays live in the long-lived
:class:`SharedArrayStage`; the ligand-varying arrays go through
``slot_banks`` :class:`LigandSlotStage` banks, each resident ligand owning
one bank under a versioned :class:`_LigandBinding`. Every task carries its
binding's rebind message, so workers swap scorers lazily in place (a small
cache keyed by version, evicting versions the message no longer lists as
live) — no process churn, no receptor restage, and the Eq. 1 weights
survive until an explicit re-measure. A launch is always the ticketed pair
:meth:`ParallelSpotEvaluator.submit` / :meth:`~ParallelSpotEvaluator.harvest`
against one binding; a dead worker :meth:`~ParallelSpotEvaluator.recycle`-s
the pool in place and surfaces as a retryable
:class:`~repro.errors.WorkerPoolError`.

**Lifecycle** — :class:`PersistentHostRuntime` is the campaign-facing owner:
:meth:`~PersistentHostRuntime.lease` binds a ligand (the first call spawns
the pool) and returns a :class:`LigandLease`; its ``evaluator_factory`` is
the ``dock()`` seam, routing that ligand's launches through submit/harvest
with a private launch trace; :meth:`LigandLease.release` frees the bank.
Pipeline depth is nothing but how many leases are live at once — depth 1 is
one lease in flight, and ``acquire()`` is the single-resident convenience
over the same call. A one-shot ``dock(host_workers=N)`` builds a bare
:class:`ParallelSpotEvaluator` around its one ligand and closes it on exit.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from secrets import token_hex

import numpy as np

from repro import observability as obs
from repro.constants import DEFAULT_SEED, FLOAT_DTYPE
from repro.engine.partition import eq1_weights
from repro.errors import ScoringError, WorkerPoolError
from repro.observability.flight import flight_event
from repro.metaheuristics.evaluation import EvaluationStats, LaunchRecord
from repro.molecules.transforms import normalize_quaternion
from repro.scoring.base import BoundScorer, spot_groups
from repro.scoring.batched import BoundBatchedLJ
from repro.scoring.cutoff import BoundCutoffLennardJones, CutoffLennardJonesScoring
from repro.scoring.lennard_jones import BoundLennardJones

__all__ = [
    "ArrayHandle",
    "SharedArrayStage",
    "LigandSlotStage",
    "HostWarmupResult",
    "LaunchTicket",
    "LigandLease",
    "ParallelSpotEvaluator",
    "PersistentHostRuntime",
    "stage_scorer",
    "rebuild_scorer",
    "DEFAULT_WARMUP_POSES",
    "DEFAULT_WARMUP_REPEATS",
    "DEFAULT_REMEASURE_INTERVAL",
    "DEFAULT_DRIFT_THRESHOLD",
]

#: Poses per warm-up timing launch ("a few candidate solutions", §3.3).
DEFAULT_WARMUP_POSES: int = 64

#: Timed launches per worker; the mean is the Eq. 1 measurement.
DEFAULT_WARMUP_REPEATS: int = 3

#: Give slow machines this long to spawn+warm every worker before falling
#: back to equal shares.
_WARMUP_TIMEOUT_S: float = 120.0

#: Persistent runtime: re-run the Eq. 1 warm-up after this many rebinds.
DEFAULT_REMEASURE_INTERVAL: int = 64

#: Persistent runtime: re-measure early when any worker's observed pose
#: share drifts this far (absolute) from its Eq. 1 weight.
DEFAULT_DRIFT_THRESHOLD: float = 0.25

#: Least modelled work (receptor × ligand × pose pairs) in one job of a
#: spot-aware scorer: 59 poses on a 1,500 × 24 complex, the grain the plain
#: path's chunk-grid jobs have for float32
#: (:data:`repro.scoring.base.CHUNK_BUDGET_BYTES` / 4). Sending part of a
#: launch to a second worker costs a fixed ~1.5 ms of CPU (pickle, wake-up,
#: telemetry merge). Measured on that complex, 8 spots, two workers, ms per
#: launch as one job -> a job per spot group: at 48 poses 8.4 -> 6.3 with the
#: pool to itself but 4.8 -> 5.8 beside another ligand's launch, +19% CPU
#: either way; from 96 poses up 33-44% faster alone, and within 3% (wall and
#: CPU) beside another launch. So the grain sits between 48 and 96 poses;
#: what it gives up is the alone-in-the-pool gain of launches below it.
_MIN_JOB_PAIRS: int = 2 * 1024 * 1024

#: Headroom factor when sizing a reusable ligand slot, so ligands a little
#: larger than the last one reuse the segment instead of retiring it.
_SLOT_GROWTH: float = 1.5

#: Longest a blocking slot-bank reservation waits for a binding release
#: before concluding the pipeline is wedged (leaked leases, usually).
_BANK_WAIT_S: float = 120.0


# ----------------------------------------------------------------------
# shared-memory staging
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayHandle:
    """Pickle-friendly reference to one staged array."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArrayStage:
    """Owner of a set of named shared-memory segments.

    The parent process stages arrays once; workers attach read-only views.
    The stage owns the segments' lifetime: :meth:`close` unlinks everything,
    and is safe to call repeatedly (worker crashes, double shutdown).
    """

    def __init__(self) -> None:
        self._prefix = f"repro{os.getpid():x}{token_hex(4)}"
        self._segments: list[shared_memory.SharedMemory] = []

    def stage(self, array: np.ndarray) -> ArrayHandle:
        """Copy ``array`` into a new shared segment; return its handle."""
        array = np.ascontiguousarray(array)
        name = f"{self._prefix}n{len(self._segments)}"
        shm = shared_memory.SharedMemory(
            create=True, size=max(array.nbytes, 1), name=name
        )
        self._segments.append(shm)
        if array.size:
            np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[...] = array
        return ArrayHandle(name=name, shape=tuple(array.shape), dtype=str(array.dtype))

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every staged segment (tests probe these for leaks)."""
        return tuple(shm.name for shm in self._segments)

    def close(self) -> None:
        """Close and unlink every segment. Idempotent."""
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except OSError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class LigandSlotStage:
    """Reusable named shared-memory slots for the ligand-varying arrays.

    Unlike :class:`SharedArrayStage` (stage once, unlink at close), a slot
    stage exists to be *restaged*: each named role keeps one segment that is
    rewritten in place on every ligand rebind. A slot only gets a new
    segment when an incoming array outgrows its capacity (sized with
    ``_SLOT_GROWTH`` headroom); the outgrown segment's name is remembered in
    :attr:`retired` so workers can drop their cached attachments — the
    rebind message carries the cumulative retired list, which keeps workers
    that skipped versions (or were recycled in fresh) consistent.
    """

    def __init__(self, label: str = "a") -> None:
        self._prefix = f"repro{os.getpid():x}{token_hex(4)}{label}"
        self._slots: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        self.retired: list[str] = []

    def restage(self, role: str, array: np.ndarray) -> ArrayHandle:
        """Write ``array`` into the slot for ``role``, growing if needed."""
        array = np.ascontiguousarray(array)
        entry = self._slots.get(role)
        if entry is not None and entry[0].size >= array.nbytes:
            shm, _ = entry
        else:
            generation = 0
            if entry is not None:
                old, generation = entry
                self.retired.append(old.name)
                try:
                    old.close()
                except (OSError, BufferError):
                    pass
                try:
                    old.unlink()
                except FileNotFoundError:
                    pass
                generation += 1
            shm = shared_memory.SharedMemory(
                create=True,
                size=max(int(array.nbytes * _SLOT_GROWTH), 1),
                name=f"{self._prefix}{role}g{generation}",
            )
            self._slots[role] = (shm, generation)
        if array.size:
            np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[...] = array
        return ArrayHandle(name=shm.name, shape=tuple(array.shape), dtype=str(array.dtype))

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every live slot segment."""
        return tuple(shm.name for shm, _ in self._slots.values())

    def close(self) -> None:
        """Close and unlink every slot segment. Idempotent."""
        slots, self._slots = self._slots, {}
        for shm, _ in slots.values():
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _attach(handle: ArrayHandle) -> np.ndarray:
    """Attach a read-only view of a staged array (worker side).

    Attachments are cached by segment name: under the persistent runtime a
    rebind re-views the same slot segment with the new ligand's shape (same
    mmap, freshly written by the parent — no reopen), and only segments the
    rebind message lists as retired are ever dropped from the cache.
    """
    cache = _WORKER.setdefault("segments", {})
    shm = cache.get(handle.name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=handle.name, track=False)
        except TypeError:  # Python < 3.13 has no track= parameter
            # The parent owns the segments. On forked workers the resource
            # tracker process is shared, so registering here (and
            # unregistering later) would clobber the parent's own
            # registration — suppress the attach-time registration instead.
            original_register = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
            try:
                shm = shared_memory.SharedMemory(name=handle.name)
            finally:
                resource_tracker.register = original_register
        cache[handle.name] = shm  # keep the mmap alive
    view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view


# ----------------------------------------------------------------------
# scorer staging / rebuilding
# ----------------------------------------------------------------------
def stage_scorer(
    scorer: BoundScorer,
    stage: SharedArrayStage,
    ligand_stage: LigandSlotStage,
    receptor_cache: dict[str, ArrayHandle],
) -> dict:
    """Describe ``scorer`` as a pickle-small spec with shared-memory handles.

    Workers rebuild an equivalent scorer with :func:`rebuild_scorer`. The
    heavy per-complex arrays are split by lifetime: arrays that change per
    ligand (ligand coordinates, the ligand×receptor σ²/4ε pair tables) are
    rewritten into ``ligand_stage``'s reusable slots, while receptor-side
    arrays (coordinates, their squared norms) go through ``stage`` once,
    their handles kept in ``receptor_cache`` for every later ligand. The
    receptor and scoring must stay fixed for the cache's lifetime — the
    caller's contract, checked here only by shape/dtype. Nothing staged
    depends on spots. Scorer types without a dedicated stager fall back to
    pickling the whole object (correct, just not zero-copy).
    """

    def fixed(role: str, array: np.ndarray) -> ArrayHandle:
        handle = receptor_cache.get(role)
        if handle is not None:
            if handle.shape != tuple(array.shape) or handle.dtype != str(array.dtype):
                raise ScoringError(
                    f"persistent rebind changed a receptor-side array ({role}: "
                    f"{handle.shape}/{handle.dtype} -> {tuple(array.shape)}/"
                    f"{array.dtype}); receptor and scoring must stay fixed "
                    "for the lifetime of the runtime"
                )
            return handle
        handle = stage.stage(array)
        receptor_cache[role] = handle
        return handle

    varying = ligand_stage.restage

    if isinstance(scorer, BoundCutoffLennardJones):
        return {
            "kind": "cutoff",
            "n_receptor": scorer.receptor.n_atoms,
            "n_ligand": scorer.ligand.n_atoms,
            "cutoff": scorer.cutoff,
            "chunk_size": scorer.chunk_size,
            "dtype": str(scorer.dtype),
            "receptor_coords": fixed("receptor_coords", scorer.receptor_coords),
            "sigma2": varying("sigma2", scorer._sigma2),
            "epsilon4": varying("epsilon4", scorer._epsilon4),
            "ligand_coords": varying("ligand_coords", scorer.ligand_coords),
        }
    if isinstance(scorer, BoundBatchedLJ):
        # chunk_size rides in the spec, so workers rebuild exactly the
        # kernel shape the parent bound.
        return {
            "kind": "batched",
            "n_receptor": scorer.receptor.n_atoms,
            "n_ligand": scorer.ligand.n_atoms,
            "chunk_size": scorer.chunk_size,
            "rec_aug": fixed("rec_aug", scorer._rec_aug),
            "sigma2": varying("sigma2", scorer._sigma2),
            "epsilon4": varying("epsilon4", scorer._epsilon4),
            "ligand_coords": varying("ligand_coords", scorer.ligand_coords),
        }
    if isinstance(scorer, BoundLennardJones):
        return {
            "kind": "dense",
            "n_receptor": scorer.receptor.n_atoms,
            "n_ligand": scorer.ligand.n_atoms,
            "chunk_size": scorer.chunk_size,
            "receptor_coords": fixed("receptor_coords", scorer.receptor_coords),
            "rec_sq": fixed("rec_sq", scorer._rec_sq),
            "sigma2": varying("sigma2", scorer._sigma2),
            "epsilon4": varying("epsilon4", scorer._epsilon4),
            "ligand_coords": varying("ligand_coords", scorer.ligand_coords),
        }
    return {"kind": "pickle", "blob": pickle.dumps(scorer)}


class _StagedMolecule:
    """Stand-in for a Receptor/Ligand in workers.

    After binding, scoring needs the molecules only for atom counts
    (``flops_per_pose``, launch records); the coordinate payload lives in
    the staged arrays.
    """

    def __init__(self, n_atoms: int) -> None:
        self.n_atoms = int(n_atoms)


def rebuild_scorer(spec: dict) -> BoundScorer:
    """Reconstruct a bound scorer from a :func:`stage_scorer` spec."""
    kind = spec["kind"]
    if kind == "pickle":
        return pickle.loads(spec["blob"])
    if kind == "cutoff":
        scorer = BoundCutoffLennardJones.__new__(BoundCutoffLennardJones)
        scorer.receptor = _StagedMolecule(spec["n_receptor"])
        scorer.ligand = _StagedMolecule(spec["n_ligand"])
        scorer.cutoff = float(spec["cutoff"])
        scorer.chunk_size = int(spec["chunk_size"])
        scorer.dtype = np.dtype(spec["dtype"])
        scorer.ligand_coords = _attach(spec["ligand_coords"])
        scorer.receptor_coords = _attach(spec["receptor_coords"])
        scorer._sigma2 = _attach(spec["sigma2"])
        scorer._epsilon4 = _attach(spec["epsilon4"])
        scorer._scratch = threading.local()  # buffers built on first score
        return scorer
    if kind == "batched":
        scorer = BoundBatchedLJ.__new__(BoundBatchedLJ)
        scorer.receptor = _StagedMolecule(spec["n_receptor"])
        scorer.ligand = _StagedMolecule(spec["n_ligand"])
        scorer.chunk_size = int(spec["chunk_size"])
        scorer.ligand_coords = _attach(spec["ligand_coords"])
        scorer._rec_aug = _attach(spec["rec_aug"])
        scorer._sigma2 = _attach(spec["sigma2"])
        scorer._epsilon4 = _attach(spec["epsilon4"])
        scorer.sigma = None  # full tables stay in the parent
        scorer.epsilon = None
        scorer._scratch = None  # rebuilt lazily on first score
        return scorer
    if kind == "dense":
        scorer = BoundLennardJones.__new__(BoundLennardJones)
        scorer.receptor = _StagedMolecule(spec["n_receptor"])
        scorer.ligand = _StagedMolecule(spec["n_ligand"])
        scorer.chunk_size = int(spec["chunk_size"])
        scorer.ligand_coords = _attach(spec["ligand_coords"])
        scorer.receptor_coords = _attach(spec["receptor_coords"])
        scorer._rec_sq = _attach(spec["rec_sq"])
        scorer._sigma2 = _attach(spec["sigma2"])
        scorer._epsilon4 = _attach(spec["epsilon4"])
        scorer.sigma = None  # full tables stay in the parent
        scorer.epsilon = None
        return scorer
    raise ScoringError(f"unknown staged scorer kind {kind!r}")


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
#: Per-process state: scorer, worker index, shared counters, attached shm.
_WORKER: dict = {}


def _worker_init(spec, claim, ready, slots, warm) -> None:
    """Pool initializer: attach staged arrays, rebuild the scorer, warm up.

    ``claim`` hands out worker indices; ``ready`` counts workers that have
    finished warming up (the parent's barrier waits on it); ``slots[i]``
    receives worker ``i``'s mean warm-up launch time.

    ``spec=None`` is the recycle path: a replacement worker comes up with no
    scorer and no warm-up — the first task it runs carries a versioned
    rebind message it rebuilds from (the staged receptor never went away).
    """
    with claim.get_lock():
        index = int(claim.value)
        claim.value += 1
    _WORKER.update(
        index=index,
        scorer=None,
        version=None,
        ready=ready,
        slots=slots,
        n_workers=len(slots) if slots else 0,
    )
    scorer = None
    if spec is not None:
        scorer = rebuild_scorer(spec)
        _WORKER.update(scorer=scorer, version=0, scorers={0: scorer})
    if warm is not None and scorer is not None:
        slots[index] = _time_warmup(scorer, warm)
    if ready is not None:
        with ready.get_lock():
            ready.value += 1


def _time_warmup(scorer: BoundScorer, warm) -> float:
    """Mean seconds of one warm-up launch: this worker's Eq. 1 measurement."""
    translations, quaternions, repeats = warm
    scorer.score(translations, quaternions)  # page in tables, warm BLAS
    measured = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scorer.score(translations, quaternions)
        measured.append(time.perf_counter() - t0)
    return float(np.mean(measured))


def _worker_rebind(
    version: int,
    spec: dict,
    retired: tuple[str, ...],
    live: tuple[int, ...],
) -> None:
    """Swap a ligand's scorer in place (worker side).

    Scorers are cached by slot version: several ligands can be live at once
    and consecutive tasks ping-pong between their versions, so a switch back
    to a version this worker already built is a dict lookup, not a rebuild.
    A first-seen version rebuilds from the spec — receptor-side handles hit
    the attachment cache, so only the small ligand views are re-made.
    ``live`` names every version still bound in the parent; cached scorers
    outside it are evicted, and attachments for retired (outgrown) slot
    segments are dropped. The cumulative retired list makes this correct for
    workers that skipped intermediate versions or were recycled in with no
    scorer at all.
    """
    scorers = _WORKER.setdefault("scorers", {})
    scorer = scorers.get(version)
    if scorer is None:
        scorer = rebuild_scorer(spec)
        scorers[version] = scorer
    _WORKER.update(scorer=scorer, version=version)
    for stale in [v for v in scorers if v != version and v not in live]:
        del scorers[stale]
    cache = _WORKER.setdefault("segments", {})
    for name in retired:
        shm = cache.pop(name, None)
        if shm is not None:
            try:
                shm.close()
            except (OSError, BufferError):
                pass


def _measure_task(rebind, warm, timeout_s: float) -> int:
    """Re-run the Eq. 1 measurement on a live worker.

    Submitted once per worker, like :func:`_barrier_task`: after timing,
    each worker blocks until every sibling has reported, which pins exactly
    one measurement to each process. The parent reset ``ready`` to zero
    before the round (no tasks are in flight between launches).
    """
    if _WORKER.get("version") != rebind[0]:
        _worker_rebind(*rebind)
    _WORKER["slots"][_WORKER["index"]] = _time_warmup(_WORKER["scorer"], warm)
    ready = _WORKER["ready"]
    with ready.get_lock():
        ready.value += 1
    return _barrier_task(timeout_s)


def _barrier_task(timeout_s: float) -> int:
    """Block until every worker has initialised (or timeout).

    Submitted once per worker at pool start: each blocked barrier keeps its
    worker busy, which forces :class:`ProcessPoolExecutor` (on-demand
    spawning since 3.9) to actually start all ``n`` processes.
    """
    ready = _WORKER["ready"]
    n = _WORKER["n_workers"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with ready.get_lock():
            if int(ready.value) >= n:
                break
        time.sleep(0.002)
    return _WORKER["index"]


#: Pose-count histogram edges (powers of four up to 256k poses; fixed for
#: snapshot determinism).
_POSE_COUNT_EDGES: tuple[float, ...] = tuple(float(4**k) for k in range(10))


def _run_tasks(
    tasks: list[tuple[np.ndarray | None, np.ndarray, np.ndarray]],
    rebind: tuple[int, dict, tuple[str, ...], tuple[int, ...]],
) -> tuple[list[np.ndarray], dict | None]:
    """Score this worker's share of a launch: a list of (spot ids, t, q).

    Jobs of a spot-aware scorer carry their poses' spot ids and go through
    ``score_spots``; plain jobs carry ``None`` and go through ``score``.

    ``rebind`` is the launch's versioned rebind message
    ``(version, spec, retired_segment_names, live_versions)``; a worker
    whose current scorer is a different version switches (or rebuilds) in
    place before scoring — see :func:`_worker_rebind`. Rebuilding is pure
    attachment bookkeeping — the staged bytes are what they are — so the
    energies stay bitwise identical to a fresh pool's.

    Returns ``(score_arrays, stats)``. ``stats`` is the worker's telemetry
    for this task — a local snapshot document plus the task's monotonic
    start time (the parent turns submit→start into the queue-wait metric)
    — or ``None`` when telemetry was disabled at fork time. Collection
    never touches the scoring arithmetic: energies are bitwise identical
    with or without it.
    """
    started_s = time.monotonic()
    if _WORKER.get("version") != rebind[0]:
        _worker_rebind(*rebind)
    scorer = _WORKER["scorer"]
    index = _WORKER["index"]
    local = obs.Telemetry() if obs.enabled() else None
    out = []
    n_poses = 0
    busy_s = 0.0
    # The batch span rides back in the worker's snapshot and is offset-merged
    # into the parent tracer at harvest — it is the worker-lane block the
    # Chrome trace exporter draws. perf_counter shares CLOCK_MONOTONIC with
    # the parent on Linux, so the timestamps line up across the process seam.
    batch_span = (
        local.span("host.worker.batch", worker=index)
        if local is not None
        else contextlib.nullcontext({})
    )
    with batch_span as batch_tags:
        for ids, translations, quaternions in tasks:
            t0 = time.perf_counter()
            if ids is None:
                out.append(scorer.score(translations, quaternions))
            else:
                out.append(scorer.score_spots(ids, translations, quaternions))
            if local is not None:
                n_poses += translations.shape[0]
                task_s = time.perf_counter() - t0
                busy_s += task_s
                local.histogram("host.worker.task_seconds", worker=index).observe(task_s)
        batch_tags["tasks"] = len(tasks)
        batch_tags["poses"] = n_poses
    if local is None:
        return out, None
    local.counter("host.worker.poses", worker=index).inc(n_poses)
    return out, {
        "telemetry": local.snapshot(),
        "worker": index,
        "poses": n_poses,
        "busy_s": busy_s,
        "started_s": started_s,
    }


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HostWarmupResult:
    """Eq. 1 over real worker processes.

    ``percent[i] = measured_s[i] / measured_s.max()`` (1.0 for the slowest
    worker); ``weights ∝ 1/percent`` and sum to 1.
    """

    measured_s: np.ndarray
    percent: np.ndarray
    weights: np.ndarray
    elapsed_s: float


@dataclass(frozen=True)
class _Job:
    """One indivisible unit of a launch: a grid-aligned slice or whole spot groups."""

    spot: int  # first spot id of the job: the deterministic LPT tie-break
    rows: np.ndarray  # positions in the launch's pose batch


@dataclass(frozen=True, eq=False)
class _LigandBinding:
    """One ligand resident in a slot bank, addressable by version.

    The pipeline's unit of residency: :meth:`ParallelSpotEvaluator.bind_ligand`
    mints one per staged ligand, every :meth:`~ParallelSpotEvaluator.submit`
    names one, and :meth:`~ParallelSpotEvaluator.release_binding` frees its
    bank for the next ligand.
    """

    version: int
    bank: int
    spec: dict
    scorer: BoundScorer


class LaunchTicket:
    """One in-flight launch: the handle between ``submit`` and ``harvest``.

    Holds the jobs' futures, the preallocated output array, and the launch
    span (opened at submit, closed at harvest, so the traced duration spans
    queue wait + scoring). Submit and harvest a ticket from the *same*
    thread — the span nests on the submitting thread's stack.
    """

    __slots__ = (
        "binding", "n", "pool", "out", "pending", "n_jobs",
        "span", "span_tags", "done", "registered",
    )

    def __init__(
        self, binding: _LigandBinding, n: int, pool: ProcessPoolExecutor
    ) -> None:
        self.binding = binding
        self.n = n
        self.pool = pool  # the pool generation the launch was queued on
        self.out: np.ndarray | None = None
        self.pending: list = []  # (jobs_bucket, submit_s, Future) triples
        self.n_jobs = 0
        self.span = None
        self.span_tags: dict | None = None
        self.done = False
        self.registered = False  # counted in the evaluator's in-flight map


class ParallelSpotEvaluator:
    """Evaluator that scores launches across a persistent process pool.

    Implements the :class:`~repro.metaheuristics.evaluation.Evaluator`
    protocol, so it drops into :class:`~repro.metaheuristics.context.SearchContext`
    wherever a :class:`~repro.metaheuristics.evaluation.SerialEvaluator`
    does — recording identical launch traces and returning bitwise identical
    energies (see module docstring).

    Parameters
    ----------
    scorer:
        The bound scorer to parallelise. Staged into shared memory when it
        is one of the known types; pickled otherwise.
    n_workers:
        Worker processes (≥ 1).
    mode:
        ``"static"`` (warm-up-weighted LPT packing, one task per worker per
        launch) or ``"dynamic"`` (work-stealing job queue in LPT order).
    warmup:
        Set False to skip the timing phase (weights become equal). The pool
        is still fully spawned up front.
    warmup_poses, warmup_repeats:
        Size of the Eq. 1 measurement.
    slot_banks:
        Number of ligand slot banks (≥ 2). ``scorer``'s ligand takes bank 0
        as the construction-time :attr:`binding`; :meth:`stage_ligand` /
        :meth:`bind_ligand` make further ligands resident without touching
        the pool, the staged receptor, or the warm-up weights. Two is the
        classic double buffer; a depth-``D`` docking pipeline wants
        ``D + 1`` so D ligands are resident while the next one stages.

    A crashed pool is :meth:`recycle`-d in place and the launch raises a
    retryable :class:`~repro.errors.WorkerPoolError`. Use as a context
    manager, or call :meth:`close`, which unlinks every shared segment.
    """

    def __init__(
        self,
        scorer: BoundScorer,
        n_workers: int,
        mode: str = "static",
        warmup: bool = True,
        warmup_poses: int = DEFAULT_WARMUP_POSES,
        warmup_repeats: int = DEFAULT_WARMUP_REPEATS,
        slot_banks: int = 2,
    ) -> None:
        if n_workers < 1:
            raise ScoringError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in ("static", "dynamic"):
            raise ScoringError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        if slot_banks < 2:
            raise ScoringError(f"slot_banks must be >= 2, got {slot_banks}")
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover
            raise ScoringError(
                "the parallel host runtime requires the 'fork' start method "
                "(shared counters are inherited, not pickled)"
            )
        self.scorer = scorer
        self.n_workers = int(n_workers)
        self.mode = mode
        self.stats = EvaluationStats()
        self._stage = SharedArrayStage()
        self._banks = [LigandSlotStage(f"b{i}x") for i in range(int(slot_banks))]
        self._receptor_cache: dict[str, ArrayHandle] = {}
        self._version = 0
        # Bank/binding bookkeeping and the in-flight launch map share one
        # condition: bank release notifies blocked reservations.
        self._lock = threading.Condition()
        self._bank_free: list[bool] = [False] + [True] * (int(slot_banks) - 1)
        self._bindings: dict[int, _LigandBinding] = {}
        self._inflight: dict[int, int] = {}  # binding version -> live tickets
        self._idle_mark: float | None = None
        # Held for the whole of a recycle (and by close), so a submit that
        # finds no pool can tell "respawning" from "closed" by waiting on it.
        self._recycle_lock = threading.RLock()
        self._obs_lock = threading.Lock()  # serializes telemetry merges
        self._drift_poses = np.zeros(self.n_workers)
        self._pool: ProcessPoolExecutor | None = None
        try:
            spec = stage_scorer(
                scorer,
                self._stage,
                ligand_stage=self._banks[0],
                receptor_cache=self._receptor_cache,
            )
            #: The construction-time ligand's binding: what :meth:`evaluate`
            #: scores, and the first lease of a campaign runtime.
            self.binding = _LigandBinding(version=0, bank=0, spec=spec, scorer=scorer)
            self._bindings[0] = self.binding
            ctx = mp.get_context("fork")
            self._ctx = ctx
            self._claim = ctx.Value("q", 0)
            self._ready = ctx.Value("q", 0)
            self._slots = ctx.Array("d", self.n_workers)
            self._warm = (
                self._warmup_batch(warmup_poses, warmup_repeats) if warmup else None
            )
            with obs.span(
                "host.warmup", workers=self.n_workers, mode=self.mode, timed=warmup
            ):
                t0 = time.perf_counter()
                self._pool = self._start_pool(spec, self._warm)
                elapsed = time.perf_counter() - t0
            obs.counter("host.warmups").inc()
            self.warmup_result = self._reduce_warmup(
                np.array(self._slots[:], dtype=np.float64), elapsed, timed=warmup
            )
            self.weights = self.warmup_result.weights
            self._idle_mark = time.monotonic()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _warmup_batch(
        self, n_poses: int, repeats: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Deterministic measurement poses spread over the receptor box."""
        coords = self.scorer.receptor.coords
        rng = np.random.default_rng(DEFAULT_SEED)
        translations = rng.uniform(
            coords.min(axis=0), coords.max(axis=0), size=(n_poses, 3)
        ).astype(FLOAT_DTYPE)
        quaternions = normalize_quaternion(rng.normal(size=(n_poses, 4)))
        return translations, quaternions, int(repeats)

    def _start_pool(self, spec: dict | None, warm) -> ProcessPoolExecutor:
        """Spawn every worker, blocking until all have initialised.

        One barrier task per worker forces the executor to actually start
        all ``n`` processes. ``spec``/``warm`` go to :func:`_worker_init`:
        the first pool rebuilds the scorer and times the Eq. 1 warm-up,
        a recycled one (``None``/``None``) comes up uninitialised.
        """
        pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(spec, self._claim, self._ready, self._slots, warm),
        )
        try:
            barriers = [
                pool.submit(_barrier_task, _WARMUP_TIMEOUT_S)
                for _ in range(self.n_workers)
            ]
            for future in barriers:
                future.result(timeout=_WARMUP_TIMEOUT_S)
        except BrokenProcessPool as exc:
            pool.shutdown(wait=True, cancel_futures=True)
            raise ScoringError(f"host worker pool died while starting: {exc}") from exc
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        return pool

    def _reduce_warmup(
        self, measured: np.ndarray, elapsed: float, timed: bool
    ) -> HostWarmupResult:
        """Turn per-worker timings into Eq. 1 shares; publish the decision."""
        if not timed:
            measured = np.ones(self.n_workers)  # the homogeneous assumption
        percent, weights = eq1_weights(measured)
        # The Eq. 1 share decision on the record (doctor and the sampler
        # compare it with the poses each worker actually scored).
        for i in range(self.n_workers):
            obs.gauge("host.warmup.weight", worker=i).set(float(weights[i]))
        return HostWarmupResult(
            measured_s=measured, percent=percent, weights=weights, elapsed_s=elapsed
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan(self, spot_ids: np.ndarray, scorer: BoundScorer) -> list[_Job]:
        """Split one launch along serial-equivalent boundaries.

        Spot-aware scorers group by spot serially, so a job is a run of
        *whole* spot groups — as many as it takes to reach
        :data:`_MIN_JOB_PAIRS` of modelled work, so a launch too small to
        repay a second task's round trip stays one job. Plain scorers chunk
        the flat batch, so jobs are runs of *whole* chunks from the serial
        chunk grid (ranges stay grid-aligned: a worker rechunking its range
        reproduces exactly the chunks the serial loop would have computed).
        """
        n = spot_ids.shape[0]
        if scorer.supports_spot_scoring:
            order, groups = spot_groups(spot_ids)
            grain = -(-_MIN_JOB_PAIRS // scorer.n_pairs)  # poses, rounded up
            jobs = []
            job_spot = None  # first spot of the job being grown
            for spot, lo, hi in groups:
                if job_spot is None:
                    job_spot, job_lo = spot, lo
                if hi - job_lo >= grain or hi == n:
                    jobs.append(_Job(spot=job_spot, rows=order[job_lo:hi]))
                    job_spot = None
            return jobs
        chunk = scorer.chunk_size
        jobs = []
        run_lo = 0
        run_spot = int(spot_ids[0])
        for lo in range(chunk, n, chunk):
            spot = int(spot_ids[lo])
            if spot != run_spot:
                jobs.append(_Job(spot=run_spot, rows=np.arange(run_lo, lo)))
                run_lo, run_spot = lo, spot
        jobs.append(_Job(spot=run_spot, rows=np.arange(run_lo, n)))
        return jobs

    def _buckets(self, jobs: list[_Job]) -> list[list[_Job]]:
        """One launch's tasks: jobs in LPT order, grouped by balancing mode.

        ``static`` packs them onto workers weighted by measured throughput
        (one task per worker); ``dynamic`` keeps one task per job, largest
        first, for whichever worker frees up first to steal. The modes
        differ in this grouping only.
        """
        lpt = sorted(jobs, key=lambda job: (-job.rows.size, job.spot))
        if self.mode == "dynamic":
            return [[job] for job in lpt]
        loads = np.zeros(self.n_workers)
        buckets: list[list[_Job]] = [[] for _ in range(self.n_workers)]
        for job in lpt:
            finish = (loads + job.rows.size) / self.weights
            worker = int(np.argmin(finish))
            buckets[worker].append(job)
            loads[worker] += job.rows.size
        return [bucket for bucket in buckets if bucket]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
    ) -> np.ndarray:
        """Score one launch across the pool; record it like the serial path.

        The synchronous barrier form: ``harvest(submit(...))`` against the
        construction-time :attr:`binding`. A pipeline keeps the two halves
        apart so another ligand's poses can fill the gap.
        """
        return self.harvest(self.submit(spot_ids, translations, quaternions, kind))

    def submit(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
        *,
        binding: _LigandBinding | None = None,
        stats: EvaluationStats | None = None,
    ) -> LaunchTicket:
        """Queue one launch without blocking; returns its :class:`LaunchTicket`.

        ``binding`` selects which resident ligand the poses belong to
        (default: the construction-time one); ``stats`` the launch trace to
        record into (default: the evaluator's own — per-ligand leases pass
        their own so traces stay bitwise identical to a serial run's).
        """
        pool = self._live_pool()
        if binding is None:
            binding = self.binding
        if self._bindings.get(binding.version) is not binding:
            raise ScoringError(
                f"launch submitted against released ligand binding v{binding.version}"
            )
        if stats is None:
            stats = self.stats
        spot_ids = np.asarray(spot_ids)
        translations = np.asarray(translations, dtype=FLOAT_DTYPE)
        quaternions = np.asarray(quaternions, dtype=FLOAT_DTYPE)
        if spot_ids.shape[0] != translations.shape[0]:
            raise ScoringError(
                f"{spot_ids.shape[0]} spot ids for {translations.shape[0]} poses"
            )
        unique, counts = np.unique(spot_ids, return_counts=True)
        stats.record(
            LaunchRecord(
                n_conformations=int(translations.shape[0]),
                flops_per_pose=binding.scorer.flops_per_pose,
                spot_counts={int(s): int(c) for s, c in zip(unique, counts)},
                kind=kind,
                n_receptor_atoms=binding.scorer.receptor.n_atoms,
            )
        )
        n = int(translations.shape[0])
        ticket = LaunchTicket(binding=binding, n=n, pool=pool)
        if n == 0:
            ticket.out = np.empty(0, dtype=FLOAT_DTYPE)
            ticket.done = True
            return ticket
        jobs = self._plan(spot_ids, binding.scorer)
        ticket.out = np.empty(n, dtype=FLOAT_DTYPE)
        ticket.n_jobs = len(jobs)
        obs.counter("host.launches", mode=self.mode).inc()
        obs.counter("host.poses", mode=self.mode).inc(n)
        for job in jobs:
            obs.histogram("host.job.poses", edges=_POSE_COUNT_EDGES).observe(
                job.rows.size
            )
        rebind = self._binding_message(binding)
        span = obs.span("host.launch", mode=self.mode, kind=kind, poses=n)
        ticket.span = span
        ticket.span_tags = span.__enter__()
        try:
            spot_aware = binding.scorer.supports_spot_scoring
            for bucket in self._buckets(jobs):
                tasks = [
                    (
                        spot_ids[job.rows] if spot_aware else None,
                        translations[job.rows],
                        quaternions[job.rows],
                    )
                    for job in bucket
                ]
                submit_s = time.monotonic()
                ticket.pending.append(
                    (bucket, submit_s, pool.submit(_run_tasks, tasks, rebind))
                )
        except (BrokenProcessPool, RuntimeError) as exc:
            # RuntimeError: pool shut down under us (a sibling ticket's
            # recycle); both resolve the same way.
            self._finish_ticket(ticket)
            self._pool_failure(ticket.pool, exc)
        except BaseException:
            self._finish_ticket(ticket)
            raise
        with self._lock:
            now = time.monotonic()
            if not self._inflight and self._idle_mark is not None:
                # the pool sat idle between the last harvest and this submit
                obs.counter("host.pool.idle.seconds").inc(max(0.0, now - self._idle_mark))
            if any(version != binding.version for version in self._inflight):
                # poses overlapping another resident ligand's in-flight work:
                # the pipeline is actually filling barrier gaps
                obs.counter("host.pipeline.fill.poses").inc(n)
            self._inflight[binding.version] = self._inflight.get(binding.version, 0) + 1
            ticket.registered = True
        return ticket

    def _live_pool(self) -> ProcessPoolExecutor:
        """The worker pool, lock-free while it is healthy.

        No pool means either a sibling launch's recycle is respawning the
        workers — wait it out, the caller is not at fault — or the
        evaluator is closed.
        """
        pool = self._pool
        if pool is None:
            with self._recycle_lock:
                pool = self._pool
            if pool is None:
                raise ScoringError("parallel evaluator is closed")
        return pool

    def poll(self, ticket: LaunchTicket) -> bool:
        """True once ``ticket``'s futures are all settled (harvest won't block)."""
        return ticket.done or all(future.done() for _, _, future in ticket.pending)

    def harvest(self, ticket: LaunchTicket) -> np.ndarray:
        """Block on a submitted launch and return its energies.

        Folds the workers' telemetry snapshots into this process's session
        and closes the ticket's launch span. Harvest from the thread that
        submitted. Idempotent on success; a pool crash recycles the workers
        and raises a retryable :class:`~repro.errors.WorkerPoolError`.
        """
        if ticket.done:
            if ticket.out is None:
                raise ScoringError("launch ticket already failed")
            return ticket.out
        stats: list[dict] = []
        try:
            for bucket, submit_s, future in ticket.pending:
                scores_list, stat = future.result()
                for job, scores in zip(bucket, scores_list):
                    ticket.out[job.rows] = scores
                if stat is not None:
                    stat["submit_s"] = submit_s
                    stats.append(stat)
            # Harvest inside the launch span so the steal count lands as
            # a late annotation on its tags (the trace exporter turns it
            # into an instant event at the launch's end).
            steals = self._harvest(stats, ticket.n_jobs)
            if steals and ticket.span_tags is not None:
                ticket.span_tags["steals"] = steals
        except (BrokenProcessPool, CancelledError) as exc:
            ticket.out = None
            self._finish_ticket(ticket)
            self._pool_failure(ticket.pool, exc)
        except BaseException:
            ticket.out = None
            self._finish_ticket(ticket)
            raise
        self._finish_ticket(ticket)
        # Worker-session telemetry just folded in — let any live sampler
        # record the merge (rate-limited; a cheap registry check otherwise).
        obs.mark("host.harvest")
        return ticket.out

    def _finish_ticket(self, ticket: LaunchTicket) -> None:
        """Close out a ticket: in-flight accounting, idle clock, launch span."""
        if ticket.done:
            return
        ticket.done = True
        if ticket.registered:
            with self._lock:
                left = self._inflight.get(ticket.binding.version, 0) - 1
                if left > 0:
                    self._inflight[ticket.binding.version] = left
                else:
                    self._inflight.pop(ticket.binding.version, None)
                if not self._inflight:
                    self._idle_mark = time.monotonic()
        if ticket.span is not None:
            span, ticket.span = ticket.span, None
            span.__exit__(None, None, None)

    def _pool_failure(self, pool: ProcessPoolExecutor, exc: BaseException) -> None:
        """Shared crash path: recycle the dead pool, raise retryable.

        ``pool`` is the generation the failed ticket was queued on; with
        several tickets in flight only the first to notice recycles — the
        rest find it already replaced and just raise.
        """
        with self._recycle_lock:
            if self._pool is pool:
                self.recycle()
        raise WorkerPoolError(
            f"host worker pool crashed mid-launch ({exc}); workers "
            "recycled — the staged receptor and Eq. 1 weights survive, "
            "retry the launch"
        ) from exc

    def _harvest(self, stats: list[dict], n_jobs: int) -> int:
        """Merge per-worker telemetry into this process's session.

        The explicit merge-at-join step of the multiprocessing contract:
        each worker returned a local snapshot; here they fold into the
        parent registry, plus the parent-only derived metrics — queue wait
        (task start minus submit, both on the shared monotonic clock),
        per-worker throughput for this launch, and in dynamic mode the
        steal count (tasks a worker pulled beyond the even per-worker
        share, i.e. work it took from a slower sibling). Returns the
        launch's steal count (0 outside dynamic mode). Serialized under
        ``_obs_lock``: concurrent pipeline harvests must not interleave
        their merges or drift updates.
        """
        if not stats or not obs.enabled():
            return 0
        with self._obs_lock:
            tasks_by_worker: dict[int, int] = {}
            for stat in stats:
                obs.merge(stat["telemetry"])
                obs.histogram("host.queue_wait_seconds").observe(
                    max(0.0, stat["started_s"] - stat["submit_s"])
                )
                worker = int(stat["worker"])
                tasks_by_worker[worker] = tasks_by_worker.get(worker, 0) + 1
                if worker < self._drift_poses.size:
                    # feeds share_drift(): observed pose share vs the Eq. 1
                    # plan, the campaign runtime's re-measure trigger
                    self._drift_poses[worker] += stat["poses"]
            if self.mode == "dynamic" and self.n_workers > 1:
                even_share = -(-n_jobs // self.n_workers)  # ceil
                steals = sum(
                    max(0, count - even_share) for count in tasks_by_worker.values()
                )
                obs.counter("host.steals").inc(steals)
                return steals
            return 0

    # ------------------------------------------------------------------
    # rebind protocol: versioned ligand bindings over slot banks
    # ------------------------------------------------------------------
    @property
    def inflight_launches(self) -> int:
        """Live (submitted, unharvested) tickets across every binding."""
        with self._lock:
            return sum(self._inflight.values())

    def _reserve_bank(self, blocking: bool = True) -> int | None:
        """Claim a free slot bank; block for one (or return None) if all busy."""
        deadline = time.monotonic() + _BANK_WAIT_S
        with self._lock:
            while True:
                for i, free in enumerate(self._bank_free):
                    if free:
                        self._bank_free[i] = False
                        return i
                if not blocking:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._lock.wait(timeout=remaining):
                    raise ScoringError(
                        f"no ligand slot bank freed within {_BANK_WAIT_S:.0f}s: "
                        f"{len(self._bindings)} live bindings on "
                        f"{len(self._banks)} banks — release a binding or "
                        "raise pipeline_depth"
                    )

    def stage_ligand(self, scorer: BoundScorer, *, blocking: bool = True) -> dict | None:
        """Stage ``scorer``'s ligand arrays into a free slot bank.

        Safe to run concurrently with in-flight launches: workers only read
        banks whose bindings are live, and the receptor-side handle cache
        was fully populated at construction. Returns the staged spec (its
        bank rides in ``spec["_slot_bank"]``) for :meth:`bind_ligand`, or
        ``None`` when ``blocking=False`` and every bank is taken (the
        prefetch thread's case — a miss, not an error). An unwanted spec
        must go back through :meth:`discard_staged` or its bank leaks.
        """
        bank = self._reserve_bank(blocking=blocking)
        if bank is None:
            return None
        try:
            spec = stage_scorer(
                scorer,
                self._stage,
                ligand_stage=self._banks[bank],
                receptor_cache=self._receptor_cache,
            )
        except BaseException:
            with self._lock:
                self._bank_free[bank] = True
                self._lock.notify_all()
            raise
        spec["_slot_bank"] = bank
        return spec

    def discard_staged(self, spec: dict | None) -> None:
        """Return a staged-but-never-bound spec's bank to the free list."""
        bank = spec.get("_slot_bank") if spec else None
        if bank is None:
            return
        with self._lock:
            if not any(b.bank == bank for b in self._bindings.values()):
                self._bank_free[bank] = True
                self._lock.notify_all()

    def bind_ligand(self, scorer: BoundScorer, spec: dict) -> _LigandBinding:
        """Mint a live binding for a staged ligand.

        The binding is *additional*: nothing else is released, so up to
        ``slot_banks`` ligands can be resident at once. Pair every bind
        with a :meth:`release_binding` or the pipeline runs out of banks.
        """
        self._live_pool()
        bank = spec.get("_slot_bank")
        if bank is None:
            raise ScoringError("bind_ligand needs a spec from stage_ligand")
        with self._lock:
            self._version += 1
            binding = _LigandBinding(
                version=self._version, bank=int(bank), spec=spec, scorer=scorer
            )
            self._bindings[binding.version] = binding
        obs.counter("host.pool.reuses").inc()
        return binding

    def release_binding(self, binding: _LigandBinding) -> None:
        """Retire a binding and free its bank for the next ligand. Idempotent."""
        with self._lock:
            live = self._bindings.pop(binding.version, None)
            if live is not None:
                self._bank_free[binding.bank] = True
            self._lock.notify_all()

    def _binding_message(self, binding: _LigandBinding) -> tuple:
        """The versioned rebind message every one of this binding's tasks carries.

        ``(version, spec, retired_segments, live_versions)`` — cumulative
        retired list across all banks (workers drop outgrown attachments no
        matter how many versions they skipped), live set so workers evict
        scorers for released ligands.
        """
        with self._lock:
            retired: tuple[str, ...] = ()
            for bank in self._banks:
                retired += tuple(bank.retired)
            live = tuple(sorted(self._bindings))
        return (binding.version, binding.spec, retired, live)

    def share_drift(self) -> float:
        """Max |observed pose share − Eq. 1 weight| since the last measurement.

        Observable only while telemetry is enabled (worker pose counts ride
        in the harvest); returns 0.0 otherwise, so the drift re-measure
        trigger degrades gracefully to the interval trigger.
        """
        total = float(self._drift_poses.sum())
        if total <= 0.0:
            return 0.0
        return float(np.max(np.abs(self._drift_poses / total - self.weights)))

    def remeasure(self, binding: _LigandBinding) -> HostWarmupResult:
        """Re-run the Eq. 1 warm-up on the live pool, scoring ``binding``.

        Uses the same deterministic receptor-box poses as the initial
        warm-up but a *current* ligand's scorer, so the refreshed weights
        reflect today's arithmetic, not ligand 0's. Call only between
        launches. Finding the pool dead recycles it and keeps the previous
        weights.
        """
        pool = self._live_pool()
        with self._lock:
            if self._inflight:
                raise ScoringError(
                    "remeasure requires an idle pool (launches are in flight)"
                )
        rebind = self._binding_message(binding)
        warm = self._warm if self._warm is not None else self._warmup_batch(
            DEFAULT_WARMUP_POSES, DEFAULT_WARMUP_REPEATS
        )
        t0 = time.perf_counter()
        with self._ready.get_lock():
            self._ready.value = 0
        try:
            futures = [
                pool.submit(_measure_task, rebind, warm, _WARMUP_TIMEOUT_S)
                for _ in range(self.n_workers)
            ]
            for future in futures:
                future.result(timeout=_WARMUP_TIMEOUT_S)
        except BrokenProcessPool:
            # A worker died and no launch noticed (a sibling absorbed its
            # share, or it died idle). Measuring is optional and runs
            # outside any retry loop: respawn, keep the previous weights.
            self.recycle()
            return self.warmup_result
        elapsed = time.perf_counter() - t0
        self.warmup_result = self._reduce_warmup(
            np.array(self._slots[:], dtype=np.float64), elapsed, timed=True
        )
        self.weights = self.warmup_result.weights
        self._drift_poses[:] = 0.0
        obs.counter("host.warmup.remeasures").inc()
        return self.warmup_result

    def recycle(self) -> None:
        """Replace every worker process; keep the staged receptor and weights.

        The poisoned-ligand crash path: the broken pool is torn down, the
        shared counters reset, and fresh workers are spawned *uninitialised*
        (no restage, no warm-up). Each new worker rebuilds
        its scorer lazily from the first rebind message it sees; the Eq. 1
        weights survive unchanged (the hardware didn't change, the ligand
        did). ``_pool`` is ``None`` for the duration, under
        ``_recycle_lock`` — :meth:`_live_pool` waits on that lock rather
        than mistake the window for a closed evaluator.
        """
        with self._recycle_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            with self._claim.get_lock():
                self._claim.value = 0
            with self._ready.get_lock():
                self._ready.value = 0
            try:
                self._pool = self._start_pool(None, None)
            except ScoringError:
                self.close()
                raise
        with self._lock:
            self._idle_mark = time.monotonic()
        obs.counter("host.pool.recycles").inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink every shared segment. Idempotent."""
        with self._recycle_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self._stage.close()
        for bank in self._banks:
            bank.close()

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Shared-memory segment names owned by this evaluator."""
        names = self._stage.segment_names
        for bank in self._banks:
            names += bank.segment_names
        return names

    def __enter__(self) -> "ParallelSpotEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class _BindingEvaluator:
    """Per-ligand Evaluator view over one shared :class:`ParallelSpotEvaluator`.

    What a :class:`LigandLease` hands to ``dock()``: implements the
    Evaluator protocol (``evaluate`` + ``stats``) by routing every launch
    through the shared pool with this ligand's binding and its *own*
    launch-trace stats — so the per-ligand trace is bitwise identical to a
    run that had the pool to itself. Never closed by dock (the runtime owns
    the pool); a fresh view per dock attempt gives retries a fresh trace.
    """

    def __init__(self, evaluator: ParallelSpotEvaluator, binding: _LigandBinding) -> None:
        self._evaluator = evaluator
        self._binding = binding
        self.stats = EvaluationStats()

    def evaluate(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
    ) -> np.ndarray:
        evaluator = self._evaluator
        return evaluator.harvest(
            evaluator.submit(
                spot_ids,
                translations,
                quaternions,
                kind,
                binding=self._binding,
                stats=self.stats,
            )
        )


class LigandLease:
    """One ligand's residency on the shared pool (see ``lease()``).

    Holds the ligand's :class:`_LigandBinding` between :meth:`PersistentHostRuntime.lease`
    and :meth:`release`; :meth:`evaluator_factory` is the ``dock()`` seam for
    this ligand only.
    """

    def __init__(self, runtime: "PersistentHostRuntime", ligand, binding) -> None:
        self.runtime = runtime
        self.ligand = ligand
        self.binding = binding
        self._released = False

    def evaluator_factory(self, receptor, ligand, spots) -> _BindingEvaluator:
        """Per-lease ``dock(evaluator_factory=...)``: validates, fresh stats per call."""
        if self._released:
            raise ScoringError("ligand lease was already released")
        self.runtime._validate_complex(receptor, spots)
        if ligand is not self.ligand:
            raise ScoringError(
                "ligand lease was taken for a different ligand "
                "(one lease per docked ligand)"
            )
        return _BindingEvaluator(self.runtime.evaluator, self.binding)

    def release(self) -> None:
        """Free this ligand's slot bank for the next one. Idempotent."""
        if self._released:
            return
        self._released = True
        self.runtime._release_lease(self)


# ----------------------------------------------------------------------
# campaign-owned persistent runtime
# ----------------------------------------------------------------------
class PersistentHostRuntime:
    """One pool, one receptor, many ligands: the campaign's host runtime.

    Owns one :class:`ParallelSpotEvaluator` for the lifetime of a screening
    campaign and exposes the pieces the screening layers need:

    * :meth:`lease` — bind a ligand as one of up to ``pipeline_depth``
      simultaneous residents (lazily creating pool + receptor staging +
      Eq. 1 warm-up on the first call) and get a :class:`LigandLease` whose
      ``evaluator_factory`` scores only that ligand. Leases from different
      threads share the pool; their launches interleave freely.
    * :meth:`hint_next` — name ligand *i+1* before leasing *i*; a
      single-thread stager binds it and stages it into a free slot bank
      while the pool scores, so the next :meth:`lease` is a swap.
    * :meth:`acquire` / :meth:`evaluator_factory` — the single-resident
      form for callers that dock one ligand at a time: each acquire
      releases the previous one's lease and takes a new one.

    Warm-up reuse policy: the Eq. 1 measurement from pool start is reused
    for every ligand (``host.warmup.reuses``); it is re-run after
    ``remeasure_interval`` leases, or early when the observed per-worker
    pose share drifts more than ``drift_threshold`` from the plan
    (``host.warmup.remeasures``). A poisoned ligand that kills a worker
    recycles the pool (``host.pool.recycles``) without restaging the
    receptor or dropping the weights; the raised
    :class:`~repro.errors.WorkerPoolError` flows into the campaign's retry
    loop, which repeats the dock without charging the ligand.
    """

    def __init__(
        self,
        receptor,
        spots,
        *,
        n_workers: int,
        mode: str = "static",
        scoring=None,
        warmup: bool = True,
        remeasure_interval: int = DEFAULT_REMEASURE_INTERVAL,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        prefetch: bool = True,
        pipeline_depth: int = 1,
    ) -> None:
        if n_workers < 1:
            raise ScoringError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in ("static", "dynamic"):
            raise ScoringError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        if remeasure_interval < 1:
            raise ScoringError(
                f"remeasure_interval must be >= 1, got {remeasure_interval}"
            )
        if pipeline_depth < 1:
            raise ScoringError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.receptor = receptor
        self.spots = list(spots)
        self.n_workers = int(n_workers)
        self.mode = mode
        self.scoring = (
            scoring
            if scoring is not None
            else CutoffLennardJonesScoring(dtype=np.float32)
        )
        self.warmup = bool(warmup)
        self.remeasure_interval = int(remeasure_interval)
        self.drift_threshold = float(drift_threshold)
        #: How many ligands may be resident at once (slot banks = depth + 1,
        #: so one more can stage while ``depth`` dock).
        self.pipeline_depth = int(pipeline_depth)
        self.ligands_bound = 0
        self._evaluator: ParallelSpotEvaluator | None = None
        self._acquired: LigandLease | None = None
        self._next_hint = None
        self._pending = None  # (hinted ligand, Future[(scorer, spec)])
        self._since_measure = 0
        self._closed = False
        self._live_leases = 0
        # Serializes lease bookkeeping; the stager thread and dock
        # threads contend on it only for pointer-sized state, never scoring.
        self._lease_lock = threading.RLock()
        self._stager = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="ligand-stage")
            if prefetch
            else None
        )
        obs.gauge("host.pipeline.depth").set(self.pipeline_depth)

    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> ParallelSpotEvaluator | None:
        """The owned evaluator, or ``None`` before the first lease."""
        return self._evaluator

    def _bind_and_stage(self, ligand):
        """Stager-thread job: bind + stage into a free slot bank.

        The reservation is non-blocking — with every bank held by live
        bindings the prefetch simply skips staging (``spec=None``) rather
        than deadlock the stager behind a dock thread's release.
        """
        scorer = self.scoring.bind(self.receptor, ligand)
        return scorer, self._evaluator.stage_ligand(scorer, blocking=False)

    def _take_prefetched(self, ligand):
        """Resolve any pending prefetch; return its (scorer, spec) on a hit.

        Always waits the pending future out — the stager thread must be
        done writing its slot bank before anyone restages it. A wrong-ligand
        hit hands the staged bank straight back (``discard_staged``).
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return None
        hinted, future = pending
        try:
            staged = future.result()
        except Exception:
            # e.g. a ligand poisoned at bind time: surface the error on the
            # synchronous bind below, in its own dock's context
            obs.counter("host.prefetch.misses").inc()
            return None
        if hinted is not ligand:
            obs.counter("host.prefetch.misses").inc()
            if self._evaluator is not None:
                self._evaluator.discard_staged(staged[1])
            return None
        obs.counter("host.prefetch.hits").inc()
        return staged

    def _kick_prefetch(self, current) -> None:
        hint, self._next_hint = self._next_hint, None
        if (
            self._stager is None
            or self._evaluator is None
            or hint is None
            or hint is current
            or self._pending is not None
        ):
            return
        self._pending = (hint, self._stager.submit(self._bind_and_stage, hint))

    # ------------------------------------------------------------------
    def hint_next(self, ligand) -> None:
        """Name the ligand expected after the current one.

        The prefetch itself starts at the end of the next :meth:`lease`
        (never before: until then the free bank may be the one that lease
        is about to take).
        """
        self._next_hint = ligand

    def acquire(self, ligand) -> _BindingEvaluator:
        """The single-resident :meth:`lease`: one ligand at a time.

        Releases the previous acquire's lease, takes one for ``ligand`` and
        returns its evaluator with a fresh launch trace. Re-acquiring the
        resident ligand (a retry) keeps its lease and restages nothing.
        """
        held = self._acquired
        if held is None or held.ligand is not ligand:
            if held is not None:
                self._acquired = None
                held.release()
            self._acquired = held = self.lease(ligand)
        return _BindingEvaluator(self._evaluator, held.binding)

    def lease(self, ligand) -> "LigandLease":
        """Bind ``ligand`` as one of the pool's concurrent residents.

        Up to ``pipeline_depth`` leases are live at once, each scoring
        through its own :class:`_LigandBinding`, so one ligand's launches
        fill another's host-side gaps. The first call pays the full cost
        (pool spawn, receptor staging, Eq. 1 warm-up); every later one
        restages only the ligand-varying slots — or just swaps banks when
        the prefetch already staged this ligand. Take leases from the
        owning (main) thread — the first one forks the worker pool — dock
        each lease on any thread and :meth:`LigandLease.release` it when
        the ligand commits. The Eq. 1 re-measure triggers (interval /
        drift) run at the first lease after the pool drains.
        """
        if self._closed:
            raise ScoringError("persistent host runtime is closed")
        with self._lease_lock:
            if self._evaluator is None:
                # First lease: spawn the pool, banks sized for the depth.
                self._evaluator = ParallelSpotEvaluator(
                    self.scoring.bind(self.receptor, ligand),
                    n_workers=self.n_workers,
                    mode=self.mode,
                    warmup=self.warmup,
                    slot_banks=self.pipeline_depth + 1,
                )
                binding = self._evaluator.binding
            else:
                staged = self._take_prefetched(ligand)
                t0 = time.perf_counter()
                if staged is not None:
                    scorer, spec = staged
                    if spec is None:  # bound by the prefetch, banks were full
                        spec = self._evaluator.stage_ligand(scorer)
                else:
                    scorer = self.scoring.bind(self.receptor, ligand)
                    spec = self._evaluator.stage_ligand(scorer)
                binding = self._evaluator.bind_ligand(scorer, spec)
                rebind_s = time.perf_counter() - t0
                obs.histogram("host.rebind.seconds").observe(rebind_s)
                flight_event(
                    "pool.rebind",
                    prefetched=staged is not None,
                    seconds=round(rebind_s, 6),
                )
                self._since_measure += 1
                if (
                    self.warmup
                    and self._live_leases == 0
                    and self._evaluator.inflight_launches == 0
                    and (
                        self._since_measure >= self.remeasure_interval
                        or self._evaluator.share_drift() > self.drift_threshold
                    )
                ):
                    self._evaluator.remeasure(binding)
                    self._since_measure = 0
                else:
                    obs.counter("host.warmup.reuses").inc()
            self.ligands_bound += 1
            self._live_leases += 1
            lease = LigandLease(self, ligand, binding)
            self._kick_prefetch(ligand)
            return lease

    def _release_lease(self, lease: "LigandLease") -> None:
        with self._lease_lock:
            self._live_leases -= 1
        evaluator = self._evaluator
        if evaluator is not None:
            evaluator.release_binding(lease.binding)

    def _validate_complex(self, receptor, spots) -> None:
        """Check dock() was called for the receptor/spots this runtime staged."""
        if receptor is not self.receptor and not np.array_equal(
            receptor.coords, self.receptor.coords
        ):
            raise ScoringError(
                "persistent host runtime was staged for a different receptor"
            )
        mine = [s.index for s in self.spots]
        theirs = [s.index for s in spots]
        if mine != theirs:
            raise ScoringError(
                f"persistent host runtime was staged for spots {mine}, "
                f"dock() was called with {theirs}"
            )

    def evaluator_factory(self, receptor, ligand, spots) -> _BindingEvaluator:
        """The ``dock(evaluator_factory=...)`` seam over :meth:`acquire`.

        Validates that dock was called for the receptor/spots this runtime
        staged. The pool stays owned by the runtime — ``dock()`` must not
        close it.
        """
        self._validate_complex(receptor, spots)
        return self.acquire(ligand)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the stager thread and the pool; unlink everything. Idempotent."""
        self._closed = True
        stager, self._stager = self._stager, None
        if stager is not None:
            stager.shutdown(wait=True, cancel_futures=True)
        self._pending = None
        self._next_hint = None
        self._acquired = None
        evaluator, self._evaluator = self._evaluator, None
        if evaluator is not None:
            evaluator.close()

    def __enter__(self) -> "PersistentHostRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
