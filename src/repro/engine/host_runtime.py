"""Process-parallel host runtime: real cores, same answers.

Everything else in :mod:`repro.engine` *models* parallel hardware; this
module actually uses the machine. A :class:`ParallelSpotEvaluator` shards a
launch's poses across a persistent :class:`~concurrent.futures.ProcessPoolExecutor`,
mirroring the paper's device strategy at the host level:

* **Binding** — every worker holds its own bound scorer, the way each GPU
  of the paper's Algorithm 2 scores from its own device-resident copy of
  the complex (see the bind/BoundScorer split in :mod:`repro.scoring.base`).
  The scoring factory, the receptor and the first ligand reach the workers
  through the fork that creates them; a worker binds each ligand itself,
  once. The parent only dispatches, as the paper's host thread does: it
  plans and records launches from the scorer's
  :class:`~repro.scoring.base.ScorerShape` and holds no pair tables.
* **Warm-up (Eq. 1)** — at pool start each worker times a few scoring
  launches; shares are assigned ∝ 1/Percent, exactly the paper's
  ``Percent = t_worker / t_slowest`` heterogeneous split, but with wall
  clocks instead of the simulated performance model. As in the paper
  (§3.3), the shares are measured once and kept for the pool's lifetime.
* **Scheduling** — ``static`` mode LPT-packs a launch's jobs into
  ``n_workers`` tasks sized by the Eq. 1 weights; the executor hands each
  task to whichever worker is idle, so task *i* is not necessarily scored
  by the process whose warm-up set ``weights[i]``. ``dynamic`` mode
  submits jobs individually in LPT order (largest-first, the ordering
  :mod:`repro.engine.device_worker` uses) so whichever worker frees up
  first pulls the next job — a work-stealing queue.

Determinism contract: for any scorer, ``ParallelSpotEvaluator`` returns
*bitwise* the same energies as :class:`~repro.metaheuristics.evaluation.SerialEvaluator`
with the same seed, for any worker count and either mode. Work is split only
along boundaries the serial path already has — whole chunks of the serial
chunk grid for plain scorers, whole per-spot groups for spot-aware scorers —
and workers bind the scorer with the same call on the same inputs as the
serial path, so every chunk's arithmetic is identical to its serial
counterpart.

**One launch path** — the paper runs warm-up once and reuses the shares for
the whole screening; a campaign likewise pays for pool spawn and warm-up
once. Each resident ligand is a versioned :class:`_LigandBinding`. Every
task carries its binding's rebind message ``(version, ligand,
live_versions)``, so a worker binds a version it has not met once, keeps
its scorers in a small cache keyed by version and evicts versions the
message no longer lists as live — no process churn, and the Eq. 1 weights
hold for every ligand. A launch is always the ticketed pair
:meth:`ParallelSpotEvaluator.submit` / :meth:`~ParallelSpotEvaluator.harvest`
against one binding; a dead worker :meth:`~ParallelSpotEvaluator.recycle`-s
the pool in place and surfaces as a retryable
:class:`~repro.errors.WorkerPoolError`.

**Lifecycle** — :class:`PersistentHostRuntime` is the campaign-facing owner:
:meth:`~PersistentHostRuntime.lease` mints a ligand's version (the first
call spawns the pool) and returns a :class:`LigandLease`; its
``evaluator_factory`` is the ``dock()`` seam, routing that ligand's launches
through submit/harvest with a private launch trace;
:meth:`LigandLease.release` retires the binding.
Pipeline depth is nothing but how many leases are live at once — depth 1 is
one lease in flight, and ``acquire()`` is the single-resident convenience
over the same call. A one-shot ``dock(host_workers=N)`` builds a bare
:class:`ParallelSpotEvaluator` around its one ligand and closes it on exit.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.constants import DEFAULT_SEED, FLOAT_DTYPE
from repro.engine.partition import eq1_weights
from repro.errors import ScoringError, WorkerPoolError
from repro.metaheuristics.evaluation import EvaluationStats, LaunchRecord
from repro.molecules.transforms import normalize_quaternion
from repro.scoring.base import BoundScorer, ScorerShape, ScoringFunction, spot_groups
from repro.scoring.cutoff import CutoffLennardJonesScoring

__all__ = [
    "HostWarmupResult",
    "LaunchTicket",
    "LigandLease",
    "ParallelSpotEvaluator",
    "PersistentHostRuntime",
    "DEFAULT_WARMUP_POSES",
    "DEFAULT_WARMUP_REPEATS",
    "load_pool_stack",
]

#: The process-pool stack, bound by :func:`load_pool_stack`: a process that
#: docks serially never imports it.
mp = ProcessPoolExecutor = BrokenProcessPool = None


def load_pool_stack() -> None:
    """Import ``multiprocessing`` and the process-pool executor. Idempotent.

    Every pool this module builds calls it first. Call it earlier, in
    set-up, where a pool is known to be coming (a campaign runner with
    ``host_workers > 0`` does): otherwise the import lands inside whatever
    call builds the pool, such as a campaign's first lease.
    """
    global mp, ProcessPoolExecutor, BrokenProcessPool
    import multiprocessing as mp
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor


#: Poses per warm-up timing launch ("a few candidate solutions", §3.3).
DEFAULT_WARMUP_POSES: int = 64

#: Timed launches per worker; the mean is the Eq. 1 measurement.
DEFAULT_WARMUP_REPEATS: int = 3

#: Give slow machines this long to spawn+warm every worker before falling
#: back to equal shares.
_WARMUP_TIMEOUT_S: float = 120.0

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


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
#: Per-process state: the fork-inherited scoring factory and receptor, the
#: bound scorers by version, worker index, shared counters.
_WORKER: dict = {}


def _worker_init(scoring, receptor, ligand, claim, ready, slots, warm) -> None:
    """Pool initializer: bind the fork-inherited complex, warm up.

    ``scoring`` and ``receptor`` are what this worker binds every ligand
    against; ``ligand`` is version 0's, bound here with the same call every
    later version gets. ``claim`` hands out worker indices; ``ready`` counts
    workers that have finished warming up (the parent's barrier waits on
    it); ``slots[i]`` receives worker ``i``'s mean warm-up launch time.

    ``ligand=None`` is the recycle path: a replacement worker comes up with
    no scorer and no warm-up — the first task it runs carries a versioned
    rebind message it binds from.
    """
    with claim.get_lock():
        index = int(claim.value)
        claim.value += 1
    scorer = None if ligand is None else scoring.bind(receptor, ligand)
    _WORKER.update(
        index=index,
        scoring=scoring,
        receptor=receptor,
        scorer=scorer,
        version=None if scorer is None else 0,
        scorers={} if scorer is None else {0: scorer},
        ready=ready,
        n_workers=len(slots),
    )
    if scorer is not None:
        slots[index] = _time_warmup(scorer, warm)
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


def _worker_rebind(version: int, ligand, live: tuple[int, ...]) -> None:
    """Switch this worker to ligand ``version``, binding it on first sight.

    Scorers are cached by version: several ligands can be live at once and
    consecutive tasks ping-pong between their versions, so a switch back to
    a version this worker already bound is a dict lookup. A first-seen
    version is bound once, with the same ``bind`` call on the same receptor
    and ligand as a serial run's, so its tables are bitwise the serial ones.
    ``live`` names every version still resident in the parent; cached scorers
    outside it are evicted. Workers that skipped versions, or were recycled
    in with no scorer at all, need nothing else.
    """
    scorers = _WORKER["scorers"]
    scorer = scorers.get(version)
    if scorer is None:
        scorer = scorers[version] = _WORKER["scoring"].bind(
            _WORKER["receptor"], ligand
        )
    _WORKER.update(scorer=scorer, version=version)
    for stale in [v for v in scorers if v != version and v not in live]:
        del scorers[stale]


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
    rebind: tuple,
) -> tuple[list[np.ndarray], dict | None]:
    """Score this worker's share of a launch: a list of (spot ids, t, q).

    Jobs of a spot-aware scorer carry their poses' spot ids and go through
    ``score_spots``; plain jobs carry ``None`` and go through ``score``.

    ``rebind`` is the launch's versioned rebind message ``(version, ligand,
    live_versions)``; a worker whose current scorer is a different version
    switches (or binds) in place before scoring — see
    :func:`_worker_rebind` — so the energies stay bitwise identical to a
    fresh pool's.

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
                local.histogram("host.worker.task_seconds", worker=index).observe(
                    time.perf_counter() - t0
                )
        batch_tags["tasks"] = len(tasks)
        batch_tags["poses"] = n_poses
    if local is None:
        return out, None
    local.counter("host.worker.poses", worker=index).inc(n_poses)
    return out, {
        "telemetry": local.snapshot(),
        "worker": index,
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
    """One resident ligand, addressable by version.

    The pipeline's unit of residency: :meth:`ParallelSpotEvaluator.bind_ligand`
    mints one per ligand, every :meth:`~ParallelSpotEvaluator.submit` names
    one, and :meth:`~ParallelSpotEvaluator.release_binding` retires it.
    ``shape`` is all the parent reads of the ligand's scorer (it plans jobs
    and records launches); workers bind ``ligand`` themselves.
    """

    version: int
    ligand: object
    shape: ScorerShape


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
    scoring, receptor, ligand:
        The scoring factory and the complex. The parent keeps no bound
        scorer: it reads ``ligand``'s
        :meth:`~repro.scoring.base.ScoringFunction.shape` (the
        construction-time :attr:`binding`). The workers inherit the
        factory, the receptor and ``ligand`` through the fork, bind
        ``ligand`` as they start and every later ligand
        (:meth:`bind_ligand`) on first sight — without touching the pool or
        the warm-up weights.
    n_workers:
        Worker processes (≥ 1). The pool is fully spawned, and each worker
        timed on :data:`DEFAULT_WARMUP_POSES` x :data:`DEFAULT_WARMUP_REPEATS`
        (the Eq. 1 measurement), before the constructor returns.
    mode:
        ``"static"`` (LPT packing into one task per worker, each sized by an
        Eq. 1 weight; idle workers take the tasks in any order) or
        ``"dynamic"`` (work-stealing job queue in LPT order).

    A crashed pool is :meth:`recycle`-d in place and the launch raises a
    retryable :class:`~repro.errors.WorkerPoolError`. Use as a context
    manager, or call :meth:`close`.
    """

    def __init__(
        self,
        scoring: ScoringFunction,
        receptor,
        ligand,
        n_workers: int,
        mode: str = "static",
    ) -> None:
        if n_workers < 1:
            raise ScoringError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in ("static", "dynamic"):
            raise ScoringError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        load_pool_stack()
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover
            raise ScoringError(
                "the parallel host runtime requires the 'fork' start method "
                "(the complex and shared counters are inherited, not pickled)"
            )
        self.scoring = scoring
        self.receptor = receptor
        self.n_workers = int(n_workers)
        self.mode = mode
        self.stats = EvaluationStats()
        self._version = 0
        # Binding bookkeeping and the in-flight launch map share one lock.
        self._lock = threading.Lock()
        self._bindings: dict[int, _LigandBinding] = {}
        self._inflight: dict[int, int] = {}  # binding version -> live tickets
        self._idle_mark: float | None = None
        # Held for the whole of a recycle (and by close), so a submit that
        # finds no pool can tell "respawning" from "closed" by waiting on it.
        self._recycle_lock = threading.RLock()
        self._obs_lock = threading.Lock()  # serializes telemetry merges
        self._pool: ProcessPoolExecutor | None = None
        #: The construction-time ligand's binding: what :meth:`evaluate`
        #: scores, and the first lease of a campaign runtime.
        self.binding = _LigandBinding(
            version=0, ligand=ligand, shape=scoring.shape(receptor, ligand)
        )
        self._bindings[0] = self.binding
        try:
            ctx = mp.get_context("fork")
            self._ctx = ctx
            self._claim = ctx.Value("q", 0)
            self._ready = ctx.Value("q", 0)
            self._slots = ctx.Array("d", self.n_workers)
            warm = self._warmup_batch()
            with obs.span("host.warmup", workers=self.n_workers, mode=self.mode):
                t0 = time.perf_counter()
                self._pool = self._start_pool(ligand, warm)
                elapsed = time.perf_counter() - t0
            obs.counter("host.warmups").inc()
            measured = np.array(self._slots[:], dtype=np.float64)
            percent, self.weights = eq1_weights(measured)
            # The Eq. 1 share decision on the record (doctor and the sampler
            # compare it with the poses each worker actually scored).
            for i, weight in enumerate(self.weights):
                obs.gauge("host.warmup.weight", worker=i).set(float(weight))
            self.warmup_result = HostWarmupResult(
                measured_s=measured, percent=percent, weights=self.weights,
                elapsed_s=elapsed,
            )
            self._idle_mark = time.monotonic()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _warmup_batch(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Deterministic measurement poses spread over the receptor box."""
        coords = self.receptor.coords
        rng = np.random.default_rng(DEFAULT_SEED)
        translations = rng.uniform(
            coords.min(axis=0), coords.max(axis=0), size=(DEFAULT_WARMUP_POSES, 3)
        ).astype(FLOAT_DTYPE)
        quaternions = normalize_quaternion(rng.normal(size=(DEFAULT_WARMUP_POSES, 4)))
        return translations, quaternions, DEFAULT_WARMUP_REPEATS

    def _start_pool(self, ligand, warm) -> ProcessPoolExecutor:
        """Spawn every worker, blocking until all have initialised.

        One barrier task per worker forces the executor to actually start
        all ``n`` processes. The initializer arguments reach the workers
        through the fork, not a pickle: the first pool binds version 0's
        ``ligand`` and times the Eq. 1 warm-up, a recycled one
        (``None``/``None``) comes up with no scorer.
        """
        pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(
                self.scoring, self.receptor, ligand,
                self._claim, self._ready, self._slots, warm,
            ),
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

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan(self, spot_ids: np.ndarray, shape: ScorerShape) -> list[_Job]:
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
        if shape.supports_spot_scoring:
            order, groups = spot_groups(spot_ids)
            grain = -(-_MIN_JOB_PAIRS // shape.n_pairs)  # poses, rounded up
            jobs = []
            job_spot = None  # first spot of the job being grown
            for spot, lo, hi in groups:
                if job_spot is None:
                    job_spot, job_lo = spot, lo
                if hi - job_lo >= grain or hi == n:
                    jobs.append(_Job(spot=job_spot, rows=order[job_lo:hi]))
                    job_spot = None
            return jobs
        chunk = shape.chunk_size
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

        ``static`` packs them into ``n_workers`` tasks whose loads follow
        the Eq. 1 weights (the executor gives each task to whichever worker
        is idle, not to the one whose warm-up set its weight); ``dynamic``
        keeps one task per job, largest first, for whichever worker frees up
        first to steal. The modes differ in this grouping only.
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
                flops_per_pose=binding.shape.flops_per_pose,
                spot_counts={int(s): int(c) for s, c in zip(unique, counts)},
                kind=kind,
                n_receptor_atoms=binding.shape.n_receptor_atoms,
            )
        )
        n = int(translations.shape[0])
        ticket = LaunchTicket(binding=binding, n=n, pool=pool)
        if n == 0:
            ticket.out = np.empty(0, dtype=FLOAT_DTYPE)
            ticket.done = True
            return ticket
        jobs = self._plan(spot_ids, binding.shape)
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
            spot_aware = binding.shape.supports_spot_scoring
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
            "recycled — the bindings and Eq. 1 weights survive, "
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
        their merges.
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
            if self.mode == "dynamic" and self.n_workers > 1:
                even_share = -(-n_jobs // self.n_workers)  # ceil
                steals = sum(
                    max(0, count - even_share) for count in tasks_by_worker.values()
                )
                obs.counter("host.steals").inc(steals)
                return steals
            return 0

    # ------------------------------------------------------------------
    # rebind protocol: versioned ligand bindings
    # ------------------------------------------------------------------
    def bind_ligand(self, ligand) -> _LigandBinding:
        """Mint a live binding for ``ligand``.

        The parent plans jobs and records launches from the ligand's
        :class:`~repro.scoring.base.ScorerShape`; each worker binds
        ``ligand`` itself the first time one of its tasks arrives. The
        binding is *additional*: nothing else is released, so any number of
        ligands can be resident at once. Pair every bind with a
        :meth:`release_binding`, or workers keep its scorer cached.
        """
        self._live_pool()
        shape = self.scoring.shape(self.receptor, ligand)
        with self._lock:
            self._version += 1
            binding = _LigandBinding(version=self._version, ligand=ligand, shape=shape)
            self._bindings[binding.version] = binding
        obs.counter("host.pool.reuses").inc()
        return binding

    def release_binding(self, binding: _LigandBinding) -> None:
        """Retire a binding; workers evict its scorer at their next rebind. Idempotent."""
        with self._lock:
            self._bindings.pop(binding.version, None)

    def _binding_message(self, binding: _LigandBinding) -> tuple:
        """The versioned rebind message every one of this binding's tasks carries.

        ``(version, ligand, live_versions)`` — the ligand for a worker that
        has not bound this version yet, the live set so workers evict
        scorers of released ligands.
        """
        with self._lock:
            live = tuple(sorted(self._bindings))
        return (binding.version, binding.ligand, live)

    def recycle(self) -> None:
        """Replace every worker process; keep the bindings and weights.

        The poisoned-ligand crash path: the broken pool is torn down, the
        shared counters reset, and fresh workers are forked with no scorer
        and no warm-up. Each new worker binds a ligand lazily from the
        first rebind message that names it; the Eq. 1
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
        """Shut the pool down. Idempotent."""
        with self._recycle_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

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
        self.runtime._validate_receptor(receptor)
        if ligand is not self.ligand:
            raise ScoringError(
                "ligand lease was taken for a different ligand "
                "(one lease per docked ligand)"
            )
        return _BindingEvaluator(self.runtime.evaluator, self.binding)

    def release(self) -> None:
        """Retire this ligand's binding. Idempotent."""
        if self._released:
            return
        self._released = True
        evaluator = self.runtime.evaluator
        if evaluator is not None:
            evaluator.release_binding(self.binding)


# ----------------------------------------------------------------------
# campaign-owned persistent runtime
# ----------------------------------------------------------------------
class PersistentHostRuntime:
    """One pool, one receptor, many ligands: the campaign's host runtime.

    Owns one :class:`ParallelSpotEvaluator` for the lifetime of a screening
    campaign and exposes the pieces the screening layers need:

    * :meth:`lease` — make a ligand one of any number of simultaneous
      residents (lazily creating the pool and its Eq. 1 warm-up on the
      first call) and get a :class:`LigandLease` whose
      ``evaluator_factory`` scores only that ligand. A lease binds nothing
      in this process: it mints a version the workers bind on first sight.
      Leases docked on different threads share the pool; their launches
      interleave freely. How many are live at once is the caller's
      pipeline depth.
    * :meth:`hint_next` — a no-op: with nothing bound here, there is
      nothing to stage ahead.
    * :meth:`acquire` / :meth:`evaluator_factory` — the single-resident
      form for callers that dock one ligand at a time: each acquire
      releases the previous one's lease and takes a new one.

    The Eq. 1 measurement from pool start holds for every ligand, as the
    paper keeps its shares for the whole screening (§3.3). A poisoned
    ligand that kills a worker recycles the pool (``host.pool.recycles``)
    without dropping the bindings or the weights; the raised
    :class:`~repro.errors.WorkerPoolError` flows into the campaign's retry
    loop, which repeats the dock without charging the ligand.
    """

    def __init__(
        self,
        receptor,
        *,
        n_workers: int,
        mode: str = "static",
        scoring=None,
    ) -> None:
        if n_workers < 1:
            raise ScoringError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in ("static", "dynamic"):
            raise ScoringError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        self.receptor = receptor
        self.n_workers = int(n_workers)
        self.mode = mode
        self.scoring = (
            scoring
            if scoring is not None
            else CutoffLennardJonesScoring(dtype=np.float32)
        )
        self._evaluator: ParallelSpotEvaluator | None = None
        self._acquired: LigandLease | None = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> ParallelSpotEvaluator | None:
        """The owned evaluator, or ``None`` before the first lease."""
        return self._evaluator

    def hint_next(self, ligand) -> None:
        """Accept the name of the ligand after the current one; do nothing.

        A lease binds nothing in this process, so there is nothing to stage
        ahead of it. The perf ledger's tracer still pins this name.
        """

    def acquire(self, ligand) -> _BindingEvaluator:
        """The single-resident :meth:`lease`: one ligand at a time.

        Releases the previous acquire's lease, takes one for ``ligand`` and
        returns its evaluator with a fresh launch trace. Re-acquiring the
        resident ligand (a retry) keeps its lease and mints no version.
        """
        held = self._acquired
        if held is None or held.ligand is not ligand:
            if held is not None:
                self._acquired = None
                held.release()
            self._acquired = held = self.lease(ligand)
        return _BindingEvaluator(self._evaluator, held.binding)

    def lease(self, ligand) -> "LigandLease":
        """Make ``ligand`` one of the pool's concurrent residents.

        Every live lease scores through its own :class:`_LigandBinding`, so
        one ligand's launches fill another's host-side gaps. The first call
        pays the full cost (pool spawn, Eq. 1 warm-up); every later one
        reads the ligand's shape and mints a version the workers bind on
        first sight. Take leases from the owning (main) thread — the first
        one forks the worker pool — dock each lease on any thread and
        :meth:`LigandLease.release` it when the ligand commits.
        """
        if self._closed:
            raise ScoringError("persistent host runtime is closed")
        if self._evaluator is None:
            # First lease: spawn the pool; this ligand rides the fork.
            self._evaluator = ParallelSpotEvaluator(
                self.scoring,
                self.receptor,
                ligand,
                n_workers=self.n_workers,
                mode=self.mode,
            )
            return LigandLease(self, ligand, self._evaluator.binding)
        t0 = time.perf_counter()
        binding = self._evaluator.bind_ligand(ligand)
        rebind_s = time.perf_counter() - t0
        obs.histogram("host.rebind.seconds").observe(rebind_s)
        return LigandLease(self, ligand, binding)

    def _validate_receptor(self, receptor) -> None:
        """Check dock() was called for the receptor this runtime serves."""
        if receptor is not self.receptor and not np.array_equal(
            receptor.coords, self.receptor.coords
        ):
            raise ScoringError(
                "persistent host runtime was built for a different receptor"
            )

    def evaluator_factory(self, receptor, ligand, spots) -> _BindingEvaluator:
        """The ``dock(evaluator_factory=...)`` seam over :meth:`acquire`.

        Validates that dock was called for the receptor this runtime serves.
        The pool stays owned by the runtime — ``dock()`` must not close it.
        """
        self._validate_receptor(receptor)
        return self.acquire(ligand)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down. Idempotent."""
        self._closed = True
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
