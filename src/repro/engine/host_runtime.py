"""Process-parallel host runtime: real cores, same answers.

Everything else in :mod:`repro.engine` *models* parallel hardware; this
module uses the machine. A :class:`ParallelSpotEvaluator` forks
``n_workers`` worker processes once, each on a duplex pipe of its own, and
drives them all from one thread, as the dispatcher of the paper's
Algorithm 2 drives its devices:

* **Binding** — every worker holds its own bound scorer, as each GPU scores
  from its own device-resident copy of the complex. The scoring factory
  and the receptor reach the workers through the fork, each ligand with
  the tasks; a worker binds each ligand itself, once. The parent only
  dispatches: it plans and records launches from the scorer's
  :class:`~repro.scoring.base.ScorerShape` and holds no pair tables.
* **Warm-up (Eq. 1)** — every answer carries the seconds its worker spent
  scoring it. The shares are equal (the homogeneous split) until every
  worker has answered :data:`WARMUP_TASKS` tasks of the real search; then
  each worker's seconds per modelled pair give ``Percent = t_worker /
  t_slowest``, shares ∝ 1/Percent, fixed for the pool's lifetime (§3.3).
* **Scheduling** — ``static`` LPT-packs a launch's jobs into one task per
  worker, each job where it would finish first given the Eq. 1 weights and
  the poses that worker already owes, and sends worker *i*'s task down
  pipe *i*: the share a warm-up earned is the share that worker scores.
  ``dynamic`` keeps the jobs in the parent in LPT order (largest first, as
  :mod:`repro.engine.device_worker` orders them) and sends the next down
  whichever pipe answers first — the paper's cooperative queue, with the
  host as dispatcher.

Determinism contract: for any scorer, worker count and mode,
``ParallelSpotEvaluator`` returns *bitwise* the energies
:class:`~repro.metaheuristics.evaluation.SerialEvaluator` returns. Work is
split only along boundaries the serial path has — whole chunks of the
serial chunk grid for plain scorers, whole spot groups for spot-aware ones
— and workers bind with the serial path's call on the same inputs.

**One launch path** — each resident ligand is a versioned
:class:`_LigandBinding`, and every task carries its rebind message
``(version, ligand, live_versions)``: a worker binds a version on first
sight, caches scorers by version and evicts those no longer live, so
ligands change without process churn and the Eq. 1 weights hold for all.
A launch is the ticketed pair :meth:`ParallelSpotEvaluator.submit` /
:meth:`~ParallelSpotEvaluator.harvest` against one binding. A worker that
dies is re-forked in its slot, and only the launches it held raise a
retryable :class:`~repro.errors.WorkerPoolError`.

**One thread** — no lock and no thread of its own: one thread submits,
waits (:meth:`~ParallelSpotEvaluator.pump`: one
``multiprocessing.connection.wait`` over every pipe and process sentinel)
and harvests, for every ligand in flight. A campaign pipeline interleaves
its ligands' launches on that thread, so the parent is single-threaded
whenever it forks, the re-fork of a dead worker included.

**Lifecycle** — :class:`PersistentHostRuntime` is the campaign's owner:
:meth:`~PersistentHostRuntime.lease` mints a ligand's version (the first
call forks the workers and returns without waiting for them) and returns
a :class:`LigandLease`, whose ``evaluator_factory`` is the ``dock()`` seam
and whose
:meth:`~LigandLease.release` retires the binding. Pipeline depth is how
many leases are live at once; ``acquire()`` is the single-resident form.
A one-shot ``dock(host_workers=N)`` builds a bare
:class:`ParallelSpotEvaluator` around its one ligand and closes it on exit.
"""

from __future__ import annotations

import contextlib
import itertools
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.constants import FLOAT_DTYPE
from repro.engine.partition import eq1_weights
from repro.errors import ScoringError, WorkerPoolError
from repro.metaheuristics.evaluation import EvaluationStats, LaunchRecord
from repro.scoring.base import BoundScorer, ScorerShape, ScoringFunction, spot_groups
from repro.scoring.cutoff import CutoffLennardJonesScoring

__all__ = [
    "HostWarmupResult",
    "LaunchTicket",
    "LigandLease",
    "ParallelSpotEvaluator",
    "PersistentHostRuntime",
    "WARMUP_TASKS",
    "load_pool_stack",
]

#: ``multiprocessing`` and its ``connection.wait``, bound by
#: :func:`load_pool_stack`: a process that docks serially never imports them.
mp = wait = None


def load_pool_stack() -> None:
    """Import ``multiprocessing``: its fork context and its pipes. Idempotent.

    Every pool this module builds calls it first. Call it earlier, in
    set-up, where a pool is known to be coming (a campaign runner with
    ``host_workers > 0`` does): otherwise the import lands inside whatever
    call builds the pool, such as a campaign's first lease.
    """
    global mp, wait
    import multiprocessing as mp
    import multiprocessing.popen_fork  # noqa: F401  (what Process.start forks with)
    from multiprocessing.connection import wait


#: Answered tasks per worker whose scoring seconds make the Eq. 1
#: measurement. On two identical workers (1,500 x 24 complex, 8 spots,
#: BLAS 1 thread, 12 fresh dynamic pools each) worker 0's share over its
#: first k tasks had an sd of 0.030-0.040 at k = 16-32 and 0.018-0.025 at
#: k = 64 with 48-pose launches, 0.034-0.059 and 0.028-0.049 with 512-pose
#: ones; the same pools' later sustained shares had an sd of 0.009-0.052,
#: so ~0.02 is the floor any per-pool measurement stands on.
WARMUP_TASKS: int = 64

#: How long :meth:`ParallelSpotEvaluator.close` lets a worker finish its
#: task and exit before killing it.
_CLOSE_TIMEOUT_S: float = 10.0

#: Least modelled work (receptor × ligand × pose pairs) in one job of a
#: spot-aware scorer: 59 poses on a 1,500 × 24 complex, the grain the plain
#: path's chunk-grid jobs have for float32
#: (:data:`repro.scoring.base.CHUNK_BUDGET_BYTES` / 4). It was set when a
#: second task cost ~1.5 ms of CPU through a process-pool executor: at 48
#: poses a job per spot group ran 8.4 -> 6.3 ms alone in the pool but
#: 4.8 -> 5.8 ms beside another ligand's launch, +19% CPU either way. On
#: the pipes a second task costs 0.06-0.24 ms of parent CPU (48 poses alone
#: in the pool, BLAS 1 thread: 6.9 ms as one job, 4.1-4.9 ms as two); beside
#: another launch it has not been re-timed, so the grain stays where it was
#: until ROADMAP item 2 re-measures it.
_MIN_JOB_PAIRS: int = 2 * 1024 * 1024


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
#: The parent-side end of every live worker pipe in this process. A worker
#: closes all of them as it starts, its own pipe's included: holding any
#: would keep that pipe open after the parent died, and its worker would
#: wait for a task forever instead of reading EOF.
_PARENT_ENDS: set = set()

#: Pose-count histogram edges (powers of four up to 256k poses; fixed for
#: snapshot determinism).
_POSE_COUNT_EDGES: tuple[float, ...] = tuple(float(4**k) for k in range(10))


def _worker_main(index, conn, inherited, scoring, receptor) -> None:
    """One worker's life: score tasks until EOF.

    The scoring factory and the receptor arrive through the fork, the same
    for a first worker and a re-forked one; ligands arrive with the tasks.
    A task ``(id, jobs, (version, ligand, live_versions))`` is answered
    ``(id, reply)``: the :func:`_run_tasks` result, or the exception
    scoring raised, pickled by :func:`_answer`. A version is bound on first
    sight (the serial path's ``bind`` call, so its tables are bitwise the
    serial ones) and cached until no longer live. EOF — the parent closed
    the pipe or died — ends the worker.
    """
    import signal  # here: loading it costs a process that never forks ~0.2 MB

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    for end in inherited:
        end.close()
    scorers: dict[int, BoundScorer] = {}
    try:
        while True:
            task_id, tasks, (version, ligand, live) = conn.recv()
            try:
                if version not in scorers:
                    scorers[version] = scoring.bind(receptor, ligand)
                for stale in [v for v in scorers if v != version and v not in live]:
                    del scorers[stale]
                reply = _run_tasks(index, scorers[version], tasks)
            except Exception as exc:  # the launch's error, raised at harvest
                exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
                reply = exc
            conn.send_bytes(_answer(task_id, reply))
    except (EOFError, OSError):
        pass


def _answer(task_id: int, reply) -> bytes:
    """``(task_id, reply)`` pickled for the pipe.

    A reply that will not cross it becomes a :class:`ScoringError` carrying
    its text, still charged to the launch. An error is unpickled here once
    as well: one whose ``__init__`` does not take its own ``args`` pickles
    but would fail to unpickle in the parent.
    """
    pickler = mp.reduction.ForkingPickler
    try:
        data = pickler.dumps((task_id, reply))
        if isinstance(reply, BaseException):
            pickler.loads(data)
        return data
    except Exception:
        text = traceback.format_exc()
        if isinstance(reply, BaseException):
            text = "".join(traceback.format_exception(reply)) + text
        error = ScoringError(f"a host worker's reply did not cross its pipe:\n{text}")
        return pickler.dumps((task_id, error))


def _run_tasks(
    index: int,
    scorer: BoundScorer,
    tasks: list[tuple[np.ndarray | None, np.ndarray, np.ndarray]],
) -> tuple[list[np.ndarray], float, dict | None]:
    """Score worker ``index``'s share of a launch: a list of (spot ids, t, q).

    Jobs of a spot-aware scorer carry their poses' spot ids and go through
    ``score_spots``; plain jobs carry ``None`` and go through ``score``.

    Returns ``(score_arrays, seconds, stats)``. ``seconds`` is the time
    spent scoring (binding is not in it): the parent's Eq. 1 measurement.
    ``stats`` is the worker's telemetry for this task — a local snapshot
    document plus the task's monotonic start time (the parent turns
    submit→start into the queue-wait metric) — or ``None`` when telemetry
    was disabled at fork time. Collection
    never touches the scoring arithmetic: energies are bitwise identical
    with or without it.
    """
    started_s = time.monotonic()
    local = obs.Telemetry() if obs.enabled() else None
    out = []
    n_poses = 0
    seconds = 0.0
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
            elapsed = time.perf_counter() - t0
            seconds += elapsed
            if local is not None:
                n_poses += translations.shape[0]
                local.histogram("host.worker.task_seconds", worker=index).observe(
                    elapsed
                )
        batch_tags["tasks"] = len(tasks)
        batch_tags["poses"] = n_poses
    if local is None:
        return out, seconds, None
    local.counter("host.worker.poses", worker=index).inc(n_poses)
    return out, seconds, {
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

    ``measured_s[i]`` is worker *i*'s scoring seconds per modelled pair
    (poses x receptor x ligand atoms) over its first :data:`WARMUP_TASKS`
    answered tasks; ``percent[i] = measured_s[i] / measured_s.max()`` (1.0
    for the slowest worker); ``weights ∝ 1/percent`` and sum to 1.
    """

    measured_s: np.ndarray
    percent: np.ndarray
    weights: np.ndarray


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


@dataclass(eq=False, slots=True)
class LaunchTicket:
    """One in-flight launch: the handle between ``submit`` and ``harvest``.

    Holds the launch's poses and rebind message for the tasks still to be
    sent, the output array their answers are routed into, and what records
    the ``host.launch`` span begun at submit: it is recorded at harvest, so
    the traced duration spans queue wait + scoring, and launches of several
    ligands may overlap without nesting.
    """

    binding: _LigandBinding
    n: int
    out: np.ndarray | None = None
    poses: tuple = ()  # (spot ids or None, translations, quaternions)
    rebind: tuple = ()
    submit_s: float = 0.0
    n_jobs: int = 0
    waiting: int = 0  # tasks booked and not yet answered
    error: BaseException | None = None  # what harvest raises
    stats: list = field(default_factory=list)  # worker telemetry, one per task
    span_tags: dict = field(default_factory=dict)
    end_span: object = None  # records the host.launch span (obs.span_start)
    done: bool = False

    @property
    def ready(self) -> bool:
        """Every task answered, or the launch failed: harvest will not block."""
        return not self.waiting or self.error is not None


@dataclass(eq=False, slots=True)
class _Task:
    """Some of one launch's jobs, bound for one worker's pipe."""

    ticket: LaunchTicket
    jobs: list[_Job]

    @property
    def poses(self) -> int:
        return sum(job.rows.size for job in self.jobs)


@dataclass(eq=False)
class _Worker:
    """The parent's side of one worker: its process, its pipe, what it owes."""

    index: int
    process: object
    conn: object
    owed: dict = field(default_factory=dict)  # task id -> booked _Task, unanswered
    owed_poses: int = 0

    def retire(self) -> int:
        """Close the pipe and reap the process, killed if it lingers; its exit code."""
        _PARENT_ENDS.discard(self.conn)
        self.conn.close()
        self.process.join(_CLOSE_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        return self.process.exitcode


class ParallelSpotEvaluator:
    """Evaluator that scores launches on worker processes it forks and owns.

    Implements the :class:`~repro.metaheuristics.evaluation.Evaluator`
    protocol: it drops in wherever a
    :class:`~repro.metaheuristics.evaluation.SerialEvaluator` does,
    recording identical launch traces and returning bitwise identical
    energies (see module docstring).

    Parameters
    ----------
    scoring, receptor, ligand:
        The scoring factory and the complex. The parent reads only
        ``ligand``'s :meth:`~repro.scoring.base.ScoringFunction.shape` (the
        construction-time :attr:`binding`); the workers inherit the factory
        and the receptor through the fork and bind ``ligand``, and every
        later ligand (:meth:`bind_ligand`), themselves from its tasks.
    n_workers:
        Worker processes (≥ 1), each forked once on a pipe of its own. The
        constructor does not wait for them; their shares are equal until
        each has answered :data:`WARMUP_TASKS` tasks, then fixed by Eq. 1
        (:attr:`warmup_result`).
    mode:
        ``"static"`` (one task per worker, placed by the Eq. 1 weights and
        the poses each worker owes, scored by that worker) or
        ``"dynamic"`` (the parent feeds jobs in LPT order to whichever
        worker answers first).

    A worker that dies is re-forked in its slot, and the launches it held
    raise a retryable :class:`~repro.errors.WorkerPoolError`. One thread
    drives the evaluator: it submits every launch, waits in :meth:`pump`
    and harvests; no thread of its own runs here and nothing is locked.
    Use as a context manager, or call :meth:`close`.
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
                "(the receptor and the scoring factory are inherited, not pickled)"
            )
        self.scoring = scoring
        self.receptor = receptor
        self.n_workers = int(n_workers)
        self.mode = mode
        self.stats = EvaluationStats()
        self._version = 0
        self._closed = False
        self._bindings: dict[int, _LigandBinding] = {}
        self._inflight: dict[int, int] = {}  # binding version -> live tickets
        self._idle_mark: float | None = None
        self._task_ids = itertools.count()
        self._backlog: deque[_Task] = deque()  # dynamic mode: jobs not yet sent
        self._workers: list[_Worker] = []
        #: The construction-time ligand's binding: what :meth:`evaluate`
        #: scores, and the first lease of a campaign runtime.
        self.binding = _LigandBinding(
            version=0, ligand=ligand, shape=scoring.shape(receptor, ligand)
        )
        self._bindings[0] = self.binding
        #: The shares :meth:`_book` plans with: equal until :meth:`_measure`
        #: fixes them by Eq. 1, then this array for the pool's lifetime.
        self.weights = np.full(self.n_workers, 1.0 / self.n_workers)
        #: The fixed Eq. 1 decision; ``None`` until then.
        self.warmup_result: HostWarmupResult | None = None
        # Per slot: tasks counted so far, their scoring seconds and pairs.
        self._timed = np.zeros((3, self.n_workers))
        try:
            for index in range(self.n_workers):
                self._workers.append(self._fork(index))
        except BaseException:
            self.close()
            raise
        self._idle_mark = time.monotonic()

    # ------------------------------------------------------------------
    def _fork(self, index: int) -> _Worker:
        """Fork worker ``index`` on a new pipe (see :func:`_worker_main`).

        It gets every parent-side pipe end alive in this process to close.
        """
        ours, theirs = mp.Pipe()
        process = mp.get_context("fork").Process(  # the receptor is inherited
            target=_worker_main,
            args=(index, theirs, (*_PARENT_ENDS, ours), self.scoring, self.receptor),
            name=f"repro-host-worker-{index}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            theirs.close()
        _PARENT_ENDS.add(ours)
        return _Worker(index, process, ours)

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

    def _book(self, ticket: LaunchTicket, jobs: list[_Job]) -> None:
        """Book one launch's jobs in LPT order and send what is placed.

        ``static`` packs them into one task per worker, task *i* for worker
        *i*: each job lands where it would finish first, counting the Eq. 1
        weights and the poses every worker already owes (a one-job launch
        goes to the heaviest worker unless that one is busier), so
        concurrent launches spread out. ``dynamic`` queues one task per
        job, largest first, for whichever worker answers first. The modes
        differ in this grouping only.
        """
        lpt = sorted(jobs, key=lambda job: (-job.rows.size, job.spot))
        if self.mode == "dynamic":
            ticket.waiting = len(lpt)
            self._backlog.extend(_Task(ticket, [job]) for job in lpt)
            self._feed()
            return
        loads = np.array([worker.owed_poses for worker in self._workers], dtype=float)
        buckets: list[list[_Job]] = [[] for _ in range(self.n_workers)]
        for job in lpt:
            worker = int(np.argmin((loads + job.rows.size) / self.weights))
            buckets[worker].append(job)
            loads[worker] += job.rows.size
        ticket.waiting = sum(1 for bucket in buckets if bucket)
        for worker, bucket in zip(self._workers, buckets):
            if bucket:
                self._post(worker, _Task(ticket, bucket))

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
        """Score one launch across the workers; record it like the serial path.

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
        self._check_open()
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
        ticket = LaunchTicket(binding=binding, n=n)
        if n == 0:
            ticket.out = np.empty(0, dtype=FLOAT_DTYPE)
            ticket.done = True
            return ticket
        jobs = self._plan(spot_ids, binding.shape)
        ticket.out = np.empty(n, dtype=FLOAT_DTYPE)
        ticket.n_jobs = len(jobs)
        spot_aware = binding.shape.supports_spot_scoring
        ticket.poses = (spot_ids if spot_aware else None, translations, quaternions)
        ticket.rebind = self._binding_message(binding)
        obs.counter("host.launches", mode=self.mode).inc()
        obs.counter("host.poses", mode=self.mode).inc(n)
        for job in jobs:
            obs.histogram("host.job.poses", edges=_POSE_COUNT_EDGES).observe(
                job.rows.size
            )
        ticket.span_tags = {"mode": self.mode, "kind": kind, "poses": n}
        ticket.end_span = obs.span_start("host.launch", ticket.span_tags)
        ticket.submit_s = now = time.monotonic()
        self._book(ticket, jobs)
        if not self._inflight and self._idle_mark is not None:
            # the pool sat idle between the last harvest and this submit
            obs.counter("host.pool.idle.seconds").inc(max(0.0, now - self._idle_mark))
        if any(version != binding.version for version in self._inflight):
            # poses overlapping another resident ligand's in-flight work:
            # the pipeline is actually filling barrier gaps
            obs.counter("host.pipeline.fill.poses").inc(n)
        self._inflight[binding.version] = self._inflight.get(binding.version, 0) + 1
        return ticket

    def _check_open(self) -> None:
        if self._closed:
            raise ScoringError("parallel evaluator is closed")

    # ------------------------------------------------------------------
    # dispatch: the parent's ends of the pipes
    # ------------------------------------------------------------------
    def _post(self, worker: _Worker, task: _Task) -> None:
        """Book ``task`` on ``worker`` and send it down the worker's pipe."""
        task_id = next(self._task_ids)
        worker.owed[task_id] = task
        worker.owed_poses += task.poses
        ticket = task.ticket
        ids, t, q = ticket.poses
        jobs = [
            (None if ids is None else ids[job.rows], t[job.rows], q[job.rows])
            for job in task.jobs
        ]
        try:
            worker.conn.send((task_id, jobs, ticket.rebind))
        except OSError:
            pass  # a dead worker: the pump buries it and fails this launch
        except Exception as exc:  # it did not pickle, so nothing was sent
            del worker.owed[task_id]
            worker.owed_poses -= task.poses
            ticket.error = ticket.error or exc

    def _feed(self) -> None:
        """Dynamic mode: post the backlog's next job to every idle worker.

        A worker owes one job at most, so the next goes to whichever pipe
        answers first; jobs of a failed launch are dropped.
        """
        for worker in self._workers:
            while not worker.owed and self._backlog:
                task = self._backlog.popleft()
                if task.ticket.error is None:
                    self._post(worker, task)

    def harvest(self, ticket: LaunchTicket) -> np.ndarray:
        """Block on a submitted launch and return its energies.

        Folds the workers' telemetry into this process's session and records
        the launch span. Idempotent on success. A launch a dying worker held
        raises a retryable :class:`~repro.errors.WorkerPoolError`; a
        scorer's error re-raises.
        """
        if ticket.done:
            if ticket.out is None:
                raise ScoringError("launch ticket already failed")
            return ticket.out
        try:
            while not ticket.ready:
                self.pump()
            if ticket.error is not None:
                raise ticket.error
            # The steal count lands as a late annotation on the launch
            # span's tags (the trace exporter turns it into an instant event
            # at the launch's end).
            steals = self._harvest(ticket)
            if steals:
                ticket.span_tags["steals"] = steals
        except BaseException as exc:
            # later answers and unsent jobs are dropped
            ticket.error = ticket.error or exc
            ticket.out = None
            self._finish_ticket(ticket)
            raise
        self._finish_ticket(ticket)
        # Worker-session telemetry just folded in — let any live sampler
        # record the merge (rate-limited; a cheap registry check otherwise).
        obs.mark("host.harvest")
        return ticket.out

    def pump(self) -> None:
        """Block in one wait on every pipe and process sentinel; route what
        arrived, re-fork the dead.

        Every launch's answers are routed, whichever ligand submitted it,
        so a caller with several launches in flight pumps until one of its
        tickets is :attr:`~LaunchTicket.ready`. A dead worker shows up as
        EOF or a fired sentinel; answers it sent before it died are routed
        first. A live worker whose answer will not unpickle is replaced the
        same way, so no launch waits on it.
        """
        self._check_open()
        handles = {}
        for worker in self._workers:
            handles[worker.conn] = handles[worker.process.sentinel] = worker
        for worker in dict.fromkeys(handles[h] for h in wait(list(handles))):
            why = None
            try:
                while worker.conn.poll():
                    self._route(worker, *worker.conn.recv())
                if worker.process.is_alive():
                    continue
            except (EOFError, OSError):
                pass
            except Exception as exc:  # an answer that would not unpickle
                why = f"its answer would not unpickle: {exc!r}"
            self._replace(worker, why)

    def _route(self, worker: _Worker, task_id: int, reply) -> None:
        """File one answer into its launch and its worker's Eq. 1
        measurement; in dynamic mode, feed the worker."""
        task = worker.owed.pop(task_id)
        worker.owed_poses -= task.poses
        ticket = task.ticket
        ticket.waiting -= 1
        if isinstance(reply, BaseException):
            ticket.error = ticket.error or reply
        else:
            scores, seconds, stat = reply
            if self.warmup_result is None:
                pairs = task.poses * ticket.binding.shape.n_pairs
                self._measure(worker.index, seconds, pairs)
            if ticket.error is None:
                try:
                    for job, energies in zip(task.jobs, scores):
                        ticket.out[job.rows] = energies
                except Exception as exc:  # a scorer's answer of the wrong shape
                    ticket.error = exc
                if stat is not None:
                    ticket.stats.append(stat)
        if self.mode == "dynamic":
            self._feed()

    def _measure(self, index: int, seconds: float, pairs: int) -> None:
        """Count one answered task towards worker ``index``'s Eq. 1 time.

        Once every worker has answered :data:`WARMUP_TASKS` tasks, their
        seconds per modelled pair fix the weights, once: the pool keeps them
        for every later ligand, and a re-forked worker keeps its slot's.
        """
        timed = self._timed
        if timed[0, index] < WARMUP_TASKS:
            timed[:, index] += (1, seconds, pairs)
        if timed[0].min() < WARMUP_TASKS:
            return
        measured = timed[1] / timed[2]
        percent, self.weights = eq1_weights(measured)
        obs.counter("host.warmups").inc()
        # The Eq. 1 share decision on the record (doctor and the sampler
        # compare it with the poses each worker actually scored).
        for i, weight in enumerate(self.weights):
            obs.gauge("host.warmup.weight", worker=i).set(float(weight))
        self.warmup_result = HostWarmupResult(
            measured_s=measured, percent=percent, weights=self.weights
        )

    def _replace(self, dead: _Worker, why: str | None = None) -> None:
        """Re-fork a dead worker in its slot; fail only the launches it held.

        The new worker starts as every worker does, binding lazily from the
        next rebind message; siblings, bindings, the Eq. 1 weights and the
        slot's measurement so far stay. A live worker whose pipe went bad
        (``why``) is retired first: it reads EOF and exits.
        """
        code = dead.retire()
        if self._closed:
            return
        self._workers[dead.index] = self._fork(dead.index)
        for task in dead.owed.values():
            task.ticket.error = task.ticket.error or WorkerPoolError(
                f"host worker {dead.index} crashed mid-launch "
                f"({why or f'exit code {code}'}); it was recycled — the "
                "bindings and Eq. 1 weights survive, retry the launch"
            )
        obs.counter("host.pool.recycles").inc()
        if self.mode == "dynamic":
            self._feed()

    def _finish_ticket(self, ticket: LaunchTicket) -> None:
        """Close out a ticket: in-flight accounting, idle clock, launch span."""
        if ticket.done:
            return
        ticket.done = True
        version = ticket.binding.version
        self._inflight[version] -= 1
        if not self._inflight[version]:
            del self._inflight[version]
        if not self._inflight:
            self._idle_mark = time.monotonic()
        ticket.end_span()

    def _harvest(self, ticket: LaunchTicket) -> int:
        """Merge per-worker telemetry into this process's session.

        The explicit merge-at-join step of the multiprocessing contract:
        each worker returned a local snapshot; here they fold into the
        parent registry, plus the parent-only derived metrics — queue wait
        (task start minus submit, both on the shared monotonic clock) and in
        dynamic mode the steal count (tasks a worker pulled beyond the even
        per-worker share, i.e. work it took from a slower sibling). Returns
        the launch's steal count (0 outside dynamic mode).
        """
        if not ticket.stats or not obs.enabled():
            return 0
        tasks_by_worker = Counter(int(stat["worker"]) for stat in ticket.stats)
        for stat in ticket.stats:
            obs.merge(stat["telemetry"])
            obs.histogram("host.queue_wait_seconds").observe(
                max(0.0, stat["started_s"] - ticket.submit_s)
            )
        if self.mode == "dynamic" and self.n_workers > 1:
            even_share = -(-ticket.n_jobs // self.n_workers)  # ceil
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
        self._check_open()
        shape = self.scoring.shape(self.receptor, ligand)
        self._version += 1
        binding = _LigandBinding(version=self._version, ligand=ligand, shape=shape)
        self._bindings[binding.version] = binding
        obs.counter("host.pool.reuses").inc()
        return binding

    def release_binding(self, binding: _LigandBinding) -> None:
        """Retire a binding; workers evict its scorer at their next rebind. Idempotent."""
        self._bindings.pop(binding.version, None)

    def _binding_message(self, binding: _LigandBinding) -> tuple:
        """The versioned rebind message every one of this binding's tasks carries.

        ``(version, ligand, live_versions)`` — the ligand for a worker that
        has not bound this version yet, the live set so workers evict
        scorers of released ligands.
        """
        return (binding.version, binding.ligand, tuple(sorted(self._bindings)))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pipe, so the workers read EOF and exit; reap them. Idempotent."""
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.retire()

    def __enter__(self) -> "ParallelSpotEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class LigandLease:
    """One ligand's residency on the shared pool (see ``lease()``), and its
    evaluator.

    Holds the ligand's :class:`_LigandBinding` between :meth:`PersistentHostRuntime.lease`
    and :meth:`release`. It implements the Evaluator protocol (``evaluate``
    + ``stats``) by routing every launch through the shared pool with this
    binding and its *own* launch trace, so the ligand's trace is bitwise
    identical to a run that had the pool to itself; a caller that drives a
    dock's launches itself submits them with ``binding=lease.binding,
    stats=lease.stats``. :meth:`evaluator_factory` is the ``dock()`` seam
    for this ligand only. Never closed by a dock: the runtime owns the pool.
    """

    def __init__(self, runtime: "PersistentHostRuntime", ligand, binding) -> None:
        self.runtime = runtime
        self.ligand = ligand
        self.binding = binding
        self.stats = EvaluationStats()
        self._released = False

    def evaluator_factory(self, receptor, ligand, spots) -> "LigandLease":
        """Per-lease ``dock(evaluator_factory=...)``: validates, and starts a
        fresh launch trace, so a retried dock traces only its own attempt."""
        if self._released:
            raise ScoringError("ligand lease was already released")
        self.runtime._validate_receptor(receptor)
        if ligand is not self.ligand:
            raise ScoringError(
                "ligand lease was taken for a different ligand "
                "(one lease per docked ligand)"
            )
        self.stats = EvaluationStats()
        return self

    def evaluate(
        self,
        spot_ids: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        kind: str = "population",
    ) -> np.ndarray:
        pool = self.runtime.evaluator
        return pool.harvest(
            pool.submit(
                spot_ids, translations, quaternions, kind,
                binding=self.binding, stats=self.stats,
            )
        )

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
      residents (lazily forking the pool on the first call) and get a
      :class:`LigandLease` whose ``evaluator_factory`` scores only that
      ligand. A lease binds nothing in this process: it mints a version
      the workers bind on first sight. Live leases share the pool, and
      their launches interleave freely on the one thread that drives it.
      How many are live at once is the caller's pipeline depth.
    * :meth:`hint_next` — a no-op: with nothing bound here, there is
      nothing to stage ahead.
    * :meth:`acquire` / :meth:`evaluator_factory` — the single-resident
      form for callers that dock one ligand at a time: each acquire
      releases the previous one's lease and takes a new one.

    The Eq. 1 weights, fixed from the pool's first :data:`WARMUP_TASKS`
    tasks per worker, hold for every later ligand, as the paper keeps its
    shares for the whole screening (§3.3). A poisoned
    ligand that kills a worker gets that worker re-forked
    (``host.pool.recycles``) without dropping the bindings or the weights;
    the :class:`~repro.errors.WorkerPoolError` its launches raise flows into
    the campaign's retry loop, which repeats the dock without charging the
    ligand.
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

    def acquire(self, ligand) -> LigandLease:
        """The single-resident :meth:`lease`: one ligand at a time.

        Releases the previous acquire's lease, takes one for ``ligand`` and
        returns it with a fresh launch trace. Re-acquiring the resident
        ligand (a retry) keeps its lease and mints no version.
        """
        held = self._acquired
        if held is None or held.ligand is not ligand:
            if held is not None:
                self._acquired = None
                held.release()
            self._acquired = held = self.lease(ligand)
        held.stats = EvaluationStats()
        return held

    def lease(self, ligand) -> "LigandLease":
        """Make ``ligand`` one of the pool's concurrent residents.

        Every live lease scores through its own :class:`_LigandBinding`, so
        one ligand's launches fill another's host-side gaps. The first call
        forks the workers and does not wait for them; every later one
        reads the ligand's shape and mints a version the workers bind on
        first sight. One thread drives the pool: it takes the leases (the
        first one forks the workers), submits and harvests every lease's
        launches, and releases each (:meth:`LigandLease.release`) when its
        ligand commits. A dock retry's backoff sleeps on that thread, which pauses
        the loop but not work already sent to the workers.
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

    def evaluator_factory(self, receptor, ligand, spots) -> LigandLease:
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
