"""Campaign orchestration: drive shards of ligands through the host runtime.

A :class:`CampaignRunner` follows the campaign spine in one process: its
:class:`~repro.campaign.settings.DockSettings` say what is done to a ligand,
:func:`~repro.campaign.library.plan_shards` in what order, :func:`dock_ligand`
does it (what a fleet node runs too), and a
:class:`~repro.campaign.commit.CampaignCommitter` makes it durable: every
completed ligand is committed before the next one starts, and
:meth:`resume` continues exactly where a crash, SIGKILL, or Ctrl-C left off.
The store is the one durable log: it alone decides which shards are
finished, and the flight records beside it, written as events happen, are
the record of what happened when that ``repro-vs doctor`` reads.

Determinism: ligand ``ordinal`` is always docked with seed ``seed +
ordinal`` (the same rule ``screen()`` has always used), so an interrupted
and resumed campaign produces bitwise-identical scores to an uninterrupted
one, for any shard size or worker count.

Runtime ownership: with ``host_workers > 0`` the campaign owns one
:class:`repro.engine.host_runtime.PersistentHostRuntime` for its whole
lifetime — the worker pool is forked once, its Eq. 1 weights are fixed once
from the first tasks it scores, and every ligand docks on a lease of that
pool (the workers bind it; this process binds nothing). ``pipeline_depth``
is how many leases are live at once: that many
ligands' docks are in flight, each a generator of scoring launches
(:func:`dock_ligand_steps`, with its own seed and launch trace), and one
loop on the main thread drives them all — it submits each yielded launch
through its ligand's lease, waits on the worker pipes until one is
answered, and resumes that ligand. Results commit in ordinal order, so the
durability layer cannot tell the difference; depth 1 is one lease in
flight, and the default is one lease more than there are workers, so a
worker finishing one ligand's launch finds another's queued instead of
idling through the host-side step. No thread is started: the process is
single-threaded whenever the pool forks a worker. ``host_workers == 0`` is
the plain serial loop every parity test compares against: :func:`dock_ligand`
calls ``dock()``, which scores each launch as it is yielded.

Failure policy: per-ligand bounded retry with exponential backoff
(:func:`dock_with_retry`); a ligand that exhausts its attempts is recorded
``failed`` with the exception text and the campaign continues past it
(with ``raise_on_failure`` its own exception propagates instead, before
anything is recorded). A
pool worker that dies is re-forked in its slot by the runtime — its
siblings, the bindings and the Eq. 1 weights survive — and the docks
whose launches it held are repeated without charging their ligands. A
retry's backoff sleeps on the main thread: it pauses the loop, not the
launches already sent to the workers.
``KeyboardInterrupt``/``SystemExit`` are never swallowed — they are the
crash resume exists for.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator

from repro import observability as obs
from repro.engine.host_runtime import PersistentHostRuntime, load_pool_stack
from repro.errors import CampaignError, WorkerPoolError
from repro.metaheuristics.evaluation import drive
from repro.metaheuristics.template import MetaheuristicSpec
from repro.molecules.spots import Spot, find_spots
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import ScoringFunction
from repro.vs.docking import dock, dock_steps

from repro.campaign.backends import create_store, open_store
from repro.campaign.commit import CampaignCommitter, CampaignProgress

# ``iter_shards`` is not called here: the perf harness's traced pass wraps it
# under this module's name as well as under the library's.
from repro.campaign.library import (  # noqa: F401
    LigandSource,
    iter_shards,
    plan_shards,
    receptor_fingerprint,
)
from repro.campaign.settings import DockSettings
from repro.observability.flight import flight_dir, flight_event, flight_recorder

if TYPE_CHECKING:  # annotations only: neither loads with a campaign
    from repro.campaign.store import CampaignStore
    from repro.engine.host_runtime import LaunchTicket, LigandLease
    from repro.hardware.node import NodeSpec

__all__ = [
    "CampaignRunner",
    "CampaignProgress",
    "campaign_config",
    "config_hash",
    "dock_ligand",
    "dock_ligand_steps",
    "dock_with_retry",
    "open_runtime",
    "outcome_row",
]

#: Config keys that affect the science (scores/ranking); the hash covers
#: exactly these. Execution knobs (host workers, balancing mode, node model)
#: may change freely between run and resume — results are bitwise identical
#: either way.
HASHED_KEYS = (
    "receptor_hash",
    "library",
    "n_spots",
    "metaheuristic",
    "scoring",
    "seed",
    "workload_scale",
    "shard_size",
    # The removed calibration-table kernel selection: always null now, which
    # is what every store written without it hashed.
    "autotune",
    "calibration_hash",
)


def _config_record(
    receptor: Receptor,
    source: LigandSource,
    settings: DockSettings,
    shard_size: int,
    receptor_descriptor: dict | None,
) -> dict:
    return {
        "schema_version": 1,
        "receptor_hash": receptor_fingerprint(receptor),
        "receptor_title": receptor.title or "receptor",
        "receptor": receptor_descriptor or {"kind": "opaque"},
        "library": source.descriptor(),
        **settings.stored(),
        "shard_size": int(shard_size),
    }


def campaign_config(
    receptor: Receptor,
    source: LigandSource,
    *,
    n_spots: int,
    metaheuristic: str | MetaheuristicSpec,
    scoring: ScoringFunction | None,
    seed: int,
    workload_scale: float,
    shard_size: int,
    node: NodeSpec | None,
    mode: str,
    receptor_descriptor: dict | None = None,
) -> dict:
    """Build the JSON-serialisable campaign configuration record."""
    settings = DockSettings(
        n_spots=n_spots,
        metaheuristic=metaheuristic,
        scoring=scoring,
        seed=seed,
        workload_scale=workload_scale,
        node=node,
        mode=mode,
    )
    return _config_record(receptor, source, settings, shard_size, receptor_descriptor)


def config_hash(config: dict) -> str:
    """Hash the result-affecting subset of a campaign config."""
    hashed = {
        **{key: config.get(key) for key in HASHED_KEYS},
        # The removed per-spot pruning option, off by default: every store
        # written without it hashed this, and keeps its hash.
        "prune_spots": False,
    }
    return hashlib.sha256(
        json.dumps(hashed, sort_keys=True).encode()
    ).hexdigest()


def dock_with_retry(
    dock_once: Callable[[], Generator],
    *,
    max_attempts: int,
    backoff_base: float,
    sleep: Callable[[float], None],
    **event_tags,
) -> Generator:
    """The bounded-retry dock loop every node runs, store-free.

    A generator: ``dock_once()`` is a generator that docks the ligand once,
    yielding the launches it leaves to the driver (:func:`dock_steps`'s)
    and returning the result; this yields them on. An exception — raised by
    the dock or thrown into it by the driver at a launch — is charged
    against the ligand's ``max_attempts`` poison budget, except a
    :class:`~repro.errors.WorkerPoolError`: a pool worker died under the
    dock (killed, possibly, by a co-resident ligand), a fault of the runtime,
    so the dock is repeated uncharged. Pool deaths are counted on their
    own and bounded by the same ``max_attempts``, so a ligand that kills
    its workers every time still ends ``failed``. Each retry leaves a
    ``dock.retry`` flight event carrying ``event_tags``.

    Returns ``{"ok": True, "result", "wall_s", "attempts"}`` or ``{"ok":
    False, "exc", "attempts"}``; ``attempts`` is every dock made, charged
    or not.
    """
    delay = backoff_base
    charged = pool_deaths = 0
    while True:
        t0 = time.perf_counter()
        try:
            result = yield from dock_once()
        except WorkerPoolError as exc:
            pool_deaths += 1
            obs.counter("campaign.retries.pool_death").inc()
            failure, exhausted = exc, pool_deaths >= max_attempts
        except Exception as exc:
            charged += 1
            failure, exhausted = exc, charged >= max_attempts
        else:
            # One clock read for both the histogram and the stored row —
            # they must agree.
            return {
                "ok": True,
                "result": result,
                "wall_s": time.perf_counter() - t0,
                "attempts": charged + pool_deaths + 1,
            }
        if exhausted:
            return {"ok": False, "exc": failure, "attempts": charged + pool_deaths}
        obs.counter("campaign.retries").inc()
        flight_event(
            "dock.retry",
            attempt=charged + pool_deaths,
            error=f"{type(failure).__name__}: {failure}",
            **event_tags,
        )
        sleep(delay)
        delay *= 2


def dock_ligand(
    settings: DockSettings,
    receptor: Receptor,
    spots: list[Spot],
    ordinal: int,
    ligand: Ligand,
    evaluator_factory=None,
    *,
    sleep: Callable[[float], None],
    **event_tags,
) -> dict:
    """Dock ligand ``ordinal`` of a campaign: what the serial runner and a
    fleet node call, so they cannot differ in what is done to a ligand (the
    pipelined runner drives the same :func:`dock_ligand_steps` on a lease).

    :func:`dock_with_retry` around one ``dock()`` at ``seed + ordinal``;
    ``evaluator_factory`` is the runtime of a campaign-owned pool, driven
    by the one thread that calls this. Returns its outcome dict and touches
    no store, so it may run in another process than the one that commits.
    """
    steps = dock_ligand_steps(
        settings, receptor, spots, ordinal, ligand,
        sleep=sleep, evaluator_factory=evaluator_factory, **event_tags,
    )
    return drive(steps, None)  # without a lease no launch is yielded


def dock_ligand_steps(
    settings: DockSettings,
    receptor: Receptor,
    spots: list[Spot],
    ordinal: int,
    ligand: Ligand,
    lease: LigandLease | None = None,
    *,
    sleep: Callable[[float], None],
    evaluator_factory=None,
    **event_tags,
) -> Generator:
    """:func:`dock_with_retry` docking ligand ``ordinal`` at ``seed +
    ordinal``, as a generator that returns the outcome dict.

    Without a ``lease`` each attempt is one ``dock()`` (serial, or on
    ``evaluator_factory``), which scores its own launches. With one, each
    attempt is :func:`dock_steps`, whose launches are yielded: the caller
    submits each with ``lease.binding`` and ``lease.stats`` (the attempt's
    fresh launch trace) and sends back its energies, or throws in the
    harvest's error. One thread drives the evaluator for every ligand in
    flight, so a retry's backoff sleeps on that thread: it pauses the loop,
    not the work already sent to the workers.
    """
    common = dict(
        spots=spots,
        metaheuristic=settings.metaheuristic,
        seed=settings.seed + ordinal,
        workload_scale=settings.workload_scale,
        node=settings.node,
        mode=settings.mode,
    )

    def dock_once():
        if lease is None:  # dock() scores its own launches: none is yielded
            return dock(
                receptor,
                ligand,
                scoring=settings.scoring,
                host_workers=settings.host_workers,
                parallel_mode=settings.parallel_mode,
                evaluator_factory=evaluator_factory,
                **common,
            )
        evaluator = lease.evaluator_factory(receptor, ligand, spots)
        return (yield from dock_steps(receptor, ligand, evaluator=evaluator, **common))

    return (
        yield from dock_with_retry(
            dock_once,
            max_attempts=settings.max_attempts,
            backoff_base=settings.backoff_base,
            sleep=sleep,
            ordinal=ordinal,
            **event_tags,
        )
    )


def outcome_row(outcome: dict) -> dict:
    """A dock outcome as the row a store commits and a ``result`` frame
    carries: plain JSON-safe scalars, ``ok`` first."""
    if not outcome["ok"]:
        exc = outcome["exc"]
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "attempts": outcome["attempts"],
        }
    result = outcome["result"]
    return {
        "ok": True,
        "score": float(result.best_score),
        "spot_index": int(result.best.spot_index),
        "evaluations": int(result.evaluations),
        "wall_seconds": float(outcome["wall_s"]),
        "simulated_seconds": float(result.simulated_seconds),
        "attempts": outcome["attempts"],
    }


def open_runtime(
    settings: DockSettings, receptor: Receptor
) -> PersistentHostRuntime | None:
    """The campaign-owned pool for ``settings`` (``None`` when it docks
    serially): the pool is forked and its Eq. 1 weights fixed once, every
    ligand after the first is a versioned rebind. Caller closes it."""
    if settings.host_workers == 0:
        return None
    return PersistentHostRuntime(
        receptor,
        n_workers=settings.host_workers,
        mode=settings.parallel_mode,
        scoring=settings.scoring,
    )


class CampaignRunner:
    """Execute (or continue) one durable screening campaign.

    Parameters mirror :func:`repro.vs.screening.screen` plus the durability
    knobs. ``run()`` makes ``store_path`` a columnar store directory
    (``resume()`` also opens an older build's SQLite file there);
    ``":memory:"`` gives the one-shot in-memory campaign ``screen()`` itself
    is built on (failures raise).
    """

    def __init__(
        self,
        receptor: Receptor,
        source: LigandSource,
        *,
        store_path: str | Path,
        n_spots: int = 16,
        metaheuristic: str | MetaheuristicSpec = "M2",
        scoring: ScoringFunction | None = None,
        seed: int = 0,
        workload_scale: float = 1.0,
        shard_size: int = 32,
        node: NodeSpec | None = None,
        mode: str = "gpu-heterogeneous",
        host_workers: int = 0,
        parallel_mode: str = "static",
        pipeline_depth: int | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        progress: Callable[[CampaignProgress], None] | None = None,
        raise_on_failure: bool = False,
        receptor_descriptor: dict | None = None,
        nodes: int = 0,
        cluster=None,
    ) -> None:
        #: What is done to one ligand, here or on a fleet node.
        self.settings = DockSettings(
            n_spots=n_spots,
            metaheuristic=metaheuristic,
            scoring=scoring,
            seed=seed,
            workload_scale=workload_scale,
            node=node,
            mode=mode,
            host_workers=host_workers,
            parallel_mode=parallel_mode,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
        )
        if host_workers > 0:
            # In set-up, not in run(): there it would land inside the first
            # lease, and a serial campaign never loads the pool stack.
            load_pool_stack()
        if nodes < 0:
            raise CampaignError(f"nodes must be >= 0, got {nodes}")
        if shard_size < 1:
            raise CampaignError(f"shard_size must be >= 1, got {shard_size}")
        if pipeline_depth is None:
            pipeline_depth = max(2, host_workers + 1)
        if pipeline_depth < 1:
            raise CampaignError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        self.receptor = receptor
        self.source = source
        self.store_path = str(store_path)
        self.shard_size = shard_size
        #: Ligands docked concurrently through the shared pool (needs
        #: ``host_workers > 0``): the number of live leases, one more than
        #: the workers unless given. An execution knob — never hashed;
        #: results are bitwise identical at every depth.
        self.pipeline_depth = int(pipeline_depth)
        self._runtime: PersistentHostRuntime | None = None
        # --- distributed execution -------------------------------------
        # nodes >= 2 delegates _execute to the cluster fleet (nodes in
        # {0, 1} keeps the in-process single-node path — a "1-node cluster"
        # exists only through the explicit ClusterCampaign API, where the
        # benchmark uses it for apples-to-apples scaling baselines).
        self.nodes = int(nodes)
        self.cluster = cluster
        self.cluster_spawn = True  # False = serve remote workers only (CLI)
        self.fleet = None  # set by _execute; tests reach processes here
        self._sleep = sleep
        self._progress = progress
        self.raise_on_failure = raise_on_failure
        self.config = _config_record(
            receptor, source, self.settings, shard_size, receptor_descriptor
        )
        # Recorded for visibility only: the pipeline depth is an execution
        # knob, deliberately outside HASHED_KEYS — a campaign at any depth
        # has one config hash and science digest.
        self.config["pipeline_depth"] = self.pipeline_depth
        self.config_hash = config_hash(self.config)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self) -> CampaignStore:
        """Start a fresh campaign; refuses to clobber an existing store.

        Returns the open store (caller closes it — or uses it as a context
        manager).
        """
        with obs.span("campaign.run", config=self.config_hash[:12]):
            store = create_store(self.store_path, self.config, self.config_hash)
            return self._execute(store, finished=set())

    def resume(self) -> CampaignStore:
        """Continue an interrupted campaign from its store.

        Verifies the store's config hash, re-queues every shard the store
        has not finished, and docks only ligands without a committed result.
        Resuming a completed campaign is a no-op. A ``<store>.journal`` an
        older build left beside the store is not opened.
        """
        with obs.span("campaign.resume", config=self.config_hash[:12]) as span_tags:
            store = open_store(self.store_path)
            try:
                if store.config.get("autotune"):
                    raise CampaignError(
                        f"store {self.store_path} records autotune: true, but "
                        "kernel selection by calibration table was removed in "
                        "this version; the campaign has to be re-run."
                    )
                if store.config_hash != self.config_hash:
                    raise CampaignError(
                        "campaign config mismatch: the store was created with "
                        f"config hash {store.config_hash[:12]}… but resume was "
                        f"given {self.config_hash[:12]}…. Receptor, library, "
                        "seed, spots, metaheuristic, scoring, workload scale "
                        "and shard size must all match the original run."
                    )
                if store.is_complete():
                    # Nothing to do; ranking is already final. Still a
                    # telemetry event — resume no-ops must stay observable.
                    span_tags["noop"] = True
                    obs.counter("campaign.resumes.noop").inc()
                    return store
                # A shard is settled iff the store says so. A shard whose
                # rows all survived re-runs as a no-op (begin_shard returns
                # every ordinal as done).
                finished = store.finished_shards()
            except Exception:
                store.close()
                raise
            return self._execute(store, finished=finished)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, store: CampaignStore, finished: set[int]) -> CampaignStore:
        # A 1-node fleet is only explicit opt-in: an attached ClusterConfig
        # (the multinode benchmark's apples-to-apples baseline) or a
        # remote-serving coordinator (cluster_spawn=False). Bare nodes=1
        # keeps the classic in-process path.
        if self.nodes >= 2 or (
            self.nodes == 1 and (self.cluster is not None or not self.cluster_spawn)
        ):
            from repro.cluster.fleet import ClusterCampaign

            self.fleet = ClusterCampaign(
                self, nodes=self.nodes, cluster=self.cluster, spawn=self.cluster_spawn
            )
            return self.fleet.execute(store, finished)
        spots = find_spots(self.receptor, self.settings.n_spots)
        committer = CampaignCommitter(
            store, total=self.source.count(), progress=self._progress
        )
        n_streamed = 0
        flight_recorder().attach(
            None
            if self.store_path == ":memory:"
            else flight_dir(self.store_path) / "runner.flight"
        )
        try:
            try:
                self._runtime = open_runtime(self.settings, self.receptor)
                if self._runtime is not None:
                    obs.gauge("host.pipeline.depth").set(self.pipeline_depth)
                # A finished shard has nothing built for it, so a resume
                # reaches its first dock without synthesising the ligands
                # already committed.
                for shard, titled in plan_shards(
                    self.source, self.shard_size, finished
                ):
                    n_streamed = shard.stop
                    if titled is None:
                        continue
                    with obs.span("campaign.shard", shard=shard.shard_id):
                        already_done = committer.begin_shard(
                            shard, [(o, t) for o, _, t in titled]
                        )
                        pending = [
                            item for item in titled if item[0] not in already_done
                        ]
                        if self._runtime is not None:
                            self._dock_shard_pipelined(committer, spots, pending)
                        else:
                            for ordinal, ligand, title in pending:
                                self._dock_one(committer, spots, ordinal, ligand, title)
                        committer.end_shard(shard)
                committer.end_campaign(n_streamed)
            except BaseException:
                # Crash path: everything committed so far is durable; the
                # caller never receives the store, so close it, then let it fly.
                store.close()
                raise
        finally:
            runtime, self._runtime = self._runtime, None
            if runtime is not None:
                runtime.close()
            flight_recorder().attach(None)
        return store

    def _dock_one(
        self, committer: CampaignCommitter, spots, ordinal: int, ligand, title: str
    ) -> None:
        """Dock one ligand serially, in-process, and commit it."""
        committer.store.mark_running(ordinal)
        outcome = dock_ligand(
            self.settings, self.receptor, spots, ordinal, ligand, sleep=self._sleep
        )
        self._commit(committer, ordinal, title, outcome)

    def _commit(
        self, committer: CampaignCommitter, ordinal: int, title: str, outcome: dict
    ) -> None:
        """Hand one dock outcome to the committer (main thread only).

        With ``raise_on_failure`` the dock's own exception propagates and
        nothing is recorded for the ligand.
        """
        if self.raise_on_failure and not outcome["ok"]:
            raise outcome["exc"]
        committer.commit(ordinal, title, outcome_row(outcome))

    def _dock_shard_pipelined(
        self, committer: CampaignCommitter, spots, pending: list
    ) -> None:
        """Dock one shard's pending ligands depth-at-a-time; commit in order.

        The one loop that docks through the runtime, on the main thread: up
        to ``pipeline_depth`` ligands hold leases on the shared pool, each
        a :func:`dock_ligand_steps` generator with one launch in flight, so
        one ligand's launches fill another's host-side gaps (at depth 1 a
        single lease is in flight and docks run strictly in ordinal order).
        The loop waits on the worker pipes until a launch is answered and
        resumes the ready ligands lowest ordinal first; ``mark_running``,
        the leases (the first one forks the pool) and ordinal-ordered
        commits happen here too, so store/resume semantics are byte-for-byte
        the serial loop's. Per-ligand seeds and launch sequences are
        untouched; only inter-ligand interleaving differs.
        """
        depth = min(self.pipeline_depth, max(1, len(pending)))
        admitted = 0
        lanes: dict[int, _Lane] = {}  # ordinal -> its dock in flight, in order
        try:
            for ordinal, _, title in pending:
                while admitted < len(pending) and len(lanes) < depth:
                    next_ordinal, next_ligand, _ = pending[admitted]
                    committer.store.mark_running(next_ordinal)
                    lease = self._runtime.lease(next_ligand)
                    lane = lanes[next_ordinal] = _Lane(
                        dock_ligand_steps(
                            self.settings, self.receptor, spots, next_ordinal,
                            next_ligand, lease, sleep=self._sleep,
                        ),
                        lease,
                        obs.span_start(
                            "campaign.pipeline.dock",
                            {"ordinal": next_ordinal, "pipeline_lane": admitted % depth},
                        ),
                    )
                    self._resume(lane)
                    admitted += 1
                head = lanes[ordinal]
                while head.ticket is not None:
                    ready = [
                        lane for lane in lanes.values()
                        if lane.ticket is not None and lane.ticket.ready
                    ]
                    if not ready:
                        self._runtime.evaluator.pump()
                    for lane in ready:
                        self._resume(lane)
                del lanes[ordinal]
                head.lease.release()
                if head.crash is not None:
                    raise head.crash
                self._commit(committer, ordinal, title, head.outcome)
        finally:
            # Error path: the pool is closed next, so the launches still in
            # flight are dropped with it; end the docks and free the leases.
            for lane in lanes.values():
                lane.steps.close()
                lane.lease.release()

    def _resume(self, lane: _Lane) -> None:
        """Run ``lane``'s dock to its next launch and submit it, or to its end.

        The energies of its answered launch are sent in; a failed harvest or
        submit is thrown in instead, where :func:`dock_with_retry` decides
        whether the dock repeats. At its end the lane holds no ticket, and
        holds its outcome, or what crashed its dock (a ``KeyboardInterrupt``
        or ``SystemExit``): that is raised at the lane's turn to commit, so
        the ligands before it still commit first.
        """
        send, value = lane.steps.send, None
        pool = self._runtime.evaluator
        try:
            if lane.ticket is not None:
                try:
                    value = pool.harvest(lane.ticket)
                except Exception as exc:
                    send, value = lane.steps.throw, exc
            while True:
                try:
                    launch = send(value)
                except StopIteration as stop:
                    lane.outcome = stop.value
                    break
                try:
                    lane.ticket = pool.submit(
                        *launch, binding=lane.lease.binding, stats=lane.lease.stats
                    )
                    return
                except Exception as exc:
                    send, value = lane.steps.throw, exc
        except BaseException as exc:
            lane.crash = exc
        lane.ticket = None
        lane.end_span()


@dataclass(eq=False)
class _Lane:
    """One ligand in flight in the pipeline: its dock, its lease, its launch."""

    steps: Generator
    lease: LigandLease
    end_span: Callable[[], None]  # records its campaign.pipeline.dock span
    ticket: LaunchTicket | None = None  # None once the dock has ended
    outcome: dict | None = None
    crash: BaseException | None = None
