"""Campaign orchestration: drive shards of ligands through the host runtime.

A :class:`CampaignRunner` wraps the existing :func:`repro.vs.docking.dock`
machinery (including the PR 1 process-parallel host runtime via
``host_workers``/``parallel_mode``) with the durability layer: every
completed ligand is committed to the :class:`CampaignStore` before the next
one starts, shard boundaries are journalled write-ahead, and :meth:`resume`
reconciles journal and store to continue exactly where a crash, SIGKILL, or
Ctrl-C left off.

Determinism: ligand ``ordinal`` is always docked with seed ``seed +
ordinal`` (the same rule ``screen()`` has always used), so an interrupted
and resumed campaign produces bitwise-identical scores to an uninterrupted
one, for any shard size or worker count.

Runtime ownership: with ``host_workers > 0`` the campaign owns one
:class:`repro.engine.host_runtime.PersistentHostRuntime` for its whole
lifetime — worker pool, staged receptor and Eq. 1 warm-up are paid once, and
every ligand docks on a lease of that pool (with the next ligand
prefetch-staged meanwhile). ``dock()`` receives the lease through its
``evaluator_factory`` seam and never closes the pool. ``pipeline_depth`` is
how many leases are live at once: that many ligands' metaheuristics run
concurrently through the shared pool (each with its own seed and launch
trace), results committing in ordinal order so the durability layer cannot
tell the difference; depth 1 is one lease in flight, and the default is one
lease more than there are workers, so a worker finishing one ligand's launch
finds another's queued instead of idling through the host-side step.
``host_workers == 0`` is the plain serial loop every parity test compares
against.

Failure policy: per-ligand bounded retry with exponential backoff
(:func:`dock_with_retry`); a ligand that exhausts its attempts is recorded
``failed`` with the exception text and the campaign continues past it. A
worker pool that died is recycled in place by the runtime — workers are
replaced, the staged receptor and warm-up weights survive — and the docks
it interrupted are repeated without charging their ligands.
``KeyboardInterrupt``/``SystemExit`` are never swallowed — they are the
crash the journal exists for.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import observability as obs
from repro.engine.host_runtime import PersistentHostRuntime
from repro.errors import CampaignError, WorkerPoolError
from repro.hardware.node import NodeSpec
from repro.metaheuristics.template import MetaheuristicSpec
from repro.molecules.spots import find_spots
from repro.molecules.structures import Ligand, Receptor
from repro.scoring.base import ScoringFunction
from repro.vs.docking import dock

from repro.campaign.backends import (
    STORE_BACKENDS,
    create_store,
    open_store,
    store_disk_bytes,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.library import (
    LigandSource,
    iter_shards,
    receptor_fingerprint,
    resolve_title,
)
from repro.campaign.store import CampaignStore
from repro.observability.flight import (
    dump_flight,
    flight_dir,
    flight_event,
    flight_recorder,
)

__all__ = [
    "CampaignRunner",
    "CampaignProgress",
    "campaign_config",
    "config_hash",
    "dock_with_retry",
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


@dataclass(frozen=True, slots=True)
class CampaignProgress:
    """One progress snapshot, emitted after every shard.

    ``ligands_per_second`` measures *this session's* docking rate;
    ``eta_seconds`` is ``nan`` while the library size is unknown.
    """

    shard_id: int
    done: int
    failed: int
    total: int | None
    elapsed_seconds: float
    ligands_per_second: float
    eta_seconds: float


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
    spec_name = (
        metaheuristic.name
        if isinstance(metaheuristic, MetaheuristicSpec)
        else str(metaheuristic)
    )
    scoring_name = (
        None if scoring is None else getattr(scoring, "name", type(scoring).__name__)
    )
    return {
        "schema_version": 1,
        "receptor_hash": receptor_fingerprint(receptor),
        "receptor_title": receptor.title or "receptor",
        "receptor": receptor_descriptor or {"kind": "opaque"},
        "library": source.descriptor(),
        "n_spots": int(n_spots),
        "metaheuristic": spec_name,
        "scoring": scoring_name,
        "seed": int(seed),
        "workload_scale": float(workload_scale),
        "shard_size": int(shard_size),
        "node": None if node is None else node.name,
        "mode": mode,
    }


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
    dock_once: Callable[[], object],
    *,
    max_attempts: int,
    backoff_base: float,
    sleep: Callable[[float], None],
    **event_tags,
) -> dict:
    """The bounded-retry dock loop every node runs, store-free.

    ``dock_once`` docks the ligand once. An exception is charged against
    the ligand's ``max_attempts`` poison budget — except a
    :class:`~repro.errors.WorkerPoolError`: the pool died under the dock
    (killed, possibly, by a co-resident ligand), a fault of the runtime,
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
            result = dock_once()
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


class CampaignRunner:
    """Execute (or continue) one durable screening campaign.

    Parameters mirror :func:`repro.vs.screening.screen` plus the durability
    knobs. ``store_path=":memory:"`` gives the one-shot in-memory campaign
    ``screen()`` itself is built on (no journal, failures raise).
    """

    def __init__(
        self,
        receptor: Receptor,
        source: LigandSource,
        *,
        store_path: str | Path,
        store_backend: str = "sqlite",
        journal_path: str | Path | None = None,
        journal_batch_records: int = 1,
        journal_batch_seconds: float = 0.0,
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
        if host_workers < 0:
            raise CampaignError(f"host_workers must be >= 0, got {host_workers}")
        if nodes < 0:
            raise CampaignError(f"nodes must be >= 0, got {nodes}")
        if parallel_mode not in ("static", "dynamic"):
            raise CampaignError(
                f"parallel_mode must be 'static' or 'dynamic', got {parallel_mode!r}"
            )
        if shard_size < 1:
            raise CampaignError(f"shard_size must be >= 1, got {shard_size}")
        if max_attempts < 1:
            raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
        if pipeline_depth is None:
            pipeline_depth = max(2, host_workers + 1)
        if pipeline_depth < 1:
            raise CampaignError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        if store_backend not in STORE_BACKENDS:
            raise CampaignError(
                f"store_backend must be one of {STORE_BACKENDS}, "
                f"got {store_backend!r}"
            )
        if store_backend == "columnar" and str(store_path) == ":memory:":
            raise CampaignError(
                "the columnar store backend persists to a directory; "
                ":memory: campaigns use the sqlite backend"
            )
        self.receptor = receptor
        self.source = source
        self.store_path = str(store_path)
        self.store_backend = store_backend
        if journal_path is None and self.store_path != ":memory:":
            journal_path = self.store_path + ".journal"
        self.journal = (
            CampaignJournal(
                journal_path,
                batch_records=journal_batch_records,
                batch_seconds=journal_batch_seconds,
            )
            if journal_path
            else None
        )
        self.n_spots = n_spots
        self.metaheuristic = metaheuristic
        self.scoring = scoring
        self.seed = seed
        self.workload_scale = workload_scale
        self.shard_size = shard_size
        self.node = node
        self.mode = mode
        self.host_workers = host_workers
        self.parallel_mode = parallel_mode
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
        self.fleet = None  # set by execute_fleet; tests reach processes here
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._progress = progress
        self.raise_on_failure = raise_on_failure
        self.config = campaign_config(
            receptor,
            source,
            n_spots=n_spots,
            metaheuristic=metaheuristic,
            scoring=scoring,
            seed=seed,
            workload_scale=workload_scale,
            shard_size=shard_size,
            node=node,
            mode=mode,
            receptor_descriptor=receptor_descriptor,
        )
        # Recorded for visibility only: the backend and pipeline depth are
        # execution knobs, deliberately outside HASHED_KEYS — sqlite and
        # columnar stores (at any depth) of the same campaign share one
        # config hash and science digest.
        self.config["store_backend"] = self.store_backend
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
            store = create_store(
                self.store_path,
                self.config,
                self.config_hash,
                backend=self.store_backend,
            )
            if self.journal is not None:
                self.journal.campaign_start(self.config_hash)
            return self._execute(store, finished=set())

    def resume(self) -> CampaignStore:
        """Continue an interrupted campaign from its store + journal.

        Verifies the config hash, replays the journal, re-queues shards that
        started but never finished, and docks only ligands without a
        committed result. Resuming a completed campaign is a no-op.
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
                state = (
                    self.journal.replay() if self.journal is not None else None
                )
                if state is not None and state.config_hash not in (
                    None,
                    self.config_hash,
                ):
                    raise CampaignError(
                        f"journal {self.journal.path} belongs to config hash "
                        f"{state.config_hash[:12]}…, not {self.config_hash[:12]}…"
                    )
                if store.is_complete():
                    # Nothing to do; ranking is already final. Still a
                    # telemetry event — resume no-ops must stay observable.
                    span_tags["noop"] = True
                    obs.counter("campaign.resumes.noop").inc()
                    return store
                # A shard is settled iff the store says so AND the journal
                # agrees (store shard rows commit before the journal's
                # shard_finish, so the store is authoritative; the journal
                # catches a store that lost its very last update).
                finished = store.finished_shards()
                if state is not None:
                    finished |= state.finished
                if self.journal is not None:
                    self.journal.campaign_resume(self.config_hash)
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
            from repro.cluster.fleet import execute_fleet

            return execute_fleet(
                self,
                store,
                finished,
                nodes=self.nodes,
                cluster=self.cluster,
                spawn=self.cluster_spawn,
            )
        spots = find_spots(self.receptor, self.n_spots)
        total = self.source.count()
        session_start = time.perf_counter()
        session_docked = 0
        seen_titles: set[str] = set()
        n_streamed = 0
        try:
            try:
                if self.host_workers > 0:
                    # Campaign-owned runtime: pool spawn, receptor staging
                    # and Eq. 1 warm-up are paid once, every ligand after
                    # the first is a slot rebind.
                    self._runtime = PersistentHostRuntime(
                        self.receptor,
                        spots,
                        n_workers=self.host_workers,
                        mode=self.parallel_mode,
                        scoring=self.scoring,
                        pipeline_depth=self.pipeline_depth,
                    )
                # One shard of lookahead so the current shard's tail can
                # hint the *next* shard's first ligand — without it, every
                # shard boundary paid a cold rebind (prefetch miss).
                # Finished shards come as titles only (nothing is built
                # for them), so a resume reaches its first dock without
                # synthesising the ligands already committed.
                shards = iter_shards(self.source, self.shard_size, skip=finished)
                upcoming = next(shards, None)
                while upcoming is not None:
                    shard, items = upcoming
                    upcoming = next(shards, None)
                    n_streamed += len(items)
                    if shard.shard_id in finished:
                        for ordinal, title in items:
                            resolve_title(title, ordinal, seen_titles)
                        obs.counter("campaign.shards.skipped").inc()
                        continue
                    next_first = (
                        upcoming[1][0][1]
                        if upcoming is not None and upcoming[0].shard_id not in finished
                        else None
                    )
                    titled = [
                        (ordinal, ligand, resolve_title(ligand.title, ordinal, seen_titles))
                        for ordinal, ligand in items
                    ]
                    shard_t0 = time.perf_counter()
                    with obs.span("campaign.shard", shard=shard.shard_id):
                        if self.journal is not None:
                            self.journal.shard_start(
                                shard.shard_id, shard.start, shard.stop
                            )
                        store.start_shard(shard.shard_id, shard.start, shard.stop)
                        store.register_ligands([(o, t) for o, _, t in titled])
                        already_done = store.done_ordinals(shard.start, shard.stop)
                        pending = [
                            (ordinal, ligand, title)
                            for ordinal, ligand, title in titled
                            if ordinal not in already_done
                        ]
                        if self._runtime is not None:
                            n_failed = self._dock_shard_pipelined(
                                store, spots, pending, next_first
                            )
                        else:
                            n_failed = 0
                            for ordinal, ligand, title in pending:
                                if not self._dock_one(store, spots, ordinal, ligand, title):
                                    n_failed += 1
                        session_docked += len(pending)
                        shard_s = time.perf_counter() - shard_t0
                        store.finish_shard(shard.shard_id, shard_s)
                        if self.journal is not None:
                            self.journal.shard_finish(
                                shard.shard_id, shard.size - n_failed, n_failed
                            )
                    obs.counter("campaign.shards.done").inc()
                    obs.histogram("campaign.shard.seconds").observe(shard_s)
                    flight_event(
                        "shard.finish",
                        shard=shard.shard_id,
                        wall=round(shard_s, 6),
                    )
                    self._update_disk_gauge()
                    # Shard boundary: worker-session telemetry has folded in and
                    # the store row is durable — force a live sample so the
                    # series shows every shard even when shards outpace the
                    # sampling interval.
                    obs.mark("campaign.shard", force=True)
                    self._emit_progress(
                        store, shard.shard_id, total, session_start, session_docked
                    )
                store.mark_complete(n_streamed)
                if self.journal is not None:
                    self.journal.campaign_finish(n_streamed)
            except BaseException:
                # Crash path: everything committed so far is durable; close the
                # connection so the WAL checkpoints cleanly, then let it fly.
                store.close()
                raise
        finally:
            if self.journal is not None:
                # Group-commit stragglers: a batched journal must not lose
                # markers to a clean exit or a raised exception (SIGKILL is
                # the one case this can't cover, and resume tolerates it).
                self.journal.flush()
            runtime, self._runtime = self._runtime, None
            if runtime is not None:
                runtime.close()
            if str(self.store_path) != ":memory:" and obs.enabled():
                # Black-box dump for the post-mortem doctor; best-effort.
                # A fleet run retags this process "coordinator"; only the
                # still-default role means this was a single-node campaign.
                if flight_recorder().role == "process":
                    flight_recorder().role = "runner"
                dump_flight(flight_dir(self.store_path) / "runner.flight")
        return store

    def _update_disk_gauge(self) -> None:
        """Satellite gauge: on-disk store footprint at each shard boundary.

        Lands in every sampler series record and on ``/metrics``, so the
        columnar-vs-SQLite growth curves are comparable over time.
        """
        if str(self.store_path) == ":memory:":
            return
        obs.gauge("store.disk.bytes").set(float(store_disk_bytes(self.store_path)))

    def _dock_one(
        self,
        store: CampaignStore,
        spots,
        ordinal: int,
        ligand: Ligand,
        title: str,
    ) -> bool:
        """Dock one ligand serially, in-process; returns False if it poisoned."""
        store.mark_running(ordinal)
        outcome = self._dock_attempts(spots, ordinal, ligand, None)
        return self._commit_outcome(store, ordinal, title, outcome)

    def _dock_attempts(
        self, spots, ordinal: int, ligand: Ligand, evaluator_factory
    ) -> dict:
        """:func:`dock_with_retry` around this campaign's ``dock()`` call.

        Returns an outcome dict for :meth:`_commit_outcome`; never touches
        the store, so the pipelined scheduler can run it on a dock thread
        and commit results in ordinal order from the main thread.
        """

        def dock_once():
            return dock(
                self.receptor,
                ligand,
                spots=spots,
                metaheuristic=self.metaheuristic,
                scoring=self.scoring,
                seed=self.seed + ordinal,
                workload_scale=self.workload_scale,
                node=self.node,
                mode=self.mode,
                host_workers=self.host_workers,
                parallel_mode=self.parallel_mode,
                evaluator_factory=evaluator_factory,
            )

        return dock_with_retry(
            dock_once,
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
            sleep=self._sleep,
            ordinal=ordinal,
        )

    def _commit_outcome(
        self, store: CampaignStore, ordinal: int, title: str, outcome: dict
    ) -> bool:
        """Commit one dock outcome (main thread only); False if it poisoned."""
        if not outcome["ok"]:
            exc = outcome["exc"]
            if self.raise_on_failure:
                raise exc
            store.record_failure(
                ordinal, title, f"{type(exc).__name__}: {exc}", outcome["attempts"]
            )
            obs.counter("campaign.ligands.failed").inc()
            return False
        result, wall_s = outcome["result"], outcome["wall_s"]
        obs.counter("campaign.ligands.done").inc()
        obs.histogram("campaign.dock.seconds").observe(wall_s)
        store.record_result(
            ordinal,
            title,
            result.best_score,
            result.best.spot_index,
            result.evaluations,
            wall_seconds=wall_s,
            simulated_seconds=result.simulated_seconds,
            attempts=outcome["attempts"],
        )
        return True

    def _dock_shard_pipelined(
        self, store: CampaignStore, spots, pending: list, next_first
    ) -> int:
        """Dock one shard's pending ligands depth-at-a-time; commit in order.

        The one loop that docks through the runtime: up to
        ``pipeline_depth`` ligands hold leases on the shared pool, each
        docking on its own thread, so one ligand's launches fill another's
        host-side gaps (at depth 1 a single lease is in flight and docks
        run strictly in ordinal order). The main thread does everything
        stateful — leases (the first one forks the pool), ``mark_running``,
        and ordinal-ordered commits — so journal/store/resume semantics are
        byte-for-byte the serial loop's. Per-ligand seeds and launch
        sequences are untouched; only inter-ligand interleaving differs.
        ``next_first`` is the following shard's first ligand, hinted at the
        shard tail so the boundary rebind is warm.
        """
        depth = min(self.pipeline_depth, max(1, len(pending)))
        n_failed = 0
        submit_pos = 0
        inflight: dict[int, tuple] = {}  # ordinal -> (future, lease)
        executor = ThreadPoolExecutor(
            max_workers=depth, thread_name_prefix="dock-pipeline"
        )

        def docked(ordinal, ligand, lease, lane):
            with obs.span("campaign.pipeline.dock", ordinal=ordinal, pipeline_lane=lane):
                return self._dock_attempts(
                    spots, ordinal, ligand, lease.evaluator_factory
                )

        try:
            for commit_pos, (ordinal, ligand, title) in enumerate(pending):
                while submit_pos < len(pending) and len(inflight) < depth:
                    next_ordinal, next_ligand, _ = pending[submit_pos]
                    # Hint before leasing: lease() kicks the stager for the
                    # ligand after this one as its last step.
                    if submit_pos + 1 < len(pending):
                        self._runtime.hint_next(pending[submit_pos + 1][1])
                    elif next_first is not None:
                        self._runtime.hint_next(next_first)
                    store.mark_running(next_ordinal)
                    lease = self._runtime.lease(next_ligand)
                    future = executor.submit(
                        docked, next_ordinal, next_ligand, lease, submit_pos % depth
                    )
                    inflight[next_ordinal] = (future, lease)
                    submit_pos += 1
                future, lease = inflight.pop(ordinal)
                try:
                    outcome = future.result()
                finally:
                    lease.release()
                if not self._commit_outcome(store, ordinal, title, outcome):
                    n_failed += 1
        finally:
            # Error path: let started docks drain (their pool is still
            # alive), then free any leases the commits never reached.
            executor.shutdown(wait=True, cancel_futures=True)
            for future, lease in inflight.values():
                lease.release()
        return n_failed

    def _emit_progress(
        self,
        store: CampaignStore,
        shard_id: int,
        total: int | None,
        session_start: float,
        session_docked: int,
    ) -> None:
        if self._progress is None:
            return
        counts = store.counts()
        elapsed = time.perf_counter() - session_start
        rate = session_docked / elapsed if elapsed > 0 else 0.0
        if total is None or rate <= 0:
            eta = float("nan")
        else:
            remaining = max(0, total - counts["done"] - counts["failed"])
            eta = remaining / rate
        self._progress(
            CampaignProgress(
                shard_id=shard_id,
                done=counts["done"],
                failed=counts["failed"],
                total=total,
                elapsed_seconds=elapsed,
                ligands_per_second=rate,
                eta_seconds=eta,
            )
        )
