"""Tests for the real process-parallel host runtime.

The headline contract: :class:`ParallelSpotEvaluator` returns *bitwise*
identical energies to :class:`SerialEvaluator` for any worker count or
balancing mode, whichever scorer the workers bind, and a pooled run leaves
nothing in ``/dev/shm`` — not on close, not when a worker dies mid-flight.
Campaign-side, every pooled ligand is a :class:`LigandLease` on one
:class:`PersistentHostRuntime`.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.engine.host_runtime as host_runtime
from repro import observability as obs
from repro.engine.host_runtime import ParallelSpotEvaluator, PersistentHostRuntime
from repro.errors import ScoringError, WorkerPoolError
from repro.metaheuristics.evaluation import SerialEvaluator
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.scoring.base import ScoringFunction
from repro.scoring.batched import BatchedLJScoring
from repro.scoring.coulomb import BoundCoulomb
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.vs.docking import dock
from repro.vs.screening import screen


@pytest.fixture()
def launch(spots, rng):
    """One launch: 18 poses spread over the four test spots."""
    from repro.molecules.transforms import random_quaternion

    spot_ids, translations = [], []
    for s in spots:
        t = s.center + rng.uniform(-s.radius, s.radius, size=(5, 3))
        translations.append(t)
        spot_ids.extend([s.index] * 5)
    # A couple of repeat visits so spot groups are non-contiguous.
    translations.append(spots[0].center[None, :] + rng.uniform(-1, 1, (2, 3)))
    spot_ids.extend([spots[0].index] * 2)
    translations = np.concatenate(translations)
    return (
        np.asarray(spot_ids, dtype=np.int64),
        translations,
        random_quaternion(rng, translations.shape[0]),
    )


@pytest.fixture()
def job_per_spot_group(monkeypatch):
    """These launches are far below the planner's default job grain (one job
    each); shrink it so every spot group is a job of its own — the split a
    paper-scale launch gets."""
    monkeypatch.setattr(host_runtime, "_MIN_JOB_PAIRS", 1)


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm"))


class UnregisteredCoulomb(ScoringFunction):
    """A non-LJ factory no registry names: workers get it through the fork."""

    def bind(self, receptor, ligand):
        return BoundCoulomb(receptor, ligand)


class CountingScoring(ScoringFunction):
    """Float32 cutoff LJ whose binds in pool workers bump a shared counter."""

    def __init__(self, binds) -> None:
        self.binds = binds
        self.parent = os.getpid()
        self.inner = CutoffLennardJonesScoring(dtype=np.float32)

    def bind(self, receptor, ligand):
        if os.getpid() != self.parent:
            with self.binds.get_lock():
                self.binds.value += 1
        return self.inner.bind(receptor, ligand)


#: The factory of every scorer these tests pool (the engine's fast path).
F32 = CutoffLennardJonesScoring(dtype=np.float32)


def _pool(scorer, **kwargs) -> ParallelSpotEvaluator:
    """A pool over the complex a float32 cutoff ``scorer`` is bound to."""
    return ParallelSpotEvaluator(F32, scorer.receptor, scorer.ligand, **kwargs)


def _pids(ev) -> list[int]:
    return [worker.process.pid for worker in ev._workers]


def _kill_next_worker(ev) -> int:
    """SIGKILL the worker a one-job static launch lands on next — the
    heaviest Eq. 1 weight, every worker owing nothing; returns its index."""
    victim = int(np.argmax(ev.weights))
    os.kill(ev._workers[victim].process.pid, signal.SIGKILL)
    return victim


def _running(pid: int) -> bool:
    """``pid`` is a live process (a zombie waiting for its reaper is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_parallel_matches_serial_bitwise(fast_scorer, launch, n_workers, mode):
    spot_ids, t, q = launch
    serial = SerialEvaluator(fast_scorer).evaluate(spot_ids, t, q)
    with _pool(fast_scorer, n_workers=n_workers, mode=mode) as ev:
        parallel = ev.evaluate(spot_ids, t, q)
    assert np.array_equal(parallel, serial)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_parallel_matches_serial_bitwise_with_a_job_per_spot_group(
    receptor, ligand, spots, launch, mode, job_per_spot_group
):
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    spot_ids, t, q = launch
    serial = SerialEvaluator(scorer).evaluate(spot_ids, t, q)
    jobs = obs.histogram("host.job.poses", edges=host_runtime._POSE_COUNT_EDGES)
    before = jobs.count
    with _pool(scorer, n_workers=2, mode=mode) as ev:
        parallel = ev.evaluate(spot_ids, t, q)
    assert np.array_equal(parallel, serial)
    assert jobs.count - before == len(spots)


def test_plan_jobs_are_runs_of_whole_spot_groups(fast_scorer, launch, monkeypatch):
    """The default cutoff scorer is spot-aware: its jobs partition the launch,
    never split a spot group, and grow to the grain before a new one starts."""
    spot_ids, _, _ = launch
    assert fast_scorer.supports_spot_scoring
    groups = {int(s): set(np.flatnonzero(spot_ids == s)) for s in np.unique(spot_ids)}
    with _pool(fast_scorer, n_workers=2) as ev:
        plans = {}
        for poses in (1, 6, 8, 10**6):
            monkeypatch.setattr(
                host_runtime, "_MIN_JOB_PAIRS", poses * fast_scorer.n_pairs
            )
            jobs = plans[poses] = ev._plan(spot_ids, fast_scorer)
            rows = np.concatenate([job.rows for job in jobs])
            assert sorted(rows) == list(range(spot_ids.size))  # a partition
            for job in jobs:
                inside = set(job.rows.tolist())
                touched = {int(s) for s in spot_ids[job.rows]}
                assert inside == set().union(*(groups[s] for s in touched))
                assert job.spot == min(touched)
            # Every job but the last reached the grain.
            assert all(job.rows.size >= poses for job in jobs[:-1])
    # Group sizes are 7, 5, 5, 5 (spot 0 is visited twice in the launch).
    assert [job.rows.size for job in plans[1]] == [7, 5, 5, 5]
    assert [job.rows.size for job in plans[6]] == [7, 10, 5]
    assert [job.rows.size for job in plans[8]] == [12, 10]
    assert [job.rows.size for job in plans[10**6]] == [22]
    # The repeat visits to spot 0 ride in its job: the group is whole.
    assert set(plans[1][0].rows.tolist()) == groups[int(spot_ids[0])]


def test_paper_scale_launch_splits_at_the_default_grain(dock_shape, rng):
    """No patched grain: 8 spots x 32 poses on the ledger's 1,500 x 24 complex
    is above it, so the launch travels as runs of whole spot groups — and
    scores what the serial path scores, bit for bit."""
    from repro.molecules.transforms import random_quaternion

    receptor, ligand, spots = dock_shape
    scorer = CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)
    spot_ids = np.arange(32 * len(spots)) % len(spots)  # interleaved
    centers = np.stack([s.center for s in spots])[spot_ids]
    t = centers + rng.uniform(-2.0, 2.0, size=centers.shape)
    q = random_quaternion(rng, spot_ids.size)
    serial = SerialEvaluator(scorer).evaluate(spot_ids, t, q)
    with _pool(scorer, n_workers=2) as ev:
        jobs = ev._plan(spot_ids, scorer)
        parallel = ev.evaluate(spot_ids, t, q)
    grain = -(-host_runtime._MIN_JOB_PAIRS // scorer.n_pairs)
    assert 32 < grain <= 64  # two 32-pose groups make a job
    assert [job.rows.size for job in jobs] == [64, 64, 64, 64]
    assert np.array_equal(parallel, serial)


def test_launch_trace_matches_serial(fast_scorer, launch):
    spot_ids, t, q = launch
    serial_eval = SerialEvaluator(fast_scorer)
    serial_eval.evaluate(spot_ids, t, q, kind="improvement")
    with _pool(fast_scorer, n_workers=2) as ev:
        ev.evaluate(spot_ids, t, q, kind="improvement")
        assert ev.stats.launches == serial_eval.stats.launches
        assert ev.stats.n_conformations == serial_eval.stats.n_conformations


def test_empty_launch(fast_scorer):
    with _pool(fast_scorer, n_workers=2) as ev:
        out = ev.evaluate(
            np.empty(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 4))
        )
    assert out.shape == (0,)
    assert ev.stats.n_launches == 1  # empty launches are still recorded


def test_warmup_produces_eq1_weights(fast_scorer, launch, job_per_spot_group):
    """The shares are equal until every worker has answered WARMUP_TASKS
    tasks of real launches; then Eq. 1 fixes them, and the decision is on
    the record."""
    spot_ids, t, q = launch
    warmups = obs.counter("host.warmups").value
    with _pool(fast_scorer, n_workers=2) as ev:
        for _ in range(host_runtime.WARMUP_TASKS - 1):  # a task per worker each
            ev.evaluate(spot_ids, t, q)
        assert ev.warmup_result is None
        assert ev.weights.tolist() == [0.5, 0.5]
        ev.evaluate(spot_ids, t, q)
        res = ev.warmup_result
    assert res is not None and res.weights is ev.weights
    assert res.measured_s.shape == (2,) and np.all(res.measured_s > 0)
    assert res.percent.max() == 1.0
    assert np.all(res.weights > 0)
    assert res.weights.sum() == pytest.approx(1.0)
    assert obs.counter("host.warmups").value == warmups + 1
    for i in (0, 1):
        gauge = obs.gauge("host.warmup.weight", worker=i).value
        assert gauge == pytest.approx(res.weights[i])


#: Seconds :class:`SlowSecondWorker` sleeps per pose, and how many times as
#: long it sleeps in worker 1.
SLEEP_PER_POSE_S = 1e-3
SLOWDOWN = 3.0


class SlowSecondWorker(ScoringFunction):
    """Float32 cutoff LJ that sleeps ``SLEEP_PER_POSE_S`` per pose after
    each job, ``SLOWDOWN`` times as long in the process named
    ``repro-host-worker-1``: a real inequality between workers, with no
    runtime knob, and the energies of the plain scorer. Both workers sleep
    so that scoring itself, which two busy processes share unevenly on two
    cores, is a small part of what either one measures."""

    def shape(self, receptor, ligand):
        return F32.shape(receptor, ligand)

    def bind(self, receptor, ligand):
        scorer = F32.bind(receptor, ligand)
        per_pose = SLEEP_PER_POSE_S
        if mp.current_process().name == "repro-host-worker-1":
            per_pose *= SLOWDOWN
        score_spots = scorer.score_spots

        def slow(spot_ids, translations, quaternions):
            out = score_spots(spot_ids, translations, quaternions)
            time.sleep(per_pose * len(spot_ids))
            return out

        scorer.score_spots = slow
        return scorer


def test_eq1_weights_measure_a_slower_worker(
    fast_scorer, launch, job_per_spot_group
):
    """Worker 1 takes SLOWDOWN times as long per pose, so after WARMUP_TASKS
    tasks each the weights favour worker 0 by that ratio (within 20%:
    scoring's own time and the sleeps' overshoot), and every launch still
    scores the serial energies."""
    spot_ids, t, q = launch
    serial = SerialEvaluator(fast_scorer).evaluate(spot_ids, t, q)
    with ParallelSpotEvaluator(
        SlowSecondWorker(), fast_scorer.receptor, fast_scorer.ligand, n_workers=2
    ) as ev:
        for _ in range(host_runtime.WARMUP_TASKS):  # a task per worker each
            assert np.array_equal(ev.evaluate(spot_ids, t, q), serial)
        res = ev.warmup_result
    assert res is not None
    assert res.weights[0] / res.weights[1] == pytest.approx(SLOWDOWN, rel=0.2)


def test_close_is_idempotent_and_leaves_dev_shm_unchanged(fast_scorer):
    before = _shm()
    ev = _pool(fast_scorer, n_workers=2)
    ev.close()
    ev.close()  # second close is a no-op
    assert _shm() == before
    with pytest.raises(ScoringError, match="closed"):
        ev.evaluate(np.zeros(1, dtype=np.int64), np.zeros((1, 3)), np.zeros((1, 4)))


def test_pooled_runs_leave_dev_shm_unchanged(receptor, ligand):
    """Workers bind their own scorers: neither a one-shot ``dock`` nor a
    depth-3 campaign creates anything in ``/dev/shm``."""
    knobs = dict(n_spots=2, metaheuristic="M1", workload_scale=0.02, host_workers=2)
    before = _shm()
    dock(receptor, ligand, **knobs)
    assert _shm() == before
    screen(receptor, _ligands((9, 10, 11, 12), base_seed=230), pipeline_depth=3, **knobs)
    assert _shm() == before


def test_one_shot_dock_worker_crash_leaves_dev_shm_unchanged(
    receptor, ligand, spots, launch, monkeypatch
):
    """One-shot ``dock(host_workers=N)``: a dead worker surfaces as a
    retryable error, the recycled workers bind the ligand again, and
    nothing is left in ``/dev/shm`` when ``dock()`` exits."""
    import repro.vs.docking as docking_mod

    spot_ids, t, q = launch
    seen = {}
    before = _shm()

    def crashing_search(spec, ctx):
        ev = ctx.evaluator
        serial = SerialEvaluator(ev.scoring.bind(receptor, ligand)).evaluate(
            spot_ids, t, q
        )
        # Kill the worker the next launch lands on (a worker dying).
        pids = _pids(ev)
        victim = _kill_next_worker(ev)
        with pytest.raises(WorkerPoolError, match="crashed") as crash:
            ev.evaluate(spot_ids, t, q)
        assert [p for i, p in enumerate(_pids(ev)) if i != victim] == [
            p for i, p in enumerate(pids) if i != victim
        ]
        # Recycled in place, not closed: the fresh workers bind the ligand
        # from the rebind message and the retried launch is bitwise the
        # serial answer.
        assert np.array_equal(ev.evaluate(spot_ids, t, q), serial)
        seen["evaluator"] = ev
        raise crash.value  # what a real search would have let through

    monkeypatch.setattr(docking_mod, "metaheuristic_steps", crashing_search)
    with pytest.raises(ScoringError, match="retry the launch"):
        docking_mod.dock(receptor, ligand, spots=spots, host_workers=2)
    assert seen["evaluator"]._workers == []  # dock()'s finally closed it
    assert _shm() == before


def test_static_shares_reach_the_worker_they_were_planned_for(
    dock_shape, rng, monkeypatch
):
    """Each static task goes down the pipe of the worker it was placed on,
    so a worker scores exactly the poses the parent gave it: one-job
    launches with nothing owed all land on the heaviest Eq. 1 weight, and a
    multi-job set is split by the weights, which it fixes on the way. The
    doctor then reads the share drift the plan decided, not one the runtime
    made up."""
    from repro.molecules.transforms import random_quaternion
    from repro.observability.doctor import _SHARE_DRIFT_WARN, _analyze_share_drift

    receptor, ligand, spots = dock_shape
    centers = np.stack([s.center for s in spots])

    def launch(per_spot):
        spot_ids = np.arange(per_spot * len(spots)) % len(spots)
        t = centers[spot_ids] + rng.uniform(-2.0, 2.0, size=(spot_ids.size, 3))
        return spot_ids, t, random_quaternion(rng, spot_ids.size)

    def scored() -> list[float]:
        return [obs.counter("host.worker.poses", worker=i).value for i in (0, 1)]

    session = obs.get_telemetry()
    obs.set_telemetry(obs.Telemetry())
    try:
        with ParallelSpotEvaluator(F32, receptor, ligand, n_workers=2) as ev:
            for _ in range(30):  # 48 poses: one job each
                ev.evaluate(*launch(6))
            heaviest = int(np.argmax(ev.weights))
            expected = [0.0, 0.0]
            expected[heaviest] = 30 * 48.0
            assert scored() == expected
            placed = expected.copy()
            post = ev._post

            def recording_post(worker, task):
                placed[worker.index] += task.poses
                post(worker, task)

            monkeypatch.setattr(ev, "_post", recording_post)
            n_split = host_runtime.WARMUP_TASKS  # a task per worker each
            for _ in range(n_split):  # 512 poses: a job per spot group
                ev.evaluate(*launch(64))
            assert ev.warmup_result is not None
            assert scored() == placed and sum(placed) == 30 * 48 + n_split * 512
            assert min(placed) > 0
        metrics = obs.snapshot()
    finally:
        obs.set_telemetry(session)
    drift = _analyze_share_drift(metrics, [])
    assert drift.verdict == "ok", drift.headline
    assert len(drift.lines) == 2
    for line in drift.lines:
        assert abs(float(line.rsplit(" ", 1)[1])) <= _SHARE_DRIFT_WARN


#: A process that owns a two-worker pool, prints the workers' pids and waits.
POOL_OWNER = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
from repro.engine.host_runtime import PersistentHostRuntime
from repro.molecules.synthetic import generate_ligand, generate_receptor

runtime = PersistentHostRuntime(generate_receptor(120, seed=3), n_workers=2)
runtime.lease(generate_ligand(10, seed=4))
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
sys.stdin.read()
"""


def test_the_workers_of_a_sigkilled_pool_owner_exit():
    """A worker holds no pipe end but its own, so when the process owning
    the pool dies by SIGKILL — no close, no atexit — each worker reads EOF
    and exits, instead of waiting for a task forever."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    owner = subprocess.Popen(
        [sys.executable, "-c", POOL_OWNER.format(src=src)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        assert select.select([owner.stdout], [], [], 60)[0], "no pool came up"
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        owner.kill()
        owner.wait()
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(_running(pid) for pid in pids)
    finally:
        try:
            os.killpg(owner.pid, signal.SIGKILL)  # whatever outlived the test
        except ProcessLookupError:
            pass
        owner.wait()
        owner.stdin.close()
        owner.stdout.close()


def test_constructor_validation(fast_scorer):
    with pytest.raises(ScoringError, match="n_workers"):
        _pool(fast_scorer, n_workers=0)
    with pytest.raises(ScoringError, match="mode"):
        _pool(fast_scorer, n_workers=1, mode="nope")


# ----------------------------------------------------------------------
# campaign runtime: leases over the rebind protocol, recycle, warm-up reuse
# ----------------------------------------------------------------------


def _cutoff(receptor, ligand):
    return F32.bind(receptor, ligand)


def _ligands(sizes, base_seed=50):
    return [generate_ligand(n, seed=base_seed + n) for n in sizes]


def test_persistent_rebind_matches_serial_across_ligands(receptor, spots, launch):
    ligands = _ligands((14, 18, 40))
    spot_ids, t, q = launch
    reuses = obs.counter("host.pool.reuses").value
    with PersistentHostRuntime(receptor, n_workers=2) as rt:
        pools = set()
        for lig in ligands:
            lease = rt.lease(lig)
            pools.add(rt.evaluator)
            ev = lease.evaluator_factory(receptor, lig, spots)
            serial = SerialEvaluator(_cutoff(receptor, lig)).evaluate(spot_ids, t, q)
            assert np.array_equal(ev.evaluate(spot_ids, t, q), serial)
            lease.release()
        # One pool for every ligand: each after the first was a rebind.
        assert len(pools) == 1
        assert obs.counter("host.pool.reuses").value == reuses + 2


def test_each_worker_binds_each_live_version_at_most_once(receptor, spots, launch):
    """Launches ping-pong between three resident ligands; a worker binds a
    version the first time a task names it and keeps the scorer cached."""
    binds = mp.get_context("fork").Value("q", 0)
    ligands = _ligands((12, 14, 16), base_seed=200)
    spot_ids, t, q = launch
    serial = [
        SerialEvaluator(_cutoff(receptor, lig)).evaluate(spot_ids, t, q)
        for lig in ligands
    ]
    with PersistentHostRuntime(
        receptor, n_workers=2, mode="dynamic", scoring=CountingScoring(binds)
    ) as rt:
        leases = [rt.lease(lig) for lig in ligands]
        evaluators = [
            lease.evaluator_factory(receptor, lig, spots)
            for lease, lig in zip(leases, ligands)
        ]
        for _ in range(4):
            for ev, expected in zip(evaluators, serial):
                assert np.array_equal(ev.evaluate(spot_ids, t, q), expected)
        for lease in leases:
            lease.release()
    # A worker binds a version when its first task of that version arrives:
    # at most once per worker and version, against the twelve launches
    # that named them, and every version at least once.
    assert len(ligands) <= binds.value <= 2 * len(ligands)


def test_worker_crash_recycles_pool_and_keeps_receptor(receptor, ligand, launch):
    spot_ids, t, q = launch
    scorer = _cutoff(receptor, ligand)
    serial = SerialEvaluator(scorer).evaluate(spot_ids, t, q)
    recycles = obs.counter("host.pool.recycles").value
    with _pool(scorer, n_workers=2) as ev:
        pids, weights = _pids(ev), ev.weights
        victim = _kill_next_worker(ev)
        with pytest.raises(ScoringError, match="recycled"):
            ev.evaluate(spot_ids, t, q)
        assert obs.counter("host.pool.recycles").value == recycles + 1
        sibling = 1 - victim
        assert _pids(ev)[sibling] == pids[sibling]
        assert _pids(ev)[victim] != pids[victim]
        # The fresh workers inherit the receptor through the fork and bind
        # lazily from the rebind message — the weights stay, the energies
        # are bitwise identical.
        assert np.array_equal(ev.evaluate(spot_ids, t, q), serial)
        assert ev.weights is weights


def test_eq1_weights_are_fixed_per_pool(
    receptor, spots, ligand, launch, job_per_spot_group
):
    """The paper measures Eq. 1 once and keeps the shares for the whole
    screening (§3.3): once the first lease's launches have fixed them, 65
    leases and a recycle later the pool still plans with those weights, and
    scores the serial answer."""
    spot_ids, t, q = launch
    warmups = obs.counter("host.warmups").value
    with PersistentHostRuntime(receptor, n_workers=2) as rt:
        first = rt.lease(ligand)
        ev = first.evaluator_factory(receptor, ligand, spots)
        for _ in range(host_runtime.WARMUP_TASKS):  # a task per worker each
            ev.evaluate(spot_ids, t, q)
        first.release()
        weights = rt.evaluator.weights
        assert rt.evaluator.warmup_result.weights is weights
        for _ in range(64):
            rt.lease(ligand).release()
        lease = rt.lease(ligand)
        ev = lease.evaluator_factory(receptor, ligand, spots)
        _kill_next_worker(rt.evaluator)
        with pytest.raises(WorkerPoolError):
            ev.evaluate(spot_ids, t, q)
        assert rt.evaluator.weights is weights
        serial = SerialEvaluator(_cutoff(receptor, ligand)).evaluate(spot_ids, t, q)
        assert np.array_equal(ev.evaluate(spot_ids, t, q), serial)
        lease.release()
    assert obs.counter("host.warmups").value == warmups + 1


class TwoArgError(Exception):
    """Pickles, but its ``__init__`` cannot take its own ``args`` back."""

    def __init__(self, title, detail) -> None:
        super().__init__(f"{title}: {detail}")


class FaultyScoring(ScoringFunction):
    """Float32 cutoff LJ whose workers' scorer for the ligand titled
    ``BAD`` answers every launch with a fault: ``"unpicklable"`` raises
    :class:`TwoArgError`, ``"short"`` returns one energy too few."""

    def __init__(self, fault: str) -> None:
        self.fault = fault

    def shape(self, receptor, ligand):
        return F32.shape(receptor, ligand)

    def bind(self, receptor, ligand):
        scorer = F32.bind(receptor, ligand)
        if ligand.title == "BAD":
            score_spots = scorer.score_spots

            def faulty(*args):
                if self.fault == "unpicklable":
                    raise TwoArgError(ligand.title, "refused")
                return score_spots(*args)[:-1]

            scorer.score_spots = faulty
        return scorer


def _finishes(fn, timeout_s: float = 60.0):
    """Run ``fn`` on a thread of its own (submit and harvest with it) and
    return what it returned or raised; fail instead of hanging the suite."""
    import threading

    result = {}

    def run():
        try:
            result["value"] = fn()
        except BaseException as exc:
            result["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), "a harvest hung"
    return result


def _good_and_faulty_launches(
    receptor, spots, launch, fault, expect_raised, stale_failures=0
):
    """Ligand A's launch, then ligand B's, each split over both workers;
    B's scorer answers with ``fault``. B's harvest must raise
    ``expect_raised`` and A's launch must return the serial energies (each
    worker answers A's task first). Three more launches of A must return
    them too; at most ``stale_failures`` others may raise
    :class:`WorkerPoolError` on the way, and nothing is left owed."""
    spot_ids, t, q = launch
    good, bad = (
        generate_ligand(14, seed=301, title="GOOD"),
        generate_ligand(16, seed=302, title="BAD"),
    )
    serial = SerialEvaluator(_cutoff(receptor, good)).evaluate(spot_ids, t, q)
    with PersistentHostRuntime(
        receptor, n_workers=2, scoring=FaultyScoring(fault)
    ) as rt:
        a = rt.lease(good).evaluator_factory(receptor, good, spots)
        b = rt.lease(bad).evaluator_factory(receptor, bad, spots)
        ev = rt.evaluator

        def both():
            ticket_a = ev.submit(spot_ids, t, q, binding=a.binding, stats=a.stats)
            ticket_b = ev.submit(spot_ids, t, q, binding=b.binding, stats=b.stats)
            with pytest.raises(expect_raised) as raised:
                ev.harvest(ticket_b)
            return ev.harvest(ticket_a), raised.value

        first = _finishes(both)
        assert "error" not in first, first.get("error")
        out, raised = first["value"]
        assert np.array_equal(out, serial)
        failures, successes = [], 0
        while successes < 3:
            again = _finishes(lambda: a.evaluate(spot_ids, t, q))
            if "error" in again:
                failures.append(again["error"])
                assert len(failures) <= stale_failures, failures
                assert isinstance(again["error"], WorkerPoolError), failures
            else:
                assert np.array_equal(again["value"], serial)
                successes += 1
        assert [(w.owed, w.owed_poses) for w in ev._workers] == [({}, 0)] * 2
    return raised


@pytest.mark.parametrize(
    "fault, charged", [("unpicklable", ScoringError), ("short", ValueError)]
)
def test_a_faulty_answer_is_charged_to_its_own_launch(
    receptor, spots, launch, job_per_spot_group, fault, charged
):
    """A scorer error the parent could not rebuild comes back as a
    :class:`ScoringError` carrying its text; an answer of the wrong shape
    fails filing. Either way only the faulty launch raises, no worker is
    recycled and no other launch is touched."""
    recycles = obs.counter("host.pool.recycles").value
    raised = _good_and_faulty_launches(receptor, spots, launch, fault, charged)
    assert not isinstance(raised, WorkerPoolError)
    if fault == "unpicklable":
        assert "TwoArgError: BAD: refused" in str(raised)
    assert obs.counter("host.pool.recycles").value == recycles


def test_an_answer_that_will_not_unpickle_recycles_only_its_worker(
    receptor, spots, launch, job_per_spot_group, monkeypatch
):
    """Should an answer fail to unpickle in the parent all the same, the
    worker that sent it is recycled like a dead one: the launches it held
    raise :class:`WorkerPoolError` and no harvest hangs. A bad answer still
    queued behind a harvested launch fails the next launch that worker
    holds (one per worker at most), retryably, as a worker death would."""
    pickler = mp.reduction.ForkingPickler
    monkeypatch.setattr(
        host_runtime, "_answer", lambda task_id, reply: pickler.dumps((task_id, reply))
    )
    recycles = obs.counter("host.pool.recycles").value
    _good_and_faulty_launches(
        receptor, spots, launch, "unpicklable", WorkerPoolError, stale_failures=2
    )
    assert obs.counter("host.pool.recycles").value > recycles


# ----------------------------------------------------------------------
# the campaign process only dispatches: it binds nothing
# ----------------------------------------------------------------------
class BindOnlyCutoff(ScoringFunction):
    """A plugin factory that defines only ``bind``: the default ``shape``."""

    def bind(self, receptor, ligand):
        return F32.bind(receptor, ligand)


def _parent_binds(monkeypatch, factory=CutoffLennardJonesScoring) -> list:
    """The ligands ``factory.bind`` is called with in *this* process.

    Forked pool workers inherit the wrapper; their binds are theirs, not the
    campaign process's, so the pid check leaves them out.
    """
    parent, calls = os.getpid(), []
    real = factory.bind

    def bind(self, receptor, ligand):
        if os.getpid() == parent:
            calls.append(ligand)
        return real(self, receptor, ligand)

    monkeypatch.setattr(factory, "bind", bind)
    return calls


def _campaign(receptor, path, **overrides):
    from repro.campaign import CampaignRunner, SyntheticSource

    knobs = dict(
        store_path=path,
        n_spots=2,
        metaheuristic="M1",
        seed=11,
        workload_scale=0.05,
        shard_size=3,
        backoff_base=0.0,
    )
    knobs.update(overrides)
    source = SyntheticSource(5, atoms_range=(8, 12), seed=2)
    return CampaignRunner(receptor, source, **knobs)


@pytest.fixture(scope="module")
def campaign_serial_digest(receptor, tmp_path_factory):
    path = tmp_path_factory.mktemp("binds-serial") / "c.sqlite"
    with _campaign(receptor, path).run() as store:
        return store.science_digest()


@pytest.mark.parametrize("knobs", [{}, {"pipeline_depth": 1}], ids=["default", "depth-1"])
def test_a_pooled_campaign_process_binds_nothing(
    receptor, tmp_path, monkeypatch, campaign_serial_digest, knobs
):
    """Leases read the scorer's shape; only the workers bind."""
    binds = _parent_binds(monkeypatch)
    runner = _campaign(receptor, tmp_path / "c.sqlite", host_workers=2, **knobs)
    with runner.run() as store:
        assert store.science_digest() == campaign_serial_digest
    assert binds == []


def test_a_bind_only_plugin_reaches_the_serial_digest(
    receptor, tmp_path, monkeypatch, campaign_serial_digest
):
    """A factory without ``shape`` gets the default: bind, read, drop — once
    per ligand in this process — and the same science."""
    binds = _parent_binds(monkeypatch, BindOnlyCutoff)
    runner = _campaign(
        receptor, tmp_path / "c.sqlite", host_workers=2, scoring=BindOnlyCutoff()
    )
    with runner.run() as store:
        assert store.science_digest() == campaign_serial_digest
    assert len(binds) == 5


def test_a_fleet_nodes_acquire_path_binds_nothing(receptor, spots, monkeypatch):
    """A fleet node docks each leased ligand through the runtime's
    ``evaluator_factory`` (:meth:`PersistentHostRuntime.acquire`)."""
    from repro.campaign.runner import dock_ligand, open_runtime, outcome_row
    from repro.campaign.settings import DockSettings
    from repro.hardware.node import jupiter

    ligands = _ligands((9, 12, 15), base_seed=70)
    # A node, so each row's simulated_seconds replays the launch records.
    knobs = dict(
        n_spots=len(spots), metaheuristic="M1", seed=3, workload_scale=0.05,
        node=jupiter(),
    )

    def rows(settings, factory=None):
        outcomes = [
            dock_ligand(settings, receptor, spots, i, lig, factory, sleep=None)
            for i, lig in enumerate(ligands)
        ]
        return [
            {k: v for k, v in outcome_row(o).items() if k != "wall_seconds"}
            for o in outcomes
        ]

    serial = rows(DockSettings(**knobs))
    binds = _parent_binds(monkeypatch)
    pooled = DockSettings(host_workers=2, **knobs)
    with open_runtime(pooled, receptor) as rt:
        assert rows(pooled, rt.evaluator_factory) == serial
    assert binds == []


@pytest.mark.parametrize("depth", [1, 3])
def test_pooled_launch_records_equal_serial(receptor, tmp_path, monkeypatch, depth):
    """The timing replay reads each ligand's launch records, so the pooled
    runner's must be the serial ones, bit for bit, at any depth."""
    import repro.engine.executor as executor_mod
    from repro.engine.executor import MultiGpuExecutor
    from repro.hardware.node import jupiter

    replayed: dict[int, list] = {}

    class Recording(MultiGpuExecutor):
        def replay(self, launches, mode):
            replayed[self.seed] = list(launches)
            return super().replay(launches, mode)

    # dock() imports the executor when it times a dock, so patch its home.
    monkeypatch.setattr(executor_mod, "MultiGpuExecutor", Recording)
    with _campaign(receptor, tmp_path / "serial.sqlite", node=jupiter()).run():
        pass
    serial, replayed = replayed, {}
    runner = _campaign(
        receptor, tmp_path / "pool.sqlite", node=jupiter(),
        host_workers=2, pipeline_depth=depth,
    )
    with runner.run():
        pass
    assert len(serial) == 5 and all(serial.values())
    assert replayed == serial


def test_persistent_runtime_same_ligand_reacquire_restages_nothing(
    receptor, spots, ligand, launch
):
    spot_ids, t, q = launch
    reuses = obs.counter("host.pool.reuses").value
    with PersistentHostRuntime(receptor, n_workers=1) as rt:
        first = rt.acquire(ligand)
        first.evaluate(spot_ids, t, q)
        assert first.stats.n_launches == 1
        pool, binding = rt.evaluator, rt.evaluator.binding
        again = rt.acquire(ligand)  # a campaign retry of the resident ligand
        # Same pool, same lease, same binding — nothing was rebound...
        assert rt.evaluator is pool and again.binding is binding
        assert obs.counter("host.pool.reuses").value == reuses
        assert again.stats.n_launches == 0  # ...only the trace is fresh
    with pytest.raises(ScoringError, match="closed"):
        rt.acquire(ligand)


def test_evaluator_factory_validates_receptor(receptor, spots, ligand):
    other = generate_receptor(120, seed=99)
    rt = PersistentHostRuntime(receptor, n_workers=1)
    try:
        with pytest.raises(ScoringError, match="different receptor"):
            rt.evaluator_factory(other, ligand, spots)
    finally:
        rt.close()


def test_dock_with_persistent_runtime_matches_serial(receptor, spots):
    from repro.vs.docking import dock

    ligands = _ligands((10, 12), base_seed=90)
    with PersistentHostRuntime(receptor, n_workers=2) as rt:
        for i, lig in enumerate(ligands):
            persistent = dock(
                receptor, lig, spots=spots, metaheuristic="M1", seed=7 + i,
                workload_scale=0.05, evaluator_factory=rt.evaluator_factory,
            )
            serial = dock(
                receptor, lig, spots=spots, metaheuristic="M1", seed=7 + i,
                workload_scale=0.05,
            )
            assert persistent.best_score == serial.best_score
            assert [p.score for p in persistent.per_spot] == [
                p.score for p in serial.per_spot
            ]
            assert persistent.evaluations == serial.evaluations
        # dock() must not have closed the campaign-owned evaluator.
        assert rt.evaluator is not None
        assert all(_running(pid) for pid in _pids(rt.evaluator))


def test_dock_parity_with_host_workers(receptor, ligand):
    from repro.vs.docking import dock

    serial = dock(
        receptor, ligand, n_spots=4, metaheuristic="M1", seed=7, workload_scale=0.05
    )
    parallel = dock(
        receptor,
        ligand,
        n_spots=4,
        metaheuristic="M1",
        seed=7,
        workload_scale=0.05,
        host_workers=2,
    )
    assert parallel.best_score == serial.best_score
    assert parallel.best.spot_index == serial.best.spot_index
    assert [p.score for p in parallel.per_spot] == [p.score for p in serial.per_spot]
    assert parallel.evaluations == serial.evaluations


# ----------------------------------------------------------------------
# docking pipeline: submit/harvest tickets, multi-ligand residency
# ----------------------------------------------------------------------
def test_submit_poll_harvest_matches_evaluate(fast_scorer, launch):
    spot_ids, t, q = launch
    serial = SerialEvaluator(fast_scorer).evaluate(spot_ids, t, q)
    with _pool(fast_scorer, n_workers=2) as ev:
        out = ev.harvest(ev.submit(spot_ids, t, q))
    assert np.array_equal(out, serial)


def test_harvest_is_idempotent(fast_scorer, launch):
    spot_ids, t, q = launch
    with _pool(fast_scorer, n_workers=2) as ev:
        ticket = ev.submit(spot_ids, t, q)
        first = ev.harvest(ticket)
        again = ev.harvest(ticket)
    assert again is first


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_one_thread_interleaving_leases_loses_no_answer(
    receptor, spots, launch, mode, job_per_spot_group
):
    """Four leases keep a launch each in flight through three workers on
    two cores, driven from one thread the way the campaign pipeline drives
    them: pump until a launch is ready, harvest the ready ones lowest lease
    first, submit each one's next. Every pump routes whichever launch's
    answers arrived, so each launch still gets the serial energies, and
    once all are harvested no worker owes anything: a lost answer would
    leave a launch hanging or a debt."""
    ligands = _ligands((11, 13, 15, 17), base_seed=250)
    spot_ids, t, q = launch
    serial = [
        SerialEvaluator(_cutoff(receptor, lig)).evaluate(spot_ids, t, q)
        for lig in ligands
    ]
    mismatches, harvested = [], [0] * len(ligands)
    with PersistentHostRuntime(receptor, n_workers=3, mode=mode) as rt:
        leases = [rt.lease(lig) for lig in ligands]
        for lease, lig in zip(leases, ligands):
            lease.evaluator_factory(receptor, lig, spots)
        pool = rt.evaluator

        def submit(i):
            return pool.submit(
                spot_ids, t, q, binding=leases[i].binding, stats=leases[i].stats
            )

        def interleave():
            tickets = {i: submit(i) for i in range(len(leases))}
            while tickets:
                ready = [i for i, ticket in tickets.items() if ticket.ready]
                if not ready:
                    pool.pump()
                for i in ready:
                    if not np.array_equal(pool.harvest(tickets.pop(i)), serial[i]):
                        mismatches.append(ligands[i].title)
                    harvested[i] += 1
                    if harvested[i] < 40:
                        tickets[i] = submit(i)

        assert "error" not in _finishes(interleave, timeout_s=120)
        assert [lease.stats.n_launches for lease in leases] == [40] * 4
        workers = pool._workers
        assert [(w.owed, w.owed_poses) for w in workers] == [({}, 0)] * 3
        assert not pool._backlog
    assert mismatches == []


def test_interleaved_leases_are_bitwise_identical(receptor, spots, launch):
    # Two ligands resident at once; their launches interleave through one
    # pool (submit A, submit B, harvest B, harvest A) and each must still be
    # bitwise identical to a serial evaluator that had the ligand to itself.
    lig_a, lig_b = _ligands((16, 20), base_seed=120)
    spot_ids, t, q = launch
    serial_a = SerialEvaluator(_cutoff(receptor, lig_a)).evaluate(spot_ids, t, q)
    serial_b = SerialEvaluator(_cutoff(receptor, lig_b)).evaluate(spot_ids, t, q)
    fill = obs.counter("host.pipeline.fill.poses").value
    with PersistentHostRuntime(receptor, n_workers=2) as rt:
        lease_a = rt.lease(lig_a)
        lease_b = rt.lease(lig_b)
        ev_a = lease_a.evaluator_factory(receptor, lig_a, spots)
        ev_b = lease_b.evaluator_factory(receptor, lig_b, spots)
        pool = rt.evaluator
        ticket_a = pool.submit(
            spot_ids, t, q, binding=lease_a.binding, stats=ev_a.stats
        )
        ticket_b = pool.submit(
            spot_ids, t, q, binding=lease_b.binding, stats=ev_b.stats
        )
        out_b = pool.harvest(ticket_b)
        out_a = pool.harvest(ticket_a)
        # B was submitted while A was still in flight: the overlap counter
        # saw B's poses fill A's barrier gap.
        assert (
            obs.counter("host.pipeline.fill.poses").value
            == fill + t.shape[0]
        )
        lease_a.release()
        lease_b.release()
    assert np.array_equal(out_a, serial_a)
    assert np.array_equal(out_b, serial_b)


def test_lease_evaluator_keeps_per_ligand_launch_trace(receptor, spots, launch):
    lig_a, lig_b = _ligands((14, 15), base_seed=140)
    spot_ids, t, q = launch
    reference = SerialEvaluator(_cutoff(receptor, lig_a))
    reference.evaluate(spot_ids, t, q, kind="improvement")
    with PersistentHostRuntime(receptor, n_workers=2) as rt:
        lease_a = rt.lease(lig_a)
        lease_b = rt.lease(lig_b)
        ev_a = lease_a.evaluator_factory(receptor, lig_a, spots)
        ev_b = lease_b.evaluator_factory(receptor, lig_b, spots)
        ev_a.evaluate(spot_ids, t, q, kind="improvement")
        ev_b.evaluate(spot_ids, t, q)
        ev_b.evaluate(spot_ids, t, q)
        # A's trace is exactly what a solo serial run records — B's two
        # launches never leak into it.
        assert ev_a.stats.launches == reference.stats.launches
        assert ev_b.stats.n_launches == 2
        lease_a.release()
        lease_b.release()


def test_submit_against_released_lease_rejected(receptor, spots, launch):
    (lig,) = _ligands((13,), base_seed=160)
    spot_ids, t, q = launch
    with PersistentHostRuntime(receptor, n_workers=1) as rt:
        lease = rt.lease(lig)
        binding = lease.binding
        lease.release()
        with pytest.raises(ScoringError, match="released"):
            rt.evaluator.submit(spot_ids, t, q, binding=binding)
        with pytest.raises(ScoringError, match="released"):
            lease.evaluator_factory(receptor, lig, spots)


# ----------------------------------------------------------------------
# Parity matrix: scorers the workers bind, through the full screen() stack
# ----------------------------------------------------------------------
#: Batched exact LJ, and a non-LJ factory no registry names.
PARITY_SCORINGS = {"batched": BatchedLJScoring, "unregistered": UnregisteredCoulomb}

PARITY_ROWS = [
    (1, "static", True),
    (4, "static", True),
    (4, "dynamic", True),
    (4, "static", False),
    (4, "dynamic", False),
]


@pytest.fixture(scope="module")
def parity_complexes():
    receptor = generate_receptor(150, seed=5, title="batched parity receptor")
    ligands = [
        generate_ligand(8 + i, seed=40 + i, title=f"L{i}") for i in range(3)
    ]
    return receptor, ligands


def _entries(report):
    return [
        (e.ligand_title, e.best_score, e.best_spot, e.evaluations)
        for e in report.entries
    ]


def _run_library(receptor, ligands, workers, mode, campaign, scoring):
    """The library by title: through ``screen()`` (every ligand a lease on
    one pool) or, ``campaign=False``, one one-shot ``dock()`` per ligand."""
    knobs = dict(
        n_spots=2,
        metaheuristic="M1",
        scoring=PARITY_SCORINGS[scoring](),
        workload_scale=0.02,
        host_workers=workers,
        parallel_mode=mode,
    )
    if campaign:
        return sorted(_entries(screen(receptor, ligands, seed=9, **knobs)))
    results = [
        dock(receptor, ligand, seed=9 + i, **knobs)
        for i, ligand in enumerate(ligands)
    ]
    return sorted(
        (r.ligand.title, r.best_score, r.best.spot_index, r.evaluations)
        for r in results
    )


@pytest.fixture(scope="module")
def serial_entries(parity_complexes):
    """Serial reference entries per scorer, computed once each."""
    receptor, ligands = parity_complexes
    cache = {}

    def entries(scoring):
        if scoring not in cache:
            cache[scoring] = _run_library(
                receptor, ligands, 0, "static", True, scoring
            )
        return cache[scoring]

    return entries


@pytest.mark.parametrize(
    "workers,mode,campaign,scoring",
    [
        pytest.param(*row, scoring, id="-".join(map(str, row)) + suffix)
        for scoring, suffix in (("batched", ""), ("unregistered", "-unregistered"))
        for row in PARITY_ROWS
    ],
)
def test_batched_parallel_matches_serial_bitwise(
    parity_complexes, serial_entries, workers, mode, campaign, scoring
):
    receptor, ligands = parity_complexes
    got = _run_library(receptor, ligands, workers, mode, campaign, scoring)
    expected = serial_entries(scoring)
    assert len(got) == len(expected) == len(ligands)
    for a, b in zip(got, expected):
        assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]
        assert math.isfinite(a[1])
        assert a[1] == b[1], (
            f"{scoring} score drifted: {a} vs serial {b} "
            f"(workers={workers} mode={mode} campaign={campaign})"
        )
