"""Docking-pipeline campaign correctness (``pipeline_depth`` = live leases).

The contract under test: co-scheduling D ligands through one persistent
pool is *purely* an execution optimisation. The science digest — every
ordinal's score, spot, and evaluation count, byte for byte — must be
identical at any depth, any worker count, static or dynamic shares, through
a worker death and through a kill-mid-shard resume. Depth 1 is the same
pooled loop with one lease in flight: strict ordinal order, non-interleaved
launch sequence.
"""

import pytest

import repro.campaign.runner as runner_mod
from repro import observability as obs
from repro.campaign import CampaignRunner, SyntheticSource
from repro.vs.docking import dock_steps as real_dock_steps

SEED = 11
N_LIGANDS = 7


def make_runner(receptor, tmp_path, name="c.store", **overrides):
    kwargs = dict(
        store_path=tmp_path / name,
        n_spots=2,
        metaheuristic="M1",
        seed=SEED,
        workload_scale=0.05,
        shard_size=3,
        backoff_base=0.0,
    )
    kwargs.update(overrides)
    return CampaignRunner(
        receptor, SyntheticSource(N_LIGANDS, atoms_range=(8, 12), seed=2), **kwargs
    )


@pytest.fixture(scope="module")
def serial_digest(receptor, tmp_path_factory):
    """The byte-exact science reference: serial, single-process run."""
    tmp = tmp_path_factory.mktemp("pipeline-serial")
    with make_runner(receptor, tmp).run() as store:
        return store.science_digest()


# The serial loop reads no parallel_mode; one (static) row per depth there.
MATRIX = [
    (depth, workers, static)
    for depth in (1, 2, 4)
    for workers in (0, 1, 4)
    for static in (True, False)
    if not (workers == 0 and not static)
]


@pytest.mark.parametrize("depth,workers,static", MATRIX)
def test_science_digest_parity_matrix(
    receptor, tmp_path, serial_digest, depth, workers, static
):
    with make_runner(
        receptor,
        tmp_path,
        host_workers=workers,
        parallel_mode="static" if static else "dynamic",
        pipeline_depth=depth,
    ).run() as store:
        assert store.science_digest() == serial_digest
        assert store.counts()["done"] == N_LIGANDS


@pytest.mark.parametrize("depth,workers", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_science_digest_parity_with_a_job_per_spot_group(
    receptor, tmp_path, serial_digest, monkeypatch, depth, workers
):
    # The matrix's launches are far below the planner's job grain, so each is
    # one job. Shrink the grain so every spot group travels alone, the way a
    # paper-scale launch is split, and the digest must still not move.
    import repro.engine.host_runtime as host_runtime

    monkeypatch.setattr(host_runtime, "_MIN_JOB_PAIRS", 1)
    jobs = obs.histogram("host.job.poses", edges=host_runtime._POSE_COUNT_EDGES)
    launches = obs.counter("host.launches", mode="static")
    jobs_before, launches_before = jobs.count, launches.value
    with make_runner(
        receptor, tmp_path, host_workers=workers, pipeline_depth=depth
    ).run() as store:
        assert store.science_digest() == serial_digest
        assert store.counts()["done"] == N_LIGANDS
    assert jobs.count - jobs_before == 2 * (launches.value - launches_before) > 0


def test_pipelined_one_job_launches_spread_over_both_workers(
    receptor, tmp_path, serial_digest, monkeypatch
):
    # Every launch here is below the job grain: one job, which on its own
    # plans onto the heaviest worker. At the default depth three leases
    # share two workers, and static placement counts the poses each worker
    # already owes, so concurrent launches spread out instead of queueing
    # on one process. Equal weights keep warm-up noise out of the test.
    import numpy as np

    import repro.engine.host_runtime as host_runtime

    monkeypatch.setattr(
        host_runtime, "eq1_weights", lambda t: (np.ones(len(t)), np.full(len(t), 0.5))
    )
    jobs = obs.histogram("host.job.poses", edges=host_runtime._POSE_COUNT_EDGES)
    launches = obs.counter("host.launches", mode="static")
    scored = [obs.counter("host.worker.poses", worker=i) for i in (0, 1)]
    jobs_before, launches_before = jobs.count, launches.value
    scored_before = [counter.value for counter in scored]
    with make_runner(receptor, tmp_path, host_workers=2).run() as store:
        assert store.science_digest() == serial_digest
    assert jobs.count - jobs_before == launches.value - launches_before > 0
    assert all(c.value > before for c, before in zip(scored, scored_before))


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("depth", (1, 2, 4))
def test_worker_death_parity(
    receptor, tmp_path, serial_digest, monkeypatch, kill_a_worker, depth, workers
):
    # One ligand's dock kills a worker under it. The pool death is the
    # runtime's fault: nobody's max_attempts budget pays for it — not the
    # victim's, not a co-resident ligand's — so even a 2-attempt budget with
    # no backoff ends with nothing failed, at every depth.
    reuses = obs.counter("host.pool.reuses").value
    recycles = obs.counter("host.pool.recycles").value
    runner = make_runner(
        receptor, tmp_path, host_workers=workers, pipeline_depth=depth,
        max_attempts=2,
    )
    killed = []

    def sabotage(receptor_arg, ligand, **kwargs):
        if kwargs["seed"] - SEED == 2 and not killed:
            killed.append(kill_a_worker(runner._runtime))
        return real_dock_steps(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock_steps", sabotage)
    with runner.run() as store:
        counts = store.counts()
        assert counts["done"] == N_LIGANDS and counts["failed"] == 0
        assert store.science_digest() == serial_digest
    (before,) = killed  # the sabotage fired once
    (after,) = kill_a_worker.at_close
    assert after[0] != before[0] and after[1:] == before[1:]  # siblings live on
    assert obs.counter("host.pool.recycles").value == recycles + 1
    # One pool for the campaign: every ligand after the first was a rebind.
    assert obs.counter("host.pool.reuses").value == reuses + N_LIGANDS - 1


def test_one_custom_spec_gives_the_serial_digest_pooled(tmp_path):
    # A custom spec object (not a preset name) is shared by every ligand of
    # the campaign; each dock searches with its own copy, so ligands that
    # interleave on the pool see the same operator state as in serial order.
    from repro.campaign import ListSource
    from repro.metaheuristics.extra import make_vns
    from repro.molecules.synthetic import generate_ligand, generate_receptor

    receptor = generate_receptor(300, seed=3)
    ligands = [generate_ligand(12 + i, seed=40 + i) for i in range(4)]
    spec = make_vns(walkers=4, iterations=3)
    digests = []
    for name, knobs in (
        ("serial", {}),
        ("pooled", dict(host_workers=2, pipeline_depth=2)),
    ):
        runner = CampaignRunner(
            receptor, ListSource(ligands), store_path=tmp_path / name,
            n_spots=4, metaheuristic=spec, seed=1, **knobs,
        )
        with runner.run() as store:
            digests.append(store.science_digest())
    assert digests[0] == digests[1]


def test_a_worker_killed_before_its_first_task(
    receptor, tmp_path, serial_digest, monkeypatch, kill_a_worker
):
    # The pool's constructor waits on no worker, so a worker can die before
    # it is sent anything. Killed right after the first lease forked the
    # pool, worker 0 is buried like any dead worker: with equal weights the
    # first one-job launch is placed on it and raises the retryable
    # WorkerPoolError, only its slot is re-forked, and the campaign reaches
    # the serial digest without charging any ligand an attempt.
    launches = obs.counter("host.launches", mode="static")
    retries = obs.counter("campaign.retries")
    pool_deaths = obs.counter("campaign.retries.pool_death")
    recycles = obs.counter("host.pool.recycles").value
    runner = make_runner(receptor, tmp_path, host_workers=2, max_attempts=2)
    killed = []

    def sabotage(receptor_arg, ligand, **kwargs):
        if not killed:
            assert launches.value == launches_before  # no task sent yet
            killed.append(kill_a_worker(runner._runtime))
        return real_dock_steps(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock_steps", sabotage)
    launches_before = launches.value
    retries_before, deaths_before = retries.value, pool_deaths.value
    with runner.run() as store:
        counts = store.counts()
        assert counts["done"] == N_LIGANDS and counts["failed"] == 0
        assert store.science_digest() == serial_digest
    (before,) = killed
    (after,) = kill_a_worker.at_close
    assert after[0] != before[0] and after[1] == before[1]
    assert obs.counter("host.pool.recycles").value == recycles + 1
    # Every retry was a pool death's: nobody's budget paid for one.
    assert retries.value - retries_before == pool_deaths.value - deaths_before > 0


def test_the_parent_is_single_threaded_at_every_fork(
    receptor, tmp_path, serial_digest, monkeypatch, kill_a_worker
):
    # One loop on the main thread drives every ligand in flight, so each
    # fork — the pool's two workers and the re-fork of the one SIGKILLed
    # mid-run — happens beside no thread but those alive before run(): no
    # child can inherit a lock another thread held as it forked.
    import threading

    from repro.engine.host_runtime import ParallelSpotEvaluator

    threads_at_fork = []
    real_fork = ParallelSpotEvaluator._fork

    def fork(self, *args, **kwargs):
        threads_at_fork.append(set(threading.enumerate()))
        return real_fork(self, *args, **kwargs)

    monkeypatch.setattr(ParallelSpotEvaluator, "_fork", fork)
    runner = make_runner(receptor, tmp_path, host_workers=2, pipeline_depth=4)
    killed = []

    def sabotage(receptor_arg, ligand, **kwargs):
        if kwargs["seed"] - SEED == 2 and not killed:
            killed.append(kill_a_worker(runner._runtime))
        return real_dock_steps(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock_steps", sabotage)
    before = set(threading.enumerate())
    with runner.run() as store:
        assert store.science_digest() == serial_digest
    assert killed and len(threads_at_fork) == 3  # two workers, one re-fork
    assert all(threads <= before for threads in threads_at_fork)


def test_kill_mid_shard_then_resume_at_depth_4(
    receptor, tmp_path, serial_digest, monkeypatch
):
    # With four docks in flight the interrupt lands at a nondeterministic
    # point, so no exact-ordinal assertions — the bar is that the store
    # stays prefix-consistent (ordinal-ordered commits) and the resumed
    # campaign's science digest is still byte-identical to serial.
    calls = {"n": 0}

    def interrupting(receptor_arg, ligand, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise KeyboardInterrupt  # the simulated SIGKILL
        return real_dock_steps(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock_steps", interrupting)
    with pytest.raises(KeyboardInterrupt):
        make_runner(
            receptor, tmp_path, host_workers=2, pipeline_depth=4, shard_size=4
        ).run()

    monkeypatch.setattr(runner_mod, "dock_steps", real_dock_steps)
    with make_runner(
        receptor, tmp_path, host_workers=2, pipeline_depth=4, shard_size=4
    ).resume() as store:
        assert store.is_complete()
        assert store.counts()["done"] == N_LIGANDS
        assert store.science_digest() == serial_digest


def test_depth_1_runs_exact_legacy_serial_path(receptor, tmp_path, monkeypatch):
    order = []

    def tracing(receptor_arg, ligand, **kwargs):
        order.append(kwargs["seed"] - SEED)
        return real_dock_steps(receptor_arg, ligand, **kwargs)

    monkeypatch.setattr(runner_mod, "dock_steps", tracing)
    with make_runner(
        receptor, tmp_path, host_workers=2, pipeline_depth=1
    ).run() as store:
        assert store.counts()["done"] == N_LIGANDS
    # One lease in flight: docks run strictly in ordinal order.
    assert order == list(range(N_LIGANDS))


def test_depth_1_launch_sequence_is_not_interleaved(receptor, tmp_path, monkeypatch):
    from repro.engine.host_runtime import ParallelSpotEvaluator

    versions = []
    original = ParallelSpotEvaluator.submit

    def spy(self, *args, **kwargs):
        ticket = original(self, *args, **kwargs)
        versions.append(ticket.binding.version)
        return ticket

    monkeypatch.setattr(ParallelSpotEvaluator, "submit", spy)
    with make_runner(receptor, tmp_path, host_workers=2, pipeline_depth=1).run():
        pass
    assert versions  # the spy actually saw the campaign's launches
    # One lease in flight: each ligand's launches form one contiguous block —
    # no other ligand's launch ever lands inside it.
    block_starts = [
        v for i, v in enumerate(versions) if i == 0 or versions[i - 1] != v
    ]
    assert len(block_starts) == len(set(versions))


def test_pipeline_depth_validation(receptor, tmp_path):
    from repro.errors import CampaignError

    with pytest.raises(CampaignError, match="pipeline_depth"):
        make_runner(receptor, tmp_path, pipeline_depth=0)


def test_pipelined_campaign_emits_overlap_telemetry(receptor, tmp_path):
    # A session of its own: the tracer keeps only its first DEFAULT_MAX_SPANS
    # spans, so in a long test session this run's would not be recorded.
    session = obs.get_telemetry()
    obs.set_telemetry(obs.Telemetry())
    try:
        with make_runner(
            receptor, tmp_path, host_workers=2, pipeline_depth=2
        ).run() as store:
            assert store.counts()["done"] == N_LIGANDS
        assert obs.gauge("host.pipeline.depth").value == 2
        snapshot = obs.get_telemetry().snapshot()
    finally:
        obs.set_telemetry(session)
    lanes = {
        span["tags"].get("pipeline_lane")
        for span in snapshot["spans"]
        if span["name"] == "campaign.pipeline.dock"
    }
    assert lanes and lanes <= {0, 1}
