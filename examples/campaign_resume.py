"""Durable screening campaigns: crash mid-run, resume, lose nothing.

The demo screens a small synthetic library as a *campaign* — every result
and every shard boundary lands in a SQLite store, the campaign's one durable
log — then simulates a hard crash partway through by injecting an interrupt into
the docking call. Resuming re-docks only the ligands that never completed,
and because ligand ``i`` always docks with ``seed + i``, the recovered
ranking is bitwise identical to an uninterrupted run.

Run:
    python examples/campaign_resume.py
"""

import os
import tempfile

import repro.campaign.runner as campaign_runner
from repro.campaign import CampaignRunner, SyntheticSource
from repro.molecules import generate_receptor

N_LIGANDS = 8
SHARD_SIZE = 2
CRASH_AFTER = 5  # dock calls before the simulated power cut


def make_runner(receptor, store_path):
    return CampaignRunner(
        receptor,
        SyntheticSource(N_LIGANDS, atoms_range=(10, 16), seed=3),
        store_path=store_path,
        n_spots=3,
        metaheuristic="M1",
        workload_scale=0.1,
        seed=7,
        shard_size=SHARD_SIZE,
    )


def main() -> None:
    receptor = generate_receptor(400, seed=41, title="campaign-demo receptor")
    workdir = tempfile.mkdtemp(prefix="campaign-demo-")
    store_path = os.path.join(workdir, "campaign.sqlite")

    # --- reference: the same campaign, never interrupted --------------------
    with make_runner(receptor, os.path.join(workdir, "ref.sqlite")).run() as store:
        reference = [(r["title"], r["best_score"]) for r in store.top(N_LIGANDS)]

    # --- run until the lights go out ----------------------------------------
    real_dock = campaign_runner.dock
    calls = {"n": 0}

    def failing_dock(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > CRASH_AFTER:
            raise KeyboardInterrupt  # stand-in for SIGKILL / power cut
        return real_dock(*args, **kwargs)

    campaign_runner.dock = failing_dock
    print(f"screening {N_LIGANDS} ligands in shards of {SHARD_SIZE}...")
    try:
        make_runner(receptor, store_path).run()
    except KeyboardInterrupt:
        print(f"crashed after {CRASH_AFTER} docks (mid-shard, mid-campaign)\n")
    finally:
        campaign_runner.dock = real_dock

    # --- what survived the crash --------------------------------------------
    from repro.campaign import CampaignStore

    with CampaignStore.open(store_path) as store:
        counts = store.counts()
        print(f"store after crash: {counts['done']} done, "
              f"{counts['pending'] + counts['running']} outstanding")

    # --- resume: only the remainder runs ------------------------------------
    docked_on_resume = []

    def counting_dock(*args, **kwargs):
        docked_on_resume.append(kwargs["seed"] - 7)  # recover the ordinal
        return real_dock(*args, **kwargs)

    campaign_runner.dock = counting_dock
    try:
        with make_runner(receptor, store_path).resume() as store:
            recovered = [(r["title"], r["best_score"]) for r in store.top(N_LIGANDS)]
            assert store.is_complete()
    finally:
        campaign_runner.dock = real_dock

    print(f"resume re-docked ordinals {docked_on_resume} only\n")

    print(f"{'ligand':10s} {'score':>9s}")
    for title, score in recovered:
        print(f"{title:10s} {score:9.3f}")

    assert recovered == reference
    print("\nrecovered ranking is bitwise identical to the uninterrupted run")


if __name__ == "__main__":
    main()
