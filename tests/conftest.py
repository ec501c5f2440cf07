"""Shared fixtures: one small synthetic complex reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.molecules.spots import find_spots
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.scoring.lennard_jones import LennardJonesScoring


@pytest.fixture(scope="session")
def receptor():
    """A 300-atom globular receptor (session-cached; treat as immutable)."""
    return generate_receptor(300, seed=11, title="test receptor")


@pytest.fixture(scope="session")
def ligand():
    """An 18-atom drug-like ligand (session-cached; treat as immutable)."""
    return generate_ligand(18, seed=12, title="test ligand")


@pytest.fixture(scope="session")
def spots(receptor):
    """Four spots on the test receptor."""
    return find_spots(receptor, 4)


@pytest.fixture(scope="session")
def dock_shape():
    """The perf ledger's dock shape: 1,500-atom receptor, 24-atom ligand,
    8 spots (session-cached; treat as immutable)."""
    big = generate_receptor(1500, seed=7, title="ledger receptor")
    return big, generate_ligand(24, seed=8, title="ledger ligand"), find_spots(big, 8)


@pytest.fixture(scope="session")
def dense_scorer(receptor, ligand):
    """Exact double-precision dense LJ scorer."""
    return LennardJonesScoring().bind(receptor, ligand)


@pytest.fixture(scope="session")
def fast_scorer(receptor, ligand):
    """The engine's fast path: float32 cutoff LJ."""
    return CutoffLennardJonesScoring(dtype=np.float32).bind(receptor, ligand)


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def pose_batch(spots, rng):
    """A spot-anchored batch of 12 random poses (translations, quaternions)."""
    from repro.molecules.transforms import random_quaternion

    centers = np.stack([s.center for s in spots])
    translations = np.repeat(centers, 3, axis=0) + rng.normal(0, 1.0, (12, 3))
    quaternions = random_quaternion(rng, 12)
    return translations, quaternions


@pytest.fixture()
def sqlite_campaigns(monkeypatch):
    """Campaigns started in this test write the store every build before the
    columnar one wrote: a SQLite file whose config records ``store_backend``.
    Everything after creation (resume, status, doctor) is today's code."""
    import repro.campaign.runner as runner_mod
    from repro.campaign.backends import create_store

    def older_build(path, config, config_hash):
        config = {**config, "store_backend": "sqlite"}
        return create_store(path, config, config_hash, backend="sqlite")

    monkeypatch.setattr(runner_mod, "create_store", older_build)


@pytest.fixture()
def kill_a_worker(monkeypatch):
    """SIGKILL one worker of a campaign's pool, the way an OOM kill would.

    ``kill_a_worker(runtime)`` kills worker 0 of ``runtime``'s evaluator
    and returns every worker's pid from before the kill;
    ``kill_a_worker.at_close`` lists the pids each runtime held as it
    closed, so a test can see that only the dead worker was replaced.
    """
    import os
    import signal

    from repro.engine.host_runtime import PersistentHostRuntime

    def kill(runtime) -> list[int]:
        pids = [worker.process.pid for worker in runtime.evaluator._workers]
        os.kill(pids[0], signal.SIGKILL)
        return pids

    kill.at_close = []
    real_close = PersistentHostRuntime.close

    def close(self) -> None:
        if self.evaluator is not None:
            kill.at_close.append([w.process.pid for w in self.evaluator._workers])
        real_close(self)

    monkeypatch.setattr(PersistentHostRuntime, "close", close)
    return kill
