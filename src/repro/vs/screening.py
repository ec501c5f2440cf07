"""Library screening: rank many ligands against one receptor.

"Given a receptor protein, large libraries of small molecules (ligands) are
explored to search for the structures which best bind to the receptor" (§1).
Spots are computed once per receptor and shared across ligands; each ligand
gets an independent docking run, and the report ranks them by best score.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ReproError
from repro.metaheuristics.template import MetaheuristicSpec
from repro.molecules.structures import Ligand, Receptor
from repro.molecules.synthetic import generate_ligand
from repro.scoring.base import ScoringFunction
from repro.vs.results import ScreeningReport

if TYPE_CHECKING:
    from repro.hardware.node import NodeSpec

__all__ = ["screen", "synthetic_library"]


def synthetic_library(
    n_ligands: int,
    atoms_range: tuple[int, int] = (20, 50),
    seed: int = 0,
) -> list[Ligand]:
    """Generate a drug-like ligand library for screening demos and tests."""
    if n_ligands < 1:
        raise ReproError(f"n_ligands must be >= 1, got {n_ligands}")
    lo, hi = atoms_range
    if not 1 <= lo <= hi:
        raise ReproError(f"invalid atoms_range {atoms_range}")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(lo, hi + 1, size=n_ligands)
    return [
        generate_ligand(int(sizes[i]), seed=seed + 1000 + i, title=f"LIG{i:04d}")
        for i in range(n_ligands)
    ]


def screen(
    receptor: Receptor,
    ligands: Iterable[Ligand],
    n_spots: int = 16,
    metaheuristic: str | MetaheuristicSpec = "M2",
    scoring: ScoringFunction | None = None,
    seed: int = 0,
    workload_scale: float = 1.0,
    node: NodeSpec | None = None,
    mode: str = "gpu-heterogeneous",
    host_workers: int = 0,
    parallel_mode: str = "static",
    nodes: int = 0,
    cluster=None,
    pipeline_depth: int | None = None,
) -> ScreeningReport:
    """Screen a ligand library against the receptor surface.

    Each ligand is docked independently (ligand ``i`` uses search seed
    ``seed + i``); the report ranks ligands by their best score. When a
    ``node`` is supplied, per-ligand simulated times land on each entry and
    their finite sum in ``report.simulated_seconds``. ``host_workers``/
    ``parallel_mode`` pass through to :func:`repro.vs.docking.dock` — real
    process-parallel scoring with bitwise-identical rankings. With
    ``host_workers > 0`` the worker pool and its Eq. 1 weights persist across
    the whole library: each ligand is a lease on the one pool, not a pool
    spawn.

    ``pipeline_depth`` (default ``host_workers + 1``) co-schedules that many
    ligands through the persistent pool at once: one ligand's
    generation-barrier tails and host-side Select/Combine/Include gaps are
    filled with another ligand's poses. Per-ligand launch sequences and
    seeds are untouched, so the ranking is bitwise identical at every depth;
    ``pipeline_depth=1`` docks one ligand at a time.

    ``nodes >= 2`` distributes the screen over a local fleet of worker-node
    processes (:mod:`repro.cluster`): ligands ship inline over the lease
    protocol, every node runs its own persistent host runtime, and the
    ranking is bitwise identical to ``nodes=0``. ``cluster`` optionally
    carries a :class:`repro.cluster.ClusterConfig` with fleet tuning knobs.

    ``ligands`` may be any iterable — a generator streams through without
    ever being materialised. This is a thin wrapper over a one-shot
    in-memory campaign (:class:`repro.campaign.CampaignRunner` with a
    ``:memory:`` store), so ``screen()`` and ``repro-vs campaign`` share one
    execution path; ligands with duplicate or empty titles get their global
    ordinal suffixed so report entries and store keys never collide.
    """
    from itertools import chain

    from repro import observability as obs
    from repro.campaign.library import IterableSource
    from repro.campaign.runner import CampaignRunner

    iterator = iter(ligands)
    try:
        first = next(iterator)
    except StopIteration:
        raise ReproError("screening needs at least one ligand") from None
    runner = CampaignRunner(
        receptor,
        IterableSource(chain([first], iterator)),
        store_path=":memory:",
        n_spots=n_spots,
        metaheuristic=metaheuristic,
        scoring=scoring,
        seed=seed,
        workload_scale=workload_scale,
        node=node,
        mode=mode,
        host_workers=host_workers,
        parallel_mode=parallel_mode,
        max_attempts=1,
        raise_on_failure=True,
        nodes=nodes,
        cluster=cluster,
        pipeline_depth=pipeline_depth,
    )
    with obs.span("vs.screen", host_workers=host_workers, mode=parallel_mode):
        with runner.run() as store:
            return store.to_report()
