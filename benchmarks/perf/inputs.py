"""Workload sizes and seed-derived inputs. Standard library only: the parent
process imports this and must stay small (its RSS is inherited by children
until exec, and ``peak_rss_mb`` is a maximum).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """One pass of every workload. ``FULL`` is sized so a pass takes 4-6 s on
    two cores: five or more passes fit in the 25 s a run measures."""

    receptor_atoms: int
    n_spots: int
    workload_scale: float
    dock_ligands: int
    dock_shard: int
    smi_lines: int
    smi_shard: int
    fixture_rows: int
    fixture_shard: int
    read_cycles: int
    #: top(10), top(100), top(1000) calls per read cycle. top(1000) exceeds
    #: the columnar index capacity (512) and falls back to a full scan.
    topk_calls: tuple[int, int, int]
    #: direct layer drivers
    driver_poses: int
    driver_library_lines: int
    driver_store_rows: int
    driver_fleet_ligands: int
    driver_roundtrips: int
    #: passes a run makes at least, however short ``--seconds`` is
    min_passes: int


FULL = Sizes(
    receptor_atoms=1500,
    n_spots=8,
    workload_scale=0.1,
    dock_ligands=32,
    dock_shard=8,
    smi_lines=4000,
    smi_shard=500,
    fixture_rows=32000,
    fixture_shard=1000,
    read_cycles=3,
    topk_calls=(20, 20, 2),
    driver_poses=1024,
    driver_library_lines=600,
    driver_store_rows=10000,
    driver_fleet_ligands=8,
    driver_roundtrips=400,
    min_passes=3,
)

SMOKE = Sizes(
    receptor_atoms=300,
    n_spots=4,
    workload_scale=0.02,
    dock_ligands=16,
    dock_shard=8,
    smi_lines=400,
    smi_shard=100,
    fixture_rows=2000,
    fixture_shard=500,
    read_cycles=1,
    topk_calls=(5, 5, 1),
    driver_poses=256,
    driver_library_lines=200,
    driver_store_rows=1000,
    driver_fleet_ligands=4,
    driver_roundtrips=50,
    min_passes=1,
)

PROFILES = {"full": FULL, "smoke": SMOKE}

#: Ligand sizes of one dock shard. Every shard holds the same sizes in a
#: seed-dependent order, so the scoring work of a campaign does not move with
#: the seed (a free draw from 16-32 atoms moves it by ~3% at this length).
DOCK_SHARD_ATOMS = (16, 18, 20, 22, 26, 28, 30, 32)


def dock_ligand_atoms(sizes: Sizes, seed: int) -> list[int]:
    """Atom count of every dock ligand, in library order."""
    rng = random.Random(seed)
    atoms: list[int] = []
    while len(atoms) < sizes.dock_ligands:
        shard = [DOCK_SHARD_ATOMS[i % len(DOCK_SHARD_ATOMS)] for i in range(sizes.dock_shard)]
        rng.shuffle(shard)
        atoms.extend(shard)
    return atoms[: sizes.dock_ligands]


def write_smiles_library(path: Path, sizes: Sizes, seed: int) -> int:
    """Write the ``ingest_stream`` library; returns its unique-title count.

    4-30 heavy atoms per line; about one line in twenty repeats an earlier
    title, which ``SmilesSource`` must drop.
    """
    rng = random.Random(seed)
    titles: list[str] = []
    unique: set[str] = set()
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(sizes.smi_lines):
            heavy = rng.randint(4, 30)
            smiles = "".join(rng.choice("CCCCCNNOOS") for _ in range(heavy))
            if titles and rng.random() < 0.05:
                title = rng.choice(titles)
            else:
                title = f"Z{rng.randrange(10**10):010d}"
                titles.append(title)
            unique.add(title)
            handle.write(f"{smiles} {title}\n")
    return len(unique)
