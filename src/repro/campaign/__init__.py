"""Durable, resumable screening campaigns.

The campaign subsystem treats a library screen as a persistent unit of work
rather than an in-memory loop: ligands stream in lazily
(:mod:`repro.campaign.library`), results and shard boundaries land in a
per-campaign store, the one durable log (:mod:`repro.campaign.colstore`;
``screen()``'s in-memory one is :mod:`repro.campaign.store`), and the runner
(:mod:`repro.campaign.runner`) drives everything through the process-parallel
host runtime with bounded retries — so a crash, SIGKILL, or Ctrl-C costs at
most the in-flight ligand, and ``resume()`` completes the remainder with
bitwise-identical scores.

Quickstart::

    from repro.campaign import CampaignRunner, SyntheticSource

    runner = CampaignRunner(
        receptor, SyntheticSource(10_000, seed=3),
        store_path="campaign", n_spots=16, seed=7)
    store = runner.run()          # interrupt any time...
    store = runner.resume()       # ...and continue exactly where it stopped
    for row in store.top(10):
        print(row["title"], row["best_score"])
"""

from repro.campaign.backends import (
    create_store,
    detect_backend,
    open_store,
    store_disk_bytes,
)
from repro.campaign.colstore import COLSTORE_SCHEMA_VERSION, ColumnarStore
from repro.campaign.library import (
    CsvSource,
    IterableSource,
    LigandSource,
    ListSource,
    PDBDirectorySource,
    Shard,
    SmilesSource,
    SyntheticSource,
    iter_shards,
    receptor_fingerprint,
    resolve_title,
)
from repro.campaign.runner import (
    CampaignProgress,
    CampaignRunner,
    campaign_config,
    config_hash,
)
from repro.campaign.store import SCHEMA_VERSION, CampaignStore, export_report

__all__ = [
    "CampaignProgress",
    "CampaignRunner",
    "CampaignStore",
    "COLSTORE_SCHEMA_VERSION",
    "ColumnarStore",
    "CsvSource",
    "IterableSource",
    "LigandSource",
    "ListSource",
    "PDBDirectorySource",
    "SCHEMA_VERSION",
    "Shard",
    "SmilesSource",
    "SyntheticSource",
    "campaign_config",
    "config_hash",
    "create_store",
    "detect_backend",
    "export_report",
    "iter_shards",
    "open_store",
    "receptor_fingerprint",
    "resolve_title",
    "store_disk_bytes",
]
