"""The campaign store: columnar on disk, SQLite in memory.

Both backends implement the same interface (see
:class:`~repro.campaign.store.CampaignStore` — the reference — and
:class:`~repro.campaign.colstore.ColumnarStore`), produce identical
``science_digest`` fingerprints for the same campaign, and share resume
semantics. :func:`create_store` picks the backend from the path:

* ``":memory:"`` — SQLite, the one-shot store ``screen()`` docks into.
* any other path — columnar: a store *directory* of append-only CRC-framed
  logs plus sealed columnar segments, O(1) memory per write (the perf
  ledger's dock campaign: 101 B per ligand, against 768 in a SQLite file).

``open_store`` detects the backend from what is on disk (a directory with a
``meta.json`` is columnar, a file is SQLite), so ``campaign
resume|status|top|export`` never need to be told, and a SQLite store an
older build wrote still resumes. Only one process writes a columnar store;
the read commands open it with ``readonly=True``, beside a live campaign.

What loads when: the columnar store with this module; SQLite
(:mod:`repro.campaign.store` and ``sqlite3``) only when ``":memory:"``,
``backend="sqlite"`` or an older build's SQLite file is created or opened,
so a campaign run to disk never imports it.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CampaignError

from repro.campaign.colstore import ColumnarStore

__all__ = [
    "STORE_BACKENDS",
    "create_store",
    "open_store",
    "detect_backend",
    "store_disk_bytes",
]

STORE_BACKENDS = ("sqlite", "columnar")


def _sqlite():
    # Deferred import: only ``":memory:"``, ``backend="sqlite"`` and an
    # older build's SQLite file load SQLite; a campaign on disk never does.
    from repro.campaign.store import CampaignStore

    return CampaignStore


def create_store(
    path: str | Path,
    config: dict,
    config_hash: str,
    *,
    backend: str | None = None,
):
    """Create a fresh campaign store: columnar unless ``path`` is
    ``":memory:"`` or ``backend`` names one."""
    if backend is None:
        backend = "sqlite" if str(path) == ":memory:" else "columnar"
    if backend not in STORE_BACKENDS:
        raise CampaignError(
            f"unknown store backend {backend!r}; pick one of {STORE_BACKENDS}"
        )
    if backend == "columnar":
        return ColumnarStore.create(path, config, config_hash)
    return _sqlite().create(path, config, config_hash)


def detect_backend(path: str | Path) -> str:
    """Which backend owns the store at ``path`` (which must exist)."""
    path = str(path)
    if path == ":memory:":
        return "sqlite"
    root = Path(path)
    if not root.exists():
        raise CampaignError(f"no campaign store at {path}")
    if root.is_dir():
        if not (root / "meta.json").exists():
            raise CampaignError(f"{path} is not a campaign store (no metadata)")
        return "columnar"
    return "sqlite"


def open_store(path: str | Path, *, readonly: bool = False):
    """Attach to an existing campaign store, whichever backend wrote it.

    ``readonly=True`` is for reading a store a live campaign may be writing:
    a columnar store is then read as a consistent view and no file changes
    (SQLite's own locking already makes any second open safe).
    """
    if detect_backend(path) == "columnar":
        return ColumnarStore.open(path, readonly=readonly)
    return _sqlite().open(path)


def store_disk_bytes(path: str | Path) -> int:
    """Total on-disk footprint of a store (file, or directory tree)."""
    root = Path(path)
    if root.is_dir():
        return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    return root.stat().st_size if root.exists() else 0
