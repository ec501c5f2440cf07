"""Store backend selection: SQLite (default) vs columnar.

Both backends implement the same interface (see
:class:`~repro.campaign.store.CampaignStore` — the reference — and
:class:`~repro.campaign.colstore.ColumnarStore`), produce identical
``science_digest`` fingerprints for the same campaign, and share resume
semantics. The knob is purely an execution choice:

* ``sqlite`` — one database file. Best below ~10^5 ligands: zero moving
  parts, ad-hoc SQL, ``:memory:`` mode for one-shot ``screen()`` calls.
* ``columnar`` — a store *directory* of append-only CRC-framed logs plus
  sealed columnar segments. ~25× smaller on disk and O(1) memory per write;
  built for 10^6+ ligand campaigns.

``open_store`` detects the backend from what is on disk (a directory with a
``meta.json`` is columnar, a file is SQLite), so ``campaign
resume|status|top|export`` never need to be told.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CampaignError

from repro.campaign.store import CampaignStore

__all__ = [
    "STORE_BACKENDS",
    "create_store",
    "open_store",
    "detect_backend",
    "store_disk_bytes",
]

STORE_BACKENDS = ("sqlite", "columnar")


def _columnar():
    # Deferred import: keeps numpy-light paths (e.g. a SQLite store's
    # reads) from paying for the columnar machinery.
    from repro.campaign.colstore import ColumnarStore

    return ColumnarStore


def create_store(
    path: str | Path,
    config: dict,
    config_hash: str,
    *,
    backend: str = "sqlite",
):
    """Create a fresh campaign store with the requested backend."""
    if backend not in STORE_BACKENDS:
        raise CampaignError(
            f"unknown store backend {backend!r}; pick one of {STORE_BACKENDS}"
        )
    if backend == "columnar":
        return _columnar().create(path, config, config_hash)
    return CampaignStore.create(path, config, config_hash)


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


def open_store(path: str | Path):
    """Attach to an existing campaign store, whichever backend wrote it."""
    if detect_backend(path) == "columnar":
        return _columnar().open(path)
    return CampaignStore.open(path)


def store_disk_bytes(path: str | Path) -> int:
    """Total on-disk footprint of a store (file, or directory tree)."""
    root = Path(path)
    if root.is_dir():
        return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    return root.stat().st_size if root.exists() else 0
