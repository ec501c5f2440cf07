"""Streaming ligand libraries for durable screening campaigns.

The paper's premise is screening "large libraries of small molecules" (§1);
a library that size never fits in memory. A :class:`LigandSource` therefore
yields ligands *lazily* in a fixed global order, and the campaign layer cuts
that stream into deterministic fixed-size :class:`Shard` s. Determinism is
the load-bearing property: every ligand has a stable global **ordinal**, its
search seed derives from that ordinal alone (``campaign seed + ordinal``,
exactly as :func:`repro.vs.screening.screen` seeds ``seed + i``), so any
execution order, shard size, worker count, or crash/resume boundary
reproduces bitwise-identical scores.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro import observability as obs
from repro.errors import CampaignError
from repro.molecules.structures import Ligand, Receptor
from repro.molecules.synthetic import generate_ligand

__all__ = [
    "LigandSource",
    "IterableSource",
    "ListSource",
    "SyntheticSource",
    "PDBDirectorySource",
    "SmilesSource",
    "CsvSource",
    "Shard",
    "iter_shards",
    "plan_shards",
    "resolve_title",
    "receptor_fingerprint",
    "build_receptor",
    "build_source",
    "materialize_ordinals",
]


@runtime_checkable
class LigandSource(Protocol):
    """A lazily-iterable ligand library with a stable global order.

    Implementations must yield the same ligands in the same order on every
    iteration (campaign resume re-streams the source from the start), and
    describe themselves via :meth:`descriptor` so a campaign store can record
    — and a CLI ``campaign resume`` can reconstruct — the library.
    """

    def __iter__(self) -> Iterator[Ligand]: ...

    def descriptor(self) -> dict:
        """JSON-serialisable description of this library (hashed into the
        campaign config)."""
        ...

    def count(self) -> int | None:
        """Total ligands, or ``None`` when unknown before streaming."""
        ...


class IterableSource:
    """Adapt an arbitrary iterable of ligands into a one-shot source.

    The generic escape hatch :func:`repro.vs.screening.screen` uses: no
    length, no reconstruction — a campaign built on it can run but not be
    resumed from its descriptor alone.
    """

    def __init__(self, ligands: Iterable[Ligand]) -> None:
        self._ligands = ligands

    def __iter__(self) -> Iterator[Ligand]:
        return iter(self._ligands)

    def descriptor(self) -> dict:
        return {"kind": "iterable"}

    def count(self) -> int | None:
        return None


class ListSource:
    """A materialised ligand list (small libraries, tests)."""

    def __init__(self, ligands: list[Ligand]) -> None:
        self._ligands = list(ligands)

    def __iter__(self) -> Iterator[Ligand]:
        return iter(self._ligands)

    def __len__(self) -> int:
        return len(self._ligands)

    def descriptor(self) -> dict:
        return {"kind": "list", "n_ligands": len(self._ligands)}

    def count(self) -> int | None:
        return len(self._ligands)


class SyntheticSource:
    """Generate the drug-like demo library lazily, one ligand at a time.

    Ligand ``i`` is bitwise identical to ``synthetic_library(n, ...)[i]``
    (same size draw, same ``seed + 1000 + i`` generation seed, same
    ``LIG%04d`` title) without ever materialising the other ``n - 1``.
    """

    def __init__(
        self,
        n_ligands: int,
        atoms_range: tuple[int, int] = (20, 50),
        seed: int = 0,
    ) -> None:
        if n_ligands < 1:
            raise CampaignError(f"n_ligands must be >= 1, got {n_ligands}")
        lo, hi = atoms_range
        if not 1 <= lo <= hi:
            raise CampaignError(f"invalid atoms_range {atoms_range}")
        self.n_ligands = int(n_ligands)
        self.atoms_range = (int(lo), int(hi))
        self.seed = int(seed)
        # One cheap upfront draw fixes every ligand's size; generation of the
        # atoms themselves stays lazy and per-ligand independent.
        rng = np.random.default_rng(self.seed)
        self._sizes = rng.integers(lo, hi + 1, size=self.n_ligands)

    def ligand_at(self, ordinal: int) -> Ligand:
        """Generate ligand ``ordinal`` directly (random access)."""
        if not 0 <= ordinal < self.n_ligands:
            raise CampaignError(
                f"ordinal {ordinal} out of range for {self.n_ligands} ligands"
            )
        return self.line_ligand(ordinal, f"LIG{ordinal:04d}")

    def _unique_entries(self) -> Iterator[tuple[int, str]]:
        """``(ordinal, title)`` per ligand: the lines :func:`iter_shards`
        plans from without building a ligand."""
        return ((i, f"LIG{i:04d}") for i in range(self.n_ligands))

    def line_ligand(self, ordinal: int, title: str) -> Ligand:
        """The ligand one of those lines maps to."""
        return generate_ligand(
            int(self._sizes[ordinal]), seed=self.seed + 1000 + ordinal, title=title
        )

    def __iter__(self) -> Iterator[Ligand]:
        for i in range(self.n_ligands):
            yield self.ligand_at(i)

    def __len__(self) -> int:
        return self.n_ligands

    def descriptor(self) -> dict:
        return {
            "kind": "synthetic",
            "n_ligands": self.n_ligands,
            "atoms_range": list(self.atoms_range),
            "seed": self.seed,
        }

    def count(self) -> int | None:
        return self.n_ligands


class PDBDirectorySource:
    """Stream ligands from a directory of PDB files.

    Files are visited in sorted-name order (stable across runs); a file
    holding several ``MODEL``/``ENDMDL`` blocks contributes one ligand per
    model, in file order — the multi-ligand SD-file idiom transplanted to
    PDB. Untitled ligands inherit ``<stem>`` / ``<stem>:<model>`` titles.
    """

    def __init__(self, path: str | Path, pattern: str = "*.pdb") -> None:
        self.path = Path(path)
        self.pattern = pattern
        if not self.path.is_dir():
            raise CampaignError(f"ligand library directory not found: {self.path}")
        self._files = sorted(self.path.glob(pattern))
        if not self._files:
            raise CampaignError(
                f"no files matching {pattern!r} under {self.path}"
            )

    @staticmethod
    def _split_models(text: str) -> list[str]:
        """Split a PDB document into per-MODEL chunks (whole doc if none)."""
        if "\nMODEL" not in text and not text.startswith("MODEL"):
            return [text]
        chunks: list[str] = []
        current: list[str] | None = None
        for line in text.splitlines():
            record = line[:6].strip()
            if record == "MODEL":
                current = []
            elif record == "ENDMDL":
                if current:
                    chunks.append("\n".join(current) + "\nEND\n")
                current = None
            elif current is not None:
                current.append(line)
        if current:  # MODEL without ENDMDL — take what's there
            chunks.append("\n".join(current) + "\nEND\n")
        return chunks or [text]

    def __iter__(self) -> Iterator[Ligand]:
        from repro.molecules.pdb import loads_pdb

        for path in self._files:
            text = path.read_text(encoding="ascii", errors="replace")
            chunks = self._split_models(text)
            for model_index, chunk in enumerate(chunks):
                ligand = loads_pdb(chunk, kind="ligand")
                if not ligand.title:
                    suffix = f":{model_index + 1}" if len(chunks) > 1 else ""
                    ligand.title = f"{path.stem}{suffix}"
                yield ligand

    def descriptor(self) -> dict:
        return {
            "kind": "pdb-dir",
            "path": str(self.path.resolve()),
            "pattern": self.pattern,
        }

    def count(self) -> int | None:
        return None  # multi-model files make the ligand count unknowable


#: Tokens counted as one heavy atom when sizing a ligand from its SMILES.
#: Bracket atoms ([NH3+], [Se], …) count as one; hydrogens don't count.
_SMILES_ATOM = re.compile(r"Cl|Br|\[[^\]]*\]|[BCNOPSFI]|[bcnops]")


def _line_ligand(
    smiles: str, title: str, seed: int, atoms_range: tuple[int, int]
) -> Ligand:
    """Deterministically synthesise a ligand for one library line.

    Real conformer generation is out of scope (the paper's inputs are
    pre-built poses); what matters for the campaign layer is that each line
    maps to a *stable* ligand — same atom count (a heavy-atom estimate from
    the SMILES) and same generation seed (a content hash, NOT python's
    per-process ``hash()``) on every stream, every process, every node.
    """
    lo, hi = atoms_range
    heavy = len([m for m in _SMILES_ATOM.findall(smiles) if m != "[H]"])
    n_atoms = min(max(heavy, lo), hi)
    digest = hashlib.blake2b(
        f"{smiles}\x00{title}\x00{seed}".encode("utf-8"), digest_size=8
    ).digest()
    return generate_ligand(
        n_atoms, seed=int.from_bytes(digest, "big"), title=title
    )


def _title_key(title: str) -> bytes:
    """8-byte dedup key: bounded memory even for 10^7-title libraries."""
    return hashlib.blake2b(title.encode("utf-8"), digest_size=8).digest()


class SmilesSource:
    """Stream ligands from a line-delimited SMILES file (``.smi``).

    Each non-blank, non-``#`` line is ``SMILES[ whitespace title]``; an
    untitled line uses its SMILES string as the title. With ``dedup=True``
    (the default) a line whose title was already seen is skipped — the
    dedup set holds 8-byte content hashes, so memory stays bounded at any
    library size. Iteration order is the file order minus duplicates, hence
    stable across runs — the determinism resume depends on.
    """

    kind = "smiles"

    def __init__(
        self,
        path: str | Path,
        *,
        seed: int = 0,
        dedup: bool = True,
        atoms_range: tuple[int, int] = (4, 64),
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise CampaignError(f"ligand library file not found: {self.path}")
        lo, hi = atoms_range
        if not 1 <= lo <= hi:
            raise CampaignError(f"invalid atoms_range {atoms_range}")
        self.seed = int(seed)
        self.dedup = bool(dedup)
        self.atoms_range = (int(lo), int(hi))

    def _entries(self) -> Iterator[tuple[str, str]]:
        # utf-8-sig: a spreadsheet export's leading BOM is not part of the
        # first SMILES (it would change that ligand's content-hash seed).
        with open(self.path, "r", encoding="utf-8-sig") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(None, 1)
                smiles = parts[0]
                title = parts[1].strip() if len(parts) > 1 else smiles
                yield smiles, title

    def _unique_entries(self) -> Iterator[tuple[str, str]]:
        """``_entries`` minus dedup-dropped lines: position == ordinal."""
        seen: set[bytes] = set()
        for smiles, title in self._entries():
            if self.dedup:
                key = _title_key(title)
                if key in seen:
                    continue
                seen.add(key)
            yield smiles, title

    def line_ligand(self, smiles: str, title: str) -> Ligand:
        """The ligand this library maps one of its lines to."""
        return _line_ligand(smiles, title, self.seed, self.atoms_range)

    def __iter__(self) -> Iterator[Ligand]:
        for smiles, title in self._unique_entries():
            yield self.line_ligand(smiles, title)

    def ligands_at(self, ordinals: Iterable[int]) -> dict[int, Ligand]:
        """Build only the ligands at ``ordinals`` (one scan of the file).

        The lines before the largest wanted ordinal are parsed and deduped
        but never synthesised, so a fleet worker's lease costs
        ``len(ordinals)`` ligand builds, not ``max(ordinals)``. Ordinals
        past the end of the library are absent from the result.
        """
        wanted = set(ordinals)
        out: dict[int, Ligand] = {}
        if not wanted:
            return out
        last = max(wanted)
        for ordinal, (smiles, title) in enumerate(self._unique_entries()):
            if ordinal in wanted:
                out[ordinal] = self.line_ligand(smiles, title)
            if ordinal >= last:
                break
        return out

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "path": str(self.path.resolve()),
            "seed": self.seed,
            "dedup": self.dedup,
            "atoms_range": list(self.atoms_range),
        }

    def count(self) -> int | None:
        return None  # knowable only by streaming (dedup skips lines)


class CsvSource(SmilesSource):
    """Stream ligands from a CSV with SMILES (and optionally title) columns.

    The header row names the columns (matched case-insensitively); rows
    missing the SMILES cell are skipped. Everything else — synthetic ligand
    mapping, bounded-memory title dedup, deterministic order — matches
    :class:`SmilesSource`.
    """

    kind = "csv"

    def __init__(
        self,
        path: str | Path,
        *,
        smiles_column: str = "smiles",
        title_column: str = "title",
        seed: int = 0,
        dedup: bool = True,
        atoms_range: tuple[int, int] = (4, 64),
    ) -> None:
        super().__init__(path, seed=seed, dedup=dedup, atoms_range=atoms_range)
        self.smiles_column = str(smiles_column)
        self.title_column = str(title_column)

    def _entries(self) -> Iterator[tuple[str, str]]:
        import csv

        with open(self.path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CampaignError(f"{self.path} is empty") from None
            columns = {name.strip().lower(): i for i, name in enumerate(header)}
            smiles_at = columns.get(self.smiles_column.lower())
            if smiles_at is None:
                raise CampaignError(
                    f"{self.path} has no {self.smiles_column!r} column "
                    f"(found {sorted(columns)})"
                )
            title_at = columns.get(self.title_column.lower())
            for row in reader:
                if smiles_at >= len(row) or not row[smiles_at].strip():
                    continue
                smiles = row[smiles_at].strip()
                title = (
                    row[title_at].strip()
                    if title_at is not None
                    and title_at < len(row)
                    and row[title_at].strip()
                    else smiles
                )
                yield smiles, title

    def descriptor(self) -> dict:
        descriptor = super().descriptor()
        descriptor["smiles_column"] = self.smiles_column
        descriptor["title_column"] = self.title_column
        return descriptor


@dataclass(frozen=True, slots=True)
class Shard:
    """A contiguous slice of the global ligand ordering.

    ``shard_id`` is derived from the ordinals (``start // shard size``), so
    the shard plan is a pure function of the library order and shard size —
    the property journal replay and resume rely on.
    """

    shard_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def ordinals(self) -> range:
        """Global ligand ordinals covered by this shard."""
        return range(self.start, self.stop)


def iter_shards(
    source: Iterable[Ligand],
    shard_size: int,
    skip: frozenset[int] | set[int] = frozenset(),
    titles_only: bool = False,
) -> Iterator[tuple[Shard, list[tuple[int, Ligand]]]]:
    """Cut a ligand stream into fixed-size shards, one shard in memory.

    Yields ``(shard, [(ordinal, ligand), ...])``; only the current shard's
    ligands are ever materialised. A shard whose id is in ``skip`` (finished
    before a resume) is still yielded, because the plan and
    :func:`resolve_title` depend on the whole stream, but with ``(ordinal,
    title)`` items: a line-file or synthetic source then builds none of its
    ligands. With ``titles_only`` every shard comes that way.
    """
    if shard_size < 1:
        raise CampaignError(f"shard_size must be >= 1, got {shard_size}")
    # (key, title) lines instead of ligands, where the source has them.
    lazy = (titles_only or bool(skip)) and isinstance(
        source, (SmilesSource, SyntheticSource)
    )
    lines = source._unique_entries if lazy else None
    buffer: list = []
    start = 0

    def cut():
        shard = Shard(start // shard_size, start, start + len(buffer))
        if titles_only or shard.shard_id in skip:
            items = [entry[1] if lines else entry.title for entry in buffer]
        elif lines:
            items = [source.line_ligand(*entry) for entry in buffer]
        else:
            items = buffer
        return shard, list(zip(shard.ordinals(), items))

    for entry in lines() if lines else source:
        buffer.append(entry)
        if len(buffer) == shard_size:
            yield cut()
            start += len(buffer)
            buffer = []
    if buffer:
        yield cut()


def resolve_title(title: str, ordinal: int, seen: set[str]) -> str:
    """Collision-free display/store key for one ligand.

    Empty titles become ``ligand-<ordinal>``; a title already taken by an
    earlier ligand gets ``#<ordinal>`` suffixed. Deterministic given the
    stream prefix, so resume re-derives identical keys.
    """
    name = title or f"ligand-{ordinal}"
    if name in seen:
        name = f"{name}#{ordinal}"
    seen.add(name)
    return name


def plan_shards(
    source: Iterable[Ligand],
    shard_size: int,
    finished: frozenset[int] | set[int],
    titles_only: bool = False,
) -> Iterator[tuple[Shard, list[tuple[int, Ligand | None, str]] | None]]:
    """The campaign plan every execution follows, one shard at a time.

    Yields ``(shard, [(ordinal, ligand, title), ...])`` with the titles made
    collision-free over the whole stream, or ``(shard, None)`` for a shard
    in ``finished``: it is counted as skipped and its titles still claim
    their names, but nothing is built for it. Ordinals are contiguous from
    zero, so the last shard's ``stop`` is the number of ligands streamed.
    With ``titles_only`` every ``ligand`` is ``None``, and a line-file or
    synthetic source builds no ligand at all (a fleet coordinator leases
    ordinals and titles; its nodes build the ligands).
    """
    seen_titles: set[str] = set()
    for shard, items in iter_shards(source, shard_size, finished, titles_only):
        if shard.shard_id in finished:
            for ordinal, title in items:
                resolve_title(title, ordinal, seen_titles)
            obs.counter("campaign.shards.skipped").inc()
            yield shard, None
        elif titles_only:
            yield shard, [
                (ordinal, None, resolve_title(title, ordinal, seen_titles))
                for ordinal, title in items
            ]
        else:
            yield shard, [
                (ordinal, ligand, resolve_title(ligand.title, ordinal, seen_titles))
                for ordinal, ligand in items
            ]


def build_receptor(descriptor: dict) -> Receptor:
    """Reconstruct a receptor from its campaign-config descriptor.

    The inverse of what ``campaign run`` records: ``synthetic`` descriptors
    regenerate (bitwise, same seed), ``pdb`` descriptors re-read the file.
    Anything else (an ``opaque`` in-memory receptor) cannot be rebuilt in
    another process and raises :class:`~repro.errors.CampaignError`.
    """
    kind = descriptor.get("kind")
    if kind == "synthetic":
        from repro.molecules.synthetic import generate_receptor

        return generate_receptor(
            int(descriptor["n_atoms"]), seed=int(descriptor["seed"])
        )
    if kind == "pdb":
        from repro.molecules.pdb import read_pdb

        return read_pdb(descriptor["path"], kind="receptor")
    raise CampaignError(
        "this campaign's receptor cannot be reconstructed from its "
        f"descriptor {descriptor}; resume it via the Python API"
    )


def build_source(descriptor: dict) -> LigandSource:
    """Reconstruct a ligand source from its campaign-config descriptor.

    Same contract as :func:`build_receptor`: ``synthetic`` and ``pdb-dir``
    libraries rebuild exactly; one-shot ``iterable``/``list`` sources raise.
    """
    kind = descriptor.get("kind")
    if kind == "synthetic":
        return SyntheticSource(
            int(descriptor["n_ligands"]),
            atoms_range=tuple(descriptor["atoms_range"]),
            seed=int(descriptor["seed"]),
        )
    if kind == "pdb-dir":
        return PDBDirectorySource(
            descriptor["path"], descriptor.get("pattern", "*.pdb")
        )
    if kind in ("smiles", "csv"):
        cls = SmilesSource if kind == "smiles" else CsvSource
        kwargs = dict(
            seed=int(descriptor.get("seed", 0)),
            dedup=bool(descriptor.get("dedup", True)),
            atoms_range=tuple(descriptor.get("atoms_range", (4, 64))),
        )
        if kind == "csv":
            kwargs["smiles_column"] = descriptor.get("smiles_column", "smiles")
            kwargs["title_column"] = descriptor.get("title_column", "title")
        return cls(descriptor["path"], **kwargs)
    raise CampaignError(
        "this campaign's ligand library cannot be reconstructed from its "
        f"descriptor {descriptor}; resume it via the Python API"
    )


def materialize_ordinals(
    source: LigandSource, ordinals: list[int]
) -> dict[int, Ligand]:
    """Fetch specific ligands by global ordinal.

    Random-access sources (:meth:`SyntheticSource.ligand_at`) jump straight
    to each ordinal; line-file sources (:meth:`SmilesSource.ligands_at`)
    scan their file once and build only the requested lines; any other
    streaming source is iterated up to the largest requested ordinal.
    Worker nodes use this to materialise a lease's ligands locally instead
    of shipping them over the wire.
    """
    wanted = set(ordinals)
    if not wanted:
        return {}
    ligand_at = getattr(source, "ligand_at", None)
    if callable(ligand_at):
        return {ordinal: ligand_at(ordinal) for ordinal in sorted(wanted)}
    ligands_at = getattr(source, "ligands_at", None)
    if callable(ligands_at):
        out = ligands_at(wanted)
    else:
        out = {}
        last = max(wanted)
        for ordinal, ligand in enumerate(source):
            if ordinal in wanted:
                out[ordinal] = ligand
            if ordinal >= last:
                break
    missing = wanted - set(out)
    if missing:
        raise CampaignError(
            f"library ended before ordinals {sorted(missing)} were reached"
        )
    return out


def receptor_fingerprint(receptor: Receptor) -> str:
    """Content hash of a receptor (coordinates, elements, charges).

    Stored in the campaign config; resume refuses to continue against a
    receptor whose fingerprint drifted.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(receptor.coords, dtype=np.float64).tobytes())
    digest.update("|".join(str(e) for e in receptor.elements).encode())
    digest.update(np.ascontiguousarray(receptor.charges, dtype=np.float64).tobytes())
    return digest.hexdigest()
