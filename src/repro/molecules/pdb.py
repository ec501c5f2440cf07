"""Minimal PDB-format reader and writer.

Supports the fixed-column ``ATOM``/``HETATM`` records that virtual-screening
pipelines consume, plus ``TITLE``/``END``. This is enough to (a) round-trip
the synthetic 2BSM/2BXG-like structures and (b) load real RCSB files when a
user has them locally.

Column layout follows the PDB v3.3 specification:

====== ======= ==============================
cols   field   notes
====== ======= ==============================
1-6    record  ``ATOM``/``HETATM``
7-11   serial
13-16  name
18-20  resName
22     chainID
23-26  resSeq
31-38  x       %8.3f
39-46  y       %8.3f
47-54  z       %8.3f
55-60  occupancy
61-66  tempFactor
77-78  element right-justified
====== ======= ==============================
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import PDBParseError
from repro.molecules.elements import is_known
from repro.molecules.structures import Ligand, Molecule, Receptor

__all__ = ["read_pdb", "write_pdb", "loads_pdb", "loads_pdb_title", "dumps_pdb"]


def _parse_atom_line(line: str, lineno: int) -> tuple[str, float, float, float, str, str, int]:
    """Parse one ATOM/HETATM record into (element, x, y, z, name, resname, resseq)."""
    if len(line) < 54:
        raise PDBParseError(f"line {lineno}: ATOM record too short ({len(line)} chars)")
    try:
        x = float(line[30:38])
        y = float(line[38:46])
        z = float(line[46:54])
    except ValueError as exc:
        raise PDBParseError(f"line {lineno}: bad coordinates: {exc}") from None
    name = line[12:16].strip()
    resname = line[17:20].strip() or "UNK"
    resseq_text = line[22:26].strip()
    try:
        resseq = int(resseq_text) if resseq_text else 1
    except ValueError:
        raise PDBParseError(f"line {lineno}: bad residue number {resseq_text!r}") from None
    element = line[76:78].strip() if len(line) >= 78 else ""
    if not element:
        # Fall back to the atom-name heuristic: first alphabetic character(s).
        stripped = name.lstrip("0123456789")
        if not stripped:
            raise PDBParseError(f"line {lineno}: cannot infer element from name {name!r}")
        element = stripped[:2] if is_known(stripped[:2]) else stripped[0]
    element = element.capitalize()
    if not is_known(element):
        raise PDBParseError(f"line {lineno}: unknown element {element!r}")
    return element, x, y, z, name, resname, resseq


def loads_pdb(text: str, kind: str = "molecule") -> Molecule:
    """Parse a PDB document from a string.

    Parameters
    ----------
    text:
        PDB file contents.
    kind:
        ``"molecule"``, ``"receptor"`` or ``"ligand"`` — selects the returned
        class.
    """
    return read_pdb(io.StringIO(text), kind=kind)


def loads_pdb_title(text: str) -> str:
    """The title :func:`loads_pdb` gives ``text``, read without parsing atoms.

    The same rule: ``TITLE`` records joined in order, up to the first
    ``ENDMDL``. What a plan that needs only titles reads.
    """
    title = ""
    for line in io.StringIO(text):
        record = line[:6].strip()
        if record == "TITLE":
            title = (title + " " + line[10:].strip()).strip()
        elif record == "ENDMDL":
            break
    return title


def read_pdb(source: str | Path | TextIO, kind: str = "molecule") -> Molecule:
    """Read a PDB file (path or open text handle) into a molecule.

    Only the first model of multi-model files is read (``ENDMDL`` stops
    parsing).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", errors="replace") as handle:
            return read_pdb(handle, kind=kind)

    classes = {"molecule": Molecule, "receptor": Receptor, "ligand": Ligand}
    try:
        cls = classes[kind]
    except KeyError:
        raise PDBParseError(f"kind must be one of {sorted(classes)}, got {kind!r}") from None

    coords: list[tuple[float, float, float]] = []
    elements: list[str] = []
    names: list[str] = []
    residues: list[str] = []
    residue_indices: list[int] = []
    title = ""

    for lineno, line in enumerate(source, start=1):
        record = line[:6].strip()
        if record in ("ATOM", "HETATM"):
            element, x, y, z, name, resname, resseq = _parse_atom_line(line, lineno)
            coords.append((x, y, z))
            elements.append(element)
            names.append(name)
            residues.append(resname)
            residue_indices.append(resseq)
        elif record == "TITLE":
            title = (title + " " + line[10:].strip()).strip()
        elif record == "ENDMDL":
            break

    if not coords:
        raise PDBParseError("no ATOM/HETATM records found")
    return cls(
        coords=np.array(coords),
        elements=elements,
        names=names,
        residues=residues,
        residue_indices=np.array(residue_indices),
        title=title,
    )


def dumps_pdb(molecule: Molecule) -> str:
    """Serialise a molecule to PDB text."""
    out = io.StringIO()
    write_pdb(molecule, out)
    return out.getvalue()


def write_pdb(molecule: Molecule, destination: str | Path | TextIO) -> None:
    """Write a molecule as a PDB document.

    Coordinates beyond PDB's fixed-width field range (|x| >= 10000 Å) raise,
    as they would silently corrupt the column layout.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            write_pdb(molecule, handle)
        return

    if np.any(np.abs(molecule.coords) >= 10000.0):
        raise PDBParseError("coordinates exceed the PDB fixed-width field range")

    if molecule.title:
        destination.write(f"TITLE     {molecule.title}\n")
    record = "HETATM" if isinstance(molecule, Ligand) else "ATOM  "
    for i in range(molecule.n_atoms):
        x, y, z = molecule.coords[i]
        name = str(molecule.names[i])[:4]
        # PDB convention: 1-2 char element symbols start in column 14.
        padded_name = f" {name:<3s}" if len(name) < 4 else name
        destination.write(
            f"{record}{(i + 1) % 100000:5d} {padded_name} "
            f"{str(molecule.residues[i])[:3]:<3s} A"
            f"{int(molecule.residue_indices[i]) % 10000:4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}{1.0:6.2f}{0.0:6.2f}          "
            f"{str(molecule.elements[i]):>2s}\n"
        )
    destination.write("END\n")
