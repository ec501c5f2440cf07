"""Streaming SMILES/CSV library readers: parsing, dedup, determinism."""

import pytest

from repro.campaign.library import (
    CsvSource,
    SmilesSource,
    build_source,
    materialize_ordinals,
)
from repro.errors import CampaignError

SMI = """\
# demo library
CCO ethanol
CC(=O)O acetic-acid

c1ccccc1 benzene
CCO ethanol
CCN
"""

CSV = """\
id,SMILES,Title,note
1,CCO,ethanol,aliphatic
2,CC(=O)O,acetic-acid,
3,,skipped-empty-smiles,
4,c1ccccc1,,untitled row
5,CCO,ethanol,duplicate
"""


@pytest.fixture
def smi_path(tmp_path):
    path = tmp_path / "lib.smi"
    path.write_text(SMI, encoding="utf-8")
    return path


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "lib.csv"
    path.write_text(CSV, encoding="utf-8")
    return path


def test_smiles_parsing_and_dedup(smi_path):
    ligands = list(SmilesSource(smi_path, seed=7))
    # Comment + blank skipped, duplicate "ethanol" dropped, untitled line
    # falls back to its SMILES string as title.
    assert [l.title for l in ligands] == [
        "ethanol", "acetic-acid", "benzene", "CCN"
    ]
    assert all(l.n_atoms >= 4 for l in ligands)


def test_smiles_dedup_off_keeps_duplicates(smi_path):
    titles = [l.title for l in SmilesSource(smi_path, seed=7, dedup=False)]
    assert titles == ["ethanol", "acetic-acid", "benzene", "ethanol", "CCN"]


def test_smiles_heavy_atom_estimate(tmp_path):
    path = tmp_path / "sized.smi"
    path.write_text("CCO tiny\nCC(=O)Nc1ccc(O)cc1 medium\n", encoding="utf-8")
    tiny, medium = list(SmilesSource(path, seed=0, atoms_range=(2, 64)))
    assert tiny.n_atoms == 3  # C, C, O
    assert medium.n_atoms == 11  # paracetamol heavy atoms
    # Clamped to atoms_range at both ends.
    tiny2, medium2 = list(SmilesSource(path, seed=0, atoms_range=(5, 8)))
    assert tiny2.n_atoms == 5 and medium2.n_atoms == 8


def test_smiles_deterministic_across_iterations_and_instances(smi_path):
    first = list(SmilesSource(smi_path, seed=7))
    second = list(SmilesSource(smi_path, seed=7))
    for a, b in zip(first, second):
        assert a.title == b.title
        assert (a.coords == b.coords).all()
    # A different seed keeps titles but changes conformers.
    other = list(SmilesSource(smi_path, seed=8))
    assert any((a.coords != c.coords).any() for a, c in zip(first, other))


def test_csv_parsing(csv_path):
    ligands = list(CsvSource(csv_path, seed=7))
    # Case-insensitive header match, empty-SMILES row skipped, untitled row
    # titled by its SMILES, duplicate title deduped.
    assert [l.title for l in ligands] == ["ethanol", "acetic-acid", "c1ccccc1"]


def test_csv_missing_smiles_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,name\n1,x\n", encoding="utf-8")
    with pytest.raises(CampaignError, match="no 'smiles' column"):
        list(CsvSource(path)._entries())


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CampaignError, match="is empty"):
        list(CsvSource(path)._entries())


def test_missing_file_and_bad_atoms_range(tmp_path):
    with pytest.raises(CampaignError, match="not found"):
        SmilesSource(tmp_path / "nope.smi")
    path = tmp_path / "ok.smi"
    path.write_text("CCO x\n", encoding="utf-8")
    with pytest.raises(CampaignError, match="invalid atoms_range"):
        SmilesSource(path, atoms_range=(9, 2))


def test_descriptor_round_trip(smi_path, csv_path):
    smiles = SmilesSource(smi_path, seed=11, dedup=False, atoms_range=(6, 30))
    rebuilt = build_source(smiles.descriptor())
    assert isinstance(rebuilt, SmilesSource) and not isinstance(rebuilt, CsvSource)
    assert rebuilt.descriptor() == smiles.descriptor()
    assert [l.title for l in rebuilt] == [l.title for l in smiles]

    csv_src = CsvSource(csv_path, seed=3, smiles_column="SMILES")
    rebuilt_csv = build_source(csv_src.descriptor())
    assert isinstance(rebuilt_csv, CsvSource)
    assert rebuilt_csv.descriptor() == csv_src.descriptor()
    assert [l.title for l in rebuilt_csv] == [l.title for l in csv_src]


def test_count_unknowable_before_streaming(smi_path):
    assert SmilesSource(smi_path).count() is None


def test_materialize_ordinals_scans_stream_once(smi_path):
    source = SmilesSource(smi_path, seed=7)
    picked = materialize_ordinals(source, [0, 2])
    assert picked[0].title == "ethanol" and picked[2].title == "benzene"
    with pytest.raises(CampaignError, match="library ended"):
        materialize_ordinals(source, [99])


def _same_ligand(a, b):
    return (
        a.coords.tobytes() == b.coords.tobytes()
        and a.charges.tobytes() == b.charges.tobytes()
        and list(a.elements) == list(b.elements)
        and a.title == b.title
    )


def _write_library(path, n_lines, duplicate_every=None):
    """One line per title; every ``duplicate_every``-th line repeats line 0."""
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_lines):
            repeat = duplicate_every and i and i % duplicate_every == 0
            handle.write(f"{'C' * (4 + i % 9)}N mol-{0 if repeat else i}\n")


@pytest.mark.parametrize("duplicate_every", [None, 7])
@pytest.mark.parametrize("reader", ["smiles", "csv"])
def test_materialize_ordinals_builds_only_the_wanted_lines(
    tmp_path, monkeypatch, reader, duplicate_every
):
    from repro.campaign import library

    smi = tmp_path / "lib.smi"
    _write_library(smi, 120, duplicate_every)
    if reader == "smiles":
        source = SmilesSource(smi, seed=5)
    else:
        rows = [line.split() for line in smi.read_text().splitlines()]
        csv_path = tmp_path / "lib.csv"
        csv_path.write_text(
            "smiles,title\n" + "".join(f"{s},{t}\n" for s, t in rows)
        )
        source = CsvSource(csv_path, seed=5)
    everything = list(source)
    ordinals = [90, 3, 95]

    calls = []
    real = library.generate_ligand

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(library, "generate_ligand", counting)
    picked = materialize_ordinals(source, ordinals)
    assert len(calls) == len(ordinals)
    assert sorted(picked) == sorted(ordinals)
    for ordinal in ordinals:
        assert _same_ligand(picked[ordinal], everything[ordinal]), ordinal
    with pytest.raises(CampaignError, match="library ended"):
        materialize_ordinals(source, [len(everything)])


@pytest.mark.parametrize("reader", ["smiles", "csv"])
def test_utf8_bom_does_not_change_the_library(tmp_path, reader):
    # The BOM lands on whatever the file starts with: the first SMILES, or
    # the first header cell — here the ``smiles`` column itself.
    text = SMI.split("\n", 1)[1] if reader == "smiles" else (
        "smiles,title\nCCO,ethanol\nCC(=O)O,acetic-acid\nc1ccccc1,\n"
    )
    cls = SmilesSource if reader == "smiles" else CsvSource
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = list(cls(plain, seed=3)), list(cls(bom, seed=3))
    assert len(want) == len(got) > 0
    for a, b in zip(want, got):
        assert _same_ligand(a, b), a.title
