"""Streaming library sources, sharding, and title resolution."""

import numpy as np
import pytest

from repro.campaign.library import (
    IterableSource,
    ListSource,
    PDBDirectorySource,
    Shard,
    SyntheticSource,
    iter_shards,
    receptor_fingerprint,
    resolve_title,
)
from repro.errors import CampaignError
from repro.molecules.pdb import dumps_pdb, write_pdb
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.vs.screening import synthetic_library


def test_synthetic_source_matches_materialized_library():
    # Lazy streaming must reproduce synthetic_library() ligand-for-ligand.
    source = SyntheticSource(5, atoms_range=(8, 14), seed=9)
    materialized = synthetic_library(5, atoms_range=(8, 14), seed=9)
    streamed = list(source)
    assert len(streamed) == 5
    for lazy, eager in zip(streamed, materialized):
        assert lazy.title == eager.title
        assert np.array_equal(lazy.coords, eager.coords)
        assert list(lazy.elements) == list(eager.elements)


def test_synthetic_source_random_access():
    source = SyntheticSource(6, atoms_range=(8, 12), seed=4)
    assert source.count() == 6
    third = source.ligand_at(3)
    assert third.title == "LIG0003"
    assert np.array_equal(third.coords, list(source)[3].coords)
    with pytest.raises(CampaignError):
        source.ligand_at(6)
    with pytest.raises(CampaignError):
        SyntheticSource(0)
    with pytest.raises(CampaignError):
        SyntheticSource(3, atoms_range=(10, 5))


def test_list_and_iterable_sources():
    ligands = [generate_ligand(8, seed=i) for i in range(3)]
    listed = ListSource(ligands)
    assert listed.count() == 3
    assert listed.descriptor() == {"kind": "list", "n_ligands": 3}
    assert [l.title for l in listed] == [l.title for l in ligands]

    streaming = IterableSource(iter(ligands))
    assert streaming.count() is None
    assert streaming.descriptor() == {"kind": "iterable"}
    assert len(list(streaming)) == 3


def test_iter_shards_deterministic_plan():
    source = ListSource([generate_ligand(6, seed=i) for i in range(7)])
    shards = list(iter_shards(source, 3))
    assert [s.shard_id for s, _ in shards] == [0, 1, 2]
    assert [(s.start, s.stop) for s, _ in shards] == [(0, 3), (3, 6), (6, 7)]
    assert shards[-1][0].size == 1
    # Ordinals are global and contiguous across shards.
    ordinals = [o for _, items in shards for o, _ in items]
    assert ordinals == list(range(7))
    assert list(shards[1][0].ordinals()) == [3, 4, 5]
    with pytest.raises(CampaignError):
        list(iter_shards(source, 0))


def test_shard_is_value_object():
    assert Shard(1, 3, 6) == Shard(1, 3, 6)
    assert Shard(1, 3, 6).size == 3


def test_resolve_title_collisions():
    seen: set[str] = set()
    assert resolve_title("LIGA", 0, seen) == "LIGA"
    assert resolve_title("LIGB", 1, seen) == "LIGB"
    # Duplicate gets the global ordinal suffixed.
    assert resolve_title("LIGA", 2, seen) == "LIGA#2"
    # Empty title falls back to the ordinal form.
    assert resolve_title("", 3, seen) == "ligand-3"
    # And even that collides safely with a hostile explicit title.
    assert resolve_title("ligand-3", 4, seen) == "ligand-3#4"
    assert len(seen) == 5


def test_pdb_directory_source(tmp_path):
    # Two single-ligand files plus one two-model file, in name order.
    lig_a = generate_ligand(8, seed=1, title="")
    lig_b = generate_ligand(9, seed=2, title="beta")
    write_pdb(lig_a, tmp_path / "a_first.pdb")
    write_pdb(lig_b, tmp_path / "b_second.pdb")
    model_1 = generate_ligand(7, seed=3, title="")
    model_2 = generate_ligand(6, seed=4, title="")
    multi = []
    for i, lig in enumerate((model_1, model_2), start=1):
        body = "\n".join(
            line
            for line in dumps_pdb(lig).splitlines()
            if not line.startswith("END")
        )
        multi.append(f"MODEL     {i}\n{body}\nENDMDL\n")
    (tmp_path / "c_multi.pdb").write_text("".join(multi))

    source = PDBDirectorySource(tmp_path)
    ligands = list(source)
    assert [l.title for l in ligands] == [
        "a_first",  # untitled file inherits its stem
        "beta",
        "c_multi:1",  # untitled models get stem:model
        "c_multi:2",
    ]
    assert [l.n_atoms for l in ligands] == [8, 9, 7, 6]
    assert source.count() is None
    descriptor = source.descriptor()
    assert descriptor["kind"] == "pdb-dir"
    # Two iterations stream identical content (resume re-streams).
    assert [l.title for l in source] == [l.title for l in ligands]


def _atoms(n: int, seed: int) -> str:
    """ATOM records of one synthetic ligand: no TITLE, no END."""
    lines = dumps_pdb(generate_ligand(n, seed=seed, title="")).splitlines()
    return "\n".join(l for l in lines if l.startswith(("ATOM", "HETATM"))) + "\n"


def _pdb_library(root):
    """Titled, untitled, multi-MODEL and MODEL-without-ENDMDL files."""
    (root / "a_titled.pdb").write_text(
        "TITLE     alpha\nTITLE    2 continued\n" + _atoms(8, 1) + "END\n"
    )
    (root / "b_untitled.pdb").write_text(_atoms(9, 2) + "END\n")
    # A TITLE after ENDMDL is past where the parser stops reading.
    (root / "c_late.pdb").write_text(_atoms(7, 3) + "ENDMDL\nTITLE     late\n")
    # The header TITLE sits outside every MODEL block: no model inherits it.
    (root / "d_multi.pdb").write_text(
        "TITLE     header\n"
        "MODEL        1\nTITLE     first\n" + _atoms(6, 4) + "ENDMDL\n"
        "MODEL        2\n" + _atoms(7, 5) + "ENDMDL\n"
    )
    (root / "e_open.pdb").write_text(
        "MODEL        1\n" + _atoms(6, 6) + "ENDMDL\n"
        "MODEL        2\nTITLE     last\n" + _atoms(8, 7)
    )
    (root / "f_one_open.pdb").write_text("MODEL        1\n" + _atoms(5, 8))


def _parsed_titles(source):
    """Each ligand's title the way the parsing path has always made it."""
    from repro.molecules.pdb import loads_pdb

    titles = []
    for path in sorted(source.path.glob(source.pattern)):
        chunks = source._split_models(path.read_text())
        for model, chunk in enumerate(chunks, start=1):
            suffix = f":{model}" if len(chunks) > 1 else ""
            titles.append(loads_pdb(chunk).title or f"{path.stem}{suffix}")
    return titles


def test_a_pdb_directory_is_planned_from_titles_without_parsing(tmp_path, monkeypatch):
    import repro.molecules.pdb as pdb_mod
    from repro.campaign.library import plan_shards

    _pdb_library(tmp_path)
    source = PDBDirectorySource(tmp_path)
    expected = _parsed_titles(source)
    assert expected == [
        "alpha continued", "b_untitled", "c_late", "first", "d_multi:2",
        "e_open:1", "last", "f_one_open",
    ]
    assert [l.title for l in source] == expected
    assert [l.n_atoms for l in source] == [8, 9, 7, 6, 7, 6, 8, 5]

    parsed = []
    real = pdb_mod.loads_pdb
    monkeypatch.setattr(
        pdb_mod, "loads_pdb", lambda text, **kw: parsed.append(text) or real(text, **kw)
    )
    titles_plan = plan_shards(source, 3, set(), titles_only=True)
    planned = [t for _, items in titles_plan for _, _, t in items]
    assert planned == expected and parsed == []
    # A resume builds only the unfinished shard's ligands: [3, 6).
    plan = list(plan_shards(source, 3, {0, 2}))
    assert [items is None for _, items in plan] == [True, False, True]
    assert [(o, l.title, t) for o, l, t in plan[1][1]] == [
        (o, expected[o], expected[o]) for o in range(3, 6)
    ]
    assert len(parsed) == 3


def test_pdb_directory_source_validation(tmp_path):
    with pytest.raises(CampaignError):
        PDBDirectorySource(tmp_path / "missing")
    with pytest.raises(CampaignError):
        PDBDirectorySource(tmp_path)  # exists but empty


def test_receptor_fingerprint_sensitivity():
    receptor = generate_receptor(50, seed=5)
    same = generate_receptor(50, seed=5)
    other = generate_receptor(50, seed=6)
    assert receptor_fingerprint(receptor) == receptor_fingerprint(same)
    assert receptor_fingerprint(receptor) != receptor_fingerprint(other)
    moved = receptor.translated(np.array([0.1, 0.0, 0.0]))
    assert receptor_fingerprint(receptor) != receptor_fingerprint(moved)
