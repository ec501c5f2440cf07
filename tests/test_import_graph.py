"""Import-graph guard: what a process loads before (and without) docking.

``scipy.spatial`` and ``networkx`` cost ~0.4 s and ~45 MB to import, which
every CLI call, fleet worker and coordinator pays if a module pulls them in
at its top level. Each case runs in a fresh interpreter and asserts on
``sys.modules`` — never on seconds — so it holds on any machine.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: A process that never docks must have loaded none of these.
WATCHED = ("scipy", "scipy.spatial", "networkx", "http.server", "ssl")

_REPORT = f"import json, sys; print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"


def loaded_after(body: str, cwd) -> set[str]:
    """Run ``body`` in a fresh interpreter; which watched modules did it load?"""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{body}\n{_REPORT}"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_no_module_imports_scipy_or_networkx_at_top_level():
    # Unindented = module level; use sites import inside the function.
    top_level = re.compile(r"^(import|from) (scipy|networkx)\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if top_level.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_importing_the_package_loads_none_of_them(tmp_path):
    assert loaded_after("import repro, repro.campaign, repro.cli", tmp_path) == set()


INGEST_AND_READBACK = """
from repro.campaign import open_store
from repro.campaign.backends import create_store
from repro.campaign.library import SmilesSource, iter_shards, resolve_title

with open("lib.smi", "w") as handle:
    for i in range(200):
        handle.write(f"{'C' * (4 + i % 20)}O mol-{i}\\n")
store = create_store("store", {"guard": 1}, "0" * 64, backend="columnar")
seen = set()
for shard, items in iter_shards(SmilesSource("lib.smi", seed=1), 50):
    store.start_shard(shard.shard_id, shard.start, shard.stop)
    titled = [(o, l, resolve_title(l.title, o, seen)) for o, l in items]
    store.register_ligands([(o, t) for o, _, t in titled])
    for ordinal, ligand, title in titled:
        store.mark_running(ordinal)
        store.record_result(
            ordinal, title, -float(ligand.n_atoms), 0, 100,
            wall_seconds=0.1, simulated_seconds=0.1, attempts=1,
        )
    store.finish_shard(shard.shard_id, 1.0)
store.mark_complete(200)
store.close()
with open_store("store") as store:
    assert len(store.top(10)) == 10
    assert store.export_csv("out.csv") == 200
"""


def test_ingest_and_readback_load_none_of_them(tmp_path):
    assert loaded_after(INGEST_AND_READBACK, tmp_path) == set()


DOCK_SETUP = """
from repro.molecules.synthetic import generate_ligand, generate_receptor
receptor = generate_receptor(120, seed=3)
ligand = generate_ligand(10, seed=4)
"""


def test_find_spots_is_where_scipy_spatial_loads(tmp_path):
    body = DOCK_SETUP + "from repro.molecules.spots import find_spots\n"
    assert loaded_after(body, tmp_path) == set()
    loaded = loaded_after(body + "find_spots(receptor, 2)", tmp_path)
    assert "scipy.spatial" in loaded
    assert "networkx" not in loaded


def test_a_campaign_runner_loads_scipy_spatial_when_built_not_when_run(tmp_path):
    # run() is what spans, ETAs and the perf ledger's layer budget time.
    body = DOCK_SETUP + (
        "from repro.campaign import CampaignRunner, ListSource\n"
        "CampaignRunner(receptor, ListSource([ligand]), store_path=':memory:')\n"
    )
    loaded = loaded_after(body, tmp_path)
    assert "scipy.spatial" in loaded
    assert "networkx" not in loaded


def test_rigid_dock_never_loads_networkx(tmp_path):
    body = DOCK_SETUP + (
        "from repro.vs.docking import dock\n"
        "dock(receptor, ligand, n_spots=2, metaheuristic='M1', workload_scale=0.02)\n"
    )
    loaded = loaded_after(body, tmp_path)
    assert "scipy.spatial" in loaded
    assert "networkx" not in loaded


def test_bond_graph_is_where_networkx_loads(tmp_path):
    body = DOCK_SETUP + "from repro.molecules.topology import bond_graph\n"
    assert "networkx" not in loaded_after(body, tmp_path)
    assert "networkx" in loaded_after(body + "bond_graph(ligand)", tmp_path)
