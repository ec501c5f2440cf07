"""Import-graph guard: what a process loads before (and without) docking.

``networkx`` costs ~0.15 s and ~17 MB to import, which every CLI call, fleet
worker and coordinator pays if a module pulls it in at its top level, and
SciPy (~0.26 s, ~27 MB) is not a dependency of ``src/`` at all: the one
class it was used for is :mod:`repro.molecules.neighbors` now. Each case
runs in a fresh interpreter and asserts on ``sys.modules`` — never on
seconds — so it holds on any machine.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: A process that never docks must have loaded none of these.
WATCHED = ("networkx", "http.server", "ssl")

#: ...and no process running ``src/`` loads any ``scipy*`` module, docking or not.
_REPORT = (
    "import json, sys; print(json.dumps("
    f"[m for m in {WATCHED!r} if m in sys.modules]"
    " + sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


#: The fleet's modules: a single-node campaign has no use for them.
_CLUSTER_REPORT = (
    "import json, sys; print(json.dumps("
    "sorted(m for m in sys.modules if m.startswith('repro.cluster'))))"
)


def loaded_after(body: str, cwd, report: str = _REPORT) -> set[str]:
    """Run ``body`` in a fresh interpreter; which watched modules did it load?"""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{body}\n{report}"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_no_module_imports_scipy_or_networkx_at_top_level():
    # networkx: unindented = module level; use sites import inside the function.
    # scipy: nowhere, indented or not.
    forbidden = re.compile(
        r"^(import|from) networkx\b|^[ \t]*(import|from) scipy\b", re.MULTILINE
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if forbidden.search(path.read_text(encoding="utf-8"))
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


def test_find_spots_loads_no_scipy(tmp_path):
    body = DOCK_SETUP + "from repro.molecules.spots import find_spots\n"
    assert loaded_after(body + "find_spots(receptor, 2)", tmp_path) == set()


CAMPAIGN = DOCK_SETUP + (
    "from repro.campaign import CampaignRunner, ListSource\n"
    "runner = CampaignRunner(\n"
    "    receptor, ListSource([ligand, generate_ligand(12, seed=5)]),\n"
    "    store_path=':memory:', n_spots=2, metaheuristic='M1', workload_scale=0.02,\n"
    ")\n"
)
CAMPAIGN_RUN = CAMPAIGN + "assert runner.run().counts()['done'] == 2\n"


def test_a_campaign_runner_built_and_run_loads_no_scipy(tmp_path):
    assert loaded_after(CAMPAIGN, tmp_path) == set()
    assert loaded_after(CAMPAIGN_RUN, tmp_path) == set()
    assert loaded_after(CAMPAIGN_RUN, tmp_path, _CLUSTER_REPORT) == set()


# ----------------------------------------------------------------------
# the campaign perimeter: what a campaign process leaves unloaded
# ----------------------------------------------------------------------
#: SQLite, the hardware simulator and ``multiprocessing``: a campaign run to
#: disk runs none of them (a pooled one forks its workers with the last), and
#: no campaign loads ``concurrent.futures``: no process-pool executor, and no
#: thread pool either (one loop on the main thread drives the pipeline).
OFF_THE_CAMPAIGN = (
    "sqlite3", "repro.campaign.store", "repro.hardware",
    "repro.engine.executor", "repro.engine.scheduler",
    "repro.engine.reporting", "repro.engine.warmup",
    "multiprocessing", "concurrent.futures",
)
_PERIMETER_REPORT = (
    "import json, sys; print(json.dumps(sorted("
    f"m for m in sys.modules if m.startswith({OFF_THE_CAMPAIGN!r}))))"
)
CAMPAIGN_ON_DISK = DOCK_SETUP + (
    "from repro.campaign import CampaignRunner, ListSource\n"
    "runner = CampaignRunner(\n"
    "    receptor, ListSource([ligand, generate_ligand(12, seed=5)]),\n"
    "    store_path='c.store', n_spots=2, metaheuristic='M1', workload_scale=0.02,\n"
    "    host_workers=WORKERS,\n"
    ")\n"
    "with runner.run() as store:\n"
    "    assert store.counts()['done'] == 2\n"
    "    store.export_json('c.json'), store.science_digest()\n"
)


def test_a_campaign_on_disk_loads_no_sqlite_simulator_or_pool(tmp_path):
    for sub in ("serial", "pooled"):
        (tmp_path / sub).mkdir()
    serial = CAMPAIGN_ON_DISK.replace("WORKERS", "0")
    assert loaded_after(serial, tmp_path / "serial", _PERIMETER_REPORT) == set()
    assert loaded_after(INGEST_AND_READBACK, tmp_path, _PERIMETER_REPORT) == set()
    pooled = CAMPAIGN_ON_DISK.replace("WORKERS", "2")
    loaded = loaded_after(pooled, tmp_path / "pooled", _PERIMETER_REPORT)
    assert "multiprocessing" in loaded
    assert {m for m in loaded if not m.startswith("multiprocessing")} == set()
    # ...all of it in set-up: an import inside run() lands in the first lease.
    built = pooled[: pooled.index("with runner.run()")]
    assert loaded_after(built, tmp_path / "pooled", _PERIMETER_REPORT) == loaded


def test_screen_and_an_older_builds_sqlite_store_load_sqlite(tmp_path):
    screened = DOCK_SETUP + (
        "from repro.vs import screen\n"
        "report = screen(receptor, [ligand], n_spots=2, metaheuristic='M1',"
        " workload_scale=0.02)\n"
        "assert len(report.entries) == 1\n"
    )
    assert "sqlite3" in loaded_after(screened, tmp_path, _PERIMETER_REPORT)
    # The file an older build left; today's process opens it.
    from repro.campaign.store import CampaignStore

    CampaignStore.create(tmp_path / "old.db", {"guard": 1}, "0" * 64).close()
    older = (
        "from repro.campaign import open_store\n"
        "with open_store('old.db', readonly=True) as store:\n"
        "    assert store.counts()['done'] == 0\n"
    )
    loaded = loaded_after(older, tmp_path, _PERIMETER_REPORT)
    assert {"sqlite3", "repro.campaign.store"} <= loaded


def test_rigid_dock_never_loads_networkx(tmp_path):
    body = DOCK_SETUP + (
        "from repro.vs.docking import dock\n"
        "dock(receptor, ligand, n_spots=2, metaheuristic='M1', workload_scale=0.02)\n"
    )
    assert loaded_after(body, tmp_path) == set()


def test_a_fleet_node_sets_up_its_spots_without_scipy(tmp_path):
    # The config frame a coordinator sends, handed to a node in this process.
    body = DOCK_SETUP + (
        "import socket\n"
        "from repro.campaign import CampaignRunner, ListSource\n"
        "from repro.cluster import ClusterCampaign, WorkerNode\n"
        "from repro.cluster.protocol import Channel\n"
        "runner = CampaignRunner(receptor, ListSource([ligand]), store_path=':memory:', n_spots=2)\n"
        "config = ClusterCampaign(runner, nodes=2)._config_frame()\n"
        "ours, theirs = socket.socketpair()\n"
        "node = WorkerNode(Channel(ours), {**config, 'kind': 'config', 'node': 0})\n"
        "assert len(node.spots) == 2\n"
        "ours.close(); theirs.close()\n"
    )
    assert loaded_after(body, tmp_path) == set()


def test_bond_graph_is_where_networkx_loads(tmp_path):
    body = DOCK_SETUP + "from repro.molecules.topology import bond_graph\n"
    assert "networkx" not in loaded_after(body, tmp_path)
    assert "networkx" in loaded_after(body + "bond_graph(ligand)", tmp_path)


# ----------------------------------------------------------------------
# reachability: no module that only its own test imports
# ----------------------------------------------------------------------
#: Modules no non-``__init__`` module of ``src/`` imports, each with the file
#: that needs it: a bench behind an EXPERIMENTS.md row, a documented user
#: API, or the package ``__init__`` that *uses* it. A module whose only users
#: are a re-export and its own test belongs in neither list; delete it.
NEEDED_FROM_OUTSIDE = {
    "repro.cli": "pyproject.toml",  # the repro-vs console script
    # No campaign process writes a journal any more; the perf ledger's
    # ingest_stream still does. ROADMAP item 1a removes both.
    "repro.campaign.journal": "benchmarks/perf/workloads.py",
    "repro.engine.async_mode": "benchmarks/bench_ablation_sync_vs_async.py",
    "repro.engine.screening_schedule": "benchmarks/bench_ablation_screening_schedule.py",
    "repro.experiments.validation": "benchmarks/bench_validation_robustness.py",
    "repro.hardware.energy": "benchmarks/bench_ablation_energy.py",
    "repro.metaheuristics.extra.ant_colony": "examples/metaheuristic_comparison.py",
    "repro.metaheuristics.extra.differential_evolution": "examples/metaheuristic_comparison.py",
    "repro.metaheuristics.extra.grasp": "examples/metaheuristic_comparison.py",
    "repro.metaheuristics.extra.hybrid": "docs/architecture.md",
    "repro.metaheuristics.extra.tabu": "examples/metaheuristic_comparison.py",
    "repro.metaheuristics.extra.variable_neighborhood": "examples/metaheuristic_comparison.py",
    "repro.metaheuristics.multistart": "DESIGN.md",  # §3.3 independent runs
    "repro.observability.doctor": "src/repro/cli.py",  # repro-vs doctor
    "repro.observability.serve": "src/repro/cli.py",  # --serve-metrics
    "repro.observability.spans": "src/repro/observability/__init__.py",
    # Its only importer under src/ was the host runtime's array staging.
    "repro.scoring.batched": "benchmarks/perf/layers.py",  # scoring.batched.*
    "repro.scoring.composite": "benchmarks/bench_futurework_scoring.py",
    "repro.scoring.gridmap": "benchmarks/bench_futurework_scoring.py",
    "repro.scoring.hbond": "benchmarks/bench_futurework_scoring.py",
    "repro.scoring.reference": "tests/scoring/test_lennard_jones.py",  # the oracle
    "repro.scoring.softcore": "benchmarks/bench_futurework_scoring.py",
    "repro.scoring.tiled": "benchmarks/bench_ablation_tiling.py",  # the paper's kernel mirror
    "repro.vs.analysis": "examples/redocking.py",
    "repro.vs.visualize": "benchmarks/bench_figure1_binding.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_imported_by_the_program_or_named_with_its_user():
    modules = {_module_name(path): path for path in SRC.rglob("*.py")}
    imported = set()
    for name, path in modules.items():
        if path.name == "__init__.py":
            continue  # a re-export is not a use
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            imported.update(t for t in targets if t in modules and t != name)
    unreached = {
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in imported
    }
    assert sorted(unreached - set(NEEDED_FROM_OUTSIDE)) == []
    assert sorted(set(NEEDED_FROM_OUTSIDE) - unreached) == [], "reached now: drop it"
    gone = [u for u in NEEDED_FROM_OUTSIDE.values() if not (SRC.parent / u).exists()]
    assert gone == [], "the named user is gone: does the module still have one?"


def test_a_campaign_loads_no_module_only_outside_code_needs(tmp_path):
    # Package __init__s re-export these lazily; spans is the telemetry core.
    report = (
        "import json, sys; print(json.dumps("
        f"[m for m in {sorted(NEEDED_FROM_OUTSIDE)!r} if m in sys.modules]))"
    )
    for body in (INGEST_AND_READBACK, CAMPAIGN_RUN):
        assert loaded_after(body, tmp_path, report) == {"repro.observability.spans"}


def test_lazy_re_exports_and_the_scorer_registry_load_on_first_use(tmp_path):
    # Each lookup runs first thing in a fresh interpreter.
    lookup = "import json\nfrom repro.scoring.base import available_scorings, get_scoring"
    assert loaded_after(lookup, tmp_path, "print(json.dumps(available_scorings()))") == {
        "composite", "coulomb", "gridmap", "hydrogen-bond", "lennard-jones",
        "lennard-jones-batched", "lennard-jones-cutoff", "lennard-jones-softcore",
        "lennard-jones-tiled",
    }
    for name in ("gridmap", "lennard-jones-softcore"):
        found = f"print(json.dumps([get_scoring({name!r}).name]))"
        assert loaded_after(lookup, tmp_path, found) == {name}
    names = (
        "from repro.vs import gantt\n"
        "from repro.observability import diagnose_campaign\n"
        "from repro.engine import MultiGpuExecutor\n"
    )
    owners = "print(json.dumps([f.__module__ for f in (gantt, diagnose_campaign, MultiGpuExecutor)]))"
    assert loaded_after(lookup + "\n" + names, tmp_path, owners) == {
        "repro.vs.visualize", "repro.observability.doctor", "repro.engine.executor",
    }


# ----------------------------------------------------------------------
# one writer: the store write verbs have one caller, the journal's none
# ----------------------------------------------------------------------
STORE_VERBS = (
    "start_shard", "register_ligands", "record_result", "record_failure",
    "finish_shard", "mark_complete",
)
#: Only the perf ledger, outside ``src/``, still writes a journal.
JOURNAL_VERBS = ("shard_start", "shard_finish", "campaign_finish")
WRITE_VERBS = (*STORE_VERBS, *JOURNAL_VERBS)
#: The stores and the journal themselves (a backend may call its own verbs).
WRITERS = {f"repro.campaign.{name}" for name in ("store", "colstore", "backends", "journal")}


def test_each_store_and_journal_write_verb_is_called_from_one_module():
    callers: dict[str, set[str]] = {verb: set() for verb in (*WRITE_VERBS, "store.disk.bytes")}
    for path in SRC.rglob("*.py"):
        module = _module_name(path)
        if module in WRITERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in WRITE_VERBS:
                callers[node.func.attr].add(module)
            elif node.func.attr == "gauge" and any(
                isinstance(arg, ast.Constant) and arg.value == "store.disk.bytes"
                for arg in node.args
            ):
                callers["store.disk.bytes"].add(module)
    assert callers == {
        verb: set() if verb in JOURNAL_VERBS else {"repro.campaign.commit"}
        for verb in callers
    }
