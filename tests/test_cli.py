"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["dock", "--spots", "3"])
    assert args.command == "dock"
    assert args.spots == 3
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_devices_command(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "Kepler" in out
    assert "Tesla K40c" in out
    assert "Xeon E5-2620" in out


def test_dock_command(capsys, tmp_path):
    out_pdb = tmp_path / "complex.pdb"
    code = main(
        [
            "dock",
            "--receptor-atoms", "200",
            "--ligand-atoms", "12",
            "--spots", "2",
            "--scale", "0.05",
            "--out-pdb", str(out_pdb),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best score" in out
    assert out_pdb.exists()


def test_screen_command(capsys):
    code = main(
        [
            "screen",
            "--receptor-atoms", "200",
            "--ligands", "2",
            "--spots", "2",
            "--scale", "0.05",
        ]
    )
    assert code == 0
    assert "Screening report" in capsys.readouterr().out


def test_tables_command_single(capsys):
    code = main(["tables", "--table", "8", "--scale", "0.02"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Paper Table 8" in out
    assert "Hertz" in out


def test_dock_flexible_flag(capsys):
    code = main(
        [
            "dock",
            "--receptor-atoms", "200",
            "--ligand-atoms", "12",
            "--spots", "2",
            "--flexible",
            "--max-torsions", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flexible best score" in out
    assert "torsions" in out


def test_trace_and_replay_commands(capsys, tmp_path):
    trace_path = tmp_path / "m3.json"
    code = main(
        ["trace", "--preset", "M3", "--dataset", "2BSM",
         "--scale", "0.1", "--out", str(trace_path)]
    )
    assert code == 0
    assert trace_path.exists()
    assert "launches" in capsys.readouterr().out

    code = main(
        ["replay", "--trace", str(trace_path), "--node", "jupiter",
         "--mode", "gpu-dynamic"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gpu-dynamic on jupiter" in out
    assert "balance" in out


def test_screen_with_live_metrics_writes_series(capsys, tmp_path):
    series = tmp_path / "screen.live.jsonl"
    code = main(
        [
            "screen",
            "--receptor-atoms", "150",
            "--ligands", "2",
            "--spots", "2",
            "--scale", "0.05",
            "--live-metrics", str(series),
            "--sample-interval", "0.05",
        ]
    )
    assert code == 0
    assert "wrote live metrics series" in capsys.readouterr().out
    from repro.observability import read_series

    records = read_series(series)
    assert records and records[-1]["reason"] == "final"


def test_sample_interval_must_be_positive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["screen", "--live-metrics", "x.jsonl", "--sample-interval", "0"])
    assert excinfo.value.code == 2
    assert "must be > 0" in capsys.readouterr().err


def test_metrics_show_and_legacy_shim(capsys, tmp_path):
    snap = tmp_path / "snap.json"
    assert main([
        "screen", "--receptor-atoms", "150", "--ligands", "2",
        "--spots", "2", "--scale", "0.05", "--metrics-out", str(snap),
    ]) == 0
    capsys.readouterr()

    assert main(["metrics", "show", str(snap)]) == 0
    shown = capsys.readouterr().out
    assert "counters:" in shown

    # Pre-split invocations still work: `metrics SNAPSHOT` means `show`.
    assert main(["metrics", str(snap)]) == 0
    assert capsys.readouterr().out == shown

    trace_out = tmp_path / "trace.json"
    assert main([
        "metrics", "show", str(snap), "--format", "trace",
        "--out", str(trace_out),
    ]) == 0
    import json

    doc = json.loads(trace_out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_metrics_serve_command_scrapes_snapshot_file(capsys, tmp_path):
    import json
    import threading
    import urllib.request

    snap = tmp_path / "snap.json"
    assert main([
        "screen", "--receptor-atoms", "150", "--ligands", "2",
        "--spots", "2", "--scale", "0.05", "--metrics-out", str(snap),
    ]) == 0
    capsys.readouterr()

    scraped = {}

    def serve():
        scraped["rc"] = main([
            "metrics", "serve", str(snap), "--port", "0",
            "--for-seconds", "1.5",
        ])

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        import re
        import time

        url = None
        for _ in range(50):
            time.sleep(0.05)
            match = re.search(r"http://[\d.:]+", capsys.readouterr().out)
            if match:
                url = match.group(0)
                break
        assert url, "serve never printed its URL"
        with urllib.request.urlopen(url + "/metrics", timeout=5) as response:
            body = response.read().decode("utf-8")
        assert "repro_" in body
        with urllib.request.urlopen(url + "/healthz", timeout=5) as response:
            health = json.loads(response.read().decode("utf-8"))
        assert health["status"] == "ok" and health["snapshot"] == str(snap)
    finally:
        thread.join(timeout=10)
    assert scraped["rc"] == 0


def test_live_campaign_series_and_trace_through_the_cli(tmp_path):
    import json

    from repro.observability import read_series

    store = tmp_path / "live.sqlite"
    series = tmp_path / "live.series.jsonl"
    assert main([
        "campaign", "run", "--store", str(store), "--receptor-atoms", "150",
        "--ligands", "4", "--shard-size", "2", "--scale", "0.05", "--spots", "2",
        "--live-metrics", str(series), "--sample-interval", "0.05",
    ]) == 0
    records = read_series(series)
    assert records and records[-1]["reason"] == "final"

    trace_out = tmp_path / "live.trace.json"
    assert main([
        "metrics", "show", f"{store}.metrics.json", "--format", "trace",
        "--out", str(trace_out),
    ]) == 0
    assert json.loads(trace_out.read_text())["traceEvents"]


def _flag_table(parser, path=()):
    """``{subcommand: {flag: (default, type, choices, required, nargs)}}``."""
    import argparse

    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(_flag_table(child, path + (name,)))
            continue
        flag = action.option_strings[-1] if action.option_strings else action.dest
        table.setdefault(" ".join(path), {})[flag] = (
            action.default,
            getattr(action.type, "__name__", None),
            None if action.choices is None else tuple(action.choices),
            action.required,
            action.nargs,
        )
    return table


def test_flag_table_is_the_pinned_one():
    """Every subcommand's flags, defaults, types and choices: declaring the
    campaign flags once must not add, drop, rename or re-default any."""
    assert _flag_table(build_parser()) == _FLAG_TABLE


# Captured from build_parser() at cd1ca3b, less the four `bench compare` rows,
# the eight `calibrate` rows and the twelve kernel-selection rows.
_FLAG_TABLE = {
    "campaign export": {
        "--format": ("json", None, ("json", "csv", "report"), False, None),
        "--out": (None, None, None, True, None),
        "--store": (None, None, None, True, None),
    },
    "campaign resume": {
        "--heartbeat-timeout": (5.0, "_positive_float", None, False, None),
        "--host-workers": (0, "_nonnegative_int", None, False, None),
        "--lease-window": (2, "_positive_int", None, False, None),
        "--live-metrics": (None, None, None, False, None),
        "--max-attempts": (3, "_positive_int", None, False, None),
        "--metrics-out": (None, None, None, False, None),
        "--nodes": (0, "_nonnegative_int", None, False, None),
        "--parallel-mode": ("static", None, ("static", "dynamic"), False, None),
        "--pipeline-depth": (None, "_positive_int", None, False, None),
        "--progress": (False, None, None, False, 0),
        "--sample-interval": (1.0, "_positive_float", None, False, None),
        "--serve-metrics": (None, "_port", None, False, None),
        "--store": (None, None, None, True, None),
    },
    "campaign run": {
        "--atoms-max": (50, "_positive_int", None, False, None),
        "--atoms-min": (20, "_positive_int", None, False, None),
        "--heartbeat-timeout": (5.0, "_positive_float", None, False, None),
        "--host-workers": (0, "_nonnegative_int", None, False, None),
        "--lease-window": (2, "_positive_int", None, False, None),
        "--library-csv": (None, None, None, False, None),
        "--library-dir": (None, None, None, False, None),
        "--library-smiles": (None, None, None, False, None),
        "--ligands": (16, "_positive_int", None, False, None),
        "--live-metrics": (None, None, None, False, None),
        "--max-attempts": (3, "_positive_int", None, False, None),
        "--metaheuristic": ("M2", None, None, False, None),
        "--metrics-out": (None, None, None, False, None),
        "--node": ("hertz", None, ("jupiter", "hertz", "none"), False, None),
        "--nodes": (0, "_nonnegative_int", None, False, None),
        "--parallel-mode": ("static", None, ("static", "dynamic"), False, None),
        "--pipeline-depth": (None, "_positive_int", None, False, None),
        "--progress": (False, None, None, False, 0),
        "--receptor-atoms": (1000, "_positive_int", None, False, None),
        "--receptor-pdb": (None, None, None, False, None),
        "--sample-interval": (1.0, "_positive_float", None, False, None),
        "--scale": (0.1, "float", None, False, None),
        "--seed": (0, "int", None, False, None),
        "--serve-metrics": (None, "_port", None, False, None),
        "--shard-size": (32, "_positive_int", None, False, None),
        "--spots": (8, "_positive_int", None, False, None),
        "--store": (None, None, None, True, None),
        "--store-backend": ("sqlite", None, ("sqlite", "columnar"), False, None),
    },
    "campaign status": {
        "--store": (None, None, None, True, None),
    },
    "campaign top": {
        "--store": (None, None, None, True, None),
        "--top": (10, "_positive_int", None, False, None),
    },
    "cluster coordinator": {
        "--atoms-max": (50, "_positive_int", None, False, None),
        "--atoms-min": (20, "_positive_int", None, False, None),
        "--expect-nodes": (None, "_positive_int", None, True, None),
        "--heartbeat-timeout": (5.0, "_positive_float", None, False, None),
        "--host-workers": (0, "_nonnegative_int", None, False, None),
        "--lease-window": (2, "_positive_int", None, False, None),
        "--library-csv": (None, None, None, False, None),
        "--library-dir": (None, None, None, False, None),
        "--library-smiles": (None, None, None, False, None),
        "--ligands": (16, "_positive_int", None, False, None),
        "--listen": ("127.0.0.1:7641", None, None, False, None),
        "--live-metrics": (None, None, None, False, None),
        "--max-attempts": (3, "_positive_int", None, False, None),
        "--metaheuristic": ("M2", None, None, False, None),
        "--metrics-out": (None, None, None, False, None),
        "--node": ("hertz", None, ("jupiter", "hertz", "none"), False, None),
        "--parallel-mode": ("static", None, ("static", "dynamic"), False, None),
        "--pipeline-depth": (None, "_positive_int", None, False, None),
        "--progress": (False, None, None, False, 0),
        "--receptor-atoms": (1000, "_positive_int", None, False, None),
        "--receptor-pdb": (None, None, None, False, None),
        "--resume": (False, None, None, False, 0),
        "--sample-interval": (1.0, "_positive_float", None, False, None),
        "--scale": (0.1, "float", None, False, None),
        "--seed": (0, "int", None, False, None),
        "--serve-metrics": (None, "_port", None, False, None),
        "--shard-size": (32, "_positive_int", None, False, None),
        "--spots": (8, "_positive_int", None, False, None),
        "--store": (None, None, None, True, None),
        "--store-backend": ("sqlite", None, ("sqlite", "columnar"), False, None),
    },
    "cluster worker": {
        "--connect": (None, None, None, True, None),
        "--connect-attempts": (10, "_positive_int", None, False, None),
        "--connect-backoff": (0.1, "_positive_float", None, False, None),
    },
    "dock": {
        "--flexible": (False, None, None, False, 0),
        "--host-workers": (0, "_nonnegative_int", None, False, None),
        "--ligand-atoms": (32, "int", None, False, None),
        "--ligand-pdb": (None, None, None, False, None),
        "--live-metrics": (None, None, None, False, None),
        "--max-torsions": (6, "int", None, False, None),
        "--metaheuristic": ("M2", None, None, False, None),
        "--metrics-out": (None, None, None, False, None),
        "--node": ("hertz", None, ("jupiter", "hertz"), False, None),
        "--out-pdb": (None, None, None, False, None),
        "--parallel-mode": ("static", None, ("static", "dynamic"), False, None),
        "--pipeline-depth": (None, "_positive_int", None, False, None),
        "--receptor-atoms": (1000, "int", None, False, None),
        "--receptor-pdb": (None, None, None, False, None),
        "--sample-interval": (1.0, "_positive_float", None, False, None),
        "--scale": (0.25, "float", None, False, None),
        "--seed": (0, "int", None, False, None),
        "--spots": (16, "int", None, False, None),
    },
    "doctor": {
        "--json": (False, None, None, False, 0),
        "--out": (None, None, None, False, None),
        "--series": (None, None, None, False, None),
        "--store": (None, None, None, True, None),
    },
    "metrics serve": {
        "--for-seconds": (None, "_positive_float", None, False, None),
        "--host": ("127.0.0.1", None, None, False, None),
        "--port": (9464, "_port", None, False, None),
        "snapshot": (None, None, None, True, None),
    },
    "metrics show": {
        "--format": ("text", None, ("text", "json", "prom", "trace"), False, None),
        "--out": (None, None, None, False, None),
        "snapshot": (None, None, None, True, None),
    },
    "replay": {
        "--mode": ("gpu-heterogeneous", None, ("openmp", "gpu-homogeneous", "gpu-heterogeneous", "gpu-dynamic"), False, None),
        "--node": ("hertz", None, ("jupiter", "hertz"), False, None),
        "--seed": (0, "int", None, False, None),
        "--trace": (None, None, None, True, None),
    },
    "screen": {
        "--host-workers": (0, "_nonnegative_int", None, False, None),
        "--ligands": (8, "int", None, False, None),
        "--live-metrics": (None, None, None, False, None),
        "--metaheuristic": ("M2", None, None, False, None),
        "--metrics-out": (None, None, None, False, None),
        "--node": ("hertz", None, ("jupiter", "hertz"), False, None),
        "--parallel-mode": ("static", None, ("static", "dynamic"), False, None),
        "--pipeline-depth": (None, "_positive_int", None, False, None),
        "--receptor-atoms": (1000, "int", None, False, None),
        "--sample-interval": (1.0, "_positive_float", None, False, None),
        "--scale": (0.1, "float", None, False, None),
        "--seed": (0, "int", None, False, None),
        "--spots": (8, "int", None, False, None),
    },
    "tables": {
        "--scale": (1.0, "float", None, False, None),
        "--table": ("all", None, ("6", "7", "8", "9", "all"), False, None),
    },
    "trace": {
        "--dataset": ("2BSM", None, ("2BSM", "2BXG"), False, None),
        "--out": (None, None, None, True, None),
        "--preset": ("M2", None, None, False, None),
        "--scale": (1.0, "float", None, False, None),
    },
}
