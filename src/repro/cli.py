"""Command-line interface (``repro-vs``).

Subcommands:

* ``dock`` — dock a synthetic (or PDB-file) complex and print the pose
  ranking per spot.
* ``screen`` — screen a synthetic ligand library.
* ``campaign`` — durable, resumable screening campaigns
  (``run``/``resume``/``status``/``top``/``export``), with live
  observability: ``--progress``, ``--live-metrics``, ``--serve-metrics``,
  and distributed execution: ``--nodes N``.
* ``cluster`` — the same distributed fleet over real sockets:
  ``coordinator`` serves a campaign, ``worker`` dials in and docks leases.
* ``metrics`` — inspect/convert a telemetry snapshot (``show``: text
  summary, JSON, Prometheus textfile, or Chrome/Perfetto trace), or put it
  behind an HTTP scrape endpoint (``serve``).
* ``tables`` — regenerate the paper's Tables 6–9 (simulated seconds).
* ``devices`` — list the modelled hardware (Tables 1–3).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def _nonnegative_int(text: str) -> int:
    """argparse type: an int >= 0, rejected with a clear message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1, rejected with a clear message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_host_runtime_args(sub: argparse.ArgumentParser) -> None:
    """Flags for the real process-parallel host runtime."""
    sub.add_argument(
        "--host-workers",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="score on N real worker processes (0 = serial; results are "
        "bitwise identical either way)",
    )
    sub.add_argument(
        "--parallel-mode",
        choices=("static", "dynamic"),
        default="static",
        help="static = warm-up-weighted shares (Eq. 1), "
        "dynamic = work-stealing spot queue",
    )
    sub.add_argument(
        "--pipeline-depth",
        type=_positive_int,
        default=None,
        metavar="D",
        help="co-schedule up to D ligands through the persistent pool so "
        "one ligand's barrier tails overlap another's scoring (default "
        "host workers + 1; 1 = one ligand at a time; only affects "
        "multi-ligand runs; results are bitwise identical at every depth)",
    )


def _positive_float(text: str) -> float:
    """argparse type: a float > 0, rejected with a clear message otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _port(text: str) -> int:
    """argparse type: a TCP port (0 = pick an ephemeral one)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {value}")
    return value


def _add_cluster_args(sub: argparse.ArgumentParser, nodes_flag: bool = True) -> None:
    """Distributed-fleet flags (``repro.cluster``).

    ``nodes_flag`` adds ``--nodes`` for campaign commands; the dedicated
    ``cluster coordinator`` subcommand sizes its fleet with
    ``--expect-nodes`` instead.
    """
    if nodes_flag:
        sub.add_argument(
            "--nodes",
            type=_nonnegative_int,
            default=0,
            metavar="N",
            help="distribute the campaign over N worker-node processes "
            "(coordinator + Eq. 1 node shares + inter-node stealing); "
            "0 = classic in-process run, results bitwise identical",
        )
    sub.add_argument(
        "--heartbeat-timeout",
        type=_positive_float,
        default=5.0,
        metavar="S",
        help="seconds of heartbeat silence before a worker node is declared "
        "dead and its leases reassigned (default 5)",
    )
    sub.add_argument(
        "--lease-window",
        type=_positive_int,
        default=2,
        metavar="N",
        help="shard leases a worker node may hold at once (default 2)",
    )


def _cluster_config(args: argparse.Namespace, host: str | None = None, port: int = 0):
    """Build a ClusterConfig from CLI flags (None when not clustering)."""
    from repro.cluster import ClusterConfig

    kwargs = {
        "heartbeat_timeout_s": args.heartbeat_timeout,
        "lease_window": args.lease_window,
    }
    if host is not None:
        kwargs["host"] = host
        kwargs["port"] = port
    return ClusterConfig(**kwargs)


def _add_metrics_args(sub: argparse.ArgumentParser) -> None:
    """Telemetry flags, shared by every run-something subcommand."""
    sub.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's telemetry snapshot (counters, histograms, "
        "spans) to this JSON file; inspect it with `repro-vs metrics show`",
    )
    sub.add_argument(
        "--live-metrics",
        metavar="PATH",
        help="append a live JSONL time series (rates, worker shares, queue "
        "waits) to this file while the run is in progress",
    )
    sub.add_argument(
        "--sample-interval",
        type=_positive_float,
        default=1.0,
        metavar="S",
        help="seconds between live samples (with --live-metrics; default 1)",
    )


def _add_campaign_definition_args(sub: argparse.ArgumentParser) -> None:
    """What a campaign *is* — store, receptor, library, search, sharding —
    shared by ``campaign run`` and ``cluster coordinator``."""
    sub.add_argument(
        "--store",
        required=True,
        help="campaign store path (a columnar store directory)",
    )
    sub.add_argument("--receptor-pdb", help="receptor PDB file (default: synthetic)")
    sub.add_argument("--receptor-atoms", type=_positive_int, default=1000)
    sub.add_argument(
        "--library-dir",
        help="directory of ligand PDB files (default: synthetic library)",
    )
    sub.add_argument(
        "--library-smiles",
        metavar="PATH",
        help="line-delimited SMILES file streamed with bounded memory "
        "(overrides --library-dir and the synthetic library)",
    )
    sub.add_argument(
        "--library-csv",
        metavar="PATH",
        help="CSV file with smiles/title columns, streamed with bounded "
        "memory (overrides --library-dir and the synthetic library)",
    )
    sub.add_argument(
        "--ligands", type=_positive_int, default=16, help="synthetic library size"
    )
    sub.add_argument("--atoms-min", type=_positive_int, default=20)
    sub.add_argument("--atoms-max", type=_positive_int, default=50)
    sub.add_argument("--spots", type=_positive_int, default=8)
    sub.add_argument("--metaheuristic", default="M2")
    sub.add_argument("--scale", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--shard-size",
        type=_positive_int,
        default=32,
        metavar="N",
        help="ligands per durable shard (checkpoint granularity)",
    )
    sub.add_argument("--node", choices=("jupiter", "hertz", "none"), default="hertz")
    sub.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="docking attempts per ligand before it is recorded as failed",
    )


@contextlib.contextmanager
def _maybe_sampler(args: argparse.Namespace):
    """Run a live sampler around a command when ``--live-metrics`` was given."""
    path = getattr(args, "live_metrics", None)
    if not path:
        yield None
        return
    from repro import observability as obs

    sampler = obs.TelemetrySampler(path, interval_s=args.sample_interval)
    sampler.start()
    try:
        yield sampler
    finally:
        sampler.stop()
        print(f"wrote live metrics series to {path}")


def _maybe_write_metrics(args: argparse.Namespace, default: str | None = None) -> None:
    """Write the global telemetry snapshot if the command asked for one."""
    path = getattr(args, "metrics_out", None) or default
    if path is None:
        return
    from repro import observability as obs

    obs.write_snapshot(obs.snapshot(), path)
    print(f"wrote telemetry snapshot to {path}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-vs",
        description="Metaheuristic virtual screening on modelled heterogeneous nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dock = sub.add_parser("dock", help="dock one ligand against a receptor surface")
    dock.add_argument("--receptor-pdb", help="receptor PDB file (default: synthetic)")
    dock.add_argument("--ligand-pdb", help="ligand PDB file (default: synthetic)")
    dock.add_argument("--receptor-atoms", type=int, default=1000)
    dock.add_argument("--ligand-atoms", type=int, default=32)
    dock.add_argument("--spots", type=int, default=16)
    dock.add_argument("--metaheuristic", default="M2", help="M1-M4 preset name")
    dock.add_argument("--scale", type=float, default=0.25, help="workload scale")
    dock.add_argument("--seed", type=int, default=0)
    dock.add_argument("--node", choices=("jupiter", "hertz"), default="hertz")
    dock.add_argument("--out-pdb", help="write the best docked complex here")
    dock.add_argument(
        "--flexible",
        action="store_true",
        help="search ligand torsions too (flexible-ligand extension)",
    )
    dock.add_argument("--max-torsions", type=int, default=6)
    _add_host_runtime_args(dock)
    _add_metrics_args(dock)

    scr = sub.add_parser("screen", help="screen a synthetic ligand library")
    scr.add_argument("--receptor-atoms", type=int, default=1000)
    scr.add_argument("--ligands", type=int, default=8)
    scr.add_argument("--spots", type=int, default=8)
    scr.add_argument("--metaheuristic", default="M2")
    scr.add_argument("--scale", type=float, default=0.1)
    scr.add_argument("--seed", type=int, default=0)
    scr.add_argument("--node", choices=("jupiter", "hertz"), default="hertz")
    _add_host_runtime_args(scr)
    _add_metrics_args(scr)

    camp = sub.add_parser(
        "campaign", help="durable, resumable screening campaigns"
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser("run", help="start a new campaign")
    _add_campaign_definition_args(crun)
    _add_host_runtime_args(crun)
    _add_cluster_args(crun)
    _add_metrics_args(crun)
    _add_campaign_observability_args(crun)

    cres = csub.add_parser(
        "resume", help="continue an interrupted campaign from its store"
    )
    cres.add_argument("--store", required=True)
    cres.add_argument("--max-attempts", type=_positive_int, default=3)
    # Execution knobs may change between run and resume — scores cannot.
    _add_host_runtime_args(cres)
    _add_cluster_args(cres)
    _add_metrics_args(cres)
    _add_campaign_observability_args(cres)

    cstat = csub.add_parser("status", help="summarise a campaign store")
    cstat.add_argument("--store", required=True)

    ctop = csub.add_parser("top", help="best ligands so far (indexed query)")
    ctop.add_argument("--store", required=True)
    ctop.add_argument("-k", "--top", type=_positive_int, default=10, dest="k")

    cexp = csub.add_parser("export", help="dump campaign results to a file")
    cexp.add_argument("--store", required=True)
    cexp.add_argument("--out", required=True, help="output path")
    cexp.add_argument(
        "--format",
        choices=("json", "csv", "report"),
        default="json",
        help="json = full streaming dump, csv = per-ligand rows, "
        "report = ScreeningReport.to_json() of completed ligands",
    )

    clu = sub.add_parser(
        "cluster",
        help="distributed campaign fleet over real sockets "
        "(coordinator + worker nodes)",
    )
    clsub = clu.add_subparsers(dest="cluster_command", required=True)

    ccoord = clsub.add_parser(
        "coordinator",
        help="serve a campaign to remote worker nodes (spawns none locally); "
        "start workers with `repro-vs cluster worker --connect HOST:PORT`",
    )
    ccoord.add_argument(
        "--listen",
        default="127.0.0.1:7641",
        metavar="HOST:PORT",
        help="address to accept worker connections on (default 127.0.0.1:7641)",
    )
    ccoord.add_argument(
        "--expect-nodes",
        type=_positive_int,
        required=True,
        metavar="N",
        help="worker nodes that must dial in before shards are partitioned",
    )
    _add_campaign_definition_args(ccoord)
    ccoord.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its store (library/"
        "receptor flags are ignored; the store's descriptors win)",
    )
    _add_host_runtime_args(ccoord)
    _add_cluster_args(ccoord, nodes_flag=False)
    _add_metrics_args(ccoord)
    _add_campaign_observability_args(ccoord)

    cwork = clsub.add_parser(
        "worker",
        help="run one worker node: dial a coordinator, dock leased ligands "
        "until drained or told to shut down",
    )
    cwork.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    cwork.add_argument(
        "--connect-attempts",
        type=_positive_int,
        default=10,
        help="dial retries before giving up (exponential backoff; default 10)",
    )
    cwork.add_argument(
        "--connect-backoff",
        type=_positive_float,
        default=0.1,
        metavar="S",
        help="initial retry backoff in seconds (default 0.1)",
    )

    met = sub.add_parser(
        "metrics", help="inspect or serve telemetry snapshots"
    )
    msub = met.add_subparsers(dest="metrics_command", required=True)
    mshow = msub.add_parser(
        "show", help="render a snapshot written by --metrics-out"
    )
    mshow.add_argument("snapshot", help="snapshot JSON path (from --metrics-out)")
    mshow.add_argument(
        "--format",
        choices=("text", "json", "prom", "trace"),
        default="text",
        help="text = human summary, json = validated snapshot document, "
        "prom = Prometheus textfile exposition, trace = Chrome/Perfetto "
        "trace_event timeline (open in ui.perfetto.dev)",
    )
    mshow.add_argument("--out", help="write the rendering here instead of stdout")
    mserve = msub.add_parser(
        "serve",
        help="serve a snapshot file over HTTP (/metrics + /healthz), "
        "re-reading it on every scrape",
    )
    mserve.add_argument("snapshot", help="snapshot JSON path (from --metrics-out)")
    mserve.add_argument("--port", type=_port, default=9464)
    mserve.add_argument("--host", default="127.0.0.1")
    mserve.add_argument(
        "--for-seconds",
        type=_positive_float,
        default=None,
        metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )

    tab = sub.add_parser("tables", help="regenerate the paper's Tables 6-9")
    tab.add_argument(
        "--table",
        choices=("6", "7", "8", "9", "all"),
        default="all",
        help="which paper table to regenerate",
    )
    tab.add_argument("--scale", type=float, default=1.0)

    doc = sub.add_parser(
        "doctor",
        help="post-mortem a campaign: fuse its store, flight dumps, "
        "metrics snapshot, and series file into a slow/stuck diagnosis",
    )
    doc.add_argument("--store", required=True, help="campaign store path")
    doc.add_argument(
        "--series",
        help="optional live-metrics series file (from --live-metrics)",
    )
    doc.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    doc.add_argument("--out", help="write the report here instead of stdout")

    sub.add_parser("devices", help="list the modelled hardware")

    trc = sub.add_parser(
        "trace", help="write a full-scale analytic launch trace to a file"
    )
    trc.add_argument("--preset", default="M2", help="M1-M4")
    trc.add_argument("--dataset", choices=("2BSM", "2BXG"), default="2BSM")
    trc.add_argument("--scale", type=float, default=1.0)
    trc.add_argument("--out", required=True, help="output JSON path")

    rep = sub.add_parser("replay", help="time a saved launch trace on a node")
    rep.add_argument("--trace", required=True, help="trace JSON path")
    rep.add_argument("--node", choices=("jupiter", "hertz"), default="hertz")
    rep.add_argument(
        "--mode",
        choices=("openmp", "gpu-homogeneous", "gpu-heterogeneous", "gpu-dynamic"),
        default="gpu-heterogeneous",
    )
    rep.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_dock(args: argparse.Namespace) -> int:
    from repro.hardware.node import named_node
    from repro.molecules.pdb import read_pdb, write_pdb
    from repro.molecules.synthetic import generate_ligand, generate_receptor
    from repro.vs.docking import dock

    receptor = (
        read_pdb(args.receptor_pdb, kind="receptor")
        if args.receptor_pdb
        else generate_receptor(args.receptor_atoms, seed=args.seed)
    )
    ligand = (
        read_pdb(args.ligand_pdb, kind="ligand")
        if args.ligand_pdb
        else generate_ligand(args.ligand_atoms, seed=args.seed + 1)
    )
    node = named_node(args.node)
    if args.flexible:
        from repro.vs.flexible import dock_flexible

        flex_result = dock_flexible(
            receptor,
            ligand,
            n_spots=args.spots,
            max_torsions=args.max_torsions,
            seed=args.seed,
        )
        print(
            f"flexible best score {flex_result.best_score:.3f} kcal/mol at "
            f"spot {flex_result.best.spot_index} "
            f"({flex_result.n_torsions} torsions, "
            f"{flex_result.evaluations} evaluations)"
        )
        for pose in sorted(flex_result.per_spot, key=lambda p: p.score):
            print(f"  spot {pose.spot_index:3d}: {pose.score:12.3f}")
        return 0
    result = dock(
        receptor,
        ligand,
        n_spots=args.spots,
        metaheuristic=args.metaheuristic,
        seed=args.seed,
        workload_scale=args.scale,
        node=node,
        host_workers=args.host_workers,
        parallel_mode=args.parallel_mode,
    )
    print(
        f"best score {result.best_score:.3f} kcal/mol at spot "
        f"{result.best.spot_index} ({result.evaluations} evaluations, "
        f"simulated {result.simulated_seconds:.3f}s on {node.name})"
    )
    print("per-spot best scores:")
    for conf in sorted(result.per_spot, key=lambda c: c.score):
        print(f"  spot {conf.spot_index:3d}: {conf.score:12.3f}")
    if args.out_pdb:
        write_pdb(result.complex_molecule(), args.out_pdb)
        print(f"wrote docked complex to {args.out_pdb}")
    _maybe_write_metrics(args)
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    from repro.hardware.node import named_node
    from repro.molecules.synthetic import generate_receptor
    from repro.vs.screening import screen, synthetic_library

    receptor = generate_receptor(args.receptor_atoms, seed=args.seed)
    ligands = synthetic_library(args.ligands, seed=args.seed + 10)
    node = named_node(args.node)
    report = screen(
        receptor,
        ligands,
        n_spots=args.spots,
        metaheuristic=args.metaheuristic,
        seed=args.seed,
        workload_scale=args.scale,
        node=node,
        host_workers=args.host_workers,
        parallel_mode=args.parallel_mode,
        pipeline_depth=args.pipeline_depth,
    )
    print(report.to_text())
    _maybe_write_metrics(args)
    return 0


def _add_campaign_observability_args(sub: argparse.ArgumentParser) -> None:
    """Live-run flags shared by ``campaign run`` and ``campaign resume``."""
    sub.add_argument(
        "--progress",
        action="store_true",
        help="print a single refreshing status line (shard n/N, ligands/s, "
        "ETA) to stderr; off by default so piped output stays clean",
    )
    sub.add_argument(
        "--serve-metrics",
        type=_port,
        default=None,
        metavar="PORT",
        help="serve /metrics (Prometheus) and /healthz (campaign progress "
        "JSON) on this port while the campaign runs (0 = ephemeral)",
    )


class _ProgressLine:
    """One refreshing status line on stderr (``campaign --progress``)."""

    def __init__(self, shard_size: int) -> None:
        self.shard_size = max(1, int(shard_size))
        self._last_len = 0

    def __call__(self, progress) -> None:
        if progress.total is None:
            shards = "?"
        else:
            shards = -(-progress.total // self.shard_size)  # ceil
        eta = (
            "?"
            if math.isnan(progress.eta_seconds)
            else f"{progress.eta_seconds:.0f}s"
        )
        line = (
            f"shard {progress.shard_id + 1}/{shards}  "
            f"{progress.done} done, {progress.failed} failed  "
            f"{progress.ligands_per_second:.2f} lig/s  ETA {eta}"
        )
        pad = " " * max(0, self._last_len - len(line))
        sys.stderr.write("\r" + line + pad)
        sys.stderr.flush()
        self._last_len = len(line)

    def close(self) -> None:
        if self._last_len:
            sys.stderr.write("\n")
            sys.stderr.flush()


@contextlib.contextmanager
def _campaign_session(args: argparse.Namespace, shard_size: int):
    """Wire the live pipeline around one campaign command.

    Composes (all optional, all observation-only): a JSONL time-series
    sampler (``--live-metrics``), an HTTP scrape endpoint with campaign
    progress on ``/healthz`` (``--serve-metrics``), and the refreshing
    stderr status line (``--progress``). Yields the combined progress
    callback for :class:`~repro.campaign.runner.CampaignRunner` (or None).
    """
    from repro import observability as obs

    callbacks = []
    sampler = None
    server = None
    health = None
    progress_line = None
    if getattr(args, "live_metrics", None):
        store = str(getattr(args, "store", ":memory:") or ":memory:")
        sampler = obs.TelemetrySampler(
            args.live_metrics,
            interval_s=args.sample_interval,
            disk_path=None if store == ":memory:" else store,
        )
        sampler.start()
    if getattr(args, "serve_metrics", None) is not None:
        health = obs.CampaignHealth(sampler=sampler)
        server = obs.MetricsServer(
            port=args.serve_metrics, health_fn=health.health
        ).start()
        print(
            f"serving /metrics and /healthz on {server.url}", file=sys.stderr
        )
        callbacks.append(health.update)
    if getattr(args, "progress", False):
        progress_line = _ProgressLine(shard_size)
        callbacks.append(progress_line)

    def combined(progress) -> None:
        for callback in callbacks:
            callback(progress)

    try:
        yield combined if callbacks else None
        if health is not None:
            health.finish("complete")
    finally:
        if progress_line is not None:
            progress_line.close()
        if sampler is not None:
            sampler.stop()
            print(f"wrote live metrics series to {args.live_metrics}")
        if server is not None:
            server.stop()


def _print_campaign_summary(store) -> int:
    counts = store.counts()
    print(
        f"campaign {'complete' if store.is_complete() else 'in progress'}: "
        f"{counts['done']} done, {counts['failed']} failed, "
        f"{counts['pending'] + counts['running']} outstanding"
    )
    for row in store.top(5):
        print(f"  {row['title']}: {row['best_score']:.3f} (spot {row['best_spot']})")
    return 0


def _campaign_inputs(args: argparse.Namespace):
    """Receptor + descriptor + ligand source for a new campaign."""
    from repro.campaign import (
        CsvSource,
        PDBDirectorySource,
        SmilesSource,
        SyntheticSource,
    )
    from repro.molecules.pdb import read_pdb
    from repro.molecules.synthetic import generate_receptor

    if args.receptor_pdb:
        receptor = read_pdb(args.receptor_pdb, kind="receptor")
        receptor_descriptor = {"kind": "pdb", "path": args.receptor_pdb}
    else:
        receptor = generate_receptor(args.receptor_atoms, seed=args.seed)
        receptor_descriptor = {
            "kind": "synthetic",
            "n_atoms": args.receptor_atoms,
            "seed": args.seed,
        }
    if args.library_smiles:
        source = SmilesSource(args.library_smiles, seed=args.seed + 10)
    elif args.library_csv:
        source = CsvSource(args.library_csv, seed=args.seed + 10)
    elif args.library_dir:
        source = PDBDirectorySource(args.library_dir)
    else:
        source = SyntheticSource(
            args.ligands,
            atoms_range=(args.atoms_min, args.atoms_max),
            seed=args.seed + 10,
        )
    return receptor, receptor_descriptor, source


def _execution_kwargs(
    args: argparse.Namespace, progress, nodes: int, cluster
) -> dict:
    """CampaignRunner arguments that may differ between run and resume."""
    return {
        "store_path": args.store,
        "host_workers": args.host_workers,
        "parallel_mode": args.parallel_mode,
        "pipeline_depth": args.pipeline_depth,
        "max_attempts": args.max_attempts,
        "progress": progress,
        "nodes": nodes,
        "cluster": cluster,
    }


def _new_campaign_runner(
    args: argparse.Namespace, progress=None, *, nodes: int = 0, cluster=None
):
    """Build a fresh CampaignRunner from `campaign run`-style flags."""
    from repro.campaign import CampaignRunner
    from repro.hardware.node import named_node

    receptor, receptor_descriptor, source = _campaign_inputs(args)
    return CampaignRunner(
        receptor,
        source,
        n_spots=args.spots,
        metaheuristic=args.metaheuristic,
        seed=args.seed,
        workload_scale=args.scale,
        shard_size=args.shard_size,
        node=named_node(args.node),
        receptor_descriptor=receptor_descriptor,
        **_execution_kwargs(args, progress, nodes, cluster),
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    cluster = _cluster_config(args) if args.nodes >= 2 else None
    with _campaign_session(args, args.shard_size) as progress_cb:
        runner = _new_campaign_runner(
            args, progress_cb, nodes=args.nodes, cluster=cluster
        )
        with runner.run() as store:
            rc = _print_campaign_summary(store)
    _maybe_write_metrics(args, default=f"{args.store}.metrics.json")
    return rc


def _rebuild_campaign_runner(
    args: argparse.Namespace, progress=None, *, nodes: int = 0, cluster=None
):
    """Reconstruct receptor/library from a store's recorded descriptors."""
    from repro.campaign import CampaignRunner, open_store
    from repro.campaign.library import build_receptor, build_source
    from repro.campaign.settings import DockSettings

    with open_store(args.store, readonly=True) as store:
        config = store.config

    receptor_desc = config.get("receptor", {})
    return CampaignRunner(
        build_receptor(receptor_desc),
        build_source(config.get("library", {})),
        shard_size=int(config["shard_size"]),
        receptor_descriptor=receptor_desc,
        # What the store records of the dock, then what this invocation says
        # of where and how patiently to run it.
        **{
            **vars(DockSettings.from_stored(config)),
            **_execution_kwargs(args, progress, nodes, cluster),
        },
    )


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign import open_store

    with open_store(args.store, readonly=True) as store:
        shard_size = int(store.config.get("shard_size", 1))
    cluster = _cluster_config(args) if args.nodes >= 2 else None
    with _campaign_session(args, shard_size) as progress_cb:
        runner = _rebuild_campaign_runner(
            args, progress=progress_cb, nodes=args.nodes, cluster=cluster
        )
        with runner.resume() as store:
            rc = _print_campaign_summary(store)
    # Even a no-op resume of a complete campaign leaves a valid snapshot
    # behind (span campaign.resume{noop}, counters) — observability is part
    # of the durability contract.
    _maybe_write_metrics(args, default=f"{args.store}.metrics.json")
    return rc


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import detect_backend, open_store, store_disk_bytes

    with open_store(args.store, readonly=True) as store:
        config = store.config
        counts = store.counts()
        print(f"campaign store: {args.store}")
        print(f"  backend: {detect_backend(args.store)}")
        print(f"  receptor: {config.get('receptor_title')}")
        print(
            f"  library: {config.get('library', {}).get('kind')}  "
            f"metaheuristic: {config.get('metaheuristic')}  "
            f"seed: {config.get('seed')}  spots: {config.get('n_spots')}  "
            f"shard size: {config.get('shard_size')}"
        )
        print(f"  config hash: {store.config_hash[:16]}…")
        print(f"  complete: {'yes' if store.is_complete() else 'no'}")
        print(
            f"  ligands: {counts['done']} done, {counts['failed']} failed, "
            f"{counts['running']} running, {counts['pending']} pending"
        )
        if os.path.exists(args.store):
            print(f"  store size: {store_disk_bytes(args.store)} bytes")
    return 0


def _cmd_campaign_top(args: argparse.Namespace) -> int:
    from repro.campaign import open_store

    with open_store(args.store, readonly=True) as store:
        rows = store.top(args.k)
        print(f"{'rank':>4s}  {'score':>12s}  {'spot':>5s}  ligand")
        for rank, row in enumerate(rows, start=1):
            print(
                f"{rank:4d}  {row['best_score']:12.3f}  {row['best_spot']:5d}  "
                f"{row['title']}"
            )
    return 0


def _cmd_campaign_export(args: argparse.Namespace) -> int:
    from repro.campaign import export_report, open_store

    with open_store(args.store, readonly=True) as store:
        if args.format == "json":
            n = store.export_json(args.out)
        elif args.format == "csv":
            n = store.export_csv(args.out)
        else:
            # Streams row by row — a million-ligand report never
            # materialises in memory.
            n = export_report(store, args.out)
    print(f"exported {n} ligands to {args.out} ({args.format})")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    commands = {
        "run": _cmd_campaign_run,
        "resume": _cmd_campaign_resume,
        "status": _cmd_campaign_status,
        "top": _cmd_campaign_top,
        "export": _cmd_campaign_export,
    }
    return commands[args.campaign_command](args)


def _parse_hostport(text: str) -> tuple[str, int]:
    """Split ``HOST:PORT``, with a clear error on malformed input."""
    from repro.errors import ClusterError

    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ClusterError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterError(f"invalid port in {text!r}") from None
    if not 0 <= port <= 65535:
        raise ClusterError(f"port must be in [0, 65535], got {port}")
    return host, port


def _cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    """Serve one campaign over real sockets; workers dial in separately."""
    host, port = _parse_hostport(args.listen)
    cluster = _cluster_config(args, host=host, port=port)
    with _campaign_session(args, args.shard_size) as progress_cb:
        if args.resume:
            runner = _rebuild_campaign_runner(
                args, progress=progress_cb, nodes=args.expect_nodes, cluster=cluster
            )
        else:
            runner = _new_campaign_runner(
                args, progress_cb, nodes=args.expect_nodes, cluster=cluster
            )
        runner.cluster_spawn = False  # remote workers only
        print(
            f"coordinator listening on {host}:{port} for "
            f"{args.expect_nodes} worker node(s); start each with "
            f"`repro-vs cluster worker --connect {host}:{port}`",
            file=sys.stderr,
        )
        run = runner.resume if args.resume else runner.run
        with run() as store:
            rc = _print_campaign_summary(store)
        if runner.fleet is not None and runner.fleet.summary is not None:
            summary = runner.fleet.summary
            print(
                f"fleet: {summary['nodes']} nodes, {summary['shards']} shards, "
                f"{summary['steals']} steals, "
                f"{summary['node_deaths']} node deaths"
            )
    _maybe_write_metrics(args, default=f"{args.store}.metrics.json")
    return rc


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    """One worker node process: exit 0 on clean drain, 1 on lost coordinator."""
    from repro.cluster import run_worker

    host, port = _parse_hostport(args.connect)
    rc = run_worker(
        host,
        port,
        connect_attempts=args.connect_attempts,
        connect_backoff_s=args.connect_backoff,
    )
    if rc != 0:
        print(f"worker lost coordinator at {host}:{port}", file=sys.stderr)
    return rc


def _cmd_cluster(args: argparse.Namespace) -> int:
    commands = {
        "coordinator": _cmd_cluster_coordinator,
        "worker": _cmd_cluster_worker,
    }
    return commands[args.cluster_command](args)


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    from repro.observability import (
        load_snapshot,
        snapshot_to_json,
        snapshot_to_prometheus,
        snapshot_to_text,
    )
    from repro.observability.trace import trace_events_to_json

    render = {
        "text": snapshot_to_text,
        "json": snapshot_to_json,
        "prom": snapshot_to_prometheus,
        "trace": trace_events_to_json,
    }[args.format]
    text = render(load_snapshot(args.snapshot))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.format} rendering to {args.out}")
    else:
        try:
            print(text)
        except BrokenPipeError:  # e.g. `repro-vs metrics ... | head`
            return 0
    return 0


def _cmd_metrics_serve(args: argparse.Namespace) -> int:
    from repro.observability import MetricsServer, load_snapshot

    snapshot_path = args.snapshot
    load_snapshot(snapshot_path)  # fail fast on a bad file, before binding
    server = MetricsServer(
        port=args.port,
        host=args.host,
        snapshot_fn=lambda: load_snapshot(snapshot_path),
        health_fn=lambda: {"status": "ok", "snapshot": str(snapshot_path)},
    ).start()
    try:
        print(f"serving /metrics and /healthz on {server.url}")
        if args.for_seconds is not None:
            time.sleep(args.for_seconds)
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.stop()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    commands = {
        "show": _cmd_metrics_show,
        "serve": _cmd_metrics_serve,
    }
    return commands[args.metrics_command](args)


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.observability import diagnose_campaign

    report = diagnose_campaign(args.store, series_path=args.series)
    if args.json:
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote doctor report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.runner import hertz_table, jupiter_table
    from repro.experiments.tables import format_hertz_table, format_jupiter_table

    plans = {
        "6": lambda: format_jupiter_table(jupiter_table("2BSM", args.scale)),
        "7": lambda: format_jupiter_table(jupiter_table("2BXG", args.scale)),
        "8": lambda: format_hertz_table(hertz_table("2BSM", args.scale)),
        "9": lambda: format_hertz_table(hertz_table("2BXG", args.scale)),
    }
    wanted = plans.keys() if args.table == "all" else [args.table]
    for key in wanted:
        print(f"=== Paper Table {key} ===")
        print(plans[key]())
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.engine.traceio import dump_trace
    from repro.experiments.datasets import get_dataset
    from repro.experiments.trace import analytic_trace

    dataset = get_dataset(args.dataset)
    trace = analytic_trace(
        args.preset,
        dataset.n_spots,
        dataset.receptor_atoms,
        dataset.ligand_atoms,
        args.scale,
    )
    dump_trace(
        trace,
        args.out,
        metadata={
            "preset": args.preset,
            "dataset": args.dataset,
            "workload_scale": args.scale,
        },
    )
    poses = sum(r.n_conformations for r in trace)
    print(f"wrote {len(trace)} launches ({poses:,} conformations) to {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.engine.executor import MultiGpuExecutor
    from repro.engine.traceio import load_trace
    from repro.hardware.node import named_node

    trace, metadata = load_trace(args.trace)
    node = named_node(args.node)
    executor = MultiGpuExecutor(node, seed=args.seed)
    timing, scheduler = executor.replay(trace, args.mode)
    if metadata:
        print(f"trace metadata: {metadata}")
    print(
        f"{args.mode} on {node.name} ({scheduler}): "
        f"{timing.total_s:.3f}s simulated "
        f"(scoring {timing.scoring_s:.3f}s, host {timing.host_s:.3f}s, "
        f"warm-up {timing.warmup_s:.3f}s, balance {timing.balance:.3f})"
    )
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    from repro.hardware.registry import CPUS, GPUS
    from repro.hardware.specs import CUDA_GENERATIONS

    print("CUDA generations (paper Table 1):")
    for g in CUDA_GENERATIONS:
        print(
            f"  {g.name:8s} {g.year}  {g.max_cores:5d} cores  "
            f"{g.peak_sp_gflops:5d} GFLOPS  perf/W {g.perf_per_watt}"
        )
    print("\nGPUs (Tables 2-3 + extensions):")
    for gpu in GPUS.values():
        print(
            f"  {gpu.name:18s} {gpu.architecture.value:8s} "
            f"{gpu.total_cores:5d} cores @ {gpu.clock_mhz:.0f} MHz  "
            f"CCC {gpu.ccc}  sustained {gpu.pairs_per_sec / 1e9:.1f} Gpairs/s"
        )
    print("\nCPUs:")
    for cpu in CPUS.values():
        print(f"  {cpu.name:18s} {cpu.cores} cores @ {cpu.clock_mhz:.0f} MHz")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Library errors (:class:`repro.errors.ReproError`) are reported as a
    one-line ``error: …`` message with exit code 2, never a traceback.
    """
    from repro.errors import ReproError

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Back-compat shim: `repro-vs metrics SNAPSHOT` predates the
    # show/serve split and still means `metrics show SNAPSHOT`.
    if (
        len(argv) >= 2
        and argv[0] == "metrics"
        and argv[1] not in ("show", "serve", "-h", "--help")
    ):
        argv.insert(1, "show")
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    commands = {
        "dock": _cmd_dock,
        "screen": _cmd_screen,
        "campaign": _cmd_campaign,
        "cluster": _cmd_cluster,
        "metrics": _cmd_metrics,
        "doctor": _cmd_doctor,
        "tables": _cmd_tables,
        "devices": _cmd_devices,
        "trace": _cmd_trace,
        "replay": _cmd_replay,
    }
    try:
        if args.command in ("dock", "screen"):
            with _maybe_sampler(args):
                return commands[args.command](args)
        return commands[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
