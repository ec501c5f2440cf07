"""The performance ledger: run workloads, check their outputs, print metrics.

    python3 benchmarks/perf/run.py --workload dock_pool2 --seed 7 --seconds 25 --trace 0

One *pass* is one campaign in a fresh child interpreter (``child.py``); a run
repeats passes for ``--seconds`` and reports the median of each metric over
them, so a slow second on the box moves one pass and not the result. Without
``--workload`` every workload runs, passes interleaved A B C D, A B C D, so a
slow phase lands on all of them alike. ``--trace 1`` alternates plain and
wrapped passes and adds the direct layer drivers; it reports the per-layer
metrics instead of the end-to-end ones.

This process imports only the standard library. Time, CPU and memory of a
pass are read from outside it: ``wait4`` on the child covers its whole
process tree. Every value is reported as measured.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

WORKLOADS = ("dock_serial", "dock_pool2", "ingest_stream", "readback")
#: A pass takes 4-6 s; past this something hangs and the run must still end.
PASS_TIMEOUT_S = 120.0
#: One thread per process, so processes = cores: with OpenBLAS threads left
#: free, two pool workers on two cores run slower than the serial campaign.
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Limits a traced run is checked against: the layer times must account for
#: the pass, and wrapping the layers must not change what is measured.
MAX_UNATTRIBUTED_SHARE = 0.10
MAX_TRACE_OVERHEAD_SHARE = 0.05


class CheckFailed(Exception):
    pass


def run_child(workload: str, args, workdir: Path, trace: int = 0) -> dict:
    """One pass; returns the child's observations plus what ``wait4`` saw."""
    passdir = workdir / "pass"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--profile", args.profile, "--seed", str(args.seed),
        "--workdir", str(passdir), "--library", str(workdir / "library.smi"), "--trace", str(trace),
    ]
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": f"{HERE}{os.pathsep}{SRC}"}
    t_spawn = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        output = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    shutil.rmtree(passdir, ignore_errors=True)
    if child.returncode != 0:
        raise CheckFailed(f"{workload}: child exited with code {child.returncode}")
    result = json.loads(output.decode().strip().rsplit("\n", 1)[-1])
    result["t_spawn"] = t_spawn
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def measure(workloads: tuple, args, workdir: Path) -> tuple[dict, dict, dict, dict | None]:
    """Run the passes: (plain passes, traced passes, driver metrics, the serial
    reference pass when ``dock_pool2`` runs without ``dock_serial``)."""
    plain: dict[str, list[dict]] = {name: [] for name in workloads}
    traced: dict[str, list[dict]] = {name: [] for name in workloads}
    sizes = inputs.PROFILES[args.profile]
    # A traced run spends half its passes wrapped, so two of each do.
    min_passes = min(2, sizes.min_passes) if args.trace else sizes.min_passes
    # Discarded: the program's imports, so the first pass finds its bytecode
    # compiled and the files in the page cache like every later one.
    run_child("warmup", args, workdir)
    # The drivers' seconds come out of the run's measuring time.
    t0 = time.monotonic()
    drivers = run_child("drivers", args, workdir)["drivers"] if args.trace else {}
    spent = dict.fromkeys(workloads, (time.monotonic() - t0) / len(workloads))
    serial_reference = None
    if "dock_pool2" in workloads and "dock_serial" not in workloads:
        # Digest parity needs the serial campaign on the same inputs.
        serial_reference = run_child("dock_serial", args, workdir)
    kinds = (plain, traced) if args.trace else (plain,)
    while True:
        todo = [
            (workload, kind) for workload in workloads for kind in kinds
            if spent[workload] < args.seconds or len(kind[workload]) < min_passes
        ]
        if not todo:
            break
        for workload, kind in todo:
            if spent[workload] >= args.seconds and len(kind[workload]) >= min_passes:
                continue  # the plain pass of this round used up the time
            t0 = time.monotonic()
            kind[workload].append(run_child(workload, args, workdir, trace=int(kind is traced)))
            spent[workload] += time.monotonic() - t0
    return plain, traced, drivers, serial_reference


def end_to_end(passes: list[dict]) -> dict:
    """Median over the plain passes of each end-to-end measurement."""

    def median(per_pass) -> float:
        return statistics.median(per_pass(p, p["raw"]) for p in passes)

    return {
        "ligands_per_s": median(lambda p, r: r["timed_ligands"] / (r["t_end"] - r["t_first_commit"])),
        "cpu_s_per_kligand": median(lambda p, r: p["cpu_s"] / r["ligands"] * 1e3),
        "peak_rss_mb": median(lambda p, r: p["peak_rss_mb"]),
        "store_bytes_per_ligand": median(lambda p, r: r["store_bytes"] / r["stored"]),
        "setup_s": median(lambda p, r: r["t_first_commit"] - p["t_spawn"]),
    }


def per_layer(plain: list[dict], traced: list[dict], drivers: dict, efficiency: float) -> dict:
    """Median over the traced passes of each per-layer measurement."""
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    plain_s = statistics.median(p["raw"]["t_closed"] - p["raw"]["t_body"] for p in plain)
    out["trace.wall_delta_share"] = out.pop("body_s") / plain_s - 1.0
    out["host_runtime.scaling_efficiency"] = efficiency
    out.update(drivers)
    return out


def expected_digests(args, serial_pass: dict | None) -> dict[str, str]:
    """{why: digest} the dock workloads must reproduce."""
    expected = {}
    if serial_pass is None:
        return expected
    expected["serial"] = serial_pass["raw"]["digest"]
    pinned = json.loads((HERE / "pinned.json").read_text())[args.profile]
    if args.expect_digest:
        expected["expected"] = args.expect_digest
    elif args.seed == pinned["seed"]:
        if serial_pass["platform"] == pinned["platform"]:
            expected["pinned"] = pinned["digest"]
        else:
            print("perf: pinned digest not checked: it was recorded on another platform", file=sys.stderr)
    return expected


def check(workload: str, passes: list[dict], expected: dict[str, str], unique_titles: int) -> list[str]:
    """Every way this workload's outputs are wrong (empty when correct)."""
    problems = []
    raws = [p["raw"] for p in passes]
    digests = {r["digest"] for r in raws}
    if any(r["failed"] for r in raws):
        problems.append(f"{sum(r['failed'] for r in raws)} ligands failed or missing")
    if len(digests) != 1:
        problems.append(f"science digest changed between passes: {sorted(digests)}")
    for why, digest in expected.items():
        if workload.startswith("dock_") and digests != {digest}:
            problems.append(f"science digest {sorted(digests)} is not the {why} digest {digest}")
    if workload == "ingest_stream" and any(r["stored"] != unique_titles for r in raws):
        problems.append(f"stored rows {[r['stored'] for r in raws]} != {unique_titles} unique titles")
    if workload == "readback" and not all(r["digest_stable"] for r in raws):
        problems.append("digest read back differs from the digest computed while building")
    if any(p["installed_before"] or p["installed_after"] for p in passes):
        problems.append("a timing wrapper was installed outside a traced pass")
    return problems


def trace_problems(values: dict) -> list[str]:
    """The limits a traced run must keep (empty when it does)."""
    problems = []
    if values["unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"unattributed_share {values['unattributed_share']:.3f} > {MAX_UNATTRIBUTED_SHARE}: "
                        "the layer times do not account for the pass")
    if values["trace.overhead_share"] > MAX_TRACE_OVERHEAD_SHARE:
        problems.append(f"trace.overhead_share {values['trace.overhead_share']:.3f} > {MAX_TRACE_OVERHEAD_SHARE}: "
                        "the wrappers slow the pass they measure")
    return problems


def environment(workdir: Path) -> dict:
    fs = "unknown"
    try:
        mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
        target = str(workdir.resolve())
        best = max((m for m in mounts if target.startswith(m[1])), key=lambda m: len(m[1]))
        fs = f"{best[2]} ({best[0]})"
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "workdir_fs": fs,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": os.getloadavg()[0],
        "threads": ONE_THREAD,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat to pick several; default all four")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", dest="profile", action="store_const", const="smoke", default="full",
                        help="tiny inputs, for the harness's own tests")
    parser.add_argument("--expect-digest",
                        help="science digest the dock workloads must produce "
                             "(default: the pinned one, at the default seed on the pinned platform)")
    parser.add_argument("--out", type=Path, help="append this run as one JSON line")
    args = parser.parse_args()
    workloads = tuple(dict.fromkeys(args.workload or WORKLOADS))

    if not (SRC / "repro").is_dir():
        print(f"perf: the program under test is not at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    env = environment(workdir)
    try:
        unique_titles = inputs.write_smiles_library(
            workdir / "library.smi", inputs.PROFILES[args.profile], args.seed)
        plain, traced, drivers, serial_reference = measure(workloads, args, workdir)
    except CheckFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    serial_passes = plain.get("dock_serial") or ([serial_reference] if serial_reference else [])
    expected = expected_digests(args, serial_passes[0] if serial_passes else None)
    report = {}
    for workload in workloads:
        problems = check(workload, plain[workload] + traced[workload], expected, unique_titles)
        measured = end_to_end(plain[workload])
        values = dict(measured)
        if args.trace:
            efficiency = 0.0
            if workload == "dock_pool2":
                efficiency = measured["ligands_per_s"] / (2.0 * end_to_end(serial_passes)["ligands_per_s"])
            values.update(per_layer(plain[workload], traced[workload], drivers, efficiency))
            problems += trace_problems(values)
        for problem in problems:
            print(f"perf: {workload}: FAILED: {problem}", file=sys.stderr)
        # A failed check fails every ligand of the workload.
        attempted = sum(p["raw"]["ligands"] for p in plain[workload])
        failed = attempted if problems else 0
        measured["completed_share"] = values["completed_share"] = 1.0 - failed / attempted
        report[workload] = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "passes": len(plain[workload]),
            # Every end-to-end measurement, also those BENCHMARK.json lists per layer.
            "measured": measured,
            "digest": plain[workload][0]["raw"]["digest"],
            "span_counts": traced[workload][0]["span_counts"] if args.trace else {},
            "platform": plain[workload][0]["platform"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        # The table also shows the end-to-end measurements the result line leaves out.
        for name in dict.fromkeys([*units, *measured]):
            print(f"{workload:14s} {name:40s} {values[name]:14.6g} {all_units[name]}")

    if args.out:
        record = {"env": env, "seed": args.seed, "seconds": args.seconds,
                  "profile": args.profile, "trace": args.trace, "results": report}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    single = len(workloads) == 1
    correct = all(r["correct"] for r in report.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in report.values()),
        "failed": sum(r["failed"] for r in report.values()),
        "metrics": {
            (name if single else f"{workload}/{name}"): metric
            for workload, result in report.items()
            for name, metric in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
