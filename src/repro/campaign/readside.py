"""The read side both store backends share.

Written once over ``science_rows`` / ``iter_results`` / ``config`` /
``config_hash`` / ``counts`` and bound as methods of each store class (the
perf harness looks them up in each class's own namespace), plus the
streaming :func:`export_report`. Loading it loads neither backend: a
columnar campaign never imports SQLite.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import TextIO

__all__ = ["export_report"]

_RESULT_COLUMNS = (
    "ordinal",
    "title",
    "status",
    "best_score",
    "best_spot",
    "evaluations",
    "wall_seconds",
    "simulated_seconds",
    "attempts",
    "error",
)


def export_report(store, destination: str | Path | TextIO) -> int:
    """Stream a store's completed ligands as ``ScreeningReport`` JSON.

    Produces output :meth:`repro.vs.results.ScreeningReport.from_json` reads
    back, without ever materialising the report: rows stream one at a time
    from :meth:`iter_results`, and the ``simulated_seconds`` total — only
    known once the stream ends — is written *after* the entries
    (``from_json`` is key-order agnostic). This is the export path a
    million-row campaign report relies on; ``to_report()`` remains for
    callers that want the in-memory object. Works on any store backend.
    Returns the number of entries written.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_report(store, handle)
    from repro.vs.results import _encode_float

    config = store.config
    title = str(config.get("receptor_title") or "receptor")
    destination.write(
        f'{{"receptor_title": {json.dumps(title)}, "entries": ['
    )
    n = 0
    simulated_total = 0.0
    for row in store.iter_results():
        if row["status"] != "done":
            continue
        simulated = row["simulated_seconds"]
        entry = {
            "ligand_title": str(row["title"]),
            "best_score": _encode_float(float(row["best_score"])),
            "best_spot": int(row["best_spot"]),
            "evaluations": int(row["evaluations"]),
            "simulated_seconds": _encode_float(
                float("nan") if simulated is None else float(simulated)
            ),
        }
        destination.write(("," if n else "") + "\n" + json.dumps(entry))
        if simulated is not None:
            simulated_total += float(simulated)
        n += 1
    destination.write(
        '\n], "simulated_seconds": '
        f"{json.dumps(_encode_float(simulated_total))}}}\n"
    )
    return n


def _science_digest(store) -> str:
    """SHA-256 over :meth:`science_rows` — the store-parity fingerprint.

    Two stores of the same campaign config compare equal here iff their
    science is identical, whatever their backend; parity tests and the
    multinode benchmark use this instead of comparing whole store files
    (which differ in timings and layout). A zero score hashes as ``0.0``:
    SQLite reads a stored ``-0.0`` back as ``0.0``, the columnar store keeps
    its sign, and the sign of a zero is not science.
    """
    digest = hashlib.sha256()
    for row in store.science_rows():
        if row[3] == 0.0:
            row = (*row[:3], 0.0, *row[4:])
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _export_json(store, destination: str | Path | TextIO) -> int:
    """Write the full campaign dump as JSON; returns rows written.

    Rows stream one at a time — the full table is never in memory.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return store.export_json(handle)
    destination.write('{"campaign": ')
    destination.write(json.dumps(store.config, sort_keys=True))
    destination.write(f', "config_hash": {json.dumps(store.config_hash)}')
    destination.write(f', "counts": {json.dumps(store.counts())}')
    destination.write(', "results": [')
    n = 0
    for row in store.iter_results():
        destination.write(("," if n else "") + "\n" + json.dumps(row))
        n += 1
    destination.write("\n]}\n")
    return n


def _export_csv(store, destination: str | Path | TextIO) -> int:
    """Write per-ligand rows as CSV; returns rows written."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            return store.export_csv(handle)
    writer = csv.writer(destination)
    writer.writerow(_RESULT_COLUMNS)
    n = 0
    for row in store.iter_results():
        writer.writerow([row[column] for column in _RESULT_COLUMNS])
        n += 1
    return n


def _to_report(store):
    """Materialise completed ligands as a
    :class:`~repro.vs.results.ScreeningReport`.

    Failed/pending ligands are omitted (they have no score); entries keep
    ordinal (submission) order, matching ``screen()``.
    """
    from repro.vs.results import ScreeningEntry, ScreeningReport

    config = store.config
    report = ScreeningReport(
        receptor_title=str(config.get("receptor_title") or "receptor")
    )
    for row in store.iter_results():
        if row["status"] != "done":
            continue
        simulated = row["simulated_seconds"]
        report.add(
            ScreeningEntry(
                ligand_title=str(row["title"]),
                best_score=float(row["best_score"]),
                best_spot=int(row["best_spot"]),
                evaluations=int(row["evaluations"]),
                simulated_seconds=(
                    float("nan") if simulated is None else float(simulated)
                ),
            )
        )
        if simulated is not None:
            report.simulated_seconds += float(simulated)
    return report
