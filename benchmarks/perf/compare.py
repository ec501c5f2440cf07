"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/perf/compare.py base.jsonl change.jsonl

One row per workload x end-to-end measurement: both medians with their
quartiles, the relative difference (base: the first set's median), the bound
from ``BENCHMARK.json`` and a verdict:

* ``agree``       the medians differ by no more than the bound;
* ``differ``      they differ by more, and the sets do not overlap or their
                  spread is within the bound;
* ``unresolved``  the spread between a set's own runs (quartile distance over
                  median) is wider than the bound and the sets overlap, so
                  they cannot tell.

``setup_s`` is judged on its medians alone, as the benchmark contract judges
it: it has to stay an end-to-end metric whatever its spread. The two timing
measurements that ``BENCHMARK.json`` lists per layer, because
they did not repeat within the bound issue 12 set for them, are shown against
that bound and marked ``(per layer)``. Exit code 1 if any other row is not
``agree``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Issue 12's bounds for the end-to-end measurements now listed per layer.
DEMOTED_BOUNDS = {"ligands_per_s": 0.10, "cpu_s_per_kligand": 0.10}


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """{(workload, metric): one value per invocation} from a ``--out`` file."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        for workload, result in record["results"].items():
            for metric, value in result["measured"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], bound: float,
            judge_spread: bool = True) -> tuple[str, float, float]:
    """(verdict, relative difference of medians, widest own spread)."""
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    difference = (c2 - b2) / b2
    spread = max((b3 - b1) / b2, (c3 - c1) / c2)
    apart = min(change) > max(base) or max(change) < min(base)
    if judge_spread and spread > bound and not apart:
        return "unresolved", difference, spread
    return ("differ" if abs(difference) > bound else "agree"), difference, spread


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds = {**DEMOTED_BOUNDS, **gated}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':14s} {'metric':24s} {'base q1/median/q3':>36s} {'change q1/median/q3':>36s} "
          f"{'diff':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    failures = 0
    for (workload, metric), base_values in base.items():
        change_values = change.get((workload, metric), [])
        if min(len(base_values), len(change_values)) < 2:
            print(f"{workload:14s} {metric:24s} too few runs to compare")
            failures += 1
            continue
        word, difference, spread = verdict(
            base_values, change_values, bounds[metric], judge_spread=metric != "setup_s")
        if metric in gated:
            failures += word != "agree"
        else:
            word += " (per layer)"
        cells = ["/".join(f"{q:.5g}" for q in quartiles(v)) for v in (base_values, change_values)]
        print(f"{workload:14s} {metric:24s} {cells[0]:>36s} {cells[1]:>36s} "
              f"{difference:+8.2%} {spread:7.2%} {bounds[metric]:6.1%}  {word}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
