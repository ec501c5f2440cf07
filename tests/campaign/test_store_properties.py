"""Property-based invariants of the columnar store and streaming readers.

Uses hypothesis when the container provides it; otherwise the same
properties run over a seeded-random case battery (deterministic across
runs), mirroring ``tests/engine/test_partition_properties.py``.

The four invariants: (1) sealing + compaction is a pure re-layout — the
logical row set is exactly the written row set, at any group size or
fan-in; (2) ``top(k)`` agrees with a full sort for any score stream, at
any k (past the row count too), including ties; (3) the bounded-memory
streaming dedup keeps exactly the lines an unbounded in-memory dedup would;
(4) a row group read back from its content-sized block is the rows written,
bit for bit, whatever its columns hold.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.colstore import (
    _STATUSES,
    ColumnarStore,
    _encode_group,
    _rows_of,
)
from repro.campaign.library import SmilesSource

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container ships hypothesis
    HAVE_HYPOTHESIS = False

CONFIG = {"receptor_title": "prop receptor", "n_spots": 2, "seed": 1}


def _seeded_cases(draw, n=25, seed=20260808):
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(n)]


# ----------------------------------------------------------------------
# (1) seal + compact round-trip
# ----------------------------------------------------------------------
def check_compaction_roundtrip(scores, shard_size, group_rows, fanin):
    model = {}  # ordinal -> (title, score or None if failed)
    with tempfile.TemporaryDirectory() as tmp:
        store = ColumnarStore.create(
            Path(tmp) / "c.col", CONFIG, "h",
            group_rows=group_rows, compact_fanin=fanin,
        )
        for start in range(0, len(scores), shard_size):
            stop = min(start + shard_size, len(scores))
            shard_id = start // shard_size
            store.start_shard(shard_id, start, stop)
            for ordinal in range(start, stop):
                title = f"L{ordinal}"
                score = scores[ordinal]
                if score is None:
                    store.record_failure(ordinal, title, "boom", 1)
                else:
                    store.record_result(ordinal, title, score, 0, 8, 0.1, 0.0)
                model[ordinal] = (title, score)
            store.finish_shard(shard_id, 0.1)
        # Compaction kicked in (unless too few segments formed) and the
        # logical rows survived the re-layout exactly.
        got = {
            row["ordinal"]: (row["title"], row["best_score"])
            for row in store.iter_results()
        }
        assert got == model
        done = sorted(
            (score, ordinal)
            for ordinal, (_, score) in model.items()
            if score is not None
        )
        top = store.top(max(1, len(model)))
        assert [(r["best_score"], r["ordinal"]) for r in top] == done
        # ...and again through the recovery path.
        store.close()
        with ColumnarStore.open(Path(tmp) / "c.col") as reopened:
            assert {
                row["ordinal"]: (row["title"], row["best_score"])
                for row in reopened.iter_results()
            } == model


def _draw_roundtrip(rng):
    n = int(rng.integers(1, 60))
    scores = [
        None if rng.random() < 0.15 else round(float(rng.uniform(-9, -1)), 4)
        for _ in range(n)
    ]
    return (
        scores,
        int(rng.integers(1, 9)),  # shard_size
        int(rng.integers(1, 9)),  # group_rows
        int(rng.integers(2, 5)),  # compact_fanin
    )


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(
                st.none(),
                st.floats(-9, -1, allow_nan=False).map(lambda s: round(s, 4)),
            ),
            min_size=1,
            max_size=60,
        ),
        shard_size=st.integers(1, 8),
        group_rows=st.integers(1, 8),
        fanin=st.integers(2, 4),
    )
    def test_compaction_roundtrip_properties(scores, shard_size, group_rows, fanin):
        check_compaction_roundtrip(scores, shard_size, group_rows, fanin)

else:

    @pytest.mark.parametrize(
        "scores,shard_size,group_rows,fanin", _seeded_cases(_draw_roundtrip)
    )
    def test_compaction_roundtrip_properties(scores, shard_size, group_rows, fanin):
        check_compaction_roundtrip(scores, shard_size, group_rows, fanin)


# ----------------------------------------------------------------------
# (2) top(k) == full sort
# ----------------------------------------------------------------------
def check_topk_matches_full_sort(scores, k, shard_size=7):
    with tempfile.TemporaryDirectory() as tmp:
        store = ColumnarStore.create(
            Path(tmp) / "c.col", CONFIG, "h", group_rows=4, compact_fanin=3
        )
        # Even shards seal (and compact), odd ones stay in the overlay.
        for shard_id, start in enumerate(range(0, len(scores), shard_size)):
            stop = min(start + shard_size, len(scores))
            store.start_shard(shard_id, start, stop)
            for ordinal in range(start, stop):
                store.record_result(
                    ordinal, f"L{ordinal}", scores[ordinal], 0, 8, 0.1, 0.0
                )
            if shard_id % 2 == 0:
                store.finish_shard(shard_id, 0.1)
        # Ascending score, ordinal breaking ties.
        expected = sorted((score, ordinal) for ordinal, score in enumerate(scores))
        got = [(r["best_score"], r["ordinal"]) for r in store.top(k)]
        assert got == expected[:k], f"k={k} n={len(scores)}"
        store.close()


def _draw_topk(rng):
    n = int(rng.integers(1, 80))
    # Coarse rounding forces score ties, the ordering's hard case.
    scores = [round(float(rng.uniform(-5, -1)), 1) for _ in range(n)]
    return scores, int(rng.integers(1, n + 10))  # k past the row count too


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        scores=st.lists(
            st.floats(-5, -1, allow_nan=False).map(lambda s: round(s, 1)),
            min_size=1,
            max_size=80,
        ),
        k=st.integers(1, 90),
    )
    def test_topk_matches_full_sort(scores, k):
        check_topk_matches_full_sort(scores, k)

else:

    @pytest.mark.parametrize("scores,k", _seeded_cases(_draw_topk))
    def test_topk_matches_full_sort(scores, k):
        check_topk_matches_full_sort(scores, k)


# ----------------------------------------------------------------------
# (3) streaming dedup == in-memory dedup
# ----------------------------------------------------------------------
def check_reader_dedup(titles):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lib.smi"
        path.write_text(
            "".join(f"CCO {title}\n" for title in titles), encoding="utf-8"
        )
        streamed = [lig.title for lig in SmilesSource(path, seed=3)]
        seen, expected = set(), []
        for title in titles:
            if title not in seen:
                seen.add(title)
                expected.append(title)
        assert streamed == expected
        # dedup=False keeps every line, order intact.
        assert [
            lig.title for lig in SmilesSource(path, seed=3, dedup=False)
        ] == list(titles)


def _draw_titles(rng):
    n = int(rng.integers(1, 60))
    pool = [f"mol{i}" for i in range(max(1, n // 3))]
    return ([pool[int(rng.integers(0, len(pool)))] for _ in range(n)],)


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        titles=st.lists(
            st.sampled_from([f"mol{i}" for i in range(12)]), min_size=1, max_size=60
        )
    )
    def test_reader_dedup_matches_in_memory(titles):
        check_reader_dedup(titles)

else:

    @pytest.mark.parametrize("titles", _seeded_cases(_draw_titles))
    def test_reader_dedup_matches_in_memory(titles):
        check_reader_dedup(titles)


# ----------------------------------------------------------------------
# (4) content-sized blocks decode to the rows written
# ----------------------------------------------------------------------
def draw_rows(rng):
    """``[(ordinal, row), ...]`` from a ``random.Random``-like source.

    One value maker is drawn per *column*, so constant columns, narrow ones
    and ones needing all 64 bits each turn up, in any combination.
    """
    n = rng.randint(1, 40)

    def column(*makers):
        make = rng.choice(makers)
        return [make() for _ in range(n)]

    def integers():
        return column(
            lambda: 7,
            lambda: rng.randint(0, 300),
            lambda: rng.randint(0, 1 << 33),
            lambda: rng.randint(-(1 << 40), 1 << 40),
            lambda: rng.choice((None, 70000)),
        )

    def floats():
        return column(
            lambda: -0.0,
            lambda: rng.choice((-0.0, 0.0)),
            lambda: rng.uniform(-50.0, 50.0),
            lambda: rng.choice((None, 0.25)),
        )

    base = rng.choice((0, 250, 65530, (1 << 32) - 3, 1 << 40))
    steps = column(
        lambda: 1, lambda: rng.randint(1, 3), lambda: rng.randint(1, 1 << 20)
    )
    ordinals = [base + sum(steps[: i + 1]) for i in range(n)]
    titles = column(
        lambda: "", lambda: "T", lambda: "ligand-µ%d" % rng.randint(0, 99),
        lambda: "x" * 2000,  # 36 of them pass 64 KiB of heap
    )
    errors = column(lambda: None, lambda: "", lambda: rng.choice((None, "boom ±", "")))
    statuses = column(lambda: "done", lambda: rng.choice(_STATUSES))
    attempts = column(
        lambda: 1, lambda: rng.randint(0, 300), lambda: rng.randint(0, 1 << 40)
    )
    fields = zip(
        titles, statuses, floats(), integers(), integers(), floats(), floats(),
        attempts, errors,
    )
    return [(ordinal, list(row)) for ordinal, row in zip(ordinals, fields)]


def check_layout_roundtrip(items, group_rows):
    with tempfile.TemporaryDirectory() as tmp:
        with ColumnarStore.create(
            Path(tmp) / "c.col", CONFIG, "h", group_rows=group_rows
        ) as store:
            # Two input groups, so output groups are cut from slices of both.
            cut = len(items) // 2
            halves = [part for part in (items[:cut], items[cut:]) if part]
            entry = store._write_segment(map(_encode_group, halves))
            got = [
                row
                for group in store._read_groups([entry])
                for row in _rows_of(group)
            ]
    assert repr(got) == repr(items)  # repr tells -0.0 from 0.0


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        group_rows=st.sampled_from((1, 7, 65536)),
    )
    def test_row_group_layout_roundtrip(rng, group_rows):
        check_layout_roundtrip(draw_rows(rng), group_rows)

else:

    @pytest.mark.parametrize("seed", range(60))
    def test_row_group_layout_roundtrip(seed):
        rng = random.Random(20261004 + seed)
        check_layout_roundtrip(draw_rows(rng), rng.choice((1, 7, 65536)))
