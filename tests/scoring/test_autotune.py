"""Tests for the input-aware kernel autotuner.

The two load-bearing properties: selection is a deterministic pure
function of (table, features) — this is what keeps autotuned campaigns
bitwise reproducible — and online refinement only ever rewrites throughput
*expectations*, never the active selection.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.errors import ScoringError
from repro.scoring.autotune import (
    AutotuneController,
    CalibrationCell,
    CalibrationTable,
    KernelSelector,
    run_calibration_sweep,
    scoring_family,
    variant_candidates,
)
from repro.scoring.batched import BatchedLJScoring
from repro.scoring.cutoff import CutoffLennardJonesScoring
from repro.scoring.lennard_jones import LennardJonesScoring
from repro.scoring.softcore import SoftcoreLJScoring
from repro.scoring.tiled import TiledLennardJonesScoring

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container ships hypothesis
    HAVE_HYPOTHESIS = False


def _cell(rec=300, lig=18, workers=0, family="exact", variant="lennard-jones",
          chunk=256, rate=1000.0):
    return CalibrationCell(
        receptor_atoms=rec,
        ligand_atoms=lig,
        worker_count=workers,
        family=family,
        variant=variant,
        chunk_size=chunk,
        poses_per_s=rate,
    )


@pytest.fixture()
def table():
    return CalibrationTable(
        [
            _cell(variant="lennard-jones", chunk=256, rate=1000.0),
            _cell(variant="lennard-jones-batched", chunk=512, rate=2500.0),
            _cell(variant="lennard-jones-tiled", chunk=256, rate=700.0),
            _cell(rec=3000, lig=45, variant="lennard-jones-batched", chunk=128,
                  rate=900.0),
            _cell(family="cutoff-float32", variant="lennard-jones-cutoff",
                  chunk=256, rate=3000.0),
        ]
    )


# ----------------------------------------------------------------------
# Table persistence
# ----------------------------------------------------------------------
def test_save_load_roundtrip(table, tmp_path):
    path = table.save(tmp_path / "cal.json")
    loaded = CalibrationTable.load(path)
    assert loaded.to_json() == table.to_json()


def test_load_errors_are_scoring_errors(tmp_path):
    with pytest.raises(ScoringError, match="not found"):
        CalibrationTable.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScoringError, match="unreadable"):
        CalibrationTable.load(bad)
    wrong_kind = tmp_path / "kind.json"
    wrong_kind.write_text('{"kind": "something-else"}')
    with pytest.raises(ScoringError, match="repro-vs-calibration"):
        CalibrationTable.load(wrong_kind)
    wrong_version = tmp_path / "ver.json"
    wrong_version.write_text(
        '{"kind": "repro-vs-calibration", "format_version": 99, "cells": []}'
    )
    with pytest.raises(ScoringError, match="format_version"):
        CalibrationTable.load(wrong_version)


def test_malformed_cell_is_named():
    with pytest.raises(ScoringError, match="malformed calibration cell"):
        CalibrationCell.from_json({"receptor_atoms": "zebra"})


# ----------------------------------------------------------------------
# Families and candidates
# ----------------------------------------------------------------------
def test_scoring_families():
    assert scoring_family(LennardJonesScoring()) == "exact"
    assert scoring_family(TiledLennardJonesScoring()) == "exact"
    assert scoring_family(BatchedLJScoring()) == "exact"
    assert scoring_family(CutoffLennardJonesScoring(dtype=np.float32)) == (
        "cutoff-float32"
    )
    assert scoring_family(CutoffLennardJonesScoring(dtype=np.float64)) == (
        "cutoff-float64"
    )
    assert scoring_family(SoftcoreLJScoring()) is None


def test_variant_candidates_cover_all_exact_kernels():
    """Every exact kernel that can win is measured; the tiled paper mirror
    (0.36x dense by construction) is not, but a table that names it loads."""
    cands = variant_candidates("exact", 300, 18)
    variants = {v for v, _ in cands}
    assert variants == {"lennard-jones", "lennard-jones-batched"}
    assert len(cands) == len(set(cands)), "candidates are deduplicated"
    old_table = CalibrationTable([_cell(variant="lennard-jones-tiled", chunk=64)])
    tuned = AutotuneController(old_table).resolve(LennardJonesScoring(), 300, 18, 0)
    assert isinstance(tuned, TiledLennardJonesScoring) and tuned.chunk_size == 64
    with pytest.raises(ScoringError, match="unknown calibration family"):
        variant_candidates("fantasy", 300, 18)


@pytest.mark.parametrize("family, itemsize", [("cutoff-float32", 4), ("cutoff-float64", 8)])
def test_cutoff_candidates_follow_the_kernels_tile_rule(family, itemsize):
    """The sweep offers the sizes the cutoff kernel picks (tile, 2 x tile),
    not the shared 8 MiB chunk it no longer uses."""
    from repro.scoring.base import auto_chunk_size
    from repro.scoring.cutoff import cutoff_tile_size

    tile = cutoff_tile_size(1500, 24, itemsize)
    assert variant_candidates(family, 1500, 24) == [
        ("lennard-jones-cutoff", tile),
        ("lennard-jones-cutoff", 2 * tile),
    ]
    assert auto_chunk_size(1500, 24, itemsize) not in (tile, 2 * tile)
    bound = CutoffLennardJonesScoring(dtype=f"float{8 * itemsize}").bind(
        *_tiny_complex()
    )
    assert bound.chunk_size == cutoff_tile_size(
        bound.receptor.n_atoms, bound.ligand.n_atoms, itemsize
    )


def test_table_naming_another_chunk_size_still_loads_and_wins(table, tmp_path):
    """A calibration recorded before the tile rule names chunk 256 for the
    cutoff family: it still loads, and the explicit size overrides the rule."""
    loaded = CalibrationTable.load(table.save(tmp_path / "old.json"))
    tuned = AutotuneController(loaded).resolve(
        CutoffLennardJonesScoring(dtype=np.float32), 300, 18, 0
    )
    assert tuned.chunk_size == 256
    assert tuned.bind(*_tiny_complex()).chunk_size == 256


def _tiny_complex():
    from repro.molecules.synthetic import generate_ligand, generate_receptor

    return generate_receptor(60, seed=1), generate_ligand(8, seed=2)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def test_exact_cell_picks_fastest_variant(table):
    sel = KernelSelector(table).select("exact", 300, 18, 0)
    assert sel.variant == "lennard-jones-batched"
    assert sel.chunk_size == 512
    assert sel.exact_cell


def test_nearest_cell_fallback_in_log_space(table):
    # 2800×40 is far from (300, 18) in log space, near (3000, 45).
    sel = KernelSelector(table).select("exact", 2800, 40, 0)
    assert not sel.exact_cell
    assert sel.cell.features == (3000, 45, 0)
    assert sel.chunk_size == 128


def test_family_is_never_crossed(table):
    sel = KernelSelector(table).select("cutoff-float32", 300, 18, 0)
    assert sel.variant == "lennard-jones-cutoff"
    assert KernelSelector(table).select("cutoff-float64", 300, 18, 0) is None


def test_selection_determinism_property(table):
    """Same table + same features ⇒ same selection, across instances."""
    rng = np.random.default_rng(20260805)
    for _ in range(60):
        rec = int(rng.integers(10, 5000))
        lig = int(rng.integers(2, 100))
        workers = int(rng.integers(0, 9))
        family = str(rng.choice(["exact", "cutoff-float32"]))
        a = KernelSelector(table).select(family, rec, lig, workers)
        b = KernelSelector(table).select(family, rec, lig, workers)
        assert a == b


def check_selector_determinism(cells_spec, rec, lig, workers):
    cells = [
        _cell(
            rec=r, lig=lg, workers=w,
            variant=("lennard-jones", "lennard-jones-batched",
                     "lennard-jones-tiled")[v],
            chunk=chunk, rate=rate,
        )
        for (r, lg, w, v, chunk, rate) in cells_spec
    ]
    # Selection must not depend on table row order.
    forward = KernelSelector(CalibrationTable(cells)).select(
        "exact", rec, lig, workers
    )
    backward = KernelSelector(CalibrationTable(cells[::-1])).select(
        "exact", rec, lig, workers
    )
    assert forward == backward
    if forward is not None:
        again = KernelSelector(CalibrationTable(cells)).select(
            "exact", rec, lig, workers
        )
        assert again == forward


def _seeded_cases(draw, n=40, seed=20260805):
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(n)]


def _draw_selector_case(rng):
    n_cells = int(rng.integers(1, 8))
    cells = tuple(
        (
            int(rng.integers(10, 5000)),
            int(rng.integers(2, 100)),
            int(rng.integers(0, 5)),
            int(rng.integers(0, 3)),
            int(rng.integers(1, 1024)),
            float(rng.uniform(1.0, 1e6)),
        )
        for _ in range(n_cells)
    )
    return (
        cells,
        int(rng.integers(10, 5000)),
        int(rng.integers(2, 100)),
        int(rng.integers(0, 5)),
    )


if HAVE_HYPOTHESIS:
    _cell_strategy = st.tuples(
        st.integers(10, 5000),
        st.integers(2, 100),
        st.integers(0, 4),
        st.integers(0, 2),
        st.integers(1, 1024),
        st.floats(1.0, 1e6, allow_nan=False),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        cells_spec=st.lists(_cell_strategy, min_size=1, max_size=7).map(tuple),
        rec=st.integers(10, 5000),
        lig=st.integers(2, 100),
        workers=st.integers(0, 4),
    )
    def test_selector_order_independence_property(cells_spec, rec, lig, workers):
        check_selector_determinism(cells_spec, rec, lig, workers)

else:

    @pytest.mark.parametrize(
        "cells_spec,rec,lig,workers", _seeded_cases(_draw_selector_case)
    )
    def test_selector_order_independence_property(cells_spec, rec, lig, workers):
        check_selector_determinism(cells_spec, rec, lig, workers)


# ----------------------------------------------------------------------
# Controller: pinning, counters, passthrough
# ----------------------------------------------------------------------
def test_controller_pins_and_counts(table):
    obs.reset()
    controller = AutotuneController(table)
    tuned = controller.resolve(LennardJonesScoring(), 300, 18, 0)
    assert isinstance(tuned, BatchedLJScoring)
    assert tuned.chunk_size == 512
    assert obs.counter("autotune.cell_hits").value == 1
    # Same cell again: the pin replays without re-counting hit/miss.
    again = controller.resolve(LennardJonesScoring(), 300, 18, 0)
    assert isinstance(again, BatchedLJScoring)
    assert obs.counter("autotune.cell_hits").value == 1
    assert (
        obs.counter("autotune.selections", variant="lennard-jones-batched").value
        == 2
    )
    # A non-exact feature cell counts as a miss but still selects.
    far = controller.resolve(LennardJonesScoring(), 2800, 40, 0)
    assert isinstance(far, BatchedLJScoring)
    assert far.chunk_size == 128
    assert obs.counter("autotune.cell_misses").value == 1


def test_controller_preserves_physics_parameters(table):
    controller = AutotuneController(table)
    base = CutoffLennardJonesScoring(dtype=np.float32, cutoff=7.5)
    tuned = controller.resolve(base, 300, 18, 0)
    assert isinstance(tuned, CutoffLennardJonesScoring)
    assert tuned.cutoff == base.cutoff
    assert tuned.dtype == base.dtype
    assert tuned.forcefield is base.forcefield


def test_unknown_family_passes_through(table):
    obs.reset()
    controller = AutotuneController(table)
    base = SoftcoreLJScoring()
    assert controller.resolve(base, 300, 18, 0) is base
    assert obs.counter("autotune.cell_misses").value == 1


# ----------------------------------------------------------------------
# Refinement: hysteresis, demotion, never switching
# ----------------------------------------------------------------------
def test_refinement_needs_sustained_shortfall(table):
    controller = AutotuneController(table, margin=1.15, patience=3)
    controller.resolve(LennardJonesScoring(), 300, 18, 0)  # predicts 2500/s
    controller.observe(100.0)
    controller.observe(100.0)
    assert controller.refinements == 0, "patience not yet exhausted"
    controller.observe(100.0)
    assert controller.refinements == 1
    refined = controller.refined_table()
    (demoted,) = [
        c
        for c in refined.cells
        if c.variant == "lennard-jones-batched" and c.features == (300, 18, 0)
    ]
    assert demoted.poses_per_s < 2500.0
    # The in-memory table the selector uses is untouched.
    (original,) = [
        c
        for c in table.cells
        if c.variant == "lennard-jones-batched" and c.features == (300, 18, 0)
    ]
    assert original.poses_per_s == 2500.0


def test_recovered_throughput_resets_the_streak(table):
    controller = AutotuneController(table, margin=1.15, patience=3)
    controller.resolve(LennardJonesScoring(), 300, 18, 0)  # predicts 2500/s
    controller.observe(100.0)
    controller.observe(100.0)
    # A strong recovery lifts the EWMA back over the margin bar, resetting
    # the shortfall streak — and the EWMA's inertia then keeps subsequent
    # single slow samples from re-triggering immediately.
    controller.observe(50_000.0)
    controller.observe(100.0)
    controller.observe(100.0)
    assert controller.refinements == 0


def test_refinement_never_switches_active_selection(table):
    controller = AutotuneController(table, patience=1)
    first = controller.resolve(LennardJonesScoring(), 300, 18, 0)
    for _ in range(20):
        controller.observe(1.0)  # catastrophic observed throughput
    after = controller.resolve(LennardJonesScoring(), 300, 18, 0)
    assert type(after) is type(first)
    assert after.chunk_size == first.chunk_size


def test_observe_ignores_garbage(table):
    controller = AutotuneController(table, patience=1)
    controller.observe(100.0)  # nothing resolved yet: no-op
    controller.resolve(LennardJonesScoring(), 300, 18, 0)
    controller.observe(float("nan"))
    controller.observe(-5.0)
    controller.observe(0.0)
    assert controller.refinements == 0


# ----------------------------------------------------------------------
# Sweep smoke (tiny sizes: seconds, not minutes)
# ----------------------------------------------------------------------
def test_tiny_sweep_selects_and_roundtrips(tmp_path):
    table = run_calibration_sweep(
        receptor_atoms=(120,),
        ligand_atoms=(12,),
        worker_counts=(0,),
        families=("exact",),
        poses=32,
        repeats=1,
        seed=3,
    )
    assert len(table.cells) == len(variant_candidates("exact", 120, 12))
    assert all(c.poses_per_s > 0 for c in table.cells)
    loaded = CalibrationTable.load(table.save(tmp_path / "sweep.json"))
    sel = KernelSelector(loaded).select("exact", 120, 12, 0)
    assert sel is not None and sel.exact_cell
