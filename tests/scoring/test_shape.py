"""``ScoringFunction.shape``: a bound scorer's planning facts, without binding.

The process that plans pooled launches reads only these facts. Whatever a
factory answers from atom counts must therefore be exactly what its bound
scorer reports, or the plan and the launch records drift from serial.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import ScoringError
from repro.molecules.synthetic import generate_ligand, generate_receptor
from repro.scoring.base import (
    ScorerShape,
    ScoringFunction,
    available_scorings,
    get_scoring,
)
from repro.scoring.composite import make_lj_coulomb
from repro.scoring.coulomb import BoundCoulomb
from repro.scoring.cutoff import CutoffLennardJonesScoring

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container ships hypothesis
    HAVE_HYPOTHESIS = False


class UnregisteredCoulomb(ScoringFunction):
    """A factory that defines only ``bind``: it gets the default shape."""

    def bind(self, receptor, ligand):
        return BoundCoulomb(receptor, ligand)


#: Constructor overrides: composite needs terms, and a coarse grid keeps the
#: grid map's bind cheap enough to run per example.
_BUILD = {
    "composite": make_lj_coulomb,
    "gridmap": lambda: get_scoring("gridmap", spacing=2.0),
}


def _factories() -> dict[str, ScoringFunction]:
    factories = {
        name: _BUILD[name]() if name in _BUILD else get_scoring(name)
        for name in available_scorings()
    }
    factories["unregistered-coulomb"] = UnregisteredCoulomb()
    factories["cutoff-f32"] = CutoffLennardJonesScoring(dtype=np.float32)
    factories["cutoff-chunk-7"] = CutoffLennardJonesScoring(chunk_size=7)
    return factories


FACTORIES = _factories()


def test_cutoff_overrides_shape_and_binds_nothing(monkeypatch):
    def no_bind(*args):
        raise AssertionError("shape() bound a scorer")

    monkeypatch.setattr(CutoffLennardJonesScoring, "bind", no_bind)
    receptor, ligand = generate_receptor(80, seed=3), generate_ligand(9, seed=4)
    shape = CutoffLennardJonesScoring(dtype=np.float32).shape(receptor, ligand)
    assert shape.supports_spot_scoring
    assert shape.n_pairs == 80 * 9 and shape.n_receptor_atoms == 80


def test_cutoff_shape_rejects_what_bind_rejects():
    receptor, ligand = generate_receptor(40, seed=3), generate_ligand(6, seed=4)
    for bad in (dict(cutoff=0.0), dict(dtype=np.int32)):
        factory = CutoffLennardJonesScoring(**bad)
        with pytest.raises(ScoringError) as bound:
            factory.bind(receptor, ligand)
        with pytest.raises(ScoringError, match=re.escape(str(bound.value))):
            factory.shape(receptor, ligand)


if HAVE_HYPOTHESIS:

    @settings(max_examples=12, deadline=None)
    @given(
        n_receptor=st.integers(min_value=20, max_value=900),
        n_ligand=st.integers(min_value=3, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_shape_equals_the_bound_scorers_facts(name, n_receptor, n_ligand, seed):
        receptor = generate_receptor(n_receptor, seed=seed)
        ligand = generate_ligand(n_ligand, seed=seed + 1)
        factory = FACTORIES[name]
        assert factory.shape(receptor, ligand) == ScorerShape.of(
            factory.bind(receptor, ligand)
        )
