"""DockSettings: one validation, and three outward forms that round-trip."""

import random

import pytest

from repro.campaign.settings import DockSettings
from repro.errors import CampaignError, ClusterError, HardwareModelError, ProtocolError
from repro.hardware.node import custom_node, hertz, jupiter, named_node
from repro.metaheuristics.presets import make_preset
from repro.scoring.base import get_scoring
from repro.scoring.lennard_jones import LennardJonesScoring


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_spots", 0, "n_spots must be >= 1"),
        ("mode", "warp-drive", "unknown mode 'warp-drive'"),
        ("host_workers", -1, "host_workers must be >= 0"),
        ("parallel_mode", "eager", "parallel_mode must be 'static' or 'dynamic'"),
        ("max_attempts", 0, "max_attempts must be >= 1"),
    ],
    ids=["n_spots", "mode", "host_workers", "parallel_mode", "max_attempts"],
)
def test_one_validation_for_every_surface(field, value, message, receptor):
    from repro.campaign import CampaignRunner, ListSource

    with pytest.raises(CampaignError, match=message):
        DockSettings(**{field: value})
    with pytest.raises(CampaignError, match=message):
        CampaignRunner(receptor, ListSource([]), store_path=":memory:", **{field: value})


def seeded_settings(seed: int) -> DockSettings:
    """One point of the option space, every field drawn from ``seed``."""
    rng = random.Random(seed)
    return DockSettings(
        n_spots=rng.randint(1, 64),
        metaheuristic=rng.choice(["M1", "M2", "M3", "M4"]),
        scoring=rng.choice(
            [
                None,
                get_scoring("lennard-jones", chunk_size=rng.choice([None, 64])),
                get_scoring("lennard-jones-cutoff", cutoff=rng.uniform(6.0, 14.0)),
            ]
        ),
        seed=rng.randint(0, 2**31),
        workload_scale=rng.uniform(0.01, 2.0),
        node=rng.choice([None, jupiter(), hertz()]),
        mode=rng.choice(["openmp", "gpu-homogeneous", "gpu-heterogeneous", "gpu-dynamic"]),
        host_workers=rng.randint(0, 8),
        parallel_mode=rng.choice(["static", "dynamic"]),
        max_attempts=rng.randint(1, 5),
        backoff_base=rng.uniform(0.0, 1.0),
    )


@pytest.mark.parametrize("seed", range(24))
def test_wire_round_trip(seed):
    import json

    settings = seeded_settings(seed)
    wire = json.loads(json.dumps(settings.to_wire()))  # as the socket carries it
    back = DockSettings.from_wire(wire)
    assert back.to_wire() == settings.to_wire()
    assert back.stored() == settings.stored()
    assert (back.node, back.seed, back.backoff_base) == (
        settings.node,
        settings.seed,
        settings.backoff_base,
    )
    assert "pipeline_depth" not in wire


@pytest.mark.parametrize("seed", range(24))
def test_stored_round_trip(seed):
    settings = seeded_settings(seed)
    stored = settings.stored()
    assert set(stored) == {
        "n_spots", "metaheuristic", "scoring", "seed", "workload_scale", "node", "mode",
    }
    if settings.scoring is not None:
        with pytest.raises(CampaignError, match="custom scoring function"):
            DockSettings.from_stored(stored)
        stored["scoring"] = None
    back = DockSettings.from_stored(stored)
    assert back.stored() == stored
    assert back.node == settings.node
    # What a store does not record comes back at the defaults.
    assert (back.host_workers, back.parallel_mode, back.max_attempts) == (0, "static", 3)


def test_what_cannot_cross_the_wire_is_refused_by_name():
    class TweakedScoring(LennardJonesScoring):
        pass

    with pytest.raises(ClusterError, match="MetaheuristicSpec"):
        DockSettings(metaheuristic=make_preset("M1", 0.04)).to_wire()
    with pytest.raises(ClusterError, match="cannot be reconstructed on a worker"):
        DockSettings(scoring=TweakedScoring()).to_wire()
    franken = custom_node("franken", "Xeon E5-2620", 1, ["Tesla K40c"])
    with pytest.raises(ClusterError, match="'franken'.*jupiter/hertz"):
        DockSettings(node=franken).to_wire()
    # A hand-built node that borrows a built-in name is not that machine.
    impostor = hertz().with_gpus(hertz().gpus[:1])
    with pytest.raises(ClusterError, match="'hertz'.*jupiter/hertz"):
        DockSettings(node=impostor).to_wire()


def test_a_malformed_settings_frame_is_a_protocol_error():
    good = DockSettings(node=hertz()).to_wire()
    for broken in (
        {k: v for k, v in good.items() if k != "seed"},
        {**good, "n_spots": "many"},
        {**good, "host_workers": -2},
        {**good, "mode": "warp-drive"},
        None,
        [1, 2, 3],
    ):
        with pytest.raises(ProtocolError, match="malformed config message"):
            DockSettings.from_wire(broken)
    with pytest.raises(ClusterError, match="'franken'.*jupiter/hertz"):
        DockSettings.from_wire({**good, "node": "franken"})
    with pytest.raises(ClusterError, match="unknown scoring descriptor"):
        DockSettings.from_wire({**good, "scoring": {"kind": "bespoke"}})


def test_named_node_is_the_one_lookup(receptor, ligand):
    from repro.vs.docking import dock

    assert named_node("jupiter") == jupiter() and named_node("hertz") == hertz()
    for name in ("jupiter", "hertz"):  # either machine times a dock
        docked = dock(
            receptor, ligand, n_spots=2, metaheuristic="M1", workload_scale=0.05,
            node=named_node(name),
        )
        assert docked.simulated_seconds > 0
    assert named_node(None) is None and named_node("none") is None
    with pytest.raises(HardwareModelError, match="unknown node 'franken'"):
        named_node("franken")
