"""The dock-level options of a campaign, declared once.

Every process that handles a ligand holds a :class:`DockSettings`: the
runner builds one from its keywords, a fleet node rebuilds the
coordinator's from the ``config`` frame, ``repro-vs campaign resume``
rebuilds the stored one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.constants import EXECUTION_MODES
from repro.errors import CampaignError, ClusterError, HardwareModelError, ProtocolError
from repro.metaheuristics.template import MetaheuristicSpec
from repro.scoring.base import ScoringFunction

if TYPE_CHECKING:  # the simulator loads only when a node is named
    from repro.hardware.node import NodeSpec

__all__ = ["DockSettings"]


def _named_node(name: str | None) -> NodeSpec | None:
    """:func:`repro.hardware.node.named_node`, which a campaign with no node
    model (``None``) never imports."""
    if name is None:
        return None
    from repro.hardware.node import named_node

    return named_node(name)


def _fleet_node(name: str | None, built: NodeSpec | None = None) -> NodeSpec | None:
    """``named_node`` for the wire: only what a far process rebuilds equal."""
    try:
        node = _named_node(name)
    except HardwareModelError:
        node = None
    if name is not None and (node is None or (built is not None and built != node)):
        raise ClusterError(
            f"node spec {name!r} cannot be reconstructed on a worker "
            "node; distributed campaigns support the built-in "
            "jupiter/hertz models"
        )
    return node


@dataclass(frozen=True)
class DockSettings:
    """How one ligand is docked (the keywords of :func:`repro.vs.docking.dock`;
    ligand ``ordinal`` docks with ``seed + ordinal``) and how often retried.

    The first five fields reach the config hash; ``node`` / ``mode`` time a
    replay, the rest say where and how patiently the same numbers are made.
    """

    n_spots: int = 16
    metaheuristic: str | MetaheuristicSpec = "M2"
    scoring: ScoringFunction | None = None
    seed: int = 0
    workload_scale: float = 1.0
    node: NodeSpec | None = None
    mode: str = "gpu-heterogeneous"
    host_workers: int = 0
    parallel_mode: str = "static"
    max_attempts: int = 3
    backoff_base: float = 0.1

    def __post_init__(self) -> None:
        if self.n_spots < 1:
            raise CampaignError(f"n_spots must be >= 1, got {self.n_spots}")
        if self.mode not in EXECUTION_MODES:
            raise CampaignError(
                f"unknown mode {self.mode!r}; choose from {EXECUTION_MODES}"
            )
        if self.host_workers < 0:
            raise CampaignError(f"host_workers must be >= 0, got {self.host_workers}")
        if self.parallel_mode not in ("static", "dynamic"):
            raise CampaignError(
                "parallel_mode must be 'static' or 'dynamic', "
                f"got {self.parallel_mode!r}"
            )
        if self.max_attempts < 1:
            raise CampaignError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def stored(self) -> dict:
        """The keys this object contributes to the campaign config record."""
        spec, scoring = self.metaheuristic, self.scoring
        return {
            "n_spots": int(self.n_spots),
            "metaheuristic": (
                spec.name if isinstance(spec, MetaheuristicSpec) else str(spec)
            ),
            "scoring": (
                None
                if scoring is None
                else getattr(scoring, "name", type(scoring).__name__)
            ),
            "seed": int(self.seed),
            "workload_scale": float(self.workload_scale),
            "node": None if self.node is None else self.node.name,
            "mode": self.mode,
        }

    @classmethod
    def from_stored(cls, config: dict) -> "DockSettings":
        """What a store's config record says of the dock; the fields it does
        not record (where and how patiently) come back at their defaults."""
        if config.get("scoring") is not None:
            raise CampaignError(
                "campaigns with a custom scoring function can only be resumed via "
                "the Python API"
            )
        return cls(
            n_spots=int(config["n_spots"]),
            metaheuristic=str(config["metaheuristic"]),
            seed=int(config["seed"]),
            workload_scale=float(config["workload_scale"]),
            node=_named_node(config.get("node")),
            mode=str(config.get("mode", "gpu-heterogeneous")),
        )

    def to_wire(self) -> dict:
        """The ``settings`` object of a fleet's ``config`` frame, or
        :class:`ClusterError` for what a worker node cannot rebuild by value:
        a custom spec, scorer, forcefield or node."""
        from repro.cluster.config import scoring_descriptor

        if isinstance(self.metaheuristic, MetaheuristicSpec):
            raise ClusterError(
                "a custom MetaheuristicSpec cannot cross the cluster node "
                "boundary; use a preset name (M1-M4) or run with nodes=0"
            )
        if self.node is not None:
            _fleet_node(self.node.name, self.node)
        # ``pipeline_depth`` is the runner's, not a field here: a node's
        # runtime stays at depth 1 until this dict carries one.
        return {
            **self.stored(),
            "scoring": scoring_descriptor(self.scoring),
            "host_workers": self.host_workers,
            "parallel_mode": self.parallel_mode,
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "DockSettings":
        from repro.cluster.config import build_scoring

        try:
            return cls(
                n_spots=int(doc["n_spots"]),
                metaheuristic=str(doc["metaheuristic"]),
                scoring=build_scoring(doc.get("scoring")),
                seed=int(doc["seed"]),
                workload_scale=float(doc["workload_scale"]),
                node=_fleet_node(doc.get("node")),
                mode=str(doc["mode"]),
                host_workers=int(doc["host_workers"]),
                parallel_mode=str(doc["parallel_mode"]),
                max_attempts=int(doc["max_attempts"]),
                backoff_base=float(doc["backoff_base"]),
            )
        except (KeyError, TypeError, ValueError, CampaignError) as exc:
            raise ProtocolError(f"malformed config message: {exc}") from exc
