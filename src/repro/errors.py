"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so downstream users can
catch a single base class. Subclasses map onto the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class MoleculeError(ReproError):
    """Invalid molecular structure or structure-construction failure."""


class PDBParseError(MoleculeError):
    """Malformed PDB input."""


class ForceFieldError(ReproError):
    """Missing or inconsistent force-field parameters."""


class ScoringError(ReproError):
    """Scoring-function evaluation failure."""


class WorkerPoolError(ScoringError):
    """A host worker died holding part of a launch; it was re-forked.

    Only the launches the dead worker held raise it. A fault of the
    runtime, not of the ligand being scored: retry loops repeat the dock
    without charging the ligand's poison budget.
    """


class MetaheuristicError(ReproError):
    """Invalid metaheuristic configuration or template misuse."""


class HardwareModelError(ReproError):
    """Invalid device/node specification or CUDA-model parameters."""


class SchedulingError(ReproError):
    """Work partitioning or job scheduling failure."""


class SimulationError(ReproError):
    """Discrete-event simulation inconsistency (e.g. time going backwards)."""


class DeviceFailure(SimulationError):
    """A simulated device dropped out mid-run (failure injection)."""


class ExperimentError(ReproError):
    """Experiment/benchmark harness misconfiguration."""


class CampaignError(ReproError):
    """Invalid campaign configuration, store corruption, or resume mismatch."""


class ObservabilityError(ReproError):
    """Invalid metric registration, snapshot schema, or span misuse."""


class ClusterError(ReproError):
    """Distributed-campaign failure: node loss, bad fleet config, or a
    coordinator/worker that cannot continue."""


class ProtocolError(ClusterError):
    """Malformed, oversized, or timed-out cluster protocol message."""


class ConnectionClosed(ProtocolError):
    """The peer closed its end of a cluster channel (EOF)."""
