"""Virtual-screening public API: docking and library screening."""

from repro.vs.analysis import (
    PoseCluster,
    cluster_poses,
    convergence_statistics,
    pairwise_rmsd_matrix,
    pose_rmsd,
)
from repro.vs.docking import dock
from repro.vs.flexible import FlexibleDockingResult, FlexiblePose, dock_flexible
from repro.vs.results import DockingResult, ScreeningEntry, ScreeningReport
from repro.vs.screening import screen, synthetic_library
from repro.vs.visualize import ascii_projection, gantt, score_map, sparkline

__all__ = [
    "DockingResult",
    "FlexibleDockingResult",
    "FlexiblePose",
    "PoseCluster",
    "ScreeningEntry",
    "ScreeningReport",
    "ascii_projection",
    "gantt",
    "cluster_poses",
    "convergence_statistics",
    "dock",
    "pairwise_rmsd_matrix",
    "pose_rmsd",
    "dock_flexible",
    "score_map",
    "screen",
    "sparkline",
    "synthetic_library",
]
