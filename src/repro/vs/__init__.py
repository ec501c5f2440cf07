"""Virtual-screening public API: docking and library screening."""

from repro import _lazy_exports
from repro.vs.docking import dock
from repro.vs.results import DockingResult, ScreeningEntry, ScreeningReport

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

# Off the campaign path: loaded on first use.
__getattr__ = _lazy_exports(globals(), {
    "repro.vs.analysis": (
        "PoseCluster",
        "cluster_poses",
        "convergence_statistics",
        "pairwise_rmsd_matrix",
        "pose_rmsd",
    ),
    "repro.vs.flexible": ("FlexibleDockingResult", "FlexiblePose", "dock_flexible"),
    "repro.vs.screening": ("screen", "synthetic_library"),
    "repro.vs.visualize": ("ascii_projection", "gantt", "score_map", "sparkline"),
})
