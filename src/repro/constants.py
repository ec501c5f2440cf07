"""Physical constants and library-wide numeric policy.

Units used throughout the library (AutoDock-style conventions):

* length: angstrom (Å)
* energy: kcal/mol
* charge: elementary charge (e)
* time (simulated hardware): seconds
"""

from __future__ import annotations

import numpy as np

# NumPy 2 loads ``numpy.random`` on first attribute access (~13 ms, 7 MB).
# Every process that builds a molecule or runs a search draws from it, so it
# loads with the package: the cost stays in start-up, where set-up is
# accounted, instead of inside whichever call happens to draw first.
import numpy.random  # noqa: F401

#: Coulomb constant in kcal·Å/(mol·e²) — 332.06371 is the standard
#: electrostatics conversion factor used by AMBER/AutoDock.
COULOMB_CONSTANT: float = 332.06371

#: Default relative dielectric for the distance-dependent dielectric model.
DEFAULT_DIELECTRIC: float = 4.0

#: Minimum pair distance (Å) clamped into scoring kernels to avoid the LJ/
#: Coulomb singularity at r → 0 for badly clashed poses.
MIN_PAIR_DISTANCE: float = 0.05

#: Default non-bonded cutoff distance (Å) for neighbor-list based scorers.
DEFAULT_CUTOFF: float = 12.0

#: dtype policy: all coordinate/score math is float64 on the host. The
#: simulated GPU kernels model single-precision throughput (the paper's
#: kernels are SP), but we keep host math in double for test determinism.
FLOAT_DTYPE = np.float64

#: dtype for integer index arrays.
INDEX_DTYPE = np.int64

#: Execution modes a docking run's timing replay recognises (see
#: :class:`repro.engine.executor.MultiGpuExecutor`); here so that validating
#: a mode loads no simulator.
EXECUTION_MODES: tuple[str, ...] = (
    "openmp",
    "gpu-homogeneous",
    "gpu-heterogeneous",
    "gpu-dynamic",
)

#: Default seed used by examples and experiment presets so that published
#: numbers regenerate bit-identically.
DEFAULT_SEED: int = 20160312  # PMAM'16 conference date: March 12 2016


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return the library-wide RNG.

    Every stochastic component takes either a seed or a
    :class:`numpy.random.Generator`; this helper centralises construction so
    the bit-generator choice (PCG64) is uniform across the package.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
