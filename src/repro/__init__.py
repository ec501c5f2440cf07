"""repro — Metaheuristic-based Virtual Screening on Massively Parallel and
Heterogeneous Systems.

A from-scratch Python reproduction of Imbernón, Cecilia & Giménez
(PMAM/PPoPP 2016). The package contains:

* :mod:`repro.molecules` — structures, force field, PDB I/O, synthetic
  2BSM/2BXG-like generators, surface spots;
* :mod:`repro.scoring` — Lennard-Jones (dense/tiled/cutoff/soft-core),
  Coulomb, composite and grid-map scoring functions;
* :mod:`repro.metaheuristics` — the six-function Algorithm 1 template, the
  paper's M1–M4 presets, and PSO/SA/Tabu/GRASP/VNS extensions;
* :mod:`repro.hardware` — the devices of Tables 1–3, a CUDA
  warp/block/occupancy model and a calibrated performance model;
* :mod:`repro.engine` — the multicore+multiGPU runtime: warm-up (Eq. 1),
  static and dynamic cooperative schedulers, simulated execution;
* :mod:`repro.vs` — the user-facing ``dock()`` / ``screen()`` functions;
* :mod:`repro.experiments` — the harness regenerating Tables 6–9.

Quickstart::

    from repro.hardware.node import hertz
    from repro.molecules import generate_receptor, generate_ligand
    from repro.vs import dock

    receptor = generate_receptor(3264, seed=1)
    ligand = generate_ligand(45, seed=2)
    result = dock(receptor, ligand, node=hertz())
    print(result.best_score, result.simulated_seconds)
"""

import importlib

from repro.errors import (
    DeviceFailure,
    ExperimentError,
    ForceFieldError,
    HardwareModelError,
    MetaheuristicError,
    MoleculeError,
    PDBParseError,
    ReproError,
    SchedulingError,
    ScoringError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "DeviceFailure",
    "ExperimentError",
    "ForceFieldError",
    "HardwareModelError",
    "MetaheuristicError",
    "MoleculeError",
    "PDBParseError",
    "ReproError",
    "SchedulingError",
    "ScoringError",
    "SimulationError",
    "__version__",
]


def _lazy_exports(namespace: dict, modules: dict[str, tuple[str, ...]]):
    """A PEP 562 module ``__getattr__`` for a package's lazy re-exports.

    ``modules`` maps each module a campaign never runs to the names the
    package re-exports from it. The module is imported on the first access
    to one of its names, so a process loads only the modules it uses; the
    name is then cached in the package ``namespace``.
    """
    owner = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(owner[name]), name)
        return namespace[name]

    return __getattr__
