"""Quickstart: dock one ligand against one receptor in ~20 lines.

Run:
    python examples/quickstart.py
"""

from repro.hardware import hertz
from repro.molecules import generate_ligand, generate_receptor
from repro.vs import dock


def main() -> None:
    # Synthetic structures stand in for PDB downloads (see DESIGN.md);
    # repro.molecules.read_pdb loads real files identically.
    receptor = generate_receptor(1000, seed=1, title="demo receptor")
    ligand = generate_ligand(30, seed=2, title="demo ligand")

    # node= also times the search on the paper's Hertz machine (Tesla K40c +
    # GTX 580). workload_scale trims the paper-scale search effort so the
    # demo runs in seconds.
    result = dock(
        receptor,
        ligand,
        n_spots=8,
        metaheuristic="M2",
        workload_scale=0.2,
        node=hertz(),
    )

    print(f"receptor: {receptor.title} ({receptor.n_atoms} atoms)")
    print(f"ligand:   {ligand.title} ({ligand.n_atoms} atoms)")
    print(f"best binding score: {result.best_score:.2f} kcal/mol "
          f"at spot {result.best.spot_index}")
    print(f"scoring evaluations: {result.evaluations}")
    print(f"simulated wall time on Hertz (heterogeneous computation): "
          f"{result.simulated_seconds:.3f} s")
    print("\nbest score per surface spot:")
    for conf in sorted(result.per_spot, key=lambda c: c.score):
        print(f"  spot {conf.spot_index:2d}: {conf.score:10.2f}")


if __name__ == "__main__":
    main()
