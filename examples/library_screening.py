"""Drug-discovery library screening (§1): rank a ligand library against a
receptor by best binding score.

Run:
    python examples/library_screening.py
"""

from repro.hardware import jupiter
from repro.molecules import generate_receptor
from repro.vs import screen, synthetic_library


def main() -> None:
    receptor = generate_receptor(1500, seed=21, title="screening target")
    library = synthetic_library(12, atoms_range=(18, 48), seed=22)
    print(f"screening {len(library)} ligands "
          f"({min(l.n_atoms for l in library)}-{max(l.n_atoms for l in library)} "
          f"atoms) against {receptor.title}\n")

    report = screen(
        receptor,
        library,
        n_spots=8,
        metaheuristic="M2",
        workload_scale=0.1,
        node=jupiter(),
    )

    print(report.to_text())
    top = report.top(3)
    print("\nlead candidates for the next discovery stage:")
    for entry in top:
        print(f"  {entry.ligand_title}: {entry.best_score:.2f} kcal/mol "
              f"(spot {entry.best_spot})")


if __name__ == "__main__":
    main()
