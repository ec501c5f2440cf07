"""Future work (§6): screen a library over a message-passing fleet of worker
nodes (two local processes talking over sockets) and check the ranking is the
single-process one.

Run:
    python examples/multinode_cluster.py
"""

from repro.molecules import generate_receptor
from repro.vs import screen, synthetic_library


def main() -> None:
    receptor = generate_receptor(600, seed=21, title="fleet target")
    library = synthetic_library(8, atoms_range=(12, 20), seed=22)
    settings = dict(n_spots=4, metaheuristic="M1", workload_scale=0.05, seed=3)

    local = screen(receptor, library, nodes=0, **settings)
    fleet = screen(receptor, library, nodes=2, **settings)

    print(fleet.to_text())
    ranking = [(e.ligand_title, e.best_score, e.best_spot) for e in fleet.ranked()]
    assert ranking == [
        (e.ligand_title, e.best_score, e.best_spot) for e in local.ranked()
    ], "fleet ranking differs from the single-process ranking"
    print("\n2-node fleet ranking is bitwise identical to the single-process run")


if __name__ == "__main__":
    main()
