"""The paper's core experiment in miniature: one docking workload timed
under every execution strategy on both machines (§3.2–3.3, §5).

Two layers, mirroring the reproduction methodology:

1. a *real* (scaled-down) search runs on the host to produce actual docking
   results — which are identical no matter which machine is modelled;
2. the *full paper-scale* launch trace is replayed through the calibrated
   performance model under each scheduling strategy, producing the
   simulated wall-clock comparison of Tables 6–9.

Run:
    python examples/heterogeneous_scheduling.py
"""

from repro.engine import MultiGpuExecutor
from repro.engine.executor import simulate_gpu_trace
from repro.engine.scheduler import StaticEqualScheduler, StaticProportionalScheduler
from repro.experiments import analytic_trace, get_dataset
from repro.hardware import hertz, jupiter
from repro.molecules import generate_ligand, generate_receptor
from repro.vs import dock, gantt

MODES = ("openmp", "gpu-homogeneous", "gpu-heterogeneous", "gpu-dynamic")


def main() -> None:
    # --- layer 1: real search (scaled) -------------------------------
    receptor = generate_receptor(3264, seed=11, title="2BSM-like")
    ligand = generate_ligand(45, seed=12)
    result = dock(receptor, ligand, n_spots=8, metaheuristic="M2", workload_scale=0.1)
    print(f"real search on the host: best score {result.best_score:.2f} kcal/mol "
          f"({result.evaluations} evaluations)")
    print("(the search outcome is mode-invariant: scheduling only moves time)\n")

    # --- layer 2: full-scale timing under each strategy --------------
    dataset = get_dataset("2BSM")
    trace = analytic_trace(
        "M2", dataset.n_spots, dataset.receptor_atoms, dataset.ligand_atoms
    )
    total_poses = sum(r.n_conformations for r in trace)
    print(f"timing the full paper-scale M2/{dataset.name} workload "
          f"({total_poses:,} conformations, {len(trace)} launches):")

    for node in (jupiter(), hertz()):
        executor = MultiGpuExecutor(node, seed=7)
        times = {}
        print(f"\n=== {node.describe()} ===")
        print(f"{'strategy':20s} {'scheduler':22s} {'sim. time':>10s} "
              f"{'vs OpenMP':>10s} {'balance':>8s}")
        for mode in MODES:
            timing, scheduler = executor.replay(trace, mode)
            times[mode] = timing.total_s
            print(
                f"{mode:20s} {scheduler:22s} {timing.total_s:9.2f}s "
                f"{times['openmp'] / timing.total_s:9.1f}x {timing.balance:8.3f}"
            )
        gain = times["gpu-homogeneous"] / times["gpu-heterogeneous"]
        print(f"heterogeneous-vs-homogeneous computation gain: {gain:.2f}x "
              f"({'large — K40c >> GTX 580' if gain > 1.2 else 'marginal — near-equal GPUs'})")

    # --- bonus: see the barrier waits (first 6 launches on Hertz) --------
    node = hertz()
    import numpy as np

    head = trace[:6]
    names = [g.name for g in node.gpus]
    for label, scheduler in (
        ("equal split (Algorithm 2 homogeneous)", StaticEqualScheduler()),
        (
            "warm-up proportional (heterogeneous)",
            StaticProportionalScheduler(
                np.array([g.pairs_per_sec for g in node.gpus])
                / sum(g.pairs_per_sec for g in node.gpus)
            ),
        ),
    ):
        timeline = []
        simulate_gpu_trace(head, node, scheduler, timeline=timeline)
        print(f"\ndevice schedule under {label}:")
        print(gantt(timeline, names))


if __name__ == "__main__":
    main()
