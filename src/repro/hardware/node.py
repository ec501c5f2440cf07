"""Node specifications: the heterogeneous machines of Tables 2 and 3."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareModelError
from repro.hardware.registry import get_cpu, get_gpu
from repro.hardware.specs import CpuSpec, GpuSpec

__all__ = ["NodeSpec", "jupiter", "hertz", "named_node", "custom_node"]


@dataclass(frozen=True)
class NodeSpec:
    """One multicore+multiGPU machine.

    Attributes
    ----------
    name:
        Machine name (``"jupiter"``, ``"hertz"``).
    cpu:
        CPU model (one socket).
    cpu_sockets:
        Number of sockets.
    gpus:
        GPU devices in slot order. Order matters: device *i* is OpenMP
        thread *i*'s GPU in Algorithm 2.
    """

    name: str
    cpu: CpuSpec
    cpu_sockets: int
    gpus: tuple[GpuSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.cpu_sockets < 1:
            raise HardwareModelError(f"cpu_sockets must be >= 1, got {self.cpu_sockets}")

    @property
    def total_cpu_cores(self) -> int:
        """Cores across all sockets."""
        return self.cpu.cores * self.cpu_sockets

    @property
    def n_gpus(self) -> int:
        """Number of GPU devices."""
        return len(self.gpus)

    @property
    def is_gpu_homogeneous(self) -> bool:
        """True when every GPU is the same model."""
        return len({g.name for g in self.gpus}) <= 1

    def with_gpus(self, gpus: tuple[GpuSpec, ...] | list[GpuSpec]) -> "NodeSpec":
        """Copy of this node with a different GPU set (used to carve the
        homogeneous 4×GTX 590 subsystem out of Jupiter)."""
        return NodeSpec(
            name=self.name, cpu=self.cpu, cpu_sockets=self.cpu_sockets, gpus=tuple(gpus)
        )

    def describe(self) -> str:
        """One-line summary."""
        gpu_part = ", ".join(g.name for g in self.gpus) if self.gpus else "no GPUs"
        return (
            f"{self.name}: {self.cpu_sockets}× {self.cpu.name} "
            f"({self.total_cpu_cores} cores) + [{gpu_part}]"
        )


def jupiter() -> NodeSpec:
    """The paper's Jupiter node: 2× Xeon E5-2620 (12 cores) +
    4× GeForce GTX 590 + 2× Tesla C2075 (Table 2)."""
    return NodeSpec(
        name="jupiter",
        cpu=get_cpu("Xeon E5-2620"),
        cpu_sockets=2,
        gpus=tuple(
            [get_gpu("GeForce GTX 590")] * 4 + [get_gpu("Tesla C2075")] * 2
        ),
    )


def hertz() -> NodeSpec:
    """The paper's Hertz node: Xeon E3-1220 (4 cores) +
    Tesla K40c + GeForce GTX 580 (Table 3)."""
    return NodeSpec(
        name="hertz",
        cpu=get_cpu("Xeon E3-1220"),
        cpu_sockets=1,
        gpus=(get_gpu("Tesla K40c"), get_gpu("GeForce GTX 580")),
    )


def named_node(name: str | None) -> NodeSpec | None:
    """The paper machine called ``name``; ``None`` / ``"none"`` is no model.

    The one place a stored, wire or command-line node name becomes a spec.
    """
    if name in (None, "none"):
        return None
    if name not in ("jupiter", "hertz"):
        raise HardwareModelError(
            f"unknown node {name!r}; the built-in models are jupiter and hertz"
        )
    return jupiter() if name == "jupiter" else hertz()


def custom_node(
    name: str,
    cpu_name: str,
    cpu_sockets: int,
    gpu_names: list[str] | tuple[str, ...],
) -> NodeSpec:
    """Build a node from registry names (used by the multi-node extension
    bench and by downstream users modelling their own machines)."""
    return NodeSpec(
        name=name,
        cpu=get_cpu(cpu_name),
        cpu_sockets=cpu_sockets,
        gpus=tuple(get_gpu(g) for g in gpu_names),
    )
