"""Hardware specification model for simulated target systems.

P-MoVE (the paper) runs against physical servers; this reproduction runs
against :class:`MachineSpec` instances that carry everything the real
probing tools would discover: CPU topology (sockets / cores / SMT threads),
the cache hierarchy, NUMA layout, memory, disks, NICs and GPUs, plus the
performance envelope (per-ISA peak FLOP throughput and per-level memory
bandwidth) that drives the execution simulator and the CARM roofs.

Specs are plain frozen dataclasses so that a spec can be treated as an
immutable description of a machine, shared between the prober, the PMU
substrate, and the execution simulator without defensive copying.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "Vendor",
    "ISA",
    "CacheSpec",
    "CoreSpec",
    "SocketSpec",
    "NumaNodeSpec",
    "DiskSpec",
    "NicSpec",
    "GpuSpec",
    "PerfEnvelope",
    "PMUSpec",
    "MachineSpec",
]


class Vendor(str, enum.Enum):
    """CPU vendor; drives PMU event catalogs and abstraction-layer mapping."""

    INTEL = "GenuineIntel"
    AMD = "AuthenticAMD"


class ISA(str, enum.Enum):
    """Vector ISA extensions relevant for FLOP accounting and CARM roofs."""

    SCALAR = "scalar"
    SSE = "sse"
    AVX2 = "avx2"
    AVX512 = "avx512"

    @property
    def dp_lanes(self) -> int:
        """Number of double-precision lanes per vector register."""
        return {"scalar": 1, "sse": 2, "avx2": 4, "avx512": 8}[self.value]

    @property
    def sp_lanes(self) -> int:
        """Number of single-precision lanes per vector register."""
        return self.dp_lanes * 2

    @property
    def vector_bytes(self) -> int:
        """Width of one vector register in bytes."""
        return self.dp_lanes * 8


@dataclass(frozen=True)
class CacheSpec:
    """One cache level as seen by ``likwid-topology`` / ``cpuid``.

    ``shared_by`` is the number of hardware threads that share one instance
    of this cache (e.g. 2 for a private L1 on an SMT-2 core, ``n_threads``
    of the socket for a shared LLC).
    """

    level: int
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    shared_by: int = 2
    inclusive: bool = False
    kind: str = "unified"  # "data" | "instruction" | "unified"
    latency_cycles: float = 4.0

    @property
    def size_kb(self) -> float:
        return self.size_bytes / 1024

    @property
    def n_sets(self) -> int:
        return max(1, self.size_bytes // (self.line_bytes * self.associativity))


@dataclass(frozen=True)
class CoreSpec:
    """A physical core: frequency domain plus SMT width."""

    base_freq_ghz: float
    max_freq_ghz: float
    smt: int = 2
    # Per-cycle issue width for FP operations (FMA counted as 2 FLOPs).
    fma_units: int = 2


@dataclass(frozen=True)
class NumaNodeSpec:
    """A NUMA domain: memory capacity and the physical cores it owns."""

    node_id: int
    memory_bytes: int
    core_ids: tuple[int, ...]


@dataclass(frozen=True)
class SocketSpec:
    """A CPU package: cores, caches, and the NUMA nodes carved out of it."""

    socket_id: int
    n_cores: int
    core: CoreSpec
    caches: tuple[CacheSpec, ...]

    @property
    def n_threads(self) -> int:
        return self.n_cores * self.core.smt

    def cache(self, level: int) -> CacheSpec:
        for c in self.caches:
            if c.level == level and c.kind in ("data", "unified"):
                return c
        raise KeyError(f"no L{level} data cache on socket {self.socket_id}")


@dataclass(frozen=True)
class DiskSpec:
    """A block device as probed from ``/sys/block`` and SMART."""

    name: str
    model: str
    size_bytes: int
    rotational: bool = False
    write_bw_mbs: float = 500.0
    smart_health: str = "PASSED"
    power_on_hours: int = 12000


@dataclass(frozen=True)
class NicSpec:
    """A network interface; ``bw_mbit`` bounds telemetry shipping."""

    name: str
    model: str
    bw_mbit: float
    mtu: int = 1500
    latency_us: float = 80.0


@dataclass(frozen=True)
class GpuSpec:
    """An NVIDIA GPU as probed from ``nvidia-smi`` + DeviceQuery (§III-D)."""

    index: int
    model: str
    memory_mb: int
    n_sms: int
    shared_mem_per_block_kb: int
    l2_cache_kb: int
    numa_node: int
    bus_id: str
    compute_capability: str = "7.0"
    base_clock_mhz: int = 1132


@dataclass(frozen=True)
class PerfEnvelope:
    """Sustainable performance limits used by the simulator and CARM.

    ``level_bw_gbs`` maps memory level name (``"L1"``, ``"L2"``, ``"L3"``,
    ``"DRAM"``) to the *per-socket* sustainable bandwidth in GB/s with all
    cores active.  ``l1_l2_private`` levels scale linearly with active core
    count; shared levels saturate following a simple concave curve (see
    :meth:`MachineSpec.bandwidth_gbs`).
    """

    level_bw_gbs: dict[str, float]
    # Threads needed to saturate each shared level (per socket).
    saturation_threads: dict[str, int]
    rapl_idle_watts: float = 40.0
    rapl_max_watts: float = 165.0

    def __post_init__(self) -> None:
        for lvl in ("L1", "L2", "L3", "DRAM"):
            if lvl not in self.level_bw_gbs:
                raise ValueError(f"PerfEnvelope missing bandwidth for {lvl}")


@dataclass(frozen=True)
class PMUSpec:
    """Performance-monitoring-unit capabilities (§IV-A).

    Intel cores expose 4 programmable counters per core (8 when SMT is off /
    not shared with the sibling thread) plus 3 fixed counters; AMD Zen3
    exposes 6 core counters but the paper's abstraction discussion models 2
    internal counters per sampling flag.  ``n_programmable`` is per hardware
    thread.
    """

    n_programmable: int
    n_fixed: int
    uarch: str  # catalog key: "skylakex" | "icelake" | "cascadelake" | "zen3"
    overcount_ppm: float = 300.0  # systematic overcount (Weaver et al. [28])
    jitter_ppm: float = 150.0  # run-to-run stochastic noise


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one target system (Table II row).

    This is the ground truth that probing *re-discovers* through the
    simulated tool outputs, which keeps the host-side KB-generation code
    honest: it only ever sees what the parsers extracted.
    """

    hostname: str
    os_name: str
    kernel: str
    cpu_model: str
    vendor: Vendor
    uarch: str
    sockets: tuple[SocketSpec, ...]
    numa_nodes: tuple[NumaNodeSpec, ...]
    memory_bytes: int
    mem_type: str
    mem_freq_mhz: int
    isas: tuple[ISA, ...]
    pmu: PMUSpec
    envelope: PerfEnvelope
    disks: tuple[DiskSpec, ...] = ()
    nics: tuple[NicSpec, ...] = ()
    gpus: tuple[GpuSpec, ...] = ()
    pcp_version: str = "5.3.6-1"

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    # Read on every per-CPU bounds check and software-metric sample; the
    # spec is frozen, so the sums are taken once.  The cache lives in the
    # instance ``__dict__``: not a field, so ``==``, ``hash`` and
    # ``dataclasses.replace`` do not see it.
    @cached_property
    def n_cores(self) -> int:
        return sum(s.n_cores for s in self.sockets)

    @cached_property
    def n_threads(self) -> int:
        return sum(s.n_threads for s in self.sockets)

    @property
    def smt(self) -> int:
        return self.sockets[0].core.smt

    @property
    def base_freq_ghz(self) -> float:
        return self.sockets[0].core.base_freq_ghz

    @property
    def max_freq_ghz(self) -> float:
        return self.sockets[0].core.max_freq_ghz

    def socket_of_core(self, core_id: int) -> int:
        """Socket index owning physical core ``core_id`` (cores numbered
        contiguously across sockets)."""
        acc = 0
        for s in self.sockets:
            if core_id < acc + s.n_cores:
                return s.socket_id
            acc += s.n_cores
        raise IndexError(f"core {core_id} out of range ({self.n_cores} cores)")

    def numa_of_core(self, core_id: int) -> int:
        for n in self.numa_nodes:
            if core_id in n.core_ids:
                return n.node_id
        raise IndexError(f"core {core_id} not in any NUMA node")

    def threads_of_core(self, core_id: int) -> tuple[int, ...]:
        """Hardware-thread (CPU) ids of one physical core.

        Linux-style numbering: thread 0 of core *c* is CPU *c*; thread 1 is
        CPU ``n_cores + c`` — matching what ``likwid-topology`` reports on
        the paper's systems.
        """
        return tuple(core_id + t * self.n_cores for t in range(self.smt))

    def core_of_thread(self, cpu_id: int) -> int:
        return cpu_id % self.n_cores

    def cache(self, level: int) -> CacheSpec:
        return self.sockets[0].cache(level)

    @property
    def cache_levels(self) -> tuple[int, ...]:
        return tuple(
            sorted({c.level for c in self.sockets[0].caches if c.kind != "instruction"})
        )

    # ------------------------------------------------------------------
    # Performance envelope helpers
    # ------------------------------------------------------------------
    def peak_gflops(
        self, isa: ISA, n_threads: int, precision: str = "dp", fma: bool = True
    ) -> float:
        """Peak FLOP rate for ``n_threads`` hardware threads using ``isa``.

        SMT does not add FP throughput: two sibling threads share the core's
        FMA pipes, so the peak is determined by the number of *physical
        cores* the threads land on (assumed balanced: one thread per core
        until cores are exhausted, then SMT siblings).
        """
        if isa not in self.isas:
            raise ValueError(f"{self.hostname} does not support {isa.value}")
        core = self.sockets[0].core
        n_cores_used = min(n_threads, self.n_cores)
        lanes = isa.dp_lanes if precision == "dp" else isa.sp_lanes
        flops_per_cycle = lanes * core.fma_units * (2 if fma else 1)
        return flops_per_cycle * core.max_freq_ghz * n_cores_used

    def bandwidth_gbs(self, level: str, n_threads: int) -> float:
        """Sustainable bandwidth of ``level`` with ``n_threads`` active.

        Private levels (L1/L2) scale linearly with the number of physical
        cores in use.  Shared levels (L3/DRAM) follow a saturating curve
        ``B * min(1, (t / t_sat) ** 0.85)`` per socket, which reproduces the
        near-linear ramp and early saturation seen on real parts.
        """
        env = self.envelope
        if level not in env.level_bw_gbs:
            raise KeyError(f"unknown memory level {level!r}")
        n_cores_used = min(n_threads, self.n_cores)
        per_socket = env.level_bw_gbs[level]
        if level in ("L1", "L2"):
            cores_per_socket = self.sockets[0].n_cores
            return per_socket * n_cores_used / cores_per_socket
        t_sat = env.saturation_threads.get(level, self.sockets[0].n_cores)
        sockets_used = min(self.n_sockets, math.ceil(n_cores_used / self.sockets[0].n_cores))
        cores_per_socket_used = n_cores_used / sockets_used
        frac = min(1.0, (cores_per_socket_used / t_sat) ** 0.85)
        return per_socket * frac * sockets_used

    def memory_level_for(self, working_set_bytes: int, n_threads: int = 1) -> str:
        """The memory level a streaming working set is served from.

        A per-thread working set that fits in the (per-core share of the)
        cache at some level is served from that level; otherwise from the
        next one out, ending at DRAM.
        """
        n_cores_used = max(1, min(n_threads, self.n_cores))
        per_thread = working_set_bytes / max(1, n_threads)
        for level in self.cache_levels:
            c = self.cache(level)
            # Effective capacity available to one thread.
            share = c.size_bytes * min(1.0, c.shared_by / self.smt)
            if c.shared_by > self.smt:  # shared cache: split between cores using it
                cores_sharing = min(n_cores_used, c.shared_by // self.smt)
                share = c.size_bytes / max(1, cores_sharing)
            if per_thread <= share:
                return f"L{level}"
        return "DRAM"
