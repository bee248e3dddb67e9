"""Software-visible system state (what ``pmdalinux`` reads from /proc).

The paper's *SWTelemetry* metrics — CPU load, memory use, NUMA allocation
counters — are "always sampled with a low frequency" (§III-A).  This module
derives those values from the machine's timeline so that software telemetry
and hardware telemetry tell one consistent story: when a kernel runs, the
busy time, load average, memory footprint and NUMA traffic all move
together.

All counter-type metrics are monotonic in time, as /proc counters are.

The unit of a read is the **instant**, as it is for a real ``pmdalinux``
(one pass over /proc/stat hands back every CPU's counters):
:meth:`SoftwareState.snapshot` integrates each cumulative counter behind
the asked metrics once — one batched timeline read per counter — and every
metric is a view of those reads, looked up in one table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .simulator import SimulatedMachine

__all__ = ["SoftwareState", "SW_METRICS"]

_BASE_MEM_USED_KB = 4 * 1024 * 1024  # 4 GB of OS + daemons

#: Metric name -> (instance domain, semantics, units). Instance domains:
#: "percpu", "pernode", "perdisk", "pernic", or None (single value).
SW_METRICS: dict[str, tuple[str | None, str, str]] = {
    "kernel.percpu.cpu.idle": ("percpu", "counter", "ms"),
    "kernel.percpu.cpu.user": ("percpu", "counter", "ms"),
    "kernel.percpu.cpu.sys": ("percpu", "counter", "ms"),
    "kernel.all.load": (None, "instant", "load"),
    "kernel.all.nprocs": (None, "instant", "count"),
    "kernel.all.pswitch": (None, "counter", "count"),
    "mem.util.used": (None, "instant", "kb"),
    "mem.util.free": (None, "instant", "kb"),
    "mem.numa.alloc.hit": ("pernode", "counter", "pages"),
    "mem.numa.alloc.miss": ("pernode", "counter", "pages"),
    "disk.dev.write_bytes": ("perdisk", "counter", "kb"),
    "network.interface.out.bytes": ("pernic", "counter", "bytes"),
    "hinv.ncpu": (None, "discrete", "count"),
}


class SoftwareState:
    """Computes /proc-style metric values for a machine at a given time."""

    def __init__(self, machine: SimulatedMachine) -> None:
        self.machine = machine
        self.spec = spec = machine.spec
        domains = {
            None: [""],
            "percpu": [f"cpu{i}" for i in range(spec.n_threads)],
            "pernode": [f"node{n.node_id}" for n in spec.numa_nodes],
            "perdisk": [d.name for d in spec.disks],
            "pernic": [n.name for n in spec.nics],
        }
        self._instances = {m: domains[d] for m, (d, _, _) in SW_METRICS.items()}
        self._cycles = [(("cpu", c), "cycles") for c in range(spec.n_threads)]
        # Hardware threads per NUMA node, and the one read that covers them all.
        self._node_threads = [len(node.core_ids) * spec.smt for node in spec.numa_nodes]
        self._dram = [
            (("cpu", cpu), "dram_bytes")
            for node in spec.numa_nodes
            for core in node.core_ids
            for cpu in spec.threads_of_core(core)
        ]

    # ------------------------------------------------------------------
    def instances(self, metric: str) -> list[str]:
        """Instance names for a metric's domain (PCP instance domain)."""
        return list(self._instances[metric])

    def snapshot(self, metrics: Iterable[str], t: float) -> dict[str, list[float]]:
        """Every instance of each metric at virtual time ``t``, in
        :meth:`instances` order — one read of /proc: each source in
        ``_VIEWS`` is read once and shared by the metrics that are views of
        it, and nothing outlives the call."""
        read: dict[Callable, list] = {}
        out: dict[str, list[float]] = {}
        for metric in metrics:
            try:
                source, view = _VIEWS[metric]
            except KeyError:
                raise KeyError(f"unknown SW metric {metric!r}") from None
            values = read.get(source)
            if values is None:
                values = read[source] = source(self, t)
            out[metric] = values if view is None else view(values, t)
        return out

    def value(self, metric: str, instance: str, t: float) -> float:
        """Metric value at virtual time ``t`` for one instance: the
        one-instance view of :meth:`snapshot`."""
        values = self.snapshot((metric,), t)[metric]
        try:
            return values[self._instances[metric].index(instance)]
        except ValueError:
            raise IndexError(f"{metric} has no instance {instance!r}") from None

    # ------------------------------------------------------------------
    # Sources: what /proc holds at ``t``, one read of the machine each.
    # ------------------------------------------------------------------
    def _busy_seconds(self, t: float) -> list[float]:
        """Per-thread busy time since boot, from the cycle counters."""
        freq_hz = self.spec.base_freq_ghz * 1e9
        cycles = self.machine.read_batch(self._cycles, 0.0, t)
        return [min(c / freq_hz, t) for c in cycles]

    def _load(self, t: float) -> list[float]:
        window = min(t, 60.0)
        if window <= 0:
            return [0.0]
        # sum(), not a loop: Python >= 3.12 compensates float sums.
        return [sum(self.machine.busy_fractions(range(self.spec.n_threads), t - window, t))]

    def _pswitch(self, t: float) -> list[float]:
        # ~120 switches/s/cpu idle, plus activity-driven switching.
        base = 120.0 * self.spec.n_threads * t
        run_extra = sum(
            (min(r.t_end, t) - r.t_start) * 50.0 * len(r.cpu_ids)
            for r in self.machine.runs
            if r.t_start < t
        )
        return [base + run_extra]

    def _mem_kb(self, t: float) -> list[float]:
        """[used, free]."""
        active_ws = sum(r.descriptor.working_set_bytes for r in self.machine.active_runs(t))
        used_kb = _BASE_MEM_USED_KB + active_ws / 1024.0
        return [used_kb, max(0.0, self.spec.memory_bytes / 1024.0 - used_kb)]

    def _node_pages(self, t: float) -> list[float]:
        """Pages touched per NUMA node ~ DRAM bytes pulled by its cores."""
        dram = iter(self.machine.read_batch(self._dram, 0.0, t))
        out = []
        for n_threads in self._node_threads:
            pages = 0.0
            for _ in range(n_threads):  # a plain loop: this sum was never sum()
                pages += next(dram) / 4096.0
            out.append(pages)
        return out


#: Metric -> (source, view): the source is read once per snapshot, the view
#: (``None`` = as read) turns it into the metric's per-instance values.  The
#: one place a metric name is dispatched on.
_VIEWS: dict[str, tuple[Callable, Callable | None]] = {
    "kernel.percpu.cpu.idle": (
        SoftwareState._busy_seconds, lambda busy, t: [(t - b) * 1000.0 for b in busy]),
    "kernel.percpu.cpu.user": (  # 90 % of busy time in user mode
        SoftwareState._busy_seconds, lambda busy, t: [b * 900.0 for b in busy]),
    "kernel.percpu.cpu.sys": (
        SoftwareState._busy_seconds, lambda busy, t: [b * 100.0 for b in busy]),
    "kernel.all.load": (SoftwareState._load, None),
    "kernel.all.nprocs": (lambda s, t: [220 + 2 * len(s.machine.active_runs(t))], None),
    "kernel.all.pswitch": (SoftwareState._pswitch, None),
    "mem.util.used": (SoftwareState._mem_kb, lambda kb, t: kb[:1]),
    "mem.util.free": (SoftwareState._mem_kb, lambda kb, t: kb[1:]),
    "mem.numa.alloc.hit": (  # plus steady OS allocation churn
        SoftwareState._node_pages, lambda pages, t: [p * 0.97 + 500.0 * t for p in pages]),
    "mem.numa.alloc.miss": (
        SoftwareState._node_pages, lambda pages, t: [p * 0.03 for p in pages]),
    # OS logging trickle; the Influx write load lives on the host.
    "disk.dev.write_bytes": (lambda s, t: [2048.0 * t for _ in s.spec.disks], None),
    "network.interface.out.bytes": (
        lambda s, t: [s.machine.read(("node", 0), "net_out_bytes", 0.0, t)] * len(s.spec.nics),
        None),
    "hinv.ncpu": (lambda s, t: [float(s.spec.n_threads)], None),
}
