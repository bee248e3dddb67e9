"""The simulated target system.

:class:`SimulatedMachine` binds a :class:`~repro.machine.spec.MachineSpec`
to a virtual clock and an event-rate timeline.  Kernels "run" by depositing
their predicted quantity rates onto the timeline and advancing the clock;
PMU counters and PCP samplers observe the machine purely by integrating the
timeline — the same read-what-accumulated contract real counters give.

Background OS activity (idle package power, a trickle of cycles and
instructions per hardware thread) is laid down lazily as time advances, so
software telemetry (Scenario A of Fig 3) has something to report even on an
idle system.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .faults import Fault, FaultSet
from .kernel import KernelDescriptor
from .memory import ExecutionProfile, estimate_execution
from .spec import MachineSpec
from .timeline import Scope, Timeline
from .tsc import TimeStampCounter, VirtualClock

__all__ = ["KernelRun", "SimulatedMachine"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "machine": {
        "SimulatedMachine": (
            "advance", "run_kernel", "read", "read_batch", "read_cpu",
            "read_socket", "busy_fraction", "busy_fractions"),
    },
}

#: Fraction of one thread's cycle budget consumed by OS noise when idle.
_BG_CYCLES_FRAC = 0.002


@dataclass
class KernelRun:
    """Record of one completed kernel execution on a simulated machine."""

    descriptor: KernelDescriptor
    cpu_ids: tuple[int, ...]
    t_start: float
    t_end: float
    profile: ExecutionProfile

    @property
    def runtime_s(self) -> float:
        return self.t_end - self.t_start

    def ground_truth(self, quantity: str) -> float:
        """Exact total of a generic quantity across the run's threads —
        the likwid-bench-style reference Fig 4 compares samples against."""
        per_thread = self.profile.per_thread.get(quantity, 0.0)
        return per_thread * len(self.cpu_ids)


class SimulatedMachine:
    """One target system: spec + clock + timeline + deterministic RNG."""

    def __init__(self, spec: MachineSpec, seed: int = 0) -> None:
        self.spec = spec
        self.clock = VirtualClock()
        self.timeline = Timeline()
        self.tsc = TimeStampCounter(self.clock, spec.base_freq_ghz)
        # crc32, not hash(): Python randomizes str hashes per process, and
        # the machine's RNG stream must be identical across runs for the
        # bit-for-bit reproducibility the experiments claim.
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(spec.hostname.encode())])
        )
        self.runs: list[KernelRun] = []
        self.faults = FaultSet()
        self._bg_end = 0.0  # background laid down up to this time

    # ------------------------------------------------------------------
    # Background activity
    # ------------------------------------------------------------------
    def _extend_background(self, until: float) -> None:
        """Deposit idle-system activity on [self._bg_end, until)."""
        if until <= self._bg_end:
            return
        t0, t1 = self._bg_end, until
        freq_hz = self.spec.base_freq_ghz * 1e9
        for cpu in range(self.spec.n_threads):
            scope: Scope = ("cpu", cpu)
            self.timeline.add_rate(scope, "cycles", t0, t1, _BG_CYCLES_FRAC * freq_hz)
            self.timeline.add_rate(scope, "instructions", t0, t1, _BG_CYCLES_FRAC * freq_hz * 0.8)
        for sid in range(self.spec.n_sockets):
            self.timeline.add_rate(("socket", sid), "energy_pkg", t0, t1, self.spec.envelope.rapl_idle_watts)
            self.timeline.add_rate(("socket", sid), "energy_dram", t0, t1, 4.0)
        self._bg_end = until

    def advance(self, dt: float) -> float:
        """Let idle time pass (extends background activity)."""
        t = self.clock.advance(dt)
        self._extend_background(t)
        return t

    def version(self, t: float) -> int | None:
        """A count that moves with every timeline write and kernel run, or
        ``None`` if a read up to ``t`` would first lay down background."""
        if max(t, self.clock.now()) > self._bg_end:
            return None
        return self.timeline.writes + len(self.runs)

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def run_kernel(
        self,
        desc: KernelDescriptor,
        cpu_ids: list[int] | tuple[int, ...] | None = None,
        sampling_overhead: float = 0.0,
        runtime_noise_std: float = 0.003,
    ) -> KernelRun:
        """Execute ``desc`` on ``cpu_ids`` (default: one thread per core).

        ``sampling_overhead`` is the fractional runtime dilation caused by a
        concurrent PMU sampler (Fig 5); the simulator applies it here so the
        ground-truth runtime already includes it.
        """
        if cpu_ids is None:
            cpu_ids = list(range(self.spec.n_cores))
        cpu_ids = tuple(cpu_ids)
        if len(set(cpu_ids)) != len(cpu_ids):
            raise ValueError("duplicate cpu ids in pinning")
        profile = estimate_execution(
            desc, self.spec, list(cpu_ids), rng=self.rng, runtime_noise_std=runtime_noise_std
        )
        runtime = profile.runtime_s * (1.0 + sampling_overhead)
        # Installed faults (throttling, contention, stragglers) dilate the
        # run; counters still accrue the same totals over the longer window,
        # which is exactly how a throttled machine looks to a monitor.
        runtime *= self.faults.slowdown(
            self.clock.now(), cpu_ids, memory_bound=(profile.bound == "memory")
        )

        t0 = self.clock.now()
        t1 = t0 + float(runtime)  # virtual time stays a Python float
        self._extend_background(t1)
        for cpu in cpu_ids:
            self.timeline.bulk_add(("cpu", cpu), profile.per_thread, t0, t1)
        # Energy deltas above the idle baseline the background already pays.
        idle = self.spec.envelope.rapl_idle_watts
        for sid, socket_tot in profile.per_socket.items():
            extra_pkg = socket_tot["energy_pkg"] - idle * profile.runtime_s
            extra_dram = socket_tot["energy_dram"] - 4.0 * profile.runtime_s
            self.timeline.bulk_add(
                ("socket", sid),
                {"energy_pkg": max(0.0, extra_pkg), "energy_dram": max(0.0, extra_dram)},
                t0,
                t1,
            )
        self.clock.advance_to(t1)
        run = KernelRun(descriptor=desc, cpu_ids=cpu_ids, t_start=t0, t_end=t1, profile=profile)
        self.runs.append(run)
        return run

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def read(self, scope: Scope, quantity: str, t0: float, t1: float) -> float:
        """Exact (noise-free) accumulation of a quantity over a window."""
        self._extend_background(max(t1, self.clock.now()))
        return self.timeline.integrate(scope, quantity, t0, t1)

    def read_batch(
        self, pairs: list[tuple[Scope, str]], t0: float, t1: float
    ) -> list[float]:
        """Exact accumulations for many (scope, quantity) pairs over one
        shared window — one background extension, one timeline pass."""
        self._extend_background(max(t1, self.clock.now()))
        return self.timeline.integrate_batch(pairs, t0, t1)

    def read_cpu(self, cpu: int, quantity: str, t0: float, t1: float) -> float:
        if not 0 <= cpu < self.spec.n_threads:
            raise IndexError(f"cpu {cpu} out of range")
        return self.read(("cpu", cpu), quantity, t0, t1)

    def read_socket(self, socket: int, quantity: str, t0: float, t1: float) -> float:
        if not 0 <= socket < self.spec.n_sockets:
            raise IndexError(f"socket {socket} out of range")
        return self.read(("socket", socket), quantity, t0, t1)

    def busy_fraction(self, cpu: int, t0: float, t1: float) -> float:
        """Fraction of [t0, t1) this hardware thread spent executing, from
        its cycle accumulation vs. the core clock."""
        if t1 <= t0:
            return 0.0
        cycles = self.read_cpu(cpu, "cycles", t0, t1)
        budget = (t1 - t0) * self.spec.sockets[0].core.max_freq_ghz * 1e9
        return min(1.0, cycles / budget)

    def busy_fractions(
        self, cpus: Iterable[int], t0: float, t1: float
    ) -> list[float]:
        """:meth:`busy_fraction` for many threads in one batched read."""
        cpus = list(cpus)
        if t1 <= t0:
            return [0.0] * len(cpus)
        cycles = self.read_batch([(("cpu", c), "cycles") for c in cpus], t0, t1)
        budget = (t1 - t0) * self.spec.sockets[0].core.max_freq_ghz * 1e9
        return [min(1.0, cyc / budget) for cyc in cycles]

    def active_runs(self, t: float) -> list[KernelRun]:
        return [r for r in self.runs if r.t_start <= t < r.t_end]

    def inject_fault(self, fault: Fault) -> Fault:
        """Install a fault (see :mod:`repro.machine.faults`)."""
        return self.faults.inject(fault)
