"""Fault injection: the performance-variation causes of the paper's intro.

"Performance variations caused by hardware capabilities and software factors
such as load imbalances, CPU throttling, reduced frequency, shared resource
contention, and network congestion can result in up to a 100% difference in
performance" (§I).  P-MoVE exists to *find* these; this module lets the
simulated substrate *produce* them, so anomaly detection and focus-view
root-causing have something real to chase.

A fault is active on a time window and degrades specific resources;
:meth:`FaultSet.slowdown` composes the active faults into a runtime
dilation factor for a given execution placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.faults.window import Schedule, Window

__all__ = ["Fault", "CpuThrottle", "MemoryContention", "LoadImbalance", "FaultSet"]


@dataclass(frozen=True)
class Fault(Window):
    """Base fault: a named degradation active on [t0, t1)."""

    def slowdown(self, cpu_ids: tuple[int, ...], memory_bound: bool) -> float:
        """Runtime multiplier (>= 1) this fault imposes on an execution."""
        raise NotImplementedError


@dataclass(frozen=True)
class CpuThrottle(Fault):
    """Thermal/power throttling: affected cpus run at ``freq_factor`` of
    nominal frequency — the paper's "CPU throttling, reduced frequency"."""

    freq_factor: float = 0.5
    cpus: tuple[int, ...] = ()  # empty = whole machine

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.freq_factor <= 1.0:
            raise ValueError("freq_factor must be in (0, 1]")

    def slowdown(self, cpu_ids: tuple[int, ...], memory_bound: bool) -> float:
        affected = not self.cpus or any(c in self.cpus for c in cpu_ids)
        if not affected:
            return 1.0
        # Memory-bound code is partially insulated from core frequency.
        penalty = 1.0 / self.freq_factor
        return 1.0 + (penalty - 1.0) * (0.35 if memory_bound else 1.0)


@dataclass(frozen=True)
class MemoryContention(Fault):
    """A co-runner stealing shared bandwidth — "shared resource
    contention".  ``bw_factor`` is the fraction of bandwidth left."""

    bw_factor: float = 0.6

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.bw_factor <= 1.0:
            raise ValueError("bw_factor must be in (0, 1]")

    def slowdown(self, cpu_ids: tuple[int, ...], memory_bound: bool) -> float:
        if not memory_bound:
            return 1.0 + 0.1 * (1.0 / self.bw_factor - 1.0)
        return 1.0 / self.bw_factor


@dataclass(frozen=True)
class LoadImbalance(Fault):
    """OS noise / oversubscription on some cpus: the slowest rank drags
    the whole (bulk-synchronous) execution."""

    straggler_factor: float = 1.4
    cpus: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")

    def slowdown(self, cpu_ids: tuple[int, ...], memory_bound: bool) -> float:
        affected = not self.cpus or any(c in self.cpus for c in cpu_ids)
        return self.straggler_factor if affected else 1.0


class FaultSet(Schedule):
    """The machine's installed faults; all unscoped, and overlapping
    windows compose."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        super().__init__()
        for f in faults:
            self.inject(f)

    def slowdown(self, t: float, cpu_ids: tuple[int, ...], memory_bound: bool) -> float:
        """Composed runtime multiplier of all faults active at ``t``."""
        return self.product(None, t, "slowdown", cpu_ids, memory_bound)
