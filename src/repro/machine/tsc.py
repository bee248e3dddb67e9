"""Virtual time: a monotonic clock plus a Time Stamp Counter view.

The paper's CARM microbenchmarks (§IV-B1) time themselves with the x86 TSC
("we use the Time Stamp Counter (TSC) to measure the number of clock cycles,
detect CPU frequency …").  Here the TSC is a view over a shared
:class:`VirtualClock`, so every component of a simulated machine — samplers,
kernels, agents — observes one coherent notion of time that advances only
when something *runs*.
"""

from __future__ import annotations

__all__ = ["VirtualClock", "TimeStampCounter"]


class VirtualClock:
    """Monotonic virtual clock measured in seconds.

    The clock only moves via :meth:`advance`; readers use :meth:`now`.
    Keeping time virtual makes every experiment deterministic and lets a
    "10 minute" resource-usage run (Fig 6) finish in milliseconds of wall
    time.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._t = float(start)

    def now(self) -> float:
        return self._t

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self._t += float(dt)
        return self._t

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if in the past)."""
        if t > self._t:
            self._t = float(t)
        return self._t


class TimeStampCounter:
    """A TSC-like cycle counter derived from a :class:`VirtualClock`.

    ``rdtsc()`` returns the invariant-TSC cycle count (base frequency — the
    invariant TSC ticks at the nominal rate regardless of turbo), which is
    exactly the counter the CARM microbenchmarks divide by to get seconds.
    """

    def __init__(self, clock: VirtualClock, base_freq_ghz: float) -> None:
        if base_freq_ghz <= 0:
            raise ValueError("TSC frequency must be positive")
        self._clock = clock
        self.freq_hz = base_freq_ghz * 1e9

    def rdtsc(self) -> int:
        return int(self._clock.now() * self.freq_hz)

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles / self.freq_hz

    def measure(self, start_cycles: int, end_cycles: int) -> float:
        """Seconds elapsed between two ``rdtsc`` readings."""
        if end_cycles < start_cycles:
            raise ValueError("TSC went backwards (end < start)")
        return self.cycles_to_seconds(end_cycles - start_cycles)
