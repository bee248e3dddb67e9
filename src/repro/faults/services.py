"""Host-side service faults on time windows, consulted in virtual time.

§V-A's loss study treats the DB insert as an always-up (if slow) sink; any
production deployment of the pipeline also has to survive the sink going
*away* — an InfluxDB restart, a partitioned host link, a compaction-stalled
insert path, a flaky proxy.  Each fault here is active on ``[t0, t1)`` and
affects the write path in one specific way:

- :class:`DbOutage` — every insert during the window fails;
- :class:`NetworkPartition` — the host is unreachable (fails before the DB);
- :class:`InsertLatencySpike` — inserts succeed but take ``factor``× longer;
- :class:`FlakyWrites` — each insert fails with probability ``p_fail``.

Failure draws are hashed from ``(seed, attempt time)`` so a chaos run is
bit-for-bit reproducible regardless of how many times or in what order the
fault set is consulted.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable

from .window import Schedule, Window

__all__ = [
    "ServiceFault",
    "DbOutage",
    "NetworkPartition",
    "InsertLatencySpike",
    "FlakyWrites",
    "ServiceFaultSet",
    "ServiceUnavailable",
]


class ServiceUnavailable(RuntimeError):
    """A write was rejected by an active service fault."""

    def __init__(self, reason: str, t: float) -> None:
        super().__init__(f"service unavailable at t={t:.6f}s ({reason})")
        self.reason = reason
        self.t = t


@dataclass(frozen=True)
class ServiceFault(Window):
    """Base service fault: a named disruption active on [t0, t1)."""

    #: Short reason tag used in errors and stats; None = does not fail writes.
    reason: str | None = None

    def fails_write(self, t: float) -> bool:
        """Whether a write attempted at ``t`` fails because of this fault."""
        return self.reason is not None and self.active(t)

    def latency_factor(self, t: float) -> float:
        """Multiplier on insert service time for an attempt at ``t``."""
        return 1.0


@dataclass(frozen=True)
class DbOutage(ServiceFault):
    """The DB endpoint is down: every insert in the window fails."""

    reason: str | None = "db-outage"


@dataclass(frozen=True)
class NetworkPartition(ServiceFault):
    """Host link severed: reports never reach the DB during the window."""

    reason: str | None = "network-partition"


@dataclass(frozen=True)
class InsertLatencySpike(ServiceFault):
    """Inserts succeed but take ``factor``× their nominal service time
    (compaction stall, noisy neighbour on the DB host)."""

    factor: float = 5.0
    reason: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("latency factor must be >= 1")

    def latency_factor(self, t: float) -> float:
        return self.factor if self.active(t) else 1.0


@dataclass(frozen=True)
class FlakyWrites(ServiceFault):
    """Each insert in the window fails independently with ``p_fail``.

    The draw is a hash of ``(seed, attempt time)``, not a stateful RNG, so
    outcomes are reproducible and order-independent.
    """

    p_fail: float = 0.5
    seed: int = 0
    reason: str | None = "flaky-write"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError("p_fail must be in [0, 1]")
        if not -(2**63) <= self.seed < 2**63:  # the draw packs it as an int64
            raise ValueError("seed must fit a signed 64-bit integer")

    def _draw(self, t: float) -> float:
        h = hashlib.blake2b(struct.pack("<qd", self.seed, t), digest_size=8)
        return int.from_bytes(h.digest(), "little") / 2.0**64

    def fails_write(self, t: float) -> bool:
        return self.active(t) and self._draw(t) < self.p_fail


class ServiceFaultSet(Schedule):
    """The installed host-side faults, consulted at attempt time; all
    unscoped, and overlapping windows compose."""

    def __init__(self, faults: Iterable[ServiceFault] = ()) -> None:
        super().__init__()
        for f in faults:
            self.inject(f)

    def write_error(self, t: float) -> str | None:
        """Reason string if a write attempted at ``t`` fails, else None."""
        for f in self.by_scope.get(None, ()):
            if f.fails_write(t):
                return f.reason or type(f).__name__
        return None

    def latency_factor(self, t: float) -> float:
        """Composed insert-service-time multiplier at ``t``."""
        return self.product(None, t, "latency_factor", t)
