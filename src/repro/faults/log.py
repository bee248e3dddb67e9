"""Commit-log-level fault injection in virtual time.

The durable ingest path (:mod:`repro.pcp.commitlog`) has two failure
domains of its own, below the service faults that break the DB endpoint
and beside the node faults that kill whole machines:

- :class:`LogTruncation` — the log process dies and restarts at an
  instant, losing whatever had been appended but **not yet flushed**.
  Flushed segments are durable by contract, so the blast radius is
  exactly the producer's unacked tail — which the producer retains and
  resends (same sequence numbers), making truncation loss-free end to
  end.
- :class:`ConsumerCrash` — one member of a consumer group dies over a
  window ``[t0, t1)``: it stops polling, its partitions rebalance to the
  surviving members, and (if ``t1`` is finite) it rejoins at ``t1``,
  triggering a second rebalance.  Flap = several short windows for the
  same consumer.

Both are declarative schedule entries consulted by the pipeline's
virtual clock, so chaos runs replay bit-for-bit under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LogTruncation", "ConsumerCrash", "LogFaultSet"]


@dataclass(frozen=True)
class LogTruncation:
    """Instant log crash-restart at ``at``: the unflushed tail is lost."""

    at: float
    #: Restrict the loss to one topic; None truncates every partition.
    topic: str | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("truncation time must be >= 0")


@dataclass(frozen=True)
class ConsumerCrash:
    """One consumer of ``group`` is dead over ``[t0, t1)``."""

    group: str
    consumer: str
    t0: float
    t1: float = field(default=np.inf)

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise ValueError("crash window must have t1 > t0")

    def covers(self, t: float) -> bool:
        return self.t0 <= t < self.t1


class LogFaultSet:
    """Schedule of commit-log faults, consulted by the ingest pipeline."""

    def __init__(self) -> None:
        self.truncations: list[LogTruncation] = []
        self.crashes: list[ConsumerCrash] = []

    def inject(
        self,
        fault: LogTruncation | ConsumerCrash,
        *,
        allow_overlap: bool = False,
    ):
        """Add one fault to the schedule, validating it loudly.

        A duplicate truncation (same instant, same topic scope) or two
        crash windows that overlap for the same consumer are schedule
        bugs — the merged behaviour is indistinguishable from a single
        window, so the writer's intent silently degrades.  Injection
        rejects both; ``allow_overlap=True`` opts a deliberate layering
        back in.  Zero-length crash windows are already rejected by the
        :class:`ConsumerCrash` constructor.
        """
        if isinstance(fault, LogTruncation):
            if not allow_overlap:
                for f in self.truncations:
                    if f.at == fault.at and f.topic == fault.topic:
                        raise ValueError(
                            f"duplicate truncation at t={fault.at} "
                            f"(topic={fault.topic!r})"
                        )
            self.truncations.append(fault)
            self.truncations.sort(key=lambda f: f.at)
        elif isinstance(fault, ConsumerCrash):
            if fault.t1 <= fault.t0:  # defensive: constructor enforces
                raise ValueError(f"zero-length crash window: {fault}")
            if not allow_overlap:
                for f in self.crashes:
                    if (
                        f.group == fault.group
                        and f.consumer == fault.consumer
                        and f.t0 < fault.t1
                        and fault.t0 < f.t1
                    ):
                        raise ValueError(
                            "overlapping crash windows for "
                            f"{fault.group}/{fault.consumer}: "
                            f"[{f.t0}, {f.t1}) vs [{fault.t0}, {fault.t1}) "
                            "— pass allow_overlap=True if layering is intended"
                        )
            self.crashes.append(fault)
            self.crashes.sort(key=lambda f: (f.t0, f.t1))
        else:
            raise TypeError(f"not a commit-log fault: {fault!r}")
        return fault

    def clear(self) -> None:
        self.truncations.clear()
        self.crashes.clear()

    @property
    def faults(self) -> list[LogTruncation | ConsumerCrash]:
        """Uniform listing surface, matching the service/node fault sets."""
        return [*self.truncations, *self.crashes]

    # ------------------------------------------------------------------
    def crashed(self, group: str, consumer: str, t: float) -> bool:
        """Is this consumer inside any of its crash windows at ``t``?"""
        if not self.crashes:  # the liveness probe of every poll; usually no schedule
            return False
        return any(
            c.group == group and c.consumer == consumer and c.covers(t)
            for c in self.crashes
        )

    def next_up(self, group: str, consumer: str, t: float) -> float:
        """Earliest time ≥ ``t`` the consumer is outside every window.

        Fixpoint over the schedule, so adjacent/overlapping windows merge.
        """
        changed = True
        while changed:
            changed = False
            for c in self.crashes:
                if c.group == group and c.consumer == consumer and c.covers(t):
                    t = c.t1
                    changed = True
        return t
