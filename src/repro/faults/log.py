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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .nodes import NodeCrash
from .window import Schedule

__all__ = ["LogTruncation", "ConsumerCrash", "LogFaultSet"]


@dataclass(frozen=True)
class LogTruncation:
    """Instant log crash-restart at ``at``: the unflushed tail is lost."""

    at: float
    #: Restrict the loss to one topic; None truncates every partition.
    topic: str | None = None

    def __post_init__(self) -> None:
        if not self.at >= 0:  # so spelled, a NaN instant is refused too
            raise ValueError("truncation time must be >= 0")


@dataclass(frozen=True, init=False)
class ConsumerCrash(NodeCrash):
    """One consumer of ``group`` is dead over ``[t0, t1)`` — a node crash
    whose node is the ``(group, consumer)`` member."""

    group: str
    consumer: str

    def __init__(
        self, group: str, consumer: str, t0: float, t1: float = math.inf
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "consumer", consumer)
        super().__init__(t0, t1)


class LogFaultSet(Schedule):
    """Schedule of commit-log faults, consulted by the ingest pipeline:
    crashes scoped by ``(group, consumer)``, truncations unscoped."""

    def _locate(self, fault: LogTruncation | ConsumerCrash):
        if isinstance(fault, ConsumerCrash):
            return (fault.group, fault.consumer), fault
        if isinstance(fault, LogTruncation):
            return None, fault
        raise TypeError(f"not a commit-log fault: {fault!r}")

    def inject(
        self, fault: LogTruncation | ConsumerCrash, *, allow_overlap: bool = False
    ):
        """Add one fault to the schedule, validating it loudly.

        A duplicate truncation (same instant, same topic scope) or two
        crash windows that overlap for the same consumer are schedule
        bugs — the merged behaviour is indistinguishable from a single
        window, so the writer's intent silently degrades.  Injection
        rejects both; ``allow_overlap=True`` opts a deliberate layering
        back in.
        """
        if not allow_overlap:
            if isinstance(fault, ConsumerCrash):
                self.refuse_overlap((fault.group, fault.consumer), fault)
            elif fault in self.truncations:
                raise ValueError(
                    f"duplicate truncation at t={fault.at} (topic={fault.topic!r})"
                )
        return super().inject(fault)

    @property
    def truncations(self) -> Sequence[LogTruncation]:
        return self.by_scope.get(None, ())

    # ------------------------------------------------------------------
    def crashed(self, group: str, consumer: str, t: float) -> bool:
        """Is this consumer inside any of its crash windows at ``t``?"""
        # the liveness probe of every poll: no key is built for an empty schedule
        return bool(self.by_scope) and self.down_at((group, consumer), t)

    def probe(self, group: str, consumer: str) -> Callable[[float], bool]:
        """``not crashed(group, consumer, t)`` as one call: the liveness
        probe a consumer makes before every record."""
        key, scopes, down_at = (group, consumer), self.by_scope, self.down_at
        return lambda t: not (scopes and down_at(key, t))

    def next_up(self, group: str, consumer: str, t: float) -> float:
        """Earliest time ≥ ``t`` the consumer is outside every window."""
        return self.up_at((group, consumer), t)
