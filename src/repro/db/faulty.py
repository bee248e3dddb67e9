"""Failure-injectable wrapper around :class:`repro.db.influx.InfluxDB`.

The storage engine itself never fails; production InfluxDB does.  This
wrapper interposes on the write path and consults a
:class:`~repro.faults.services.ServiceFaultSet` in *virtual time* — the
caller stamps ``now`` (or uses :meth:`at`) before each attempt, mirroring
how the sampler's virtual clock drives everything else in the substrate.
Reads and admin calls delegate untouched, so dashboards keep rendering
whatever data did make it in during an outage.

Which sinks keep a virtual clock, and which of them reject writes, is
known here only: the sampler, the shipper and the durable consumers write
through :func:`write_at` and none of them looks at the sink's attributes.
"""

from __future__ import annotations

from repro.faults.services import ServiceFaultSet, ServiceUnavailable

from .influx import InfluxDB, Point

__all__ = [
    "FaultyInfluxDB", "ServiceUnavailable", "service_faults", "stamp", "write_at",
]


class FaultyInfluxDB:
    """InfluxDB proxy whose writes fail per an installed service-fault set."""

    def __init__(self, inner: InfluxDB, faults: ServiceFaultSet | None = None) -> None:
        self.inner = inner
        self.faults = faults if faults is not None else ServiceFaultSet()
        #: Virtual time of the next write attempt (stamped by the caller).
        self.now = 0.0
        self._inner_at = getattr(inner, "at", None)  # a router keeps a clock
        self.accepted_writes = 0
        self.rejected_writes = 0

    def at(self, t: float) -> "FaultyInfluxDB":
        """Stamp the virtual time of the next attempt; returns self.

        The stamp propagates to a clock-aware inner engine (the sharded
        router), so shard-level node faults tick on the same virtual
        clock as the service faults interposed here.
        """
        self.now = t
        if self._inner_at is not None:
            self._inner_at(t)
        return self

    # ------------------------------------------------------------------
    def _check(self) -> None:
        reason = self.faults.write_error(self.now)
        if reason is not None:
            self.rejected_writes += 1
            raise ServiceUnavailable(reason, self.now)

    def write(self, db: str, point: Point) -> None:
        self._check()
        self.inner.write(db, point)
        self.accepted_writes += 1

    def write_many(
        self, db: str, points: list[Point], *, seqs: list[int] | None = None
    ) -> int:
        self._check()
        # ``seqs`` pins per-measurement write sequences (the durable-ingest
        # apply path); forwarded verbatim so the idempotence gate works
        # through the fault proxy.  The inner clock is stamped by ``at``.
        n = self.inner.write_many(db, points, seqs=seqs)
        self.accepted_writes += 1
        return n

    def write_lines(self, db: str, lines: str) -> int:
        self._check()
        n = self.inner.write_lines(db, lines)
        self.accepted_writes += 1
        return n

    def max_seq(self, db: str, measurement: str, tags: dict | None = None) -> int:
        """The durable apply gate, asked per record: no __getattr__ miss."""
        return self.inner.max_seq(db, measurement, tags)

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Reads, admin, retention — everything else passes straight through.
        return getattr(self.inner, name)


def stamp(sink, t: float) -> None:
    """Tell ``sink`` its next operation happens at virtual time ``t``: the
    fault proxy and the shard router keep a clock (their faults are windows
    on it), a plain engine keeps none."""
    at = getattr(sink, "at", None)
    if at is not None:
        at(t)


def write_at(
    sink, t: float, db: str, points: list[Point], *, seqs: list[int] | None = None
) -> int:
    """Write one batch into ``sink`` at virtual time ``t``.  A fault proxy
    with a write-failing fault active at ``t`` raises
    :class:`ServiceUnavailable` and stores nothing — the one way a service
    fault becomes a rejected write."""
    stamp(sink, t)
    if seqs is None:
        return sink.write_many(db, points)
    return sink.write_many(db, points, seqs=seqs)


def service_faults(
    sink, override: ServiceFaultSet | None = None
) -> ServiceFaultSet | None:
    """The fault set that prices an attempt into ``sink``: ``override``, else
    the fault proxy's own.  Anything else has none — a shard router's
    ``faults`` are node faults of its shards, not service faults."""
    if override is None and isinstance(sink, FaultyInfluxDB):
        return sink.faults
    return override
