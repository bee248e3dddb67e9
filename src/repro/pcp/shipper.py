"""Resilient telemetry shipping: the buffer PCP lacks.

§V-A pins Table III's losses on PCP having "no buffer or queue mechanism to
keep data points until their insertion into the DB".  This module is that
mechanism, built the way production ODA ingest paths (DCDB-style) are:

- a **bounded report queue** decouples fetch from insert.  When full, a
  configurable policy applies: ``drop_oldest`` (ring-buffer semantics),
  ``drop_newest`` (reject the arrival), or ``spill`` (evict the oldest
  report to an in-memory write-ahead log for later replay);
- **retry with exponential backoff and decorrelated jitter** — a failed
  insert stays at the head of the queue and is retried after
  ``min(cap, uniform(base, 3 * previous_sleep))``;
- a **circuit breaker** opens after ``breaker_threshold`` consecutive
  failures, stops hammering the dead endpoint for ``breaker_open_s``, then
  half-opens to let a single probe through; probe success closes it, probe
  failure re-opens it.

Everything runs in virtual time: a single worker services the queue, its
availability tracked as a timestamp (``free_at``), so shipping a minute of
outage-and-recovery costs microseconds of wall time and is bit-for-bit
reproducible under a seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.db.faulty import FaultyInfluxDB, ServiceUnavailable, service_faults, write_at
from repro.db.influx import InfluxDB, Point
from repro.faults.services import ServiceFaultSet

from .retry import CircuitBreaker, RetryPolicy
from .transport import TransportModel

__all__ = ["ShipperConfig", "CircuitBreaker", "RetryPolicy", "WalEntry", "Shipper"]

_POLICIES = ("drop_oldest", "drop_newest", "spill")


@dataclass
class ShipperConfig:
    """Tuning knobs for the resilient shipping layer."""

    capacity: int = 64
    policy: str = "drop_oldest"
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    breaker_threshold: int = 5
    breaker_open_s: float = 1.0
    #: Per-report attempt cap; None = retry until the drain deadline.
    max_attempts: int | None = None
    #: Virtual seconds past t_end the final drain may keep retrying.
    drain_grace_s: float = 60.0
    #: Let the buffered sampler halve its frequency under backpressure.
    adaptive_degradation: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown queue policy {self.policy!r}; pick from {_POLICIES}")
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 < backoff_base_s <= backoff_cap_s")
        if self.breaker_threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if self.breaker_open_s <= 0:
            raise ValueError("breaker open window must be positive")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        if self.drain_grace_s < 0:
            raise ValueError("drain grace must be >= 0")


@dataclass
class WalEntry:
    """One spilled report, serialized to line protocol for replay.

    ``seq`` is a shipper-issued sequence number: :meth:`Shipper.replay_wal`
    records which seqs already landed, so a replay interrupted mid-way (or
    invoked twice) can never double-insert an entry.  Entries constructed
    without a seq (< 0) predate the dedup and are always replayed.
    """

    time: float
    tag: str
    lines: str
    n_fields: int
    seq: int = -1


@dataclass
class _Item:
    enqueued_at: float
    report_time: float
    batch: list[Point]
    n_points: int  # report size, what the transport prices
    n_fields: int  # what lands in the DB on success
    is_zero: bool
    tag: str
    attempts: int = 0
    not_before: float = -np.inf
    prev_sleep: float = 0.0


class Shipper:
    """Virtual-time worker draining a bounded report queue into Influx."""

    def __init__(
        self,
        influx: InfluxDB,
        database: str,
        transport: TransportModel,
        config: ShipperConfig | None = None,
        faults: ServiceFaultSet | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        # A bare engine (or router) plus ``faults=`` gets the fault proxy here,
        # once, so a rejected write is decided in one place whatever came in.
        if faults is not None and not isinstance(influx, FaultyInfluxDB):
            influx = FaultyInfluxDB(influx, faults)
        self.influx = influx
        self.database = database
        self.transport = transport
        self.config = config or ShipperConfig()
        # A FaultyInfluxDB carries its own fault set; use it unless overridden.
        self.faults = service_faults(influx, faults)
        self._rng = rng or np.random.default_rng(0)
        self.retry = RetryPolicy(
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
            max_attempts=self.config.max_attempts,
        )
        self.breaker = CircuitBreaker(self.config.breaker_threshold, self.config.breaker_open_s)
        self.queue: deque[_Item] = deque()
        self.wal: list[WalEntry] = []
        self._wal_seq = 0
        self._replayed_seqs: set[int] = set()
        self.free_at = -np.inf
        self.last_event_t = 0.0

        # Counters surfaced into SamplingStats.
        self.enqueued = 0
        self.inserted_reports = 0
        self.inserted_points = 0
        self.zero_reports = 0
        self.zero_points = 0
        self.retried_reports = 0
        self.recovered_reports = 0
        self.dropped_by_policy = 0
        self.spilled_reports = 0
        self.unshipped_reports = 0
        self.max_queue_depth = 0
        self.max_staleness_s = 0.0

    def __len__(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    def offer(self, t: float, report_time: float, batch: list[Point],
              n_points: int, is_zero: bool, tag: str) -> bool:
        """Enqueue one report at virtual time ``t``; False if rejected."""
        if len(self.queue) >= self.config.capacity:
            if self.config.policy == "drop_newest":
                self.dropped_by_policy += 1
                return False
            evicted = self.queue.popleft()
            if self.config.policy == "spill":
                self._spill(evicted)
            else:  # drop_oldest
                self.dropped_by_policy += 1
        self.queue.append(
            _Item(enqueued_at=t, report_time=report_time, batch=batch,
                  n_points=n_points, n_fields=sum(len(p.fields) for p in batch),
                  is_zero=is_zero, tag=tag)
        )
        self.enqueued += 1
        self.max_queue_depth = max(self.max_queue_depth, len(self.queue))
        return True

    def _spill(self, item: _Item) -> None:
        self._wal_seq += 1
        self.wal.append(
            WalEntry(
                time=item.report_time,
                tag=item.tag,
                lines="\n".join(p.to_line() for p in item.batch),
                n_fields=item.n_fields,
                seq=self._wal_seq,
            )
        )
        self.spilled_reports += 1

    def replay_wal(self) -> int:
        """Backfill spilled reports into the DB; returns fields written.

        Timestamps travel inside the line protocol, so replayed points land
        at their original sample times — late, but not wrong.

        Idempotent under repeated invocation and under crash-during-replay:
        entries land one at a time, head first — the write (atomic at the
        engine: a failed batch inserts nothing) is recorded against the
        entry's seq *before* the entry is popped, so a replay that dies
        between the two and is re-run skips the already-landed entry
        instead of double-inserting it.
        """
        written = 0
        while self.wal:
            entry = self.wal[0]
            if entry.seq < 0 or entry.seq not in self._replayed_seqs:
                self.influx.write_lines(self.database, entry.lines)
                if entry.seq >= 0:
                    self._replayed_seqs.add(entry.seq)
                written += entry.n_fields
            self.wal.pop(0)
        return written

    # ------------------------------------------------------------------
    def _try_insert(self, item: _Item, t: float) -> bool:
        try:
            write_at(self.influx, t, self.database, item.batch)
        except ServiceUnavailable:
            return False
        return True

    def _backoff(self, item: _Item) -> float:
        sleep = self.retry.next_sleep(item.prev_sleep, self._rng)
        item.prev_sleep = sleep
        return sleep

    def _give_up(self, item: _Item) -> None:
        if self.config.policy == "spill":
            self._spill(item)
        else:
            self.dropped_by_policy += 1

    def advance(self, now: float) -> None:
        """Service the queue: run every attempt that can *start* before
        ``now``.  An attempt that completes past ``now`` just leaves the
        worker busy into the future — exactly one report is ever in flight."""
        while self.queue:
            item = self.queue[0]
            start = max(self.free_at, item.enqueued_at, item.not_before)
            start = self.breaker.earliest_attempt(start)
            if start >= now:
                break
            self.breaker.on_attempt(start)
            duration = self.transport.ship_time(
                item.n_points, self._rng, at=start, faults=self.faults
            )
            t_done = start + duration
            self.free_at = t_done
            self.last_event_t = t_done
            item.attempts += 1
            if self._try_insert(item, t_done):
                self.breaker.record_success(t_done)
                self.queue.popleft()
                self.inserted_reports += 1
                self.inserted_points += item.n_fields
                if item.is_zero:
                    self.zero_reports += 1
                    self.zero_points += item.n_fields
                if item.attempts > 1:
                    self.recovered_reports += 1
                self.max_staleness_s = max(self.max_staleness_s, t_done - item.report_time)
            else:
                self.breaker.record_failure(t_done)
                if item.attempts == 1:
                    self.retried_reports += 1
                if self.retry.exhausted(item.attempts):
                    self.queue.popleft()
                    self._give_up(item)
                else:
                    item.not_before = t_done + self._backoff(item)

    def drain(self, deadline: float) -> float:
        """Keep servicing until the queue empties or ``deadline`` passes;
        leftovers count as unshipped.  Returns the last completion time."""
        self.advance(deadline)
        while self.queue:
            item = self.queue.popleft()
            self.unshipped_reports += 1
            if self.config.policy == "spill":
                # Unshipped != unsaved: the WAL still has them.
                self.unshipped_reports -= 1
                self._spill(item)
        return self.last_event_t
