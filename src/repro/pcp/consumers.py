"""Consumer groups over the commit log: poll → gate → apply → checkpoint.

Four consumers ride :class:`~repro.pcp.commitlog.CommitLog`, each its own
group so each fails and recovers independently:

- **db-writer** — applies records into the host InfluxDB through the
  daemon's failure-injectable write path, pinning each point's write
  sequence to the record's log seq (``write_many(..., seqs=…)``), so the
  sink itself answers "was this record already applied?" via
  ``max_seq`` — the gate that makes crash replay at-most-once-visible;
- **rollup** — folds points into per-bucket count/total/min/max
  aggregates whose accumulator is committed *inside* the checkpoint,
  atomically with the offset.  Replay from the checkpoint therefore
  replays onto the matching accumulator: genuinely exactly-once;
- **anomaly** — flags out-of-bounds field values into a shared dict via
  keyed upserts (key = record content, not seq), idempotent under both
  crash redelivery and DLQ requeue;
- **federator** — pushes records into a SUPERDB-side engine with the same
  seq-pinned, sink-gated discipline as the db-writer, over the PR 4 WAN
  fault set when the sink is a ``FaultyInfluxDB``.

Apply failures retry with the PR 2 decorrelated-jitter backoff behind a
circuit breaker; a record that exhausts its attempt budget (or fails to
parse at all) parks in the DLQ and the partition moves on — poison is
isolated, not head-of-line blocking.  :class:`IngestPipeline` owns the
virtual-time pump: it schedules polls, enforces
:class:`~repro.faults.log.ConsumerCrash` windows (leave → rebalance →
rejoin), tracks peak group lag, and trims consumed segments.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.db import faulty
from repro.db.faulty import ServiceUnavailable
from repro.db.influx import InfluxError, Point
from repro.faults.log import LogFaultSet
from repro.faults.services import ServiceFaultSet

from .commitlog import _NO_CHECKPOINT, CommitLog, LogProducer, LogRecord
from .retry import CircuitBreaker, RetryPolicy
from .transport import TransportModel

__all__ = [
    "ApplyError",
    "LogConsumer",
    "ReportTracker",
    "DbWriterConsumer",
    "RollupMaintainerConsumer",
    "AnomalyScannerConsumer",
    "FederatorConsumer",
    "IngestPipeline",
]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pcp.consumers": {
        "IngestPipeline": (
            "produce", "pump", "drain", "backlog_records", "flat_counters",
            "health"),
        "LogConsumer": ("step",),
    },
}

#: Canonical group names (one group per downstream concern).
GROUP_DB_WRITER = "db-writer"
GROUP_ROLLUP = "rollup"
GROUP_ANOMALY = "anomaly"
GROUP_FEDERATOR = "federator"


#: Per-consumer counters summed by group, for :meth:`IngestPipeline.health`
#: and :meth:`IngestPipeline.flat_counters` alike (``zero_points`` exists on
#: the sink-writing consumers only).
_FLAT_COUNTERS = (
    "applied_records", "applied_points", "duplicate_records",
    "filtered_records", "parked_records", "replayed_parked_records",
    "apply_failures", "interruptions", "zero_points",
)


class ApplyError(Exception):
    """A consumer's apply failed for this record (retryable)."""


class LogConsumer:
    """One member of a consumer group; subclasses define the apply.

    The per-partition cycle is: load the committed checkpoint, poll a
    batch, then per record — seq gate → parse (poison parks) → sink gate →
    apply with retry/breaker (exhaustion parks) — committing
    ``(next offset, applied seq, state)`` every ``commit_every`` records
    and at batch end.  The gap between an apply and its commit is exactly
    the crash window the gates exist for.
    """

    GROUP = "consumer"

    def __init__(
        self,
        log: CommitLog,
        *,
        group: str | None = None,
        cid: str | None = None,
        poll_interval_s: float = 0.5,
        max_poll_records: int = 64,
        commit_every: int = 8,
        max_apply_attempts: int = 8,
        apply_cost_base_s: float = 0.002,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
    ) -> None:
        # So spelled, a NaN is refused too: a NaN next poll never comes due.
        if not (0 < poll_interval_s < math.inf and 0 <= apply_cost_base_s < math.inf):
            raise ValueError("need a finite poll interval > 0 and apply cost >= 0")
        if max_poll_records < 1 or commit_every < 1 or max_apply_attempts < 1:
            raise ValueError("poll/commit/attempt budgets must be >= 1")
        self.log = log
        self.group = group or self.GROUP
        self.cid = cid or f"{self.group}-0"
        self.poll_interval_s = poll_interval_s
        self.max_poll_records = max_poll_records
        self.commit_every = commit_every
        self.max_apply_attempts = max_apply_attempts
        self.apply_cost_base_s = apply_cost_base_s
        self.retry = retry or RetryPolicy(base_s=0.05, cap_s=2.0)
        self.breaker = breaker or CircuitBreaker(5, 1.0)
        self._rng = np.random.default_rng(seed)
        self.next_poll_t = 0.0
        log.join(self.group, self.cid)

        self.polled_records = 0
        self.applied_records = 0
        self.applied_points = 0
        self.duplicate_records = 0
        self.filtered_records = 0
        self.parked_records = 0
        self.replayed_parked_records = 0
        self.apply_failures = 0
        self.interruptions = 0
        self.max_staleness_s = 0.0

    # -- subclass surface ----------------------------------------------
    def apply(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        """Make the record's effects durable in the sink; raise to retry."""

    def _on_applied(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        """Post-apply bookkeeping (trackers, accumulators, upserts)."""

    def _sink_applied(self, rec: LogRecord, pts: list[Point]) -> bool:
        """Does the sink already hold this record's effects?"""
        return False

    def _load_state(self, tp: tuple[str, int], cp: tuple[int, int, Any]) -> None:
        """Restore the state in ``cp`` (offset, applied seq, state) for ``tp``."""

    def _commit_state(self, tp: tuple[str, int]) -> Any:
        """State blob to commit atomically with the offset (or None)."""
        return None

    def apply_cost_s(self, rec: LogRecord, t: float) -> float:
        return self.apply_cost_base_s

    # -- the poll cycle -------------------------------------------------
    def step(self, t: float, alive: Callable[[float], bool]) -> float:
        """Run one poll cycle starting at ``t``; returns the end time."""
        t0 = t
        log = self.log
        # fetched once per cycle: a partition's consume commits only its own
        self._checkpoints = log.checkpoints.for_group(self.group)
        for tp in log.ready(self.group, self.cid):
            t, interrupted = self._consume_tp(tp, t, alive)
            if interrupted:
                # died mid-batch: what was polled but not committed must be
                # polled again, whether or not a rebalance follows
                log.rewind(self.group, tp)
                break
        self.next_poll_t = max(t0 + self.poll_interval_s, t)
        return t

    def _consume_tp(
        self, tp: tuple[str, int], t: float, alive: Callable[[float], bool]
    ) -> tuple[float, bool]:
        log, group = self.log, self.group
        records = log.poll(group, self.cid, tp, self.max_poll_records)
        if not records:
            return t, False
        cp = self._checkpoints.get(tp, _NO_CHECKPOINT)
        self._load_state(tp, cp)
        applied_seq = cp[1]
        commit_every = self.commit_every
        is_parked = log.dlq.is_parked
        n_since = 0
        for rec in records:
            if not alive(t):
                self.interruptions += 1
                return t, True
            self.polled_records += 1
            seq = rec.seq
            if rec.for_group is not None and rec.for_group != group:
                self.filtered_records += 1  # another group's DLQ redelivery
            elif seq <= applied_seq:
                self.duplicate_records += 1
            elif is_parked(group, seq):
                # Crash-replay of a record this group already parked: the
                # DLQ owns it now.  Re-attempting here could *succeed*
                # (the fault healed) and the later requeue — under a
                # fresh seq no idempotence gate recognizes — would apply
                # it a second time.
                self.replayed_parked_records += 1
            else:
                t, interrupted = self._handle(rec, t, alive)
                if interrupted:
                    return t, True
                applied_seq = seq  # above applied_seq: the gate let it in
            n_since += 1
            if n_since >= commit_every:
                log.commit(group, tp, rec.offset + 1, applied_seq,
                           self._commit_state(tp))
                n_since = 0
        if n_since:
            log.commit(group, tp, records[-1].offset + 1, applied_seq,
                       self._commit_state(tp))
        return t, False

    def _handle(
        self, rec: LogRecord, t: float, alive: Callable[[float], bool]
    ) -> tuple[float, bool]:
        """Process one non-gated record, the consumer alive at ``t`` →
        (t, interrupted): parse (poison parks), sink gate, then apply with
        backoff behind the breaker until it lands or the attempt budget is
        spent (the record parks).  A quiet breaker is not asked anything."""
        try:
            pts = rec.points()
        except (InfluxError, ValueError) as e:
            self.log.park(self.group, rec, "parse-error", str(e), 0)
            self.parked_records += 1
            return t, False
        if self._sink_applied(rec, pts):
            self.duplicate_records += 1
            return t, False
        breaker = self.breaker
        attempts = 0
        prev_sleep = 0.0
        probed = t
        while True:
            if breaker.quiet:
                start = t
            else:
                start = breaker.earliest_attempt(t)
                if start != probed and not alive(start):
                    return start, True
                breaker.on_attempt(start)
            t_done = start + self.apply_cost_s(rec, start)
            attempts += 1
            try:
                self.apply(rec, pts, t_done)
            except (ApplyError, ServiceUnavailable) as e:
                self.apply_failures += 1
                breaker.record_failure(t_done)
                if attempts >= self.max_apply_attempts:
                    self.log.park(self.group, rec, "apply-error", str(e), attempts)
                    self.parked_records += 1
                    return t_done, False
                prev_sleep = self.retry.next_sleep(prev_sleep, self._rng)
                t = t_done + prev_sleep
                continue
            if not breaker.quiet:
                breaker.record_success(t_done)
            break
        self.applied_records += 1
        self.applied_points += rec.n_fields
        if t_done - rec.time > self.max_staleness_s:
            self.max_staleness_s = t_done - rec.time
        self._on_applied(rec, pts, t_done)
        return t_done, False


class ReportTracker:
    """Whole-report accounting shared by a db-writer group's members.

    A report fans out into ``report_records`` records that may land on
    partitions owned by different members; the report counts as inserted
    (Table III semantics) once every one of them applied.
    """

    def __init__(self) -> None:
        self._remaining: dict[int, int] = {}
        self.reports = 0
        self.zero_reports = 0

    def record_applied(self, rec: LogRecord) -> None:
        rem = self._remaining.get(rec.report_id, rec.report_records) - 1
        if rem <= 0:
            self._remaining.pop(rec.report_id, None)
            self.reports += 1
            if rec.is_zero:
                self.zero_reports += 1
        else:
            self._remaining[rec.report_id] = rem


class DbWriterConsumer(LogConsumer):
    """Applies records into Influx with seq-pinned writes and sink gating."""

    GROUP = GROUP_DB_WRITER

    def __init__(
        self,
        log: CommitLog,
        sink,
        database: str = "pmove",
        *,
        transport: TransportModel | None = None,
        service_faults: ServiceFaultSet | None = None,
        tracker: ReportTracker | None = None,
        **kw: Any,
    ) -> None:
        super().__init__(log, **kw)
        self.sink = sink
        self.database = database
        self.transport = transport
        # A FaultyInfluxDB carries its own fault set; use it unless overridden.
        self.service_faults = faulty.service_faults(sink, service_faults)
        self.tracker = tracker or ReportTracker()
        self.zero_points = 0
        if database not in sink.databases():
            sink.create_database(database)

    def apply_cost_s(self, rec: LogRecord, t: float) -> float:
        if self.transport is None:
            return self.apply_cost_base_s
        return self.transport.ship_time(
            rec.n_fields, self._rng, at=t, faults=self.service_faults
        )

    def _sink_applied(self, rec: LogRecord, pts: list[Point]) -> bool:
        """Per-series gate: a record's points apply atomically and a
        series' records apply in seq order (same partition), so the first
        point's series holding seq ≥ rec.seq means this record landed."""
        return bool(pts) and self.sink.max_seq(
            self.database, rec.topic, pts[0].tags) >= rec.seq

    def apply(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        faulty.write_at(self.sink, t, self.database, pts, seqs=[rec.seq] * len(pts))

    def _on_applied(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        self.tracker.record_applied(rec)
        if rec.is_zero:
            self.zero_points += rec.n_fields


class RollupMaintainerConsumer(LogConsumer):
    """Maintains per-(topic, bucket) aggregates, exactly once.

    The accumulator lives *inside* the checkpoint: a commit stores
    ``(offset, applied_seq, accumulator)`` atomically, and a crash replays
    the uncommitted records onto the accumulator matching the committed
    offset — aggregates can neither skip nor double-count a record.  The
    visible state is :meth:`rollups`, read from committed checkpoints
    only.

    The committed accumulator of a partition is one dict that stays in its
    checkpoint for good.  Applies never write to it: a bucket's cell is
    copied into an *overlay* on first touch and updated there.  A commit
    folds the overlay into the accumulator inside the call that stores the
    offset — nothing can observe the fold without the offset — and a
    (re)load throws the overlay away, so replay starts from exactly the
    committed cells.  Either costs what was touched since the last commit,
    not what the partition has ever seen.
    """

    GROUP = GROUP_ROLLUP

    def __init__(self, log: CommitLog, *, tier_s: float = 10.0, **kw: Any) -> None:
        if tier_s <= 0:
            raise ValueError("rollup tier must be a positive duration")
        super().__init__(log, **kw)
        self.tier_s = tier_s
        #: The partition being consumed: its committed accumulator, and the
        #: cells applied to since its last commit.
        self._committed: dict[float, list[float]] = {}
        self._overlay: dict[float, list[float]] = {}

    def _load_state(self, tp: tuple[str, int], cp: tuple[int, int, Any]) -> None:
        self._committed = cp[2] if cp[2] is not None else {}
        self._overlay = {}

    def _commit_state(self, tp: tuple[str, int]) -> dict[float, list[float]]:
        self._committed.update(self._overlay)
        self._overlay = {}
        return self._committed

    def _on_applied(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        T = self.tier_s
        overlay = self._overlay
        for p in pts:
            b = (p.time // T) * T
            cell = overlay.get(b)
            if cell is None:
                base = self._committed.get(b)
                if base is not None:
                    cell = overlay[b] = list(base)
            for v in p.fields.values():
                if cell is None:
                    cell = overlay[b] = [1.0, v, v, v]
                else:
                    cell[0] += 1.0
                    cell[1] += v
                    if v < cell[2]:
                        cell[2] = v
                    if v > cell[3]:
                        cell[3] = v

    def rollups(self) -> dict[tuple[str, float], tuple[float, float, float, float]]:
        """Merged (count, total, min, max) per (topic, bucket) — committed
        checkpoints only, so this view is crash-consistent by definition."""
        out: dict[tuple[str, float], list[float]] = {}
        for (topic, _p), (_, _, state) in self.log.checkpoints.for_group(
                self.group).items():
            for b, (c, tot, mn, mx) in (state or {}).items():
                cell = out.get((topic, b))
                if cell is None:
                    out[(topic, b)] = [c, tot, mn, mx]
                else:
                    cell[0] += c
                    cell[1] += tot
                    cell[2] = min(cell[2], mn)
                    cell[3] = max(cell[3], mx)
        return {k: tuple(v) for k, v in out.items()}


class AnomalyScannerConsumer(LogConsumer):
    """Flags out-of-bounds samples into a shared dict via keyed upserts.

    The alert key is record *content* — (topic, tag, sample time, field) —
    so redelivered and requeued copies overwrite rather than duplicate:
    idempotent without any seq bookkeeping.  The sink dict is owned by the
    caller (the daemon) and survives consumer crashes.
    """

    GROUP = GROUP_ANOMALY

    def __init__(
        self,
        log: CommitLog,
        *,
        sink: dict | None = None,
        bounds: dict[str, tuple[float, float]] | None = None,
        default_bounds: tuple[float, float] = (-np.inf, np.inf),
        **kw: Any,
    ) -> None:
        super().__init__(log, **kw)
        self.alerts = sink if sink is not None else {}
        self.bounds = bounds or {}
        self.default_bounds = default_bounds

    def _on_applied(self, rec: LogRecord, pts: list[Point], t: float) -> None:
        lo, hi = self.bounds.get(rec.topic, self.default_bounds)
        for p in pts:
            for name, v in p.fields.items():
                if not (lo <= v <= hi):
                    key = (rec.topic, rec.tag, p.time, name)
                    self.alerts[key] = {
                        "topic": rec.topic,
                        "tag": rec.tag,
                        "time": p.time,
                        "field": name,
                        "value": v,
                        "host": p.tags.get("host", ""),
                        "flagged_at": t,
                    }


class FederatorConsumer(DbWriterConsumer):
    """Pushes records into a SUPERDB-side engine (WAN faults apply when
    the sink is wrapped in a ``FaultyInfluxDB``); same seq-pinned,
    sink-gated discipline as the db-writer, its own pace and checkpoints."""

    GROUP = GROUP_FEDERATOR

    def __init__(self, log: CommitLog, sink, database: str = "superdb",
                 **kw: Any) -> None:
        super().__init__(log, sink, database, **kw)


class IngestPipeline:
    """Producer + consumer fleet over one CommitLog, pumped in virtual time.

    The pump is an event loop over consumer ``next_poll_t`` timestamps
    (ties broken by consumer id, so runs are deterministic).  Crash
    windows from the log fault set translate into group membership: a
    consumer whose poll lands inside its window leaves the group
    (rebalancing its partitions to survivors) and rejoins at window end.
    """

    def __init__(
        self,
        log: CommitLog | None = None,
        *,
        faults: LogFaultSet | None = None,
        fsync_every_reports: int = 1,
    ) -> None:
        self.log = log if log is not None else CommitLog(faults=faults)
        self.faults = self.log.faults
        self.producer = LogProducer(
            self.log, fsync_every_reports=fsync_every_reports
        )
        self.consumers: list[LogConsumer] = []
        self._present: dict[tuple[str, str], bool] = {}
        #: Per consumer, its liveness probe (built once in :meth:`add`).
        self._alive: dict[tuple[str, str], Callable[[float], bool]] = {}
        self._groups: list[str] = []
        #: Per group, its lag as its latest poll cycle left it.
        self._lags: dict[str, int] = {}
        self._steps = 0
        self.max_group_lag = 0

    def add(self, consumer: LogConsumer) -> LogConsumer:
        self.consumers.append(consumer)
        g, cid = key = (consumer.group, consumer.cid)
        self._present[key] = True
        self._alive[key] = self.faults.probe(g, cid)
        if g not in self._groups:
            self._groups.append(g)
        return consumer

    def group_members(self, group: str) -> list[LogConsumer]:
        return [c for c in self.consumers if c.group == group]

    # ------------------------------------------------------------------
    def produce(
        self,
        t: float,
        report_time: float,
        batch: list[Point],
        tag: str,
        is_zero: bool = False,
    ) -> list:
        return self.producer.produce(t, report_time, batch, tag, is_zero)

    # ------------------------------------------------------------------
    def _step_next(self, until: float) -> bool:
        """Run the earliest pending poll before ``until``; False if none."""
        best: LogConsumer | None = None
        t = until
        for c in self.consumers:  # earliest poll before ``until``, then by id
            ct = c.next_poll_t
            if ct < t or (ct == t and best is not None and c.cid < best.cid):
                best, t = c, ct
        if best is None:
            return False
        c = best
        key = (c.group, c.cid)
        if self.faults.crashed(c.group, c.cid, t):
            if self._present.get(key, True):
                self.log.leave(c.group, c.cid)
                self._present[key] = False
            c.next_poll_t = self.faults.next_up(c.group, c.cid, t)
            return True
        if not self._present.get(key, True):
            self.log.join(c.group, c.cid)
            self._present[key] = True
        self.log.at(t)
        c.step(t, self._alive[key])
        lag = self._lags[c.group] = self.log.total_lag(c.group)
        if lag > self.max_group_lag:
            self.max_group_lag = lag
        self._steps += 1
        if self._steps % 64 == 0:
            self.log.trim()
        return True

    def pump(self, until: float) -> None:
        """Run every poll cycle that starts before ``until``."""
        while self._step_next(until):
            pass

    def drain(self, deadline: float) -> float:
        """Pump until every group has consumed its durable backlog (or the
        deadline passes); returns the virtual time reached.

        Nothing appends or flushes meanwhile: a group's lag moves only when
        its members poll, and each cycle's reading keeps the backlog."""
        lags = self._lags
        for g in self._groups:
            lags[g] = self.log.total_lag(g)
        while len(self.producer) or sum(lags.values()):
            if not self._step_next(deadline):
                break
        self.log.trim()
        return self.log.now

    def backlog_records(self) -> int:
        """Durable records still unconsumed by at least one group."""
        return sum(self.log.total_lag(g) for g in self._groups)

    # ------------------------------------------------------------------
    def _group_counters(self) -> dict[str, dict[str, float]]:
        """Per group, each of its members' :data:`_FLAT_COUNTERS` summed."""
        out: dict[str, dict[str, float]] = {}
        for c in self.consumers:
            g = out.setdefault(c.group, {})
            for attr in _FLAT_COUNTERS:
                if hasattr(c, attr):
                    g[attr] = g.get(attr, 0) + getattr(c, attr)
        return out

    def flat_counters(self) -> dict[str, float]:
        """Scalar counter snapshot of every group and the producer."""
        p = self.producer
        out: dict[str, float] = {
            "producer.reports": p.produced_reports,
            "producer.records": p.produced_records,
            "producer.points": p.produced_points,
            "producer.resent": p.resent_records,
        }
        for g, counters in self._group_counters().items():
            for attr, n in counters.items():
                out[f"{g}.{attr}"] = n
        seen: set[int] = set()  # a tracker its members share counts once
        for c in self.consumers:
            tracker = getattr(c, "tracker", None)
            if tracker is not None and id(tracker) not in seen:
                seen.add(id(tracker))
                for attr in ("reports", "zero_reports"):
                    k = f"{c.group}.{attr}"
                    out[k] = out.get(k, 0) + getattr(tracker, attr)
        return out

    def health(self) -> dict[str, Any]:
        """Operational snapshot: per group its lag, counters and members
        (breaker state and transitions), the producer, DLQ parks by reason
        and the log's stats (which hold the parks by group)."""
        now = self.log.now
        groups: dict[str, Any] = {
            g: {"lag": self.log.total_lag(g), **counters,
                "max_staleness_s": 0.0, "members": []}
            for g, counters in self._group_counters().items()
        }
        for c in self.consumers:
            g = groups[c.group]
            g["max_staleness_s"] = max(g["max_staleness_s"], c.max_staleness_s)
            g["members"].append({
                "id": c.cid,
                "alive": not self.faults.crashed(c.group, c.cid, now),
                "breaker_state": c.breaker.state,
                "breaker_transitions": list(c.breaker.transitions),
            })
        p = self.producer
        return {
            "groups": groups,
            "producer": {
                "reports": p.produced_reports,
                "records": p.produced_records,
                "points": p.produced_points,
                "resent_records": p.resent_records,
                "unacked": len(p),
            },
            "max_group_lag": self.max_group_lag,
            "dlq_by_reason": self.log.dlq.summary("reason"),
            "log": self.log.stats(),
        }
