"""The sampling loop: ticks, fetches, transport, loss accounting.

This is the machinery behind Table III ("#data points expected and observed
at the host DB w.r.t. sampling freq and #metrics") and the sampled series
behind Figs 4 and 7–9.  The crucial design property, straight from §V-A:
**no buffering** — if the previous report is still in flight when a tick
fires, the tick is lost; and below the perfevent refresh floor, delivered
reports may be batched zeros.

That paper-faithful unbuffered loop stays the default.  ``mode="buffered"``
routes reports through :class:`repro.pcp.shipper.Shipper` instead — the
bounded queue / retry / circuit-breaker layer §V-A wishes PCP had — and
additionally degrades adaptively: under sustained backpressure the sampler
halves its effective frequency (recorded in the stats) rather than letting
the queue policy shed load, and restores it once the queue drains.

Everything runs in virtual time against an already-populated machine
timeline, so sampling a 10-second window takes microseconds of wall time
and is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field

import numpy as np

from repro.db.faulty import ServiceUnavailable, write_at
from repro.db.influx import InfluxDB, Point, check_names

from .pmcd import Pmcd, Report
from .pmns import metric_to_measurement
from .shipper import Shipper, ShipperConfig
from .transport import TransportModel

__all__ = ["SamplingStats", "Sampler"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pcp.sampler": {
        "Sampler": ("run", "sampling_overhead"),
    },
}

#: Queue-depth fractions (of capacity) that trigger / clear degradation.
_BACKPRESSURE_HIGH = 0.75
_BACKPRESSURE_LOW = 0.25
#: Deepest frequency-halving allowed: freq / 8.
_MAX_STRIDE = 8
#: Shipper counters that are SamplingStats fields of the same name.
_SHIPPER_COUNTERS = (
    "inserted_points", "zero_points", "inserted_reports", "zero_reports",
    "retried_reports", "recovered_reports", "dropped_by_policy", "spilled_reports",
    "unshipped_reports", "max_queue_depth", "max_staleness_s",
)


@dataclass
class SamplingStats:
    """Outcome of one sampling run — the columns of Table III.

    The trailing defaulted fields only move off their defaults in buffered
    mode; unbuffered runs produce stats identical to the pre-shipper code.
    """

    freq_hz: float
    n_metrics: int
    duration_s: float
    expected_points: int
    inserted_points: int
    zero_points: int
    expected_reports: int
    inserted_reports: int
    lost_reports: int
    zero_reports: int
    tag: str
    mode: str = "unbuffered"
    #: Reports that needed at least one retry after a failed insert.
    retried_reports: int = 0
    #: Retried reports that eventually made it into the DB.
    recovered_reports: int = 0
    #: Reports shed by the queue policy (incl. retry-cap give-ups).
    dropped_by_policy: int = 0
    #: Reports evicted to the write-ahead log (policy="spill").
    spilled_reports: int = 0
    #: Reports still queued when the drain deadline passed.
    unshipped_reports: int = 0
    #: Ticks skipped by adaptive degradation (not sampler losses).
    degraded_ticks: int = 0
    #: Total virtual time the circuit breaker spent open.
    breaker_open_s: float = 0.0
    max_queue_depth: int = 0
    #: Worst insert-time lag behind the sample's timestamp.
    max_staleness_s: float = 0.0
    #: Lowest effective sampling frequency reached under backpressure.
    effective_freq_hz: float | None = None
    # -- durable-mode (commit log) counters ----------------------------
    #: Commit-log records appended by the producer this run.
    produced_records: int = 0
    #: Records the DB-writer group made visible in the host DB.
    applied_records: int = 0
    #: Records skipped by an idempotence gate (crash replay, redelivery).
    duplicate_records: int = 0
    #: Records parked in the dead-letter queue across all groups.
    parked_records: int = 0
    #: Unflushed records a log truncation wiped and the producer re-sent.
    resent_records: int = 0
    #: Peak durable-but-unconsumed backlog of any group during the run.
    max_group_lag: int = 0
    #: Backlog still unconsumed when the drain deadline passed.
    backlog_records: int = 0

    @property
    def loss_pct(self) -> float:
        """%L: points lost in transmission."""
        if self.expected_points == 0:
            return 0.0
        return 100.0 * (self.expected_points - self.inserted_points) / self.expected_points

    @property
    def loss_plus_zero_pct(self) -> float:
        """L+Z%: lost or inserted-as-zero points."""
        if self.expected_points == 0:
            return 0.0
        useful = self.inserted_points - self.zero_points
        return 100.0 * (self.expected_points - useful) / self.expected_points

    @property
    def throughput(self) -> float:
        """Tput: inserted points per second."""
        return self.inserted_points / self.duration_s if self.duration_s else 0.0

    @property
    def actual_throughput(self) -> float:
        """A.Tput: non-zero inserted points per second."""
        if not self.duration_s:
            return 0.0
        return (self.inserted_points - self.zero_points) / self.duration_s


class Sampler:
    """Drives periodic pmcd fetches into the host InfluxDB."""

    def __init__(
        self,
        pmcd: Pmcd,
        influx: InfluxDB,
        transport: TransportModel | None = None,
        database: str = "pmove",
        seed: int = 0,
        host: str = "",
    ) -> None:
        self.pmcd = pmcd
        self.influx = influx
        self.transport = transport or TransportModel()
        self.database = database
        self.host = host  # optional host tag (multi-target/cluster setups)
        if database not in influx.databases():
            influx.create_database(database)
        self._rng = np.random.default_rng(seed)
        #: Shipper of the most recent buffered run (breaker trace, WAL, …).
        self.last_shipper: Shipper | None = None
        #: Stats of the most recent run, whichever mode (health surface).
        self.last_stats: SamplingStats | None = None
        #: Virtual end time of the most recent run that landed any data —
        #: the per-node liveness signal cluster supervision reads.
        self.last_success_t: float | None = None
        #: (tick time, stride) trace of the most recent buffered run.
        self.last_degradation: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    def _batch(self, report: Report, tags: dict[str, str]) -> list[Point]:
        """Build the Influx point batch for one report.

        The run's one tags dict is shared across its points (Point is
        frozen and the engine copies what it stores)."""
        t = report.time
        return [
            Point(
                measurement=metric_to_measurement(metric),
                tags=tags,
                fields=fields,
                time=t,
            )
            for metric, fields in report.values.items()
            if fields
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        metrics: list[str],
        freq_hz: float,
        t_start: float,
        t_end: float,
        tag: str | None = None,
        final_fetch: bool = False,
        mode: str = "unbuffered",
        shipper_config: ShipperConfig | None = None,
        pipeline=None,
    ) -> SamplingStats:
        """Sample ``metrics`` at ``freq_hz`` over ``[t_start, t_end]``.

        Each tick fetches the window since the previous *successful* tick
        (counter deltas) and hands the report to the sink ``mode`` names,
        which gets it into the host DB under ``tag``.  High-frequency runs
        additionally deliver zero batches (§V-A) — stale snapshot reads that
        insert zeros *without* advancing the counter cursor, so the next
        good fetch recovers the counts (this is why Fig 4's summed errors
        stay small even when Table III shows batched zeros).

        In the default unbuffered mode the sampler ships and inserts each
        report itself, and ticks that fire while it is busy are lost.
        ``mode="buffered"`` decouples fetch from insert through a
        :class:`Shipper` — no busy-losses; queue, retry and breaker
        behaviour per ``shipper_config``.  ``mode="durable"`` produces
        reports into a shared :class:`~repro.pcp.consumers.IngestPipeline`
        (the checkpointed commit log) instead of writing point-to-point, and
        the stats are read back from the pipeline's DB-writer group.

        ``final_fetch=True`` adds one closing fetch at ``t_end`` — what PCP
        does when P-MoVE "stops the sampling as the kernel is halted"
        (Scenario B); without it the tail window past the last tick is
        never observed.

        A ``tag`` or host that line protocol cannot carry
        (:func:`~repro.db.influx.check_names`) raises
        :class:`~repro.db.influx.InfluxError` before the first tick, in
        every mode: a buffered or spilling run cannot fail mid-ship.
        """
        if freq_hz <= 0:
            raise ValueError("sampling frequency must be positive")
        if t_end <= t_start:
            raise ValueError("empty sampling window")
        if mode not in ("unbuffered", "buffered", "durable"):
            raise ValueError(f"unknown sampling mode {mode!r}")
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"repeated metric in {metrics!r}")
        tag = tag or str(uuid.uuid4())
        tags = {"tag": tag, "host": self.host} if self.host else {"tag": tag}
        for metric in metrics:  # a name no line carries fails here, not mid-ship
            check_names(metric_to_measurement(metric), tags, ())
        config = shipper_config or ShipperConfig()
        if mode == "durable":
            if pipeline is None:
                raise ValueError("mode='durable' needs an IngestPipeline")
            sink = _LogSink(tag, pipeline, t_start, config.drain_grace_s)
        elif mode == "buffered":
            sink = _QueueSink(self, tag, config, freq_hz, t_start)
        else:
            sink = _DirectSink(self, t_start)
        stats = self._run(metrics, freq_hz, t_start, t_end, tags, final_fetch, mode, sink)
        self.last_stats = stats
        if stats.inserted_reports > 0:
            self.last_success_t = t_end
        return stats

    # ------------------------------------------------------------------
    def _run(self, metrics: list[str], freq_hz: float, t_start: float, t_end: float,
             tags: dict[str, str], final_fetch: bool, mode: str,
             sink) -> SamplingStats:
        """The one tick loop: tick, fetch, hand the report to ``sink``.

        pmcd-side physics is the same whatever the sink: scheduling hiccups
        lose ticks and sub-floor periods go stale-zero.  What a mode changes
        is where a report goes, and the order of draws on the sampler's
        generator is part of each mode's contract (the Table III digits
        hang on it): whatever ``before_tick`` draws, then the hiccup draw —
        none on a tick the sink refused — then the zero draw, the fetch,
        whatever ``deliver`` draws; the closing fetch draws nothing here.
        """
        period = 1.0 / freq_hz
        n_ticks = int(round((t_end - t_start) * freq_hz))
        p_zero = self.transport.zero_batch_probability(period)
        hiccup = self.transport.hiccup_rate(self._rng)

        points_per_report: int | None = None
        last_fetch_t = t_start
        lost = 0

        for k in range(1, n_ticks + 1):
            tick = t_start + k * period
            if not sink.before_tick(k, tick):
                continue
            if self._rng.random() < hiccup:
                lost += 1  # pmcd scheduling hiccup: the fetch never happens
                continue
            is_zero = self._rng.random() < p_zero
            if is_zero:
                # Stale snapshot: the agent answers with zeros and its read
                # cursor does not advance.
                report = self.pmcd.fetch(metrics, tick, tick).zeroed()
            else:
                report = self.pmcd.fetch(metrics, last_fetch_t, tick)
                last_fetch_t = tick
            if points_per_report is None:
                points_per_report = report.n_points
            sink.deliver(tick, report, self._batch(report, tags), is_zero, False)

        if final_fetch and last_fetch_t < t_end:
            report = self.pmcd.fetch(metrics, last_fetch_t, t_end)
            if points_per_report is None:
                points_per_report = report.n_points
            sink.deliver(t_end, report, self._batch(report, tags), False, True)

        counters = sink.finish(t_end)
        if points_per_report is None:
            # Nothing delivered; derive the domain size from a dry fetch.
            points_per_report = self.pmcd.fetch(metrics, t_start, t_end).n_points
        return SamplingStats(
            freq_hz=freq_hz,
            n_metrics=len(metrics),
            duration_s=t_end - t_start,
            expected_points=n_ticks * points_per_report,
            expected_reports=n_ticks,
            lost_reports=lost + counters.pop("lost_reports", 0),
            tag=tags["tag"],
            mode=mode,
            **counters,
        )

    # ------------------------------------------------------------------
    def sampling_overhead(self, freq_hz: float) -> float:
        """Fractional kernel-runtime dilation caused by sampling at
        ``freq_hz`` (Fig 5): each perf read interrupts the cores briefly.

        ~3 µs of stolen time per sample per second of runtime — order
        0.01 % at the paper's frequencies, exactly the magnitude §V-C
        reports."""
        if freq_hz < 0:
            raise ValueError("negative frequency")
        return 3.2e-6 * freq_hz


class _DirectSink:
    """§V-A's pipeline: no buffer, no retry — the sampler ships and inserts
    each report itself, a tick that fires meanwhile is lost before any draw,
    and an insert a service fault rejects is simply gone."""

    def __init__(self, sampler: "Sampler", t_start: float) -> None:
        self.sampler = sampler
        self.busy_until = t_start
        self.counters = dict.fromkeys(
            ("inserted_points", "zero_points", "inserted_reports", "zero_reports",
             "lost_reports"), 0)

    def before_tick(self, k: int, tick: float) -> bool:
        if tick < self.busy_until:
            self.counters["lost_reports"] += 1  # sampler still busy -> tick dropped
            return False
        return True

    def deliver(self, t: float, report: Report, batch: list[Point], is_zero: bool,
                final: bool) -> None:
        s, c = self.sampler, self.counters
        if not final:  # the closing fetch is inserted as sampling stops
            t = self.busy_until = t + s.transport.ship_time(report.n_points, s._rng)
        try:
            write_at(s.influx, t, s.database, batch)
        except ServiceUnavailable:
            c["lost_reports"] += 1
            return
        n = sum(len(p.fields) for p in batch)
        c["inserted_reports"] += 1
        c["inserted_points"] += n
        if is_zero:
            c["zero_reports"] += 1
            c["zero_points"] += n

    def finish(self, t_end: float) -> dict:
        return self.counters


class _QueueSink:
    """Reports queue in a :class:`Shipper`, serviced before each tick; on a
    deep queue the tick stride doubles (a skipped tick is degraded, not
    lost, and draws nothing) and a shallow one restores it."""

    def __init__(self, sampler: "Sampler", tag: str, config: ShipperConfig,
                 freq_hz: float, t_start: float) -> None:
        self.tag = tag
        self.freq_hz = freq_hz
        self.shipper = sampler.last_shipper = Shipper(
            sampler.influx, sampler.database, sampler.transport, config,
            rng=sampler._rng)
        self.trace = sampler.last_degradation = [(t_start, 1)]
        self.high_wm = max(1, int(math.ceil(_BACKPRESSURE_HIGH * config.capacity)))
        self.low_wm = int(_BACKPRESSURE_LOW * config.capacity)
        self.stride = 1
        self.degraded = 0
        self.min_eff_freq = freq_hz

    def before_tick(self, k: int, tick: float) -> bool:
        self.shipper.advance(tick)
        depth = len(self.shipper)
        stride = self.stride
        if not self.shipper.config.adaptive_degradation:
            stride = 1
        elif depth >= self.high_wm:
            stride = min(stride * 2, _MAX_STRIDE)
        elif depth <= self.low_wm:
            stride = 1
        if stride != self.stride:
            self.stride = stride
            self.trace.append((tick, stride))
        self.min_eff_freq = min(self.min_eff_freq, self.freq_hz / stride)
        if k % stride:
            self.degraded += 1
            return False
        return True

    def deliver(self, t: float, report: Report, batch: list[Point], is_zero: bool,
                final: bool) -> None:
        self.shipper.offer(t, t, batch, report.n_points, is_zero, self.tag)

    def finish(self, t_end: float) -> dict:
        shipper = self.shipper
        end_t = shipper.drain(t_end + shipper.config.drain_grace_s)
        return {
            **{name: getattr(shipper, name) for name in _SHIPPER_COUNTERS},
            "degraded_ticks": self.degraded,
            "breaker_open_s": shipper.breaker.open_seconds(max(end_t, t_end)),
            "effective_freq_hz": self.min_eff_freq,
        }


class _LogSink:
    """Reports are produced into the commit log; its consumers run between
    ticks and are drained after the run.  The transport queue is gone — the
    log *is* the queue, and appends are local, so there is no backpressure
    to degrade under.  Loss can only happen downstream, where the chaos
    suite proves there is none (or it is parked, visibly, in the DLQ).  The
    pipeline outlives the run, so the stats are deltas of its counters."""

    def __init__(self, tag: str, pipeline, t_start: float, grace_s: float) -> None:
        self.tag = tag
        self.pipeline = pipeline
        self.grace_s = grace_s
        self.writers = pipeline.group_members("db-writer")
        self.before = self._counters()
        self.open_before = sum(c.breaker.open_seconds(t_start) for c in self.writers)

    def _counters(self) -> dict[str, int]:
        """What a run reports deltas of: the db-writer group's counters and
        whole reports, the producer's records and every group's parks."""
        ws, p = self.writers, self.pipeline.producer
        trackers = {id(c.tracker): c.tracker for c in ws}.values()
        return {
            "inserted_points": sum(c.applied_points for c in ws),
            "zero_points": sum(c.zero_points for c in ws),
            "inserted_reports": sum(t.reports for t in trackers),
            "zero_reports": sum(t.zero_reports for t in trackers),
            "produced_records": p.produced_records,
            "applied_records": sum(c.applied_records for c in ws),
            "duplicate_records": sum(c.duplicate_records for c in ws),
            "parked_records": sum(c.parked_records for c in self.pipeline.consumers),
            "resent_records": p.resent_records,
        }

    def before_tick(self, k: int, tick: float) -> bool:
        self.pipeline.pump(tick)
        return True

    def deliver(self, t: float, report: Report, batch: list[Point], is_zero: bool,
                final: bool) -> None:
        self.pipeline.producer.produce(t, t, batch, self.tag, is_zero)

    def finish(self, t_end: float) -> dict:
        pipeline, writers = self.pipeline, self.writers
        pipeline.producer.flush(t_end)
        end_t = pipeline.drain(t_end + self.grace_s)
        open_s = sum(c.breaker.open_seconds(max(end_t, t_end)) for c in writers)
        return {
            **{k: n - self.before[k] for k, n in self._counters().items()},
            "breaker_open_s": open_s - self.open_before,
            "max_staleness_s": max((c.max_staleness_s for c in writers), default=0.0),
            "max_group_lag": pipeline.max_group_lag,
            "backlog_records": pipeline.backlog_records(),
        }
