"""Unit tests for the resilient shipping layer: queue policies, circuit
breaker state machine, backoff, and WAL spill/replay."""

import numpy as np
import pytest

from repro.db import FaultyInfluxDB, InfluxDB, Point, ShardedInfluxDB
from repro.faults import DbOutage, ServiceFaultSet
from repro.pcp import CircuitBreaker, Shipper, ShipperConfig, TransportModel


def make_shipper(config=None, faults=None, seed=0):
    influx = InfluxDB()
    influx.create_database("db")
    if faults is not None:
        influx = FaultyInfluxDB(influx, faults)
    transport = TransportModel(jitter_rel_std=0.0, hiccup_rate_max=0.0)
    return Shipper(influx, "db", transport, config,
                   rng=np.random.default_rng(seed)), influx


def batch(t, v=1.0):
    return [Point(measurement="m", tags={"tag": "x"}, fields={"f": v}, time=t)]


def offer(shipper, t, v=1.0):
    return shipper.offer(t, t, batch(t, v), 1, False, "x")


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            ShipperConfig(capacity=0)
        with pytest.raises(ValueError):
            ShipperConfig(policy="drop_everything")
        with pytest.raises(ValueError):
            ShipperConfig(backoff_base_s=0.0)
        with pytest.raises(ValueError):
            ShipperConfig(backoff_base_s=1.0, backoff_cap_s=0.5)
        with pytest.raises(ValueError):
            ShipperConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ShipperConfig(breaker_open_s=0)
        with pytest.raises(ValueError):
            ShipperConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ShipperConfig(drain_grace_s=-1)


class TestQueuePolicies:
    def test_drop_oldest_evicts_head(self):
        s, _ = make_shipper(ShipperConfig(capacity=2, policy="drop_oldest"))
        for t in (1.0, 2.0, 3.0):
            assert offer(s, t)
        assert s.dropped_by_policy == 1
        assert [i.report_time for i in s.queue] == [2.0, 3.0]
        assert s.max_queue_depth == 2

    def test_drop_newest_rejects_arrival(self):
        s, _ = make_shipper(ShipperConfig(capacity=2, policy="drop_newest"))
        assert offer(s, 1.0) and offer(s, 2.0)
        assert not offer(s, 3.0)
        assert s.dropped_by_policy == 1
        assert [i.report_time for i in s.queue] == [1.0, 2.0]

    def test_spill_moves_oldest_to_wal(self):
        s, _ = make_shipper(ShipperConfig(capacity=2, policy="spill"))
        for t in (1.0, 2.0, 3.0):
            offer(s, t)
        assert s.spilled_reports == 1
        assert s.dropped_by_policy == 0
        assert len(s.wal) == 1
        assert s.wal[0].time == 1.0

    def test_wal_replay_backfills_original_timestamps(self):
        s, influx = make_shipper(ShipperConfig(capacity=1, policy="spill"))
        offer(s, 1.0, v=41.0)
        offer(s, 2.0, v=42.0)  # evicts t=1 to WAL
        written = s.replay_wal()
        assert written == 1
        assert s.wal == []
        pts = influx.points("db", "m")
        assert len(pts) == 1
        assert pts[0].time == 1.0 and pts[0].fields == {"f": 41.0}


class TestWorker:
    def test_healthy_drain_inserts_everything(self):
        s, influx = make_shipper()
        for t in (1.0, 2.0, 3.0):
            offer(s, t)
        s.drain(100.0)
        assert s.inserted_reports == 3
        assert len(influx.points("db", "m")) == 3
        assert s.retried_reports == 0
        assert s.unshipped_reports == 0

    def test_one_report_in_flight(self):
        """advance(now) only starts attempts strictly before now."""
        s, influx = make_shipper()
        offer(s, 1.0)
        offer(s, 1.0)
        s.advance(1.0)  # nothing may start before t=1.0
        assert s.inserted_reports == 0
        mean = s.transport.mean_ship_time(1)
        s.advance(1.0 + 0.5 * mean)  # first started, still in flight
        assert s.inserted_reports == 1  # completion is recorded eagerly
        assert s.free_at == pytest.approx(1.0 + mean)

    def test_retry_until_outage_ends(self):
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=5.0)])
        s, influx = make_shipper(faults=faults)
        offer(s, 1.0)
        s.drain(60.0)
        assert s.inserted_reports == 1
        assert s.retried_reports == 1
        assert s.recovered_reports == 1
        assert len(influx.points("db", "m")) == 1
        # The successful insert happened after the outage lifted.
        assert s.last_event_t > 5.0

    def test_max_attempts_gives_up(self):
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=1e9)])
        s, _ = make_shipper(ShipperConfig(max_attempts=3), faults=faults)
        offer(s, 1.0)
        s.drain(1e6)
        assert s.inserted_reports == 0
        assert s.dropped_by_policy == 1
        assert len(s.queue) == 0

    def test_max_attempts_spills_under_spill_policy(self):
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=1e9)])
        s, _ = make_shipper(ShipperConfig(max_attempts=3, policy="spill"),
                            faults=faults)
        offer(s, 1.0)
        s.drain(1e6)
        assert s.spilled_reports == 1
        assert len(s.wal) == 1

    def test_drain_deadline_counts_unshipped(self):
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=1e9)])
        s, _ = make_shipper(faults=faults)
        offer(s, 1.0)
        offer(s, 2.0)
        s.drain(10.0)  # outage never lifts within the deadline
        assert s.unshipped_reports == 2
        assert s.inserted_reports == 0

    def test_backoff_bounded_by_cap(self):
        cfg = ShipperConfig(backoff_base_s=0.1, backoff_cap_s=0.4)
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=1e9)])
        s, _ = make_shipper(cfg, faults=faults)
        offer(s, 1.0)
        s.advance(30.0)
        item = s.queue[0]
        assert item.attempts > 10  # kept retrying
        assert 0.1 <= item.prev_sleep <= 0.4


class TestBareEngineWithFaults:
    """``Shipper(engine, faults=...)`` on an engine that is not the fault
    proxy: the shipper wraps it, so the fault set decides every write.  The
    router keeps a clock of its own (``at``, for shard faults) and a
    ``faults`` of its own (node faults) — neither makes it the proxy."""

    @pytest.mark.parametrize("engine", [InfluxDB, lambda: ShardedInfluxDB(2)],
                             ids=["engine", "router"])
    def test_outage_rejects_the_write(self, engine):
        influx = engine()
        influx.create_database("db")
        s = Shipper(influx, "db", TransportModel(jitter_rel_std=0.0),
                    faults=ServiceFaultSet([DbOutage(t0=0.0, t1=100.0)]),
                    rng=np.random.default_rng(0))
        offer(s, 1.0)
        s.drain(50.0)
        assert s.inserted_reports == 0
        assert s.unshipped_reports == 1
        assert influx.points("db", "m") == []
        offer(s, 101.0)
        s.drain(200.0)  # the outage is over: the same shipper gets through
        assert s.inserted_reports == 1
        assert len(influx.points("db", "m")) == 1

    def test_router_without_faults_ships(self):
        """The router's node-fault set is not a service-fault set: it prices
        no attempt (it used to be handed to ``ship_time`` and raise)."""
        influx = ShardedInfluxDB(2)
        influx.create_database("db")
        s = Shipper(influx, "db", TransportModel(), rng=np.random.default_rng(0))
        assert s.faults is None
        offer(s, 1.0)
        s.drain(50.0)
        assert s.inserted_reports == 1


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        b = CircuitBreaker(threshold=3, open_s=1.0)
        for k in range(2):
            b.record_failure(float(k))
        assert b.state == b.CLOSED
        b.record_failure(2.0)
        assert b.state == b.OPEN
        assert b.transitions == [(2.0, b.OPEN)]

    def test_open_blocks_until_cooldown(self):
        b = CircuitBreaker(threshold=1, open_s=2.0)
        b.record_failure(10.0)
        assert b.earliest_attempt(10.5) == 12.0
        assert b.earliest_attempt(13.0) == 13.0

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker(threshold=1, open_s=1.0)
        b.record_failure(0.0)
        b.on_attempt(1.5)
        assert b.state == b.HALF_OPEN
        b.record_success(1.6)
        assert b.state == b.CLOSED
        assert [s for _, s in b.transitions] == [b.OPEN, b.HALF_OPEN, b.CLOSED]

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(threshold=2, open_s=1.0)
        b.record_failure(0.0)
        b.record_failure(0.5)
        b.on_attempt(1.5)
        b.record_failure(1.6)  # single probe failure re-opens immediately
        assert b.state == b.OPEN
        assert b.opened_at == 1.6

    def test_open_seconds_accumulates(self):
        b = CircuitBreaker(threshold=1, open_s=1.0)
        b.record_failure(0.0)  # open [0, 1.5)
        b.on_attempt(1.5)
        b.record_failure(1.6)  # open [1.6, ...)
        assert b.open_seconds(2.6) == pytest.approx(1.5 + 1.0)

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(threshold=3, open_s=1.0)
        b.record_failure(0.0)
        b.record_failure(0.1)
        b.record_success(0.2)
        b.record_failure(0.3)
        b.record_failure(0.4)
        assert b.state == b.CLOSED  # streak restarted, threshold not hit


class TestShipperBreakerIntegration:
    def test_breaker_pauses_attempts_during_outage(self):
        cfg = ShipperConfig(breaker_threshold=2, breaker_open_s=1.0,
                            backoff_base_s=0.01, backoff_cap_s=0.02)
        faults = ServiceFaultSet([DbOutage(t0=0.0, t1=10.0)])
        s, _ = make_shipper(cfg, faults=faults)
        offer(s, 0.5)
        s.drain(60.0)
        states = [st for _, st in s.breaker.transitions]
        assert states[0] == "open"
        assert "half_open" in states
        assert states[-1] == "closed"
        # While open, the worker held off instead of hammering: the number
        # of attempts is bounded by ~open windows, not ~outage/backoff.
        assert s.queue == type(s.queue)()  # drained
        assert s.inserted_reports == 1
        assert s.breaker.open_seconds(s.last_event_t) > 5.0


class TestWalReplayIdempotence:
    """Satellite regression: replay_wal must be idempotent — under repeated
    invocation AND under a crash that loses the pop but not the write."""

    def spill_two(self):
        s, influx = make_shipper(ShipperConfig(capacity=1, policy="spill"))
        offer(s, 1.0, v=41.0)
        offer(s, 2.0, v=42.0)  # evicts t=1
        offer(s, 3.0, v=43.0)  # evicts t=2
        return s, influx

    def test_double_replay_writes_nothing_twice(self):
        s, influx = self.spill_two()
        assert s.replay_wal() == 2
        assert s.replay_wal() == 0
        assert len(influx.points("db", "m")) == 2

    def test_crash_between_write_and_pop_is_safe(self):
        """Simulate dying mid-replay with the head entry landed but still
        in the WAL: a restart that replays the restored WAL skips it."""
        s, influx = self.spill_two()
        entries = list(s.wal)
        assert s.replay_wal() == 2
        s.wal = entries  # the crash-restored WAL snapshot, pops lost
        assert s.replay_wal() == 0  # seqs recorded -> nothing re-inserted
        assert len(influx.points("db", "m")) == 2

    def test_pre_dedup_entries_always_replay(self):
        """WalEntry(seq=-1) predates the seq stamp (e.g. deserialized from
        an old WAL file): replayed unconditionally, like before."""
        from repro.pcp import WalEntry

        s, influx = make_shipper()
        entry = WalEntry(time=1.0, tag="x", lines=batch(1.0)[0].to_line(),
                         n_fields=1)
        s.wal = [entry]
        assert s.replay_wal() == 1
        s.wal = [entry]
        assert s.replay_wal() == 1  # no seq, no memory: legacy behavior
        assert len(influx.points("db", "m")) == 2


class TestHalfOpenSingleProbe:
    """Satellite fix: half-open admits exactly one unresolved probe."""

    def open_breaker(self):
        b = CircuitBreaker(threshold=1, open_s=1.0)
        b.on_attempt(0.0)
        b.record_failure(0.0)  # open [0, 1)
        assert b.state == b.OPEN
        return b

    def test_second_caller_waits_while_probe_unresolved(self):
        b = self.open_breaker()
        t = b.earliest_attempt(1.2)
        assert t == 1.2
        b.on_attempt(t)  # admitted: the half-open probe
        assert b.state == b.HALF_OPEN
        assert b.half_open_probes == 1
        # A second attempt while the probe is in flight is pushed a full
        # open window past the probe's start, not admitted immediately.
        assert b.earliest_attempt(1.3) == pytest.approx(1.2 + 1.0)
        b.on_attempt(1.3)  # even if forced, it is not counted as a probe
        assert b.half_open_probes == 1

    def test_probe_success_closes_and_releases(self):
        b = self.open_breaker()
        b.on_attempt(b.earliest_attempt(1.5))
        b.record_success(1.6)
        assert b.state == b.CLOSED
        assert b.earliest_attempt(1.7) == 1.7  # gate released

    def test_probe_failure_reopens_fresh_window(self):
        b = self.open_breaker()
        b.on_attempt(b.earliest_attempt(1.5))
        b.record_failure(1.6)
        assert b.state == b.OPEN
        assert b.earliest_attempt(1.7) == pytest.approx(1.6 + 1.0)
        # The next half-open window admits exactly one new probe.
        b.on_attempt(b.earliest_attempt(2.7))
        assert b.half_open_probes == 2

    def test_breaker_trace_under_flaky_writes(self):
        """closed -> open -> half_open -> closed through a real shipper
        under a flaky window, with one probe per half-open transition."""
        from repro.faults import FlakyWrites

        cfg = ShipperConfig(breaker_threshold=2, breaker_open_s=0.5,
                            backoff_base_s=0.01, backoff_cap_s=0.05)
        faults = ServiceFaultSet([FlakyWrites(t0=0.0, t1=6.0, p_fail=0.9, seed=3)])
        s, _ = make_shipper(cfg, faults=faults)
        for t in (0.5, 1.0, 1.5, 2.0):
            offer(s, t)
        s.drain(60.0)
        states = [st for _, st in s.breaker.transitions]
        assert states[0] == "open"
        assert states[-1] == "closed"
        assert "half_open" in states
        # Exactly one probe admitted per half-open window.
        assert s.breaker.half_open_probes == states.count("half_open")
        # The trace alternates legally: half_open only ever follows open.
        for prev, cur in zip(states, states[1:]):
            if cur == "half_open":
                assert prev == "open"
        assert len(s.queue) == 0 and s.inserted_reports == 4
