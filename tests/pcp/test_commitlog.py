"""Unit tests for the durable-ingest commit log and its consumer groups.

Covers the mechanics — placement, segments, the flushed high-watermark,
truncation, producer retention/resend, group rebalance, checkpoints, the
dead-letter queue — plus the idempotence gates on a small end-to-end
pipeline.  The full fault matrix lives in ``test_commitlog_chaos.py``.
"""

import pytest

from repro.db import InfluxDB, Point
from repro.db.sharded import HashRing, series_key
from repro.faults import ConsumerCrash, LogFaultSet, LogTruncation
from repro.pcp import (
    AnomalyScannerConsumer,
    CommitLog,
    DbWriterConsumer,
    IngestPipeline,
    LogProducer,
    ReportTracker,
    RollupMaintainerConsumer,
)


def pts(topic, n, t0=0.0, tag="t", host="h0"):
    return [
        Point(topic, {"tag": tag, "host": host}, {"value": float(i)}, t0 + i)
        for i in range(n)
    ]


def report(n_topics=2, n=1, t0=0.0, tag="t"):
    out = []
    for k in range(n_topics):
        out.extend(pts(f"m{k}", n, t0=t0, tag=tag))
    return out


class TestPlacement:
    def test_partition_matches_shard_ring(self):
        """Log partitioning and PR 6 shard placement use the same hash —
        a series lands on partition i iff the ring places its key on p_i."""
        log = CommitLog(n_partitions=4)
        ring = HashRing([f"p{i}" for i in range(4)], vnodes=16)
        for tag in ("a", "b", "c", "d", "e"):
            tags = {"tag": tag, "host": "h0"}
            expect = int(ring.place(series_key("m0", tuple(sorted(tags.items()))))[1:])
            assert log.partition_for("m0", tags) == expect

    def test_placement_is_memoized_and_stable(self):
        log = CommitLog(n_partitions=8)
        tags = {"tag": "x"}
        first = log.partition_for("cpu", tags)
        assert all(log.partition_for("cpu", tags) == first for _ in range(5))


class TestSegmentsAndWatermark:
    def test_unflushed_records_are_invisible(self):
        log = CommitLog(n_partitions=1)
        log.join("g", "c0")
        log.append("m0", 0, seq=log.next_seq(), time=0.0, lines="", n_fields=0, tag="t")
        assert log.poll("g", "c0", ("m0", 0), 10) == []
        log.flush()
        assert len(log.poll("g", "c0", ("m0", 0), 10)) == 1

    def test_segment_roll_and_trim(self):
        log = CommitLog(n_partitions=1, segment_records=4)
        for _ in range(10):
            log.append("m0", 0, seq=log.next_seq(), time=0.0, lines="", n_fields=0,
                       tag="t")
        log.flush()
        p = log._topic("m0")[0]
        assert [len(s) for s in p.segments] == [4, 4, 2]
        log.join("g", "c0")
        log.commit("g", ("m0", 0), offset=9, applied_seq=9)
        assert log.trim() == 8  # two full segments below the floor
        assert p.start_offset == 8
        assert p.next_offset == 10  # offsets never move backwards

    def test_truncation_loses_exactly_the_unflushed_tail(self):
        log = CommitLog(n_partitions=1)
        for _ in range(3):
            log.append("m0", 0, seq=log.next_seq(), time=0.0, lines="", n_fields=0,
                       tag="t")
        log.flush()
        tail = [
            log.append("m0", 0, seq=log.next_seq(), time=0.0, lines="", n_fields=0,
                       tag="t")
            for _ in range(2)
        ]
        log.faults.inject(LogTruncation(at=1.0))
        log.at(1.0)
        assert log.truncated_records == 2
        assert all(not log.has_record(r) for r in tail)
        assert log.end_offset("m0", 0) == 3  # durable prefix intact

    def test_an_empty_fault_set_handed_in_is_the_one_consulted(self):
        faults = LogFaultSet()
        log = CommitLog(n_partitions=1, faults=faults)
        assert log.faults is faults
        log.append("m0", 0, seq=log.next_seq(), time=0.0, lines="", n_fields=0,
                   tag="t")
        faults.inject(LogTruncation(at=1.0))
        log.at(1.0)
        assert log.truncated_records == 1


class TestProducer:
    def test_report_splits_per_measurement_partition(self):
        log = CommitLog(n_partitions=4)
        prod = LogProducer(log)
        batch = report(n_topics=3, n=2)
        records = prod.produce(0.0, 0.0, batch, "t")
        assert {r.topic for r in records} == {"m0", "m1", "m2"}
        assert all(r.report_records == len(records) for r in records)
        assert len({r.report_id for r in records}) == 1
        assert sum(r.n_fields for r in records) == len(batch)
        # Default cadence fsyncs every report: everything already durable.
        assert len(prod) == 0
        assert all(log.flushed_offset(r.topic, r.partition) > r.offset
                   for r in records)

    def test_truncation_resend_same_seqs(self):
        """The producer retains unacked records and re-appends them after a
        truncation under the SAME seq — zero loss, and the idempotence
        token survives the crash."""
        log = CommitLog(n_partitions=2)
        prod = LogProducer(log, fsync_every_reports=100)  # keep a tail
        recs = prod.produce(0.0, 0.0, report(n_topics=2), "t")
        assert len(prod) == len(recs)
        log.faults.inject(LogTruncation(at=1.0))
        prod.flush(1.0)  # applies the truncation, then reconciles + fsyncs
        assert log.truncated_records == len(recs)
        assert prod.resent_records == len(recs)
        assert len(prod) == 0
        seen = []
        log.join("g", "c0")
        for tp in log.all_partitions():
            seen.extend(r.seq for r in log.poll("g", "c0", tp, 100))
        assert sorted(seen) == sorted(r.seq for r in recs)


class TestGroups:
    def make_log(self, n_topics=2):
        log = CommitLog(n_partitions=2)
        prod = LogProducer(log)
        prod.produce(0.0, 0.0, report(n_topics=n_topics), "t")
        return log

    def test_round_robin_assignment_is_a_partition(self):
        log = self.make_log()
        for c in ("a", "b", "c"):
            log.join("g", c)
        parts = log.all_partitions()
        union = []
        for c in ("a", "b", "c"):
            mine = log.assignment("g", c)
            for other in ("a", "b", "c"):
                if other != c:
                    assert not set(mine) & set(log.assignment("g", other))
            union.extend(mine)
        assert sorted(union) == sorted(parts)

    def test_leave_hands_partitions_to_survivors(self):
        log = self.make_log()
        log.join("g", "a")
        log.join("g", "b")
        gen = log.generation("g")
        log.leave("g", "b")
        assert log.generation("g") == gen + 1
        assert sorted(log.assignment("g", "a")) == sorted(log.all_partitions())
        assert log.assignment("g", "b") == []

    def test_rebalance_resets_position_to_checkpoint(self):
        """An uncommitted read position does not survive a rebalance: the
        next poll restarts from the committed checkpoint (redelivery)."""
        log = self.make_log()
        log.join("g", "a")
        tp = log.all_partitions()[0]
        first = log.poll("g", "a", tp, 100)
        assert first
        assert log.poll("g", "a", tp, 100) == []  # position advanced
        log.join("g", "b")  # membership change => rebalance
        owner = "a" if tp in log.assignment("g", "a") else "b"
        again = log.poll("g", owner, tp, 100)
        assert [r.offset for r in again] == [r.offset for r in first]

    def test_lag_accounting(self):
        log = self.make_log()
        log.join("g", "a")
        assert log.total_lag("g") == log.flushed_records
        for tp in log.all_partitions():
            recs = log.poll("g", "a", tp, 100)
            if recs:
                log.commit("g", tp, recs[-1].offset + 1, recs[-1].seq)
        assert log.total_lag("g") == 0


class TestDeadLetterQueue:
    def make_poisoned(self):
        log = CommitLog(n_partitions=2)
        rec = log.inject_poison("m0", tags={"tag": "t"}, time=1.0)
        return log, rec

    def test_park_dedups_by_group_and_seq(self):
        log, rec = self.make_poisoned()
        assert log.park("g", rec, "parse-error", "boom", 0) is not None
        assert log.park("g", rec, "parse-error", "boom", 0) is None  # replayed
        assert log.park("h", rec, "parse-error", "boom", 0) is not None
        assert log.dlq.parked_total == 2
        assert log.dlq.summary() == {"g": 1, "h": 1}

    def test_requeue_fresh_seq_targeted_at_parking_group(self):
        """Requeued copies carry a fresh seq (monotonicity) and a
        ``for_group`` target — the groups that already settled the original
        must not see it again."""
        log, rec = self.make_poisoned()
        log.park("g", rec, "apply-error", "down", 3)
        assert log.requeue() == 1
        log.join("g", "c0")
        log.join("h", "c1")
        tp = ("m0", rec.partition)
        fresh = [r for r in log.poll("g", "c0", tp, 100) if r.offset != rec.offset]
        assert len(fresh) == 1
        assert fresh[0].seq > rec.seq
        assert fresh[0].for_group == "g"
        assert fresh[0].lines == rec.lines
        assert log.dlq.requeued_total == 1

    def test_dlq_dicts_are_ci_artifact_ready(self):
        log, rec = self.make_poisoned()
        log.park("g", rec, "parse-error", "bad line", 0)
        (d,) = log.dlq.to_dicts()
        assert d["group"] == "g" and d["topic"] == "m0"
        assert d["seq"] == rec.seq and d["reason"] == "parse-error"


class TestPipelineEndToEnd:
    def make_pipeline(self, **log_kw):
        log = CommitLog(n_partitions=4, **log_kw)
        pipe = IngestPipeline(log)
        influx = InfluxDB()
        tracker = ReportTracker()
        pipe.add(DbWriterConsumer(log, influx, "pmove", tracker=tracker, seed=1))
        pipe.add(RollupMaintainerConsumer(log, tier_s=10.0, seed=2))
        pipe.add(AnomalyScannerConsumer(log, bounds={"m0": (0.0, 5.0)}, seed=3))
        return pipe, influx

    def run_ticks(self, pipe, n_reports=6, n_topics=2, points_each=3):
        for k in range(n_reports):
            t = float(k + 1)
            pipe.pump(t)
            pipe.produce(t, t, report(n_topics=n_topics, n=points_each, t0=t), "t")
        return pipe.drain(n_reports + 60.0)

    def test_all_groups_apply_everything_once(self):
        pipe, influx = self.make_pipeline()
        self.run_ticks(pipe)
        c = pipe.flat_counters()
        assert c["producer.records"] == c["db-writer.applied_records"]
        assert c["producer.records"] == c["rollup.applied_records"]
        assert c["producer.points"] == c["db-writer.applied_points"]
        assert c["db-writer.duplicate_records"] == 0
        assert pipe.backlog_records() == 0
        # Engine-level: every point stored exactly once.
        stored = sum(
            len(influx.points("pmove", m)) for m in influx.measurements("pmove")
        )
        assert stored == c["producer.points"]

    def test_rollups_match_the_data(self):
        pipe, _ = self.make_pipeline()
        self.run_ticks(pipe, n_reports=4, n_topics=1, points_each=3)
        (rollup,) = pipe.group_members("rollup")
        rolled = rollup.rollups()
        # 4 reports x 3 points with values 0,1,2 -> count 12, total 12.
        assert rolled[("m0", 0.0)] == (12.0, 12.0, 0.0, 2.0)

    def test_anomaly_alerts_are_keyed_upserts(self):
        pipe, _ = self.make_pipeline()
        self.run_ticks(pipe, n_reports=2, n_topics=1, points_each=8)
        (scanner,) = pipe.group_members("anomaly")
        # Values 6, 7 exceed the (0, 5) bound in each report.  Report 1
        # flags times {7, 8}, report 2 flags {8, 9}: the shared time 8.0
        # collides on the content key and upserts -> 3 alerts, not 4.
        assert len(scanner.alerts) == 3
        assert sorted(k[2] for k in scanner.alerts) == [7.0, 8.0, 9.0]
        assert all(a["value"] > 5.0 for a in scanner.alerts.values())

    def test_poison_parks_instead_of_wedging(self):
        pipe, influx = self.make_pipeline()
        pipe.log.inject_poison("m0", tags={"tag": "t"}, time=0.5)
        self.run_ticks(pipe)
        c = pipe.flat_counters()
        assert c["db-writer.parked_records"] == 1
        assert c["db-writer.applied_records"] == c["producer.records"]
        assert set(pipe.log.dlq.summary()) == {"db-writer", "rollup", "anomaly"}
        assert pipe.backlog_records() == 0  # parked != stuck

    def test_health_surface_shape(self):
        pipe, _ = self.make_pipeline()
        self.run_ticks(pipe, n_reports=2)
        h = pipe.health()
        assert set(h["groups"]) == {"db-writer", "rollup", "anomaly"}
        for g in h["groups"].values():
            assert g["lag"] == 0
            assert g["members"][0]["alive"] is True
        assert h["producer"]["unacked"] == 0
        assert h["log"]["appended_records"] == h["log"]["flushed_records"]

    def test_consumer_crash_windows_pause_polling(self):
        faults = LogFaultSet()
        faults.inject(ConsumerCrash(group="db-writer", consumer="db-writer-0",
                                    t0=1.5, t1=4.0))
        log = CommitLog(n_partitions=2, faults=faults)
        pipe = IngestPipeline(log)
        influx = InfluxDB()
        pipe.add(DbWriterConsumer(log, influx, "pmove", cid="db-writer-0", seed=1))
        self.run_ticks(pipe, n_reports=5, n_topics=1)
        c = pipe.flat_counters()
        assert c["db-writer.applied_records"] == c["producer.records"]
        assert pipe.log.rebalances >= 3  # join, leave at crash, rejoin


class TestSeqGates:
    def test_engine_max_seq_tracks_pinned_writes(self):
        db = InfluxDB()
        db.create_database("d")
        batch = pts("m0", 2)
        db.write_many("d", batch, seqs=[7, 7])
        assert db.max_seq("d", "m0", batch[0].tags) == 7
        assert db.max_seq("d", "m0", {"tag": "nope"}) == -1
        assert db.max_seq("d", "missing") == -1

    def test_db_writer_sink_gate_skips_applied_record(self):
        """Crash redelivery: the checkpoint is stale but the sink already
        holds the record's points — the gate must skip, not double-write."""
        log = CommitLog(n_partitions=1)
        influx = InfluxDB()
        pipe = IngestPipeline(log)
        writer = pipe.add(DbWriterConsumer(log, influx, "pmove", seed=1))
        pipe.produce(1.0, 1.0, pts("m0", 2, t0=1.0), "t")
        pipe.drain(30.0)
        n_before = len(influx.points("pmove", "m0"))
        # Wipe the checkpoint: simulates dying after apply, before commit.
        log.checkpoints._docs.clear()
        log._rebalance("db-writer")
        pipe.drain(60.0)
        assert len(influx.points("pmove", "m0")) == n_before
        assert writer.duplicate_records >= 1
