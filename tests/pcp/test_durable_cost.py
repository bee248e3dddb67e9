"""What the durable path pays per record — counted, not timed.

One decode per record however many groups read it; no poll of a partition
that has nothing durable past the group's position (and virtual time where
it was: the fingerprints below were captured from the commit before
ready-partition polling); rollup checkpoints that copy the cells an apply
touched, not the partition's whole accumulator.
"""

import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.daemon import PMoVE
from repro.db import InfluxDB, Point
from repro.db.influxql import naive_execute
from repro.faults import ConsumerCrash, LogFaultSet
from repro.machine import SimulatedMachine, get_preset
from repro.pcp import (
    CommitLog,
    IngestPipeline,
    LogConsumer,
    RollupMaintainerConsumer,
)

SCENARIO_A_METRICS = [
    "kernel.percpu.cpu.idle", "kernel.percpu.cpu.user", "kernel.all.load",
    "kernel.all.pswitch", "mem.util.used", "mem.numa.alloc.hit",
]


def report(t, n_topics=3, n_points=2):
    return [
        Point(f"m{k}", {"tag": "t", "host": f"h{i}"},
              {"a": float(k + i), "b": t}, t)
        for k in range(n_topics) for i in range(n_points)
    ]


def log_records(log):
    return [
        rec
        for topic in log.topics()
        for p in log._topic(topic)
        for seg in p.segments
        for rec in seg.records
    ]


# ----------------------------------------------------------------------
# (iii) one decode per record, shared, and let go of at the floor
# ----------------------------------------------------------------------
class TestDecodeOnce:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        real = Point.from_line.__func__

        def from_line(cls, line):
            calls.append(line)
            return real(cls, line)

        monkeypatch.setattr(Point, "from_line", classmethod(from_line))
        return calls

    def pipeline(self):
        pipe = PMoVE(seed=3).enable_durable_ingest()
        assert sorted({c.group for c in pipe.consumers}) == [
            "anomaly", "db-writer", "rollup"]
        return pipe

    def test_three_groups_one_parse_per_point(self, spy):
        pipe = self.pipeline()
        for k in range(1, 9):
            pipe.pump(float(k))
            pipe.produce(float(k), float(k), report(float(k)), "t")
        pipe.drain(100.0)
        flat = pipe.flat_counters()
        produced = flat["producer.records"]
        assert produced >= 8 * 3  # at least one record per topic per report
        assert [flat[f"{g}.applied_records"] for g in
                ("db-writer", "rollup", "anomaly")] == [produced] * 3
        assert len(spy) == 8 * 6  # points produced, not points × groups
        assert len(set(spy)) == len(spy)

    def test_poison_is_parsed_and_parked_by_every_group(self, spy):
        pipe = self.pipeline()
        rec = pipe.log.inject_poison("m0", tags={"tag": "t"}, time=0.5)
        pipe.produce(1.0, 1.0, report(1.0), "t")
        pipe.drain(100.0)
        parked = [(e.group, e.reason) for e in pipe.log.dlq.entries
                  if e.record.seq == rec.seq]
        assert sorted(parked) == [
            ("anomaly", "parse-error"), ("db-writer", "parse-error"),
            ("rollup", "parse-error")]
        # a failed decode is never remembered: each group tried for itself
        assert spy.count(rec.lines) == 3
        assert rec._decoded is None
        assert len(spy) == 3 + 6

    def test_decoded_points_are_released_at_the_trim_floor(self):
        pipe = self.pipeline()
        log = pipe.log
        pipe.produce(1.0, 1.0, report(1.0), "t")
        laggard = pipe.group_members("anomaly")[0]
        for c in pipe.consumers:
            if c is not laggard:
                c.step(1.0, lambda t: True)
        held = log_records(log)
        # decoded by the first group, kept for the rest
        assert held and all(rec._decoded is not None for rec in held)
        point = weakref.ref(held[0]._decoded[0])

        log.trim()  # one group has not committed past them: still needed
        assert all(rec._decoded is not None for rec in held)
        laggard.step(1.0, lambda t: True)
        assert all(rec._decoded is not None for rec in held)

        log.trim()
        assert held == log_records(log)  # the tail segment itself survives
        assert all(rec._decoded is None for rec in held)
        gc.collect()
        assert point() is None
        assert not any(isinstance(o, Point) for rec in held
                       for o in gc.get_referents(rec))

    def test_a_group_that_joins_late_gets_its_own_decode_released(self):
        log = CommitLog(n_partitions=1)
        pipe = IngestPipeline(log)
        first = pipe.add(LogConsumer(log, group="first"))
        for k in range(1, 5):
            pipe.produce(float(k), float(k), report(float(k), 1, 1), "t")
        pipe.drain(50.0)
        assert all(rec._decoded is None for rec in log_records(log))
        late = pipe.add(LogConsumer(log, group="late"))
        late.step(60.0, lambda t: True)  # re-reads, and re-decodes, from 0
        assert all(rec._decoded is not None for rec in log_records(log))
        assert first.applied_records == late.applied_records == 4
        log.trim()
        assert all(rec._decoded is None for rec in log_records(log))


# ----------------------------------------------------------------------
# (iv) ready-partition polling: nothing empty is polled, nothing moves
# ----------------------------------------------------------------------
#: sha256 over log.stats(), checkpoints.snapshot(), flat_counters() (less
#: the ``interruptions`` counters it gained later), every consumer's
#: next_poll_t, the rollups, the alert count and every row of the host DB
#: after 200 windows — captured from commit 0ff56d3, where every consumer
#: walked its whole assignment on every step
PARENT_FINGERPRINTS = {
    0: "1484c816ed5228afa39ecf5dcd09171838f3bfc2e9af910b43bfbd69acc6341f",
    1: "acc3b7afaabfd73d30e23e3a5d0e24a4b0b166d097309d7dbbcc7ac9e1ebeef5",
    2: "3f1e206979dac6630566d8229e9510d09cef4a179e95e976c54730dd353d1048",
}


def fingerprint(daemon, pipe):
    db = hashlib.sha256()
    for m in daemon.influx.measurements("pmove"):
        rs = naive_execute(daemon.influx, "pmove", f'SELECT * FROM "{m}"')
        db.update(repr((m, rs.columns, [(t, list(r)) for t, r in rs.rows])).encode())
    doc = {
        "log": pipe.log.stats(),
        "checkpoints": pipe.log.checkpoints.snapshot(),
        "flat": {k: v for k, v in pipe.flat_counters().items()
                 if not k.endswith(".interruptions")},
        "next_poll_t": {c.cid: c.next_poll_t for c in pipe.consumers},
        "rollups": sorted(
            (k[0], k[1], *v)
            for c in pipe.group_members("rollup")
            for k, v in c.rollups().items()
        ),
        "alerts": len(daemon.anomaly_alerts),
        "db": db.hexdigest(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestReadyPartitionPolling:
    @pytest.mark.parametrize("seed", sorted(PARENT_FINGERPRINTS))
    def test_200_scenario_a_windows(self, seed, monkeypatch):
        polls = []
        entered = []
        real_poll, real_consume = CommitLog.poll, LogConsumer._consume_tp

        def poll(self, group, consumer, tp, max_records):
            records = real_poll(self, group, consumer, tp, max_records)
            polls.append(len(records))
            return records

        def consume(self, tp, t, alive):
            entered.append(tp)
            return real_consume(self, tp, t, alive)

        monkeypatch.setattr(CommitLog, "poll", poll)
        monkeypatch.setattr(LogConsumer, "_consume_tp", consume)

        daemon = PMoVE(env={"PMOVE_SHARDS": "4"}, seed=seed)
        machine = SimulatedMachine(get_preset("icl"), seed=seed)
        daemon.attach_target(machine)
        pipe = daemon.enable_durable_ingest()
        sampler = daemon.target("icl").sampler
        for _ in range(200):
            t0 = machine.clock.now()
            machine.advance(2.0)
            stats = sampler.run(SCENARIO_A_METRICS, 2.0, t0, t0 + 2.0,
                                tag=f"fp-{seed}", mode="durable", pipeline=pipe)
            assert stats.backlog_records == 0
            assert stats.applied_records == stats.produced_records

        # 24 partitions are assigned to each group, 6 ever hold a series
        assert len(pipe.log.all_partitions()) == 24
        assert len(set(entered)) == 6
        assert len(polls) == len(entered) and min(polls) >= 1
        delivered = sum(c.polled_records for c in pipe.consumers)
        assert sum(polls) == delivered == 3 * pipe.log.appended_records
        assert fingerprint(daemon, pipe) == PARENT_FINGERPRINTS[seed]

    def test_ready_is_what_poll_would_answer(self):
        log = CommitLog(n_partitions=4)
        pipe = IngestPipeline(log)
        c = pipe.add(LogConsumer(log, group="g", max_poll_records=2))
        assert log.ready("g", c.cid) == []
        for k in range(1, 4):
            pipe.produce(float(k), float(k), report(float(k)), "t")
        assignment = log.assignment("g", c.cid)
        assert len(assignment) == 12
        for _ in range(3):
            ready = log.ready("g", c.cid)
            assert ready == [tp for tp in assignment
                             if log.lag("g")[tp] or log.poll("g", c.cid, tp, 0)]
            nonempty = [tp for tp in assignment if log.poll("g", c.cid, tp, 1)]
            assert ready == nonempty  # same partitions, same (sorted) order
            log._rebalance("g")  # hand the polled records back
            c.step(10.0, lambda t: True)
        assert log.ready("g", c.cid) == [] and log.total_lag("g") == 0

    def test_assignment_is_recomputed_when_members_or_topics_change(self):
        log = CommitLog(n_partitions=2)
        log.join("g", "a")
        log.append("m0", 0, seq=1, time=0.0, lines="", n_fields=0, tag="t")
        first = log.assignment("g", "a")
        assert first == [("m0", 0), ("m0", 1)]
        assert log.assignment("g", "a") is first  # nothing moved: not rebuilt
        log.append("m1", 0, seq=2, time=0.0, lines="", n_fields=0, tag="t")
        assert log.assignment("g", "a") == [("m0", 0), ("m0", 1), ("m1", 0), ("m1", 1)]
        log.join("g", "b")
        assert log.assignment("g", "a") == [("m0", 0), ("m1", 0)]
        assert log.assignment("g", "b") == [("m0", 1), ("m1", 1)]
        log.leave("g", "a")
        assert log.assignment("g", "a") == []
        assert len(log.assignment("g", "b")) == 4


# ----------------------------------------------------------------------
# (v) rollup checkpoints: committed accumulator + overlay
# ----------------------------------------------------------------------
def rollup_pipeline(faults=None, **consumer_kw):
    log = CommitLog(n_partitions=2, faults=faults)
    pipe = IngestPipeline(log)
    rollup = pipe.add(RollupMaintainerConsumer(
        log, tier_s=10.0, cid="rollup-0", **consumer_kw))
    return pipe, rollup


def expected_rollups(stream, tier_s=10.0):
    out = {}
    for _, batch in stream:
        for p in batch:
            key = (p.measurement, (p.time // tier_s) * tier_s)
            for v in p.fields.values():
                c, tot, mn, mx = out.get(key, (0.0, 0.0, v, v))
                out[key] = (c + 1.0, tot + v, min(mn, v), max(mx, v))
    return out


#: (sample bucket, integer value) per point: buckets arrive out of order,
#: integer-valued floats add up exactly in whatever order partitions merge
streams = st.lists(
    st.lists(st.tuples(st.integers(0, 30), st.integers(-50, 50)),
             min_size=1, max_size=4),
    min_size=1, max_size=25,
)
#: (start, length) of crash windows over the first seconds, where the
#: stream below leaves a backlog: polls there return multi-record batches,
#: so a window's start lands between an apply and its commit
crashes = st.lists(
    st.tuples(st.floats(0.0, 4.0), st.floats(0.01, 1.0)), max_size=4)


class TestRollupCheckpoints:
    @given(streams, crashes, st.integers(1, 8), st.integers(1, 16),
           st.sampled_from([0.002, 0.05, 0.3]))
    @settings(max_examples=120, deadline=None)
    def test_any_crash_schedule_converges_on_the_clean_run(
        self, reports, windows, commit_every, max_poll, apply_cost
    ):
        stream = [
            (0.01 * (k + 1), [
                Point("cpu", {"host": f"h{i}"}, {"v": float(v)}, 10.0 * b + i)
                for i, (b, v) in enumerate(r)
            ])
            for k, r in enumerate(reports)
        ]
        faults = LogFaultSet()
        for t0, length in windows:
            faults.inject(ConsumerCrash("rollup", "rollup-0", t0, t0 + length),
                          allow_overlap=True)
        kw = dict(commit_every=commit_every, max_poll_records=max_poll,
                  apply_cost_base_s=apply_cost)
        rolled = []
        for f in (None, faults):
            pipe, rollup = rollup_pipeline(f, **kw)
            for t, batch in stream:
                pipe.pump(t)
                pipe.produce(t, t, batch, "c")
            pipe.drain(stream[-1][0] + 200.0)
            assert pipe.backlog_records() == 0
            rolled.append(rollup.rollups())
        assert rolled[0] == rolled[1] == expected_rollups(stream)

    def test_a_crash_window_closed_before_the_next_poll_skips_nothing(self):
        """Found by the property above.  The consumer dies holding a polled,
        uncommitted record and is back before its next poll is due: no
        leave, no rebalance — the record must be polled again all the same
        (it used to be skipped for good, silently, or left as backlog)."""
        faults = LogFaultSet()
        faults.inject(ConsumerCrash("rollup", "rollup-0", 0.75, 1.0))
        pipe, rollup = rollup_pipeline(
            faults, commit_every=1, max_poll_records=1, apply_cost_base_s=0.3)
        for k in (1, 2):
            pipe.pump(0.01 * k)
            pipe.produce(0.01 * k, 0.01 * k, [
                Point("cpu", {"host": f"h{i}"}, {"v": 0.0}, float(i))
                for i in range(k)], "c")
        pipe.drain(200.0)
        assert rollup.interruptions == 1 and pipe.log.rebalances == 1
        assert pipe.backlog_records() == 0
        assert rollup.rollups() == {("cpu", 0.0): (3.0, 0.0, 0.0, 0.0)}

    def _seeded(self, n_buckets):
        """One partition holding one committed cell per bucket."""
        pipe, rollup = rollup_pipeline()
        batch = [Point("cpu", {"host": "h"}, {"v": 1.0}, 10.0 * b)
                 for b in range(n_buckets)]
        pipe.produce(1.0, 1.0, batch, "c")
        pipe.drain(50.0)
        (tp,) = [tp for tp, n in pipe.log.lag("rollup").items()
                 if pipe.log.committed("rollup", tp).offset]
        return pipe, rollup, tp

    def test_an_apply_without_a_commit_is_invisible_and_gone_after_reload(self):
        pipe, rollup, tp = self._seeded(6)
        log = pipe.log
        before = rollup.rollups()
        cells = dict(log.committed("rollup", tp).state)
        for k in range(3):
            pipe.produce(60.0 + k, 60.0 + k, [
                Point("cpu", {"host": "h"}, {"v": 5.0}, 10.0 * k)], "c")

        rollup.commit_every = 100
        rollup.step(61.0, lambda t: t < 61.003)  # dies before the third apply
        assert rollup.applied_records == 1 + 2 and rollup.interruptions == 1
        assert rollup.rollups() == before  # applied twice, committed nothing
        state = log.committed("rollup", tp).state
        assert all(state[b] is cells[b] and state[b] == [1.0, 1.0, 1.0, 1.0]
                   for b in cells)

        log.leave("rollup", "rollup-0")  # the crash: replay from the checkpoint
        log.join("rollup", "rollup-0")
        rollup.step(70.0, lambda t: True)
        after = rollup.rollups()
        for k in range(3):  # each replayed exactly once onto the committed cell
            assert after[("cpu", 10.0 * k)] == (2.0, 6.0, 1.0, 5.0)
        assert {k: v for k, v in after.items() if k[1] >= 30.0} == {
            k: v for k, v in before.items() if k[1] >= 30.0}

    @pytest.mark.parametrize("n_buckets", [8, 64, 2048])
    def test_a_commit_copies_the_cells_it_touched(self, n_buckets):
        pipe, rollup, tp = self._seeded(n_buckets)
        state = pipe.log.committed("rollup", tp).state
        cells = dict(state)  # keeps every committed cell alive: ids stay unique
        touched = [0.0, 30.0, 70.0]
        pipe.produce(60.0, 60.0, [
            Point("cpu", {"host": "h"}, {"v": 9.0, "w": -9.0}, b + 1.0)
            for b in touched
        ] + [Point("cpu", {"host": "h"}, {"v": 2.0}, 10.0 * n_buckets)], "c")
        pipe.drain(100.0)
        after = pipe.log.committed("rollup", tp).state
        assert after is state  # the accumulator itself is never rebuilt
        copied = [b for b, cell in cells.items() if after[b] is not cell]
        assert copied == touched  # k cells, whatever n is
        assert len(after) == n_buckets + 1
        assert all(after[b] == [3.0, 1.0, -9.0, 9.0] for b in touched)
        assert all(cells[b] == [1.0, 1.0, 1.0, 1.0] for b in cells)
