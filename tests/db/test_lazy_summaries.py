"""Summaries are folds of the raw columns, caught up on read.

A write stores its row and nothing else; rollup tiers, per-bucket
t-digests and per-field HLLs are memos over the row prefix
``[0, _Series.folded)`` that a reader brings up to date.  Everything here
is counted, not timed: how many hashes, bucket folds and digest builds a
sequence of writes and reads makes, and that no read — ``stats()``
included — can change what a later read answers.
"""

import gc
import math
import random
import tracemalloc
from collections import Counter

import pytest

from repro.db import influx as influx_mod
from repro.db.influx import InfluxDB, Point, _RollupCol
from repro.db.influxql import execute, naive_execute
from repro.db.naive import reference_fold
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH, TDigest, stddev_of

DB = "pmove"
FIELDS = ("a", "b")


def mk(engine=InfluxDB):
    db = engine()
    db.create_database(DB)
    return db


def pt(t, tag="x", **fields):
    return Point("m", {"tag": tag}, fields or {"a": t, "b": -t}, float(t))


def the_series(db, tag="x"):
    m = db._dbs[DB].meas["m"]
    return m.series[m.by_tags[(("tag", tag),)]]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the kinds of summary work: value hashes, bucket folds
    (per field), values put into a digest, and quantiles asked of one."""
    counts = Counter()

    def count(owner, name, key, weigh=lambda *a: 1):
        orig = getattr(owner, name)

        def wrapper(*a, **k):
            counts[key] += weigh(*a)
            return orig(*a, **k)

        monkeypatch.setattr(owner, name, wrapper)

    count(influx_mod, "float_hash64", "hash")
    count(_RollupCol, "set_from", "fold")
    count(TDigest, "add", "digest")
    count(TDigest, "add_many", "digest")
    count(TDigest, "quantile", "quantile")
    return counts


# ----------------------------------------------------------------------
# A write maintains nothing
# ----------------------------------------------------------------------
class TestWritesFoldNothing:
    def test_in_order_appends_do_no_summary_work(self, calls):
        db = mk()
        db.write_many(DB, [pt(t, tag) for t in range(500) for tag in "xy"])
        db.write(DB, pt(500))
        db.write_lines(DB, "m,tag=x a=1.0,b=2.0 501000000000")
        assert calls == {}
        s = the_series(db)
        assert (s.folded, len(s)) == (0, 502)
        assert db._dbs[DB].meas["m"].series_hll.count() > 0  # series, not values

    def test_reads_that_use_no_summary_fold_nothing(self, calls):
        db = mk()
        db.write_many(DB, [pt(t) for t in range(300)])
        for text in (
            'SELECT "a" FROM "m" WHERE time >= 10s',
            'SELECT MEAN("a") FROM "m"',
            'SELECT MEAN("a") FROM "m" GROUP BY time(7s)',       # no tier divides 7
            'SELECT STDDEV("a") FROM "m" GROUP BY time(7s)',
            'SELECT PERCENTILE("a", 95) FROM "m" GROUP BY time(7s)',
            'SELECT MEAN("a") FROM "m" GROUP BY time(20s)',      # MEAN needs N == tier
            'SELECT DISTINCT("a") FROM "m"',
            'SELECT COUNT(DISTINCT("a")) FROM "m" WHERE time >= 10s',  # partial range
        ):
            assert execute(db, DB, text).rows == naive_execute(db, DB, text).rows
        assert db.max_seq(DB, "m") == 299 and db.freshness(DB, "m")[2] == 299.0
        assert calls == {} and the_series(db).folded == 0

    def test_first_tier_read_folds_and_only_a_percentile_builds_digests(self, calls):
        db = mk()
        db.write_many(DB, [pt(t, tag) for t in range(120) for tag in "xy"])
        execute(db, DB, 'SELECT MEAN("a") FROM "m" WHERE tag=\'x\' GROUP BY time(10s)')
        # 120 rows of two fields hashed once; 12 + 2 buckets folded per field
        assert calls == {"hash": 240, "fold": 2 * (12 + 2)}
        assert the_series(db, "y").folded == 0  # nobody asked for y
        execute(db, DB, 'SELECT PERCENTILE("a", 95) FROM "m" WHERE tag=\'x\' '
                        'GROUP BY time(10s)')
        assert calls["digest"] == 12  # one digest per bucket — of field a only
        assert calls["hash"] == 240 and calls["fold"] == 28

    def test_a_distinct_count_catches_up_too(self, calls):
        db = mk()
        db.write_many(DB, [pt(t % 7) for t in range(50)])
        assert calls == {}
        assert execute(db, DB, 'SELECT COUNT(DISTINCT("a")) FROM "m"').rows == [
            (0.0, [7.0])]
        assert db.sketch_plan.get("hll-served") == 1
        assert calls["hash"] == 100 and calls["digest"] == 0

    def test_reading_one_field_builds_no_digest_for_another(self, calls):
        db = mk()
        db.write_many(DB, [pt(t) for t in range(100)])
        execute(db, DB, 'SELECT PERCENTILE("a", 50) FROM "m" GROUP BY time(10s)')
        s = the_series(db)
        for r in s.rollups:
            assert not any(r.fields["b"].digest)
        held = [d for d in s.rollups[0].fields["a"].digest if d is not None]
        assert len(held) == 10 and not any(s.rollups[1].fields["a"].digest)
        sk = db.stats(DB)["measurements"]["m"]["sketch"]
        assert sk["digest_buckets"] == 10 and sk["hll_fields"] == 2


# ----------------------------------------------------------------------
# A catch-up costs what the new rows touch
# ----------------------------------------------------------------------
class TestCatchUpIsIncremental:
    TEXT = 'SELECT MAX("a") FROM "m" GROUP BY time(10s)'

    @pytest.mark.parametrize("k", [1, 3, 10, 25, 61])
    def test_a_read_after_k_rows_refolds_the_buckets_they_touch(self, calls, k):
        db = mk()
        db.write_many(DB, [pt(t) for t in range(95)])
        execute(db, DB, self.TEXT)
        calls.clear()
        new = range(95, 95 + k)
        db.write_many(DB, [pt(t) for t in new])
        assert calls == {}
        assert execute(db, DB, self.TEXT).rows == naive_execute(db, DB, self.TEXT).rows
        touched = sum(len({t // T for t in new}) for T in (10, 60))
        # per tier: the buckets the k rows fell in, the straddling one included
        assert calls == {"hash": 2 * k, "fold": len(FIELDS) * touched}
        assert calls["fold"] <= len(FIELDS) * sum(
            len({t // T for t in new}) + 1 for T in (10, 60))
        calls.clear()
        execute(db, DB, self.TEXT)
        execute(db, DB, 'SELECT COUNT(DISTINCT("a")) FROM "m"')
        db.stats(DB)
        assert calls == {}  # nothing new: one compare per series

    def test_a_bounded_read_folds_only_the_prefix_it_covers(self, calls):
        db = mk()
        db.write_many(DB, [pt(t) for t in range(200)])
        text = 'SELECT SUM("a") FROM "m" WHERE time < 100s GROUP BY time(10s)'
        assert execute(db, DB, text).rows == naive_execute(db, DB, text).rows
        s = the_series(db)
        assert s.folded == 100 and calls["hash"] == 200
        assert db.stats(DB)["measurements"]["m"]["rows_unfolded"] == 100
        assert s.folded == 200  # stats() caught the rest up
        assert db.stats(DB)["measurements"]["m"]["rows_unfolded"] == 0

    def test_stats_counts_every_bucket_and_reports_the_laziness(self):
        db = mk()
        db.write_many(DB, [pt(t, tag) for t in range(150) for tag in "xy"])
        block = db.stats(DB)["measurements"]["m"]
        assert block["rows_unfolded"] == 300
        assert block["rollup_buckets"] == {10.0: 30, 60.0: 6}
        assert block["sketch"]["digest_buckets"] == 0
        assert block["sketch"]["hll_fields"] == 4

    def test_stats_does_not_allocate_what_it_measures(self):
        """The call folds an HLL per never-read series into existence in
        order to size it.  Over 1 000 series of three values each that was
        4.4 MB of dense registers (4.1 MB reported); held sparse it is the
        occupied registers, and the report follows what is held."""
        db = InfluxDB(rollup_tiers=())
        db.create_database(DB)
        db.write_many(DB, [Point("m", {"tag": f"s{i}"}, {"a": float(k % 3)}, float(k))
                           for i in range(1000) for k in range(6)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            block = db.stats(DB)["measurements"]["m"]
            grew = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert block["rows_unfolded"] == 6000
        assert block["sketch"]["hll_fields"] == 1000
        assert block["sketch"]["hll_registers"] == 4096  # still means m
        assert grew < 600_000
        assert block["sketch"]["hll_memory_bytes"] < 200_000


# ----------------------------------------------------------------------
# Late writes around the mark, retention through it
# ----------------------------------------------------------------------
QUERIES = [
    f'SELECT {agg}("a") FROM "m" GROUP BY time({n}s)'
    for agg in ("MEAN", "SUM", "MIN", "MAX", "COUNT", "LAST", "STDDEV")
    for n in (10, 60)
]
CARDINALITY = 'SELECT COUNT(DISTINCT("a")) FROM "m"'


def assert_exact(db):
    for text in QUERIES:
        assert execute(db, DB, text).rows == naive_execute(db, DB, text).rows, text
    (_, [got]), = execute(db, DB, CARDINALITY).rows
    (_, [want]), = naive_execute(db, DB, CARDINALITY).rows
    assert abs(got - want) <= 2.0  # HLL-served unless a trim poisoned it


class TestLateWritesAndRetention:
    def base(self):
        """Rows 0..44 and 50..99, read through t < 75: folded == 70, in the
        middle of bucket [70, 80) of the 10 s tier and [60, 120) of 60 s."""
        db = mk()
        db.write_many(DB, [pt(t) for t in range(100) if not 45 <= t < 50])
        execute(db, DB, 'SELECT MAX("a") FROM "m" WHERE time < 75s GROUP BY time(10s)')
        assert the_series(db).folded == 70
        return db

    @pytest.mark.parametrize("t, folded", [
        (47.0, 71),    # below the mark, its own bucket sealed long ago
        (72.5, 71),    # below the mark, in the bucket that straddles it
        (73.0, 71),    # a folded row's own time: lands right after that row
        (74.0, 70),    # the last folded row's time: right after it, at the mark
        (74.5, 70),    # the first unfolded row
        (88.0, 70),    # above the mark
    ])
    def test_late_write_relative_to_the_mark(self, calls, t, folded):
        db = self.base()
        calls.clear()
        db.write(DB, pt(t, a=1000.0 + t, b=0.5))
        s = the_series(db)
        assert s.folded == folded
        below = folded == 71
        # below the mark: its two values hashed, its one bucket per tier
        # re-folded (clipped to the folded rows); above: nothing at all
        assert calls == ({"hash": 2, "fold": 4} if below else {})
        bounded = 'SELECT MAX("a") FROM "m" WHERE time < 75s GROUP BY time(10s)'
        assert execute(db, DB, bounded).rows == naive_execute(db, DB, bounded).rows
        assert_exact(db)
        assert s.folded == len(s) == 96

    def test_a_nan_poisons_at_the_write_not_at_a_fold(self, calls):
        """Which plan a read gets must not hang on how far an earlier read
        made the folds run: the write itself notes the NaN."""
        db = self.base()
        calls.clear()
        db.write(DB, pt(90.5, a=math.nan, b=1.0))
        assert the_series(db).has_nan and calls == {}
        for text in ('SELECT MAX("a") FROM "m" WHERE time < 75s GROUP BY time(10s)',
                     'SELECT MAX("a") FROM "m" GROUP BY time(10s)',
                     'SELECT PERCENTILE("a", 50) FROM "m" WHERE time < 75s '
                     'GROUP BY time(10s)'):
            assert repr(execute(db, DB, text).rows) == repr(
                naive_execute(db, DB, text).rows)
        assert db.rollup_plan.get("skip:nan-poisoned") == 2
        assert db.sketch_plan.get("skip:nan-poisoned") == 1
        assert calls == {}  # no tier could serve: none was caught up

    @pytest.mark.parametrize("horizon", [30.0, 65.0, 72.0, 85.0, 200.0])
    def test_retention_cuts_through_a_half_folded_series(self, calls, horizon):
        db = self.base()
        calls.clear()
        db.set_retention_policy(DB, 100.0)
        dropped = db.enforce_retention(DB, 100.0 + horizon)
        assert dropped == sum(1 for t in range(100)
                              if not 45 <= t < 50 and t < horizon)
        if horizon < 100.0:
            s = the_series(db)
            # the mark moves down with the rows; a trim folds nothing but
            # the bucket it cut (if any folded row is left at all)
            assert s.folded == max(70 - dropped, 0)
            assert calls == ({"fold": 4} if s.folded else {})
            assert_exact(db)
            assert s.folded == len(s) == 95 - dropped
            assert db.sketch_plan.get("fallback:hll-trimmed")
        else:
            assert db.measurements(DB) == []

    def test_moving_a_series_keeps_every_answer(self):
        db, other = self.base(), mk()
        want = [execute(db, DB, text).rows for text in QUERIES]
        rows = db.pop_series(DB, "m", {"tag": "x"})
        other.import_rows(DB, "m", {"tag": "x"}, rows)
        assert the_series(other).folded == 0
        assert [execute(other, DB, text).rows for text in QUERIES] == want
        assert db.delete_series(DB, "m") == 0 and other.delete_series(DB, "m") == 95


# ----------------------------------------------------------------------
# One fold primitive
# ----------------------------------------------------------------------
class TestOneFoldPrimitive:
    """A tier bucket is ``set_from`` of its raw slice — the same ``sum``
    the raw folds use — never a running ``total += v`` (which a
    compensated ``sum``, CPython ≥ 3.12, does not reproduce)."""

    CANCELLING = ([0.1] * 10, [1e16, 1.0, -1e16, 1.0], [-0.0, -0.0], [1e308, 1e308])

    def served(self, db, agg):
        text = f'SELECT {agg}("v") FROM "c" GROUP BY time(10s)'
        got = execute(db, DB, text).rows
        assert repr(got) == repr(naive_execute(db, DB, text).rows)
        return [row[0] for _, row in got]

    def check(self, db, buckets):
        """``buckets``: the raw in-order values each 10 s bucket holds."""
        before = dict(db.rollup_plan), dict(db.sketch_plan)
        for agg in ("MEAN", "SUM"):
            want = [reference_fold(agg, vals) for vals in buckets]
            assert repr(self.served(db, agg)) == repr(want)
        assert repr(self.served(db, "STDDEV")) == repr(
            [stddev_of(vals) for vals in buckets])
        assert db.rollup_plan.get("served:10", 0) == before[0].get("served:10", 0) + 2
        assert db.sketch_plan.get("stddev-served:10", 0) == (
            before[1].get("stddev-served:10", 0) + 1)

    @pytest.mark.parametrize("vals", CANCELLING)
    def test_in_order_late_and_trimmed(self, vals):
        db = mk()
        n = len(vals)
        at = lambda b, i: 10.0 * b + i * 0.5  # noqa: E731
        point = lambda b, i: Point("c", {}, {"v": vals[i]}, at(b, i))  # noqa: E731
        # in order, one read in the middle of bucket 1 (a half-folded bucket)
        for i in range(n):
            db.write(DB, point(0, i))
        for i in range(n // 2):
            db.write(DB, point(1, i))
        self.check(db, [vals, vals[: n // 2]])
        for i in range(n // 2, n):
            db.write(DB, point(1, i))
        self.check(db, [vals, vals])
        # late: bucket 2 arrives back to front, one read between
        for i in reversed(range(n)):
            db.write(DB, point(2, i))
            if i == n // 2:
                self.check(db, [vals, vals, vals[n // 2:]])
        self.check(db, [vals, vals, vals])
        # trimmed: the horizon cuts bucket 0 after its first value
        db.set_retention_policy(DB, 100.0)
        assert db.enforce_retention(DB, 100.0 + at(0, 1)) == 1
        self.check(db, [vals[1:], vals, vals])


# ----------------------------------------------------------------------
# A percentile does not depend on who looked first
# ----------------------------------------------------------------------
class TestDigestsArePureFunctionsOfTheirRows:
    def load(self, engine=InfluxDB, look=lambda db, i: None):
        db = mk(engine)
        rnd = random.Random(3)
        for i in range(3000):
            db.write(DB, Point("m", {"tag": "a"},
                               {"v": rnd.lognormvariate(0.0, 1.0)}, i * 0.02))
            look(db, i)
        return db

    P95 = 'SELECT PERCENTILE("v", 95) FROM "m" GROUP BY time(60s)'

    @pytest.mark.parametrize("engine", [InfluxDB, lambda: ShardedInfluxDB(2)])
    def test_stats_and_earlier_reads_change_no_percentile(self, engine):
        """At the parent of this change ``stats()`` every 250 writes moved
        this answer from 4.819253190311443 to 4.824902053181424."""
        def stats_often(db, i):
            if i % 250 == 249:
                db.stats(DB)

        def read_often(db, i):
            if i % 400 == 399:
                execute(db, DB, self.P95)
                execute(db, DB, 'SELECT PERCENTILE("v", 50) FROM "m" GROUP BY time(20s)')

        want = [(0.0, [4.819253190311443])]
        assert execute(self.load(engine), DB, self.P95).rows == want
        assert execute(self.load(engine, stats_often), DB, self.P95).rows == want
        assert execute(self.load(engine, read_often), DB, self.P95).rows == want

    def test_a_sealed_buckets_digest_is_add_many_of_its_rows(self):
        def look(db, i):
            if i % 170 == 0:
                execute(db, DB, 'SELECT PERCENTILE("v", 99) FROM "m" GROUP BY time(10s)')
                db.stats(DB)

        db = self.load(look=look)
        merged = 'SELECT PERCENTILE("v", 50) FROM "m" GROUP BY time(20s)'
        quiet = self.load()
        assert execute(db, DB, merged).rows == execute(quiet, DB, merged).rows
        s = the_series(db, "a")
        col = s.cols["v"]
        r = s.rollups[0]
        assert len(r.starts) == 6
        for k in range(len(r.starts)):
            want = TDigest(DEFAULT_SKETCH.compression)
            want.add_many(col[500 * k: 500 * (k + 1)])
            held = r.fields["v"].digest[k]
            assert held is s.bucket_digest(r, "v", k)
            assert held.to_dict() == want.to_dict()
        before = db.stats(DB)["measurements"]["m"]["sketch"]
        assert before["digest_buckets"] == 6
        assert db.stats(DB)["measurements"]["m"]["sketch"] == before

    def test_an_appended_bucket_drops_and_rebuilds_its_digest(self, calls):
        db = mk()
        db.write_many(DB, [pt(t) for t in range(15)])
        text = 'SELECT PERCENTILE("a", 50) FROM "m" GROUP BY time(10s)'
        execute(db, DB, text)
        assert calls["digest"] == 2
        db.write_many(DB, [pt(t) for t in range(15, 18)])
        rs = execute(db, DB, text)
        assert calls["digest"] == 3  # the sealed bucket's digest was kept
        assert [t for t, _ in rs.rows] == [0.0, 10.0]
        d = the_series(db).rollups[0].fields["a"].digest[1]
        assert d.count == 8.0


# ----------------------------------------------------------------------
# A sealed bucket's percentile is worked out once
# ----------------------------------------------------------------------
class TestKeptPercentiles:
    """What a bucket's digest answered at ``q`` is kept beside the digest
    and dropped where the digest is: counted, not timed."""

    P95 = 'SELECT PERCENTILE("a", 95) FROM "m" GROUP BY time(10s)'

    def load(self, n=95):
        db = mk()
        rnd = random.Random(5)
        db.write_many(DB, [pt(t, a=rnd.lognormvariate(0.0, 1.0), b=float(t))
                           for t in range(n)])
        return db

    def kept(self, db):
        return db.stats(DB)["measurements"]["m"]["sketch"]["kept_quantiles"]

    def test_a_second_read_walks_no_centroid_and_builds_no_digest(self, calls):
        db = self.load()
        first = execute(db, DB, self.P95).rows
        assert (calls["digest"], calls["quantile"]) == (10, 10)
        assert self.kept(db) == 10
        calls.clear()
        again = execute(db, DB, self.P95).rows
        assert calls == {} and list(again) == list(first)
        # a window inside the first, cutting a bucket at either end: the
        # whole ones are a slice of what is kept, the cut ones nearest-rank
        inner = self.P95.replace("GROUP", "WHERE time >= 13s AND time <= 77s GROUP")
        assert [r for r in execute(db, DB, inner).rows][1:-1] == list(first)[2:7]
        assert calls == {}
        # another quantile is another ask of the same digests
        execute(db, DB, self.P95.replace("95", "50"))
        assert calls == {"quantile": 10} and self.kept(db) == 20

    def test_an_append_reasks_the_open_bucket_only(self, calls):
        db = self.load()
        execute(db, DB, self.P95)
        calls.clear()
        db.write_many(DB, [pt(t, a=float(t), b=0.0) for t in range(95, 98)])
        got = execute(db, DB, self.P95).rows
        assert (calls["digest"], calls["quantile"]) == (1, 1)
        assert list(got) == list(execute(self.fresh_copy(db), DB, self.P95).rows)

    def fresh_copy(self, db):
        """Another engine holding the same rows, never read before."""
        fresh = mk()
        fresh.import_rows(DB, "m", {"tag": "x"}, [
            (t, q, dict(p.fields)) for t, q, p in db.scan_points(DB, "m")])
        return fresh

    @pytest.mark.parametrize("t", [4.5, 47.0, 90.5])
    def test_a_late_write_reasks_its_bucket_only(self, calls, t):
        db = self.load()
        before = list(execute(db, DB, self.P95).rows)
        calls.clear()
        db.write(DB, pt(t, a=1e6, b=0.0))
        got = list(execute(db, DB, self.P95).rows)
        assert (calls["digest"], calls["quantile"]) == (1, 1)
        k = int(t // 10)
        assert got[:k] == before[:k] and got[k + 1:] == before[k + 1:]
        assert got[k] != before[k]
        assert got == list(execute(self.fresh_copy(db), DB, self.P95).rows)

    def test_retention_through_a_bucket_drops_its_kept_answer(self, calls):
        db = self.load()
        before = list(execute(db, DB, self.P95).rows)
        db.set_retention_policy(DB, 100.0)
        assert db.enforce_retention(DB, 123.0) == 23  # cuts bucket [20, 30)
        assert self.kept(db) == 7  # buckets 30.. are whole; 0, 10 gone, 20 re-folded
        calls.clear()
        got = list(execute(db, DB, self.P95).rows)
        assert (calls["digest"], calls["quantile"]) == (1, 1)
        assert got[1:] == before[3:] and got[0][0] == 20.0 and got[0] != before[2]
        assert got == list(execute(self.fresh_copy(db), DB, self.P95).rows)

    def test_a_dropped_or_moved_series_takes_its_answers_along(self):
        db = self.load()
        want = list(execute(db, DB, self.P95).rows)
        rows = db.pop_series(DB, "m", {"tag": "x"})
        assert db.measurements(DB) == []
        db.import_rows(DB, "m", {"tag": "x"}, rows[:50])
        assert self.kept(db) == 0
        assert list(execute(db, DB, self.P95).rows) == want[:5]
        db.delete_series(DB, "m")
        db.write_many(DB, [pt(t, a=1.0, b=0.0) for t in range(20)])
        assert list(execute(db, DB, self.P95).rows) == [(0.0, [1.0]), (10.0, [1.0])]

    def test_only_a_few_quantiles_are_kept_per_field(self):
        db = self.load()
        for pct in (5, 25, 50, 75, 95, 99):
            execute(db, DB, self.P95.replace("95", str(pct)))
        rc = the_series(db).rollups[0].fields["a"]
        assert list(rc.kept) == [0.5, 0.75, 0.95, 0.99]  # oldest asked, first gone
        assert self.kept(db) == 40
        assert all(len(a) == len(rc.count) for a in rc.kept.values())

    def test_a_merged_window_keeps_nothing_and_the_sharded_engine_keeps_the_same(self):
        db = self.load()
        execute(db, DB, self.P95.replace("10s", "20s"))  # two digests per bucket
        assert self.kept(db) == 0
        sharded = mk(lambda: ShardedInfluxDB(2))
        sharded.write_many(DB, [p for _, _, p in db.scan_points(DB, "m")])
        assert list(execute(sharded, DB, self.P95).rows) == list(
            execute(db, DB, self.P95).rows)
        blocks = [b["measurements"]["m"]["sketch"]["kept_quantiles"]
                  for b in sharded.stats(DB)["shards"].values() if b["measurements"]]
        assert blocks == [10]
