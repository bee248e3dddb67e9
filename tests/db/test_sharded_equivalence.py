"""Sharded router ≡ single engine: randomized byte-identity proofs.

:class:`repro.db.sharded.ShardedInfluxDB` must be indistinguishable from
one :class:`repro.db.influx.InfluxDB` for *every* query — same columns,
same rows, same float bits, same order — at any shard count, including
GROUP BY time (rollup-served on the shards), LIMIT pushdown, aggregate
scatter-gather, and workloads interleaving deletes and retention
enforcement.  ``repr`` comparison pins byte identity (it distinguishes
-0.0 from 0.0); NaN-bearing workloads get a targeted NaN-aware check
since ``nan != nan`` defeats ``==``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import ColumnRows, InfluxDB, Point
from repro.db.influxql import Query, execute, naive_execute
from repro.db.sharded import ShardedInfluxDB

MEASUREMENTS = ["cpu_idle", "mem_used"]
TAG_KEYS = ["tag", "host"]
TAG_VALUES = ["a", "b", "c", "d", "e"]
FIELD_NAMES = ["_cpu0", "_cpu1", "v"]

times = st.one_of(
    st.integers(0, 8).map(float),
    st.floats(0, 100, allow_nan=False, allow_infinity=False),
)

points = st.builds(
    Point,
    measurement=st.sampled_from(MEASUREMENTS),
    tags=st.dictionaries(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES), max_size=2),
    fields=st.dictionaries(
        st.sampled_from(FIELD_NAMES),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=3,
    ),
    time=times,
)

workloads = st.lists(points, max_size=60)
shard_counts = st.integers(2, 5)
tag_filter = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES), max_size=2),
)
time_bound = st.one_of(st.none(), st.integers(0, 8).map(float), st.floats(0, 100))

queries = st.builds(
    Query,
    measurement=st.sampled_from(MEASUREMENTS),
    columns=st.one_of(
        st.just(("*",)),
        st.lists(st.sampled_from(FIELD_NAMES), min_size=1, max_size=3, unique=True).map(tuple),
    ),
    aggregate=st.sampled_from([None, "MEAN", "MAX", "MIN", "SUM", "COUNT", "LAST"]),
    tag_filters=st.lists(
        st.tuples(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES)), max_size=2
    ).map(tuple),
    t0=time_bound,
    t1=time_bound,
    group_by_s=st.one_of(st.none(), st.sampled_from([2.0, 5.0, 10.0])),
    limit=st.one_of(st.none(), st.integers(1, 5)),
    t0_exclusive=st.booleans(),
    t1_exclusive=st.booleans(),
)


def mk_pair(pts, n):
    sharded = ShardedInfluxDB(n)
    single = InfluxDB()
    for d in (sharded, single):
        d.create_database("pmove")
    sharded.write_many("pmove", list(pts))
    single.write_many("pmove", list(pts))
    return sharded, single


def assert_same(sharded, single, q):
    got = execute(sharded, "pmove", q)
    want = execute(single, "pmove", q)
    assert got.columns == want.columns
    assert repr(got.rows) == repr(want.rows)


class TestQueryEquivalence:
    @given(workloads, queries, shard_counts)
    @settings(max_examples=120, deadline=None)
    def test_execute_identical(self, pts, q, n):
        if q.group_by_s is not None and q.aggregate is None:
            q = Query(**{**q.__dict__, "aggregate": "MEAN"})
        sharded, single = mk_pair(pts, n)
        assert_same(sharded, single, q)

    @given(workloads, tag_filter, time_bound, time_bound, st.booleans(), st.booleans(), shard_counts)
    @settings(max_examples=60, deadline=None)
    def test_points_identical(self, pts, tags, t0, t1, x0, x1, n):
        sharded, single = mk_pair(pts, n)
        for meas in MEASUREMENTS:
            got = sharded.points(
                "pmove", meas, tags, t0, t1, t0_exclusive=x0, t1_exclusive=x1
            )
            want = single.points(
                "pmove", meas, tags, t0, t1, t0_exclusive=x0, t1_exclusive=x1
            )
            assert got == want

    @given(workloads, shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_measurements_and_stats_identical(self, pts, n):
        sharded, single = mk_pair(pts, n)
        assert sharded.measurements("pmove") == single.measurements("pmove")
        ss, si = sharded.stats("pmove"), single.stats("pmove")
        for key in ("points_written", "bytes_written", "series_stored", "series_count"):
            assert ss[key] == si[key]

    def test_rollup_served_buckets_identical(self):
        # 1 Hz for 10 minutes across many series: shard-side GROUP BY
        # time(10s)/time(60s) is served from rollup tiers, whose partials
        # must still merge to the single engine's bytes.
        pts = [
            Point("cpu_idle", {"tag": TAG_VALUES[s % 5], "host": str(s)},
                  {"v": math.sin(s + i * 0.1) * 50, "_cpu0": float(i % 97)},
                  float(i))
            for s in range(10)
            for i in range(600)
        ]
        sharded, single = mk_pair(pts, 4)
        for agg in ("MEAN", "SUM", "MIN", "MAX", "COUNT", "LAST"):
            for gb in (10.0, 60.0, 7.0):
                for tags in (None, {"tag": "a"}):
                    a = sharded.scan_buckets("pmove", "cpu_idle", agg, gb, tags=tags)
                    b = single.scan_buckets("pmove", "cpu_idle", agg, gb, tags=tags)
                    assert repr(a) == repr(b)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.lists(points, min_size=1, max_size=15)),
        st.tuples(st.just("delete"), st.sampled_from(MEASUREMENTS), tag_filter),
        st.tuples(st.just("retention"), st.floats(5, 50), st.floats(0, 120)),
    ),
    max_size=8,
)


class TestLifecycleEquivalence:
    @given(ops, queries, shard_counts)
    @settings(max_examples=60, deadline=None)
    def test_delete_retention_interleavings(self, script, q, n):
        if q.group_by_s is not None and q.aggregate is None:
            q = Query(**{**q.__dict__, "aggregate": "MEAN"})
        sharded, single = mk_pair([], n)
        for op in script:
            if op[0] == "write":
                sharded.write_many("pmove", list(op[1]))
                single.write_many("pmove", list(op[1]))
            elif op[0] == "delete":
                assert sharded.delete_series("pmove", op[1], op[2]) == (
                    single.delete_series("pmove", op[1], op[2])
                )
            else:
                sharded.set_retention_policy("pmove", op[1])
                single.set_retention_policy("pmove", op[1])
                assert sharded.enforce_retention("pmove", op[2]) == (
                    single.enforce_retention("pmove", op[2])
                )
        assert sharded.measurements("pmove") == single.measurements("pmove")
        assert_same(sharded, single, q)

    @given(workloads, queries, shard_counts, st.lists(points, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_survives_rebalancing(self, pts, q, n, more):
        if q.group_by_s is not None and q.aggregate is None:
            q = Query(**{**q.__dict__, "aggregate": "MEAN"})
        sharded, single = mk_pair(pts, n)
        sharded.add_shard()
        assert_same(sharded, single, q)
        sharded.write_many("pmove", list(more))
        single.write_many("pmove", list(more))
        sharded.remove_shard(sorted(sharded.shards)[0])
        assert_same(sharded, single, q)
        for meas in MEASUREMENTS:
            assert sharded.points("pmove", meas) == single.points("pmove", meas)


def _nan_eq(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (a != a and b != b) or repr(a) == repr(b)
    seq = (list, tuple, ColumnRows)  # rows: a list, or the engine's columns
    if isinstance(a, seq) and isinstance(b, seq):
        return len(a) == len(b) and all(_nan_eq(x, y) for x, y in zip(a, b))
    return a == b


class TestNaN:
    def test_nan_workload_identical(self):
        # NaN poisons MIN/MAX associativity, so the router must detect it
        # (has_nan) and fall back to the interleaved reference fold.
        pts = [
            Point("cpu_idle", {"host": str(s)},
                  {"v": float("nan") if (s + i) % 7 == 0 else float(s * 10 + i)},
                  float(i % 13))
            for s in range(6)
            for i in range(40)
        ]
        sharded, single = mk_pair(pts, 3)
        for agg in ("MEAN", "SUM", "MIN", "MAX", "COUNT", "LAST"):
            a = sharded.aggregate_columns("pmove", "cpu_idle", agg)
            b = single.aggregate_columns("pmove", "cpu_idle", agg)
            assert _nan_eq(a, b), (agg, a, b)
            ba = sharded.scan_buckets("pmove", "cpu_idle", agg, 5.0)
            bb = single.scan_buckets("pmove", "cpu_idle", agg, 5.0)
            assert _nan_eq(ba, bb), (agg, ba, bb)


# ----------------------------------------------------------------------
# One dispatch (`_gather`): what every read reports and hands back
# ----------------------------------------------------------------------
class TestGatherContract:
    READS = {
        "scan_points": (),
        "scan_columns": (["v"],),
        "aggregate_columns": ("MEAN", ["v"]),
        "scan_buckets": ("MEAN", 10.0, ["v"]),
        "quantile_columns": (95.0, ["v"]),
        "quantile_buckets": (95.0, 10.0, ["v"]),
        "stddev_columns": (["v"],),
        "stddev_buckets": (10.0, ["v"]),
        "distinct_values": ("v",),
        "count_distinct": ("v",),
    }

    @staticmethod
    def _pair():
        pts = [Point("cpu_idle", {"tag": f"t{s}"}, {"v": float((s * 31 + i) % 17)},
                     float(i))
               for s in range(12) for i in range(40)]
        return mk_pair(pts, 4)

    def test_last_timings_names_the_read_and_its_shards(self):
        sharded, _ = self._pair()
        sharded.instrument = True
        owners = {sharded.shard_for("cpu_idle", {"tag": f"t{s}"}) for s in range(12)}
        assert owners == set(sharded.shards)  # no filter: all four contribute
        for tags, want in (
            ({"tag": "nope"}, set()),
            ({"tag": "t0"}, {sharded.shard_for("cpu_idle", {"tag": "t0"})}),
            (None, owners),
        ):
            for op, args in self.READS.items():
                sharded.last_timings = None
                getattr(sharded, op)("pmove", "cpu_idle", *args, tags=tags)
                assert sharded.last_timings["op"] == op, (op, tags)
                assert set(sharded.last_timings["shard_s"]) == want, (op, tags)

    def test_reads_that_are_columns_on_one_engine_are_columns_on_four(self):
        sharded, single = self._pair()
        for tags in ({"tag": "nope"}, {"tag": "t0"}, None):
            for op, args in self.READS.items():
                got = getattr(sharded, op)("pmove", "cpu_idle", *args, tags=tags)
                want = getattr(single, op)("pmove", "cpu_idle", *args, tags=tags)
                if op not in ("quantile_columns", "quantile_buckets", "count_distinct"):
                    assert repr(got) == repr(want), (op, tags)  # exact families
                if isinstance(want, tuple) and isinstance(want[1], ColumnRows):
                    assert isinstance(got[1], ColumnRows), (op, tags)
        for text in ('SELECT * FROM "cpu_idle" LIMIT 7',
                     'SELECT MAX("v") FROM "cpu_idle" GROUP BY time(10s) LIMIT 2',
                     'SELECT STDDEV("v") FROM "cpu_idle" GROUP BY time(10s) LIMIT 2',
                     'SELECT MEDIAN("v") FROM "cpu_idle" GROUP BY time(10s) LIMIT 2'):
            got, want = execute(sharded, "pmove", text), execute(single, "pmove", text)
            assert isinstance(want.rows, ColumnRows), text
            assert isinstance(got.rows, ColumnRows) and len(got.rows) == len(want.rows)


class TestSignedZeroBucket:
    """A row at ``-0.0`` and one at ``0.0`` share bucket 0, which is
    labelled ``0.0`` whichever comes first, whatever shard saw which."""

    @pytest.mark.parametrize("order", [(-0.0, 0.0), (0.0, -0.0)], ids=repr)
    @pytest.mark.parametrize("shards", [0, 1, 4])
    def test_the_zero_bucket_is_labelled_positive_zero(self, shards, order):
        db = ShardedInfluxDB(shards) if shards else InfluxDB()
        db.create_database("d")
        # series "a" is folded before the zero rows land below it (the
        # out-of-order recompute); "b".."d" are folded by the first read
        db.write_many("d", [Point("m", {"s": "a"}, {"v": 9.0}, 15.0)])
        execute(db, "d", 'SELECT MEAN("v") FROM "m" GROUP BY time(10s)')
        for i, t in enumerate(order):
            db.write_many("d", [Point("m", {"s": s}, {"v": float(i)}, t)
                                for s in "abcd"])
        for agg in ("MEAN", "COUNT", "MAX", "PERCENTILE"):
            arg = ', 50' if agg == "PERCENTILE" else ""
            for width in ("10s", "20s", "7s"):
                text = f'SELECT {agg}("v"{arg}) FROM "m" GROUP BY time({width})'
                for run in (execute, naive_execute):
                    first = run(db, "d", text).rows[0][0]
                    assert repr(first) == "0.0", (run.__name__, text)
