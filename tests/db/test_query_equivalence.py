"""Pushdown/rollup read path ≡ naive row-fold: randomized equivalence.

PR 5's read path has three new ways to answer a query — columnar aggregate
folds (:meth:`InfluxDB.aggregate_columns`), bisected GROUP BY buckets
(:meth:`InfluxDB.scan_buckets`), and rollup tiers serving
coarse buckets — all of which must return *exactly* the same floats as the
seed materialize-then-fold path (:func:`repro.db.influxql.naive_execute`).
These tests compare via ``repr`` so NaN-carrying results (where ``==`` is
useless) are still checked bit-for-bit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import DEFAULT_ROLLUP_TIERS, InfluxDB, InfluxError, Point
from repro.db.influxql import Query, execute, naive_execute

MEASUREMENTS = ["cpu_idle", "mem_used"]
TAG_KEYS = ["tag", "host"]
TAG_VALUES = ["a", "b"]
FIELD_NAMES = ["_cpu0", "_cpu1", "v"]

# Coarse grid times force duplicate/boundary timestamps and bucket-edge
# collisions; the float leg forces out-of-order insertion and rollup
# recompute paths.
times = st.one_of(
    st.integers(0, 30).map(float),
    st.floats(0, 300, allow_nan=False, allow_infinity=False),
)

# NaN values are allowed: they poison min/max fold order, which is exactly
# what the rollup planner's has_nan fallback must survive.
field_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(float("nan")),
)

points = st.builds(
    Point,
    measurement=st.sampled_from(MEASUREMENTS),
    tags=st.dictionaries(
        st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES), max_size=2
    ),
    fields=st.dictionaries(
        st.sampled_from(FIELD_NAMES), field_values, min_size=1, max_size=3
    ),
    time=times,
)

workloads = st.lists(points, max_size=80)

time_bound = st.one_of(st.none(), st.integers(0, 30).map(float), st.floats(0, 300))

# Bucket widths: exact tier matches (10, 60), integer multiples (20, 30,
# 120), and widths no tier divides (2, 5, 7.5) to cover the raw walk.
group_bys = st.one_of(
    st.none(), st.sampled_from([2.0, 5.0, 7.5, 10.0, 20.0, 30.0, 60.0, 120.0])
)

queries = st.builds(
    Query,
    measurement=st.sampled_from(MEASUREMENTS),
    columns=st.one_of(
        st.just(("*",)),
        st.lists(
            st.sampled_from(FIELD_NAMES), min_size=1, max_size=3, unique=True
        ).map(tuple),
    ),
    aggregate=st.sampled_from([None, "MEAN", "MAX", "MIN", "SUM", "COUNT", "LAST"]),
    tag_filters=st.lists(
        st.tuples(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES)), max_size=2
    ).map(tuple),
    t0=time_bound,
    t1=time_bound,
    group_by_s=group_bys,
    limit=st.one_of(st.none(), st.integers(1, 5)),
    t0_exclusive=st.booleans(),
    t1_exclusive=st.booleans(),
)


def _fix(q: Query) -> Query:
    if q.group_by_s is not None and q.aggregate is None:
        q = Query(**{**q.__dict__, "aggregate": "MEAN"})
    return q


def _mk(pts, tiers=DEFAULT_ROLLUP_TIERS) -> InfluxDB:
    db = InfluxDB(rollup_tiers=tiers)
    db.create_database("pmove")
    db.write_many("pmove", list(pts))
    return db


def _assert_same(db: InfluxDB, q: Query) -> None:
    got = execute(db, "pmove", q)
    want = naive_execute(db, "pmove", q)
    assert got.columns == want.columns
    assert repr(got.rows) == repr(want.rows)


class TestPushdownEquivalence:
    @given(workloads, queries)
    @settings(max_examples=150, deadline=None)
    def test_execute_equals_naive(self, pts, q):
        _assert_same(_mk(pts), _fix(q))

    @given(workloads, workloads, queries)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_writes(self, first, second, q):
        """Rollups maintained across a write between queries stay exact
        (covers the in-order append and out-of-order recompute paths)."""
        q = _fix(q)
        db = _mk(first)
        _assert_same(db, q)
        db.write_many("pmove", list(second))
        _assert_same(db, q)

    @given(workloads, queries, st.floats(1, 100), st.floats(0, 350))
    @settings(max_examples=60, deadline=None)
    def test_after_retention(self, pts, q, duration, now):
        """Retention trims rebuild the rollup boundary bucket exactly."""
        db = _mk(pts)
        db.set_retention_policy("pmove", duration)
        db.enforce_retention("pmove", now)
        _assert_same(db, _fix(q))

    @given(workloads, queries, st.sampled_from(TAG_VALUES))
    @settings(max_examples=60, deadline=None)
    def test_after_delete_series(self, pts, q, tagval):
        db = _mk(pts)
        db.delete_series("pmove", q.measurement, tags={"tag": tagval})
        _assert_same(db, _fix(q))

    @given(workloads, queries)
    @settings(max_examples=60, deadline=None)
    def test_no_rollup_tiers(self, pts, q):
        """The raw bucket walk (no tier configured) is also exact."""
        _assert_same(_mk(pts, tiers=()), _fix(q))


class TestRollupServing:
    def test_coarse_bucket_served_from_tier(self):
        """A tier-aligned GROUP BY actually uses the rollup arrays: the
        planner picks the 60s tier for time(60s) on a 10s/60s engine."""
        db = _mk(
            Point("m", {"tag": "a"}, {"v": float(i)}, i * 1.0) for i in range(600)
        )
        s = next(iter(next(iter(db._dbs["pmove"].meas.values())).series.values()))
        r = db._pick_rollup(s, "MEAN", 60.0)
        assert r is not None and r.tier == 60.0
        # Multiples only combine exactly for COUNT/MIN/MAX/LAST.
        assert db._pick_rollup(s, "SUM", 120.0) is None
        assert db._pick_rollup(s, "COUNT", 120.0).tier == 60.0
        assert db._pick_rollup(s, "MEAN", 7.0) is None

    def test_nan_poisons_min_max_tier(self):
        db = _mk([Point("m", {}, {"v": float("nan")}, 5.0),
                  Point("m", {}, {"v": 1.0}, 6.0)])
        s = next(iter(next(iter(db._dbs["pmove"].meas.values())).series.values()))
        assert db._pick_rollup(s, "MIN", 10.0) is None
        assert db._pick_rollup(s, "MAX", 10.0) is None
        assert db._pick_rollup(s, "COUNT", 10.0) is not None

    def test_unaligned_head_tail_exact(self):
        """A time filter cutting through tier buckets falls back to raw
        rows for the partial head/tail and still matches naive exactly."""
        db = _mk(Point("m", {}, {"v": float(i) * 1.7}, i * 1.0) for i in range(300))
        for t0, t1 in [(13.0, 287.0), (0.5, 299.5), (59.9, 60.1), (None, 45.0)]:
            q = Query("m", ("v",), "MEAN", (), t0, t1, 10.0)
            _assert_same(db, q)
            q = Query("m", ("v",), "LAST", (), t0, t1, 60.0)
            _assert_same(db, q)


class TestResultSetColumn:
    def test_column_memoized_and_correct(self):
        db = _mk(Point("m", {}, {"a": float(i), "b": -float(i)}, float(i))
                 for i in range(10))
        rs = execute(db, "pmove", 'SELECT "a", "b" FROM "m"')
        first = rs.column("a")
        assert first == [float(i) for i in range(10)]
        assert rs.column("a") == first  # memoized, but never the same object
        assert rs.column("b") == [-float(i) for i in range(10)]

    def test_column_result_is_not_aliased_to_cache(self):
        """Mutating a returned column must not poison later reads — the
        memo is internal, callers own their copy."""
        db = _mk(Point("m", {}, {"a": float(i)}, float(i)) for i in range(5))
        rs = execute(db, "pmove", 'SELECT "a" FROM "m"')
        got = rs.column("a")
        got[0] = 999.0
        got.append(-1.0)
        assert rs.column("a") == [float(i) for i in range(5)]
        assert rs.column("a") is not rs.column("a")

    def test_limit_pushdown_matches_slice(self):
        db = _mk(
            Point("m", {"tag": t}, {"v": float(i)}, float(i % 7))
            for i, t in enumerate(["a", "b"] * 40)
        )
        for text in ('SELECT "v" FROM "m" LIMIT 5',
                     'SELECT "v" FROM "m" WHERE time >= 2 LIMIT 3',
                     'SELECT * FROM "m" LIMIT 1'):
            got = execute(db, "pmove", text)
            want = naive_execute(db, "pmove", text)
            assert got.columns == want.columns
            assert repr(got.rows) == repr(want.rows)


class TestGenerations:
    def test_generation_moves_on_every_mutation(self):
        db = InfluxDB()
        db.create_database("d")
        assert db.generation("d", "m") == 0
        db.write("d", Point("m", {}, {"v": 1.0}, 1.0))
        g1 = db.generation("d", "m")
        assert g1 > 0
        db.write("d", Point("m", {}, {"v": 2.0}, 2.0))
        g2 = db.generation("d", "m")
        assert g2 > g1
        db.delete_series("d", "m")
        assert db.generation("d", "m") > g2

    def test_retention_bumps_only_trimmed_measurements(self):
        db = InfluxDB()
        db.create_database("d")
        db.write("d", Point("old", {}, {"v": 1.0}, 1.0))
        db.write("d", Point("new", {}, {"v": 1.0}, 100.0))
        g_old = db.generation("d", "old")
        g_new = db.generation("d", "new")
        db.set_retention_policy("d", 50.0)
        assert db.enforce_retention("d", 120.0) == 1
        assert db.generation("d", "old") > g_old
        assert db.generation("d", "new") == g_new

    def test_drop_and_recreate_never_reuses_stamps(self):
        """Generations are instance-global, so a dropped+recreated database
        can never alias a stamp a cache took earlier."""
        db = InfluxDB()
        db.create_database("d")
        db.write("d", Point("m", {}, {"v": 1.0}, 1.0))
        g1 = db.generation("d", "m")
        db.drop_database("d")
        db.create_database("d")
        assert db.generation("d", "m") == 0
        db.write("d", Point("m", {}, {"v": 9.0}, 1.0))
        assert db.generation("d", "m") > g1

    def test_freshness_says_which_mutations_were_in_order_appends(self):
        """mutation → what moves (DESIGN.md, "What an append cannot change")."""
        db = InfluxDB()
        db.create_database("d")
        assert db.freshness("d", "m") == (0, 0, -math.inf)
        assert db.freshness("nowhere", "m") == (0, 0, -math.inf)

        def after(mutate):
            before = db.freshness("d", "m")
            mutate()
            now = db.freshness("d", "m")
            assert now[1] > before[1] and now[1] == db.generation("d", "m")
            assert now[0] in (before[0], now[1]) and now[2] >= before[2]
            return now[0] != before[0], now[2]

        def write(t, tags=None):
            return lambda: db.write("d", Point("m", tags or {}, {"v": 1.0}, t))

        assert after(write(10.0)) == (True, 10.0)        # first write
        assert after(write(10.0)) == (False, 10.0)       # duplicate timestamp
        assert after(write(12.0)) == (False, 12.0)       # in order
        assert after(write(11.0)) == (True, 12.0)        # below the frontier
        assert after(write(3.0, {"k": "new"})) == (True, 12.0)  # a late series
        assert after(write(12.0, {"k": "new"})) == (False, 12.0)
        assert after(lambda: db.delete_series("d", "m", {"k": "new"})) == (True, 12.0)
        db.set_retention_policy("d", 1.5)
        assert after(lambda: db.enforce_retention("d", 12.0)) == (True, 12.0)
        rows = []
        assert after(lambda: rows.extend(db.pop_series("d", "m", {}))) == (True, 12.0)
        assert after(lambda: db.import_rows("d", "m", {}, rows)) == (True, 12.0)
        assert after(write(20.0)) == (False, 20.0)
        block = db.stats("d")["measurements"]["m"]
        assert (block["epoch"], block["generation"], block["frontier"]) == (
            db.freshness("d", "m"))
        # untouched by all of it
        db.write("d", Point("other", {}, {"v": 1.0}, 1.0))
        assert db.freshness("d", "other")[2] == 1.0

    def test_a_nan_timestamp_is_refused_before_anything_moves(self):
        db = _mk([Point("m", {}, {"v": 1.0}, 1.0)])
        assert db.stats("pmove")["measurements"]["m"]["rows_unfolded"] == 1
        before = db.freshness("pmove", "m"), db.stats("pmove")  # now caught up
        for name in ("m", "never_written"):
            with pytest.raises(InfluxError):
                db.write("pmove", Point(name, {}, {"v": 2.0}, math.nan))
        assert (db.freshness("pmove", "m"), db.stats("pmove")) == before
        assert db.measurements("pmove") == ["m"]

    def test_nan_aggregate_still_exact(self):
        db = _mk([Point("m", {}, {"v": v}, float(i))
                  for i, v in enumerate([1.0, math.nan, 3.0])])
        for agg in ("MEAN", "SUM", "MIN", "MAX", "LAST", "COUNT"):
            q = Query("m", ("v",), agg, (), None, None, None)
            _assert_same(db, q)
