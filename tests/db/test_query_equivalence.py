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
from itertools import accumulate, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import (
    DEFAULT_ROLLUP_TIERS,
    ColumnRows,
    InfluxDB,
    InfluxError,
    Point,
    _ROLLUP,
    bucket_runs,
)
from repro.db.influxql import Query, execute, naive_execute
from repro.db.sharded import ShardedInfluxDB

from .test_engine_equivalence import assert_answers_like_naive

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


def _plan_rollup(db, s, agg, N):
    """The tier the planner gives ``GROUP BY time(N)`` over all of ``s``."""
    return db._plan(_ROLLUP[agg], s, 0, len(s), N)


class TestRollupServing:
    def test_coarse_bucket_served_from_tier(self):
        """A tier-aligned GROUP BY actually uses the rollup arrays: the
        planner picks the 60s tier for time(60s) on a 10s/60s engine."""
        db = _mk(
            Point("m", {"tag": "a"}, {"v": float(i)}, i * 1.0) for i in range(600)
        )
        s = next(iter(next(iter(db._dbs["pmove"].meas.values())).series.values()))
        r = _plan_rollup(db, s, "MEAN", 60.0)
        assert r is not None and r.tier == 60.0
        # Multiples only combine exactly for COUNT/MIN/MAX/LAST.
        assert _plan_rollup(db, s, "SUM", 120.0) is None
        assert _plan_rollup(db, s, "COUNT", 120.0).tier == 60.0
        assert _plan_rollup(db, s, "MEAN", 7.0) is None

    def test_nan_poisons_min_max_tier(self):
        db = _mk([Point("m", {}, {"v": float("nan")}, 5.0),
                  Point("m", {}, {"v": 1.0}, 6.0)])
        s = next(iter(next(iter(db._dbs["pmove"].meas.values())).series.values()))
        assert _plan_rollup(db, s, "MIN", 10.0) is None
        assert _plan_rollup(db, s, "MAX", 10.0) is None
        assert _plan_rollup(db, s, "COUNT", 10.0) is not None

    def test_unaligned_head_tail_exact(self):
        """A time filter cutting through tier buckets falls back to raw
        rows for the partial head/tail and still matches naive exactly."""
        db = _mk(Point("m", {}, {"v": float(i) * 1.7}, i * 1.0) for i in range(300))
        for t0, t1 in [(13.0, 287.0), (0.5, 299.5), (59.9, 60.1), (None, 45.0)]:
            q = Query("m", ("v",), "MEAN", (), t0, t1, 10.0)
            _assert_same(db, q)
            q = Query("m", ("v",), "LAST", (), t0, t1, 60.0)
            _assert_same(db, q)


# ----------------------------------------------------------------------
# Bucket edges: any width, any time — a row is placed by its own key
# ----------------------------------------------------------------------
#: widths whose multiples round (0.1, 0.3, 1/3), a plain one, a tiny and a
#: huge one; N / 2 is exact for each, so the half-width tier nests in it
WIDTHS = [0.1, 0.3, 1 / 3, 7.0, 1e-3, 1e9]


def edge_times(N):
    """Times that are negative, duplicated, near 2**53, and exactly on
    bucket edges — the edge computed both as ``k * N`` and by adding ``N``
    ``k`` times — with their float neighbours on either side."""
    k = st.integers(-40, 40)
    on_edge = st.one_of(
        k.map(lambda k: k * N),
        st.integers(0, 40).map(lambda k: list(accumulate([N] * k, initial=0.0))[-1]),
    )
    return st.one_of(
        on_edge,
        on_edge.map(lambda t: math.nextafter(t, -math.inf)),
        on_edge.map(lambda t: math.nextafter(t, math.inf)),
        st.floats(-20 * N, 20 * N),
        st.integers(0, 64).map(lambda k: 2.0**53 - 2.0 * k * max(1.0, N)),
        st.sampled_from([0.0, N, -N, N / 2, 3 * N / 2]),
    )


@st.composite
def edge_cases(draw):
    N = draw(st.sampled_from(WIDTHS))
    # (+ 0.0: a -0.0 timestamp labels its bucket -0.0 or 0.0 by which row
    # comes first, which a router merging two shards' buckets does not keep)
    times = [t + 0.0 for t in draw(st.lists(edge_times(N), min_size=1, max_size=40))]
    times += draw(st.lists(st.sampled_from(times), max_size=8))  # duplicates
    return N, times


def grouped(times, N):
    """The reference: sorted rows grouped by ``(t // N) * N``."""
    return [(b, len(list(run)))
            for b, run in groupby(sorted(times), key=lambda t: (t // N) * N)]


class TestBucketEdges:
    @given(edge_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bucket_runs_groups_rows_by_their_key(self, case, data):
        N, times = case
        times.sort()
        lo = data.draw(st.integers(0, len(times)))
        hi = data.draw(st.integers(lo, len(times)))
        runs = list(bucket_runs(times, lo, hi, N))
        assert [(b, j - i) for b, i, j in runs] == grouped(times[lo:hi], N)
        assert [i for _, i, _ in runs] + [hi] == [lo] + [j for _, _, j in runs]

    def test_the_bisect_alone_would_misplace_these(self):
        """``b + N`` is not where the key moves, in either direction: 0.5
        keys to bucket 0.4 of width 0.1 though it is not below ``0.4 + 0.1``;
        0.01 keys to itself at width 1e-3 though it is below
        ``0.009… + 1e-3``; and near 2**53, ``b + 0.1`` is ``b`` itself."""
        assert (0.5 // 0.1) * 0.1 == 0.4 and not 0.5 < 0.4 + 0.1
        b = (0.0095 // 1e-3) * 1e-3
        assert (0.01 // 1e-3) * 1e-3 == 0.01 != b and 0.01 < b + 1e-3
        big = 2.0**53
        assert big + 0.1 == big
        for N, times in ((0.1, [0.4, 0.45, 0.5, 0.5, 0.55, 0.6]),
                         (1e-3, [0.0095, 0.0095, 0.01, 0.0105, 0.011]),
                         (0.1, [big - 4, big - 2, big - 2, big])):
            assert [(b, j - i) for b, i, j in bucket_runs(times, 0, len(times), N)
                    ] == grouped(times, N)

    AGGS = ["MEAN", "SUM", "COUNT", "MIN", "MAX", "LAST", "STDDEV", "PERCENTILE"]

    @staticmethod
    def load(engine, N, tier, times, data):
        db = engine(rollup_tiers=() if tier is None else (tier,))
        db.create_database("pmove")
        value = st.floats(-1e6, 1e6, width=32)
        pts = []
        for t in times:
            fields = {"a": data.draw(value)}
            if data.draw(st.booleans()):
                fields["b"] = data.draw(value)  # a column with holes
            pts.append(Point("m", {"tag": data.draw(st.sampled_from("xxy"))},
                             fields, t))
        db.write_many("pmove", pts)
        return db

    @pytest.mark.parametrize("engine", [InfluxDB, lambda **kw: ShardedInfluxDB(2, **kw)])
    @given(case=edge_cases(), tiering=st.sampled_from(["raw", "exact", "half"]),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_execute_equals_naive_on_every_path(self, engine, case, tiering, data):
        """Raw walk, a tier equal to ``N``, a tier half of it (COUNT/MIN/
        MAX/LAST reduce over pairs; the rest fall back), windows that cut the
        first and last bucket, one series or two (the merged walk, the
        router's partials), holes and a column nobody wrote."""
        N, times = case
        tier = {"raw": None, "exact": N, "half": N / 2}[tiering]
        db = self.load(engine, N, tier, times, data)
        bound = st.one_of(st.none(), st.sampled_from(times))
        t0, t1 = data.draw(bound), data.draw(bound)
        tags = data.draw(st.sampled_from([(), (("tag", "x"),)]))
        for agg in self.AGGS:
            q = Query("m", ("a", "b", "never"), agg, tags, t0, t1, N,
                      t0_exclusive=data.draw(st.booleans()),
                      t1_exclusive=data.draw(st.booleans()),
                      agg_arg=95.0 if agg == "PERCENTILE" else None)
            assert_answers_like_naive(db, q)

    @pytest.mark.parametrize("N", WIDTHS)
    def test_each_path_is_really_taken(self, N):
        """One dense series, buckets of three rows, a window that cuts the
        first and the last bucket: the planners serve from the exact tier
        and from the half-width tier, and the answers are the naive ones."""
        times = [k * N + f * N for k in range(2, 12) for f in (0.0, 0.25, 0.75)]
        for tier, rollup, sketch in (
            (N, {f"served:{N:g}": 6}, {f"served:{N:g}": 1, f"stddev-served:{N:g}": 1}),
            (N / 2, {f"served:{N / 2:g}": 4, "skip:mean-sum-needs-exact-tier": 2,
                     "raw-fallback": 2},
             {f"served:{N / 2:g}": 1, "stddev-raw": 1}),
        ):
            db = InfluxDB(rollup_tiers=(tier,))
            db.create_database("pmove")
            db.write_many("pmove", [
                Point("m", {}, {"a": float(i % 7), "b": -float(i)}, t)
                for i, t in enumerate(times)])
            for agg in self.AGGS:
                assert_answers_like_naive(db, Query(
                    "m", ("a", "b", "never"), agg, (), times[1], times[-2], N,
                    agg_arg=95.0 if agg == "PERCENTILE" else None))
            assert db.rollup_plan == rollup and db.sketch_plan == sketch

    def test_a_tier_that_only_nearly_divides_is_not_used(self):
        """0.5 / 0.1 == 5.0 in floats, yet 0.5 is not five times the double
        0.1: the row at 0.5 sits in tier bucket 0.4 and in output bucket
        0.5.  Planned on the quotient (as it was), COUNT read 3, 4 → 3, 3."""
        db = InfluxDB(rollup_tiers=(0.1,))
        db.create_database("pmove")
        db.write_many("pmove", [Point("m", {}, {"a": float(i)}, t) for i, t in
                                enumerate([0.4, 0.45, 0.5, 0.55, 0.6, 0.9, 1.0])])
        for agg in ("COUNT", "MAX", "LAST", "PERCENTILE"):
            assert_answers_like_naive(db, Query(
                "m", ("a",), agg, (), None, None, 0.5,
                agg_arg=50.0 if agg == "PERCENTILE" else None))
        assert "served:0.1" not in db.rollup_plan
        assert db.sketch_plan == {"skip:tier-not-dividing": 1,
                                  "fallback:raw-scan": 1}
        assert_answers_like_naive(db, Query("m", ("a",), "COUNT", (), None, None, 0.2))
        assert db.rollup_plan["served:0.1"] == 1  # 0.2 is exactly two of them


# ----------------------------------------------------------------------
# Grouped reads leave as columns
# ----------------------------------------------------------------------
class TestGroupedReadsAreColumns:
    TEXTS = [
        'SELECT MEAN("a"), MEAN("b"), MEAN("never") FROM "m" WHERE tag=\'x\' '
        "AND time >= 13 AND time <= 171 GROUP BY time(10s)",        # exact tier
        'SELECT MAX("a") FROM "m" WHERE tag=\'x\' GROUP BY time(20s)',   # reduce
        'SELECT SUM("a"), SUM("b") FROM "m" WHERE tag=\'x\' GROUP BY time(7s)',
        'SELECT STDDEV("a") FROM "m" WHERE tag=\'x\' AND time > 5 GROUP BY time(60s)',
        'SELECT PERCENTILE("a", 90) FROM "m" WHERE tag=\'x\' GROUP BY time(10s)',
        'SELECT COUNT("b") FROM "m" GROUP BY time(10s)',             # two series
        'SELECT MEAN("a") FROM "nothing" GROUP BY time(10s)',
    ]

    @pytest.fixture(scope="class")
    def db(self):
        return _mk(
            Point("m", {"tag": "xy"[i % 2]},
                  {"a": float(i % 11)} | ({"b": -float(i)} if i % 3 else {}), i * 0.5)
            for i in range(400))

    @pytest.mark.parametrize("text", TEXTS)
    def test_rows_read_as_the_row_list(self, db, text):
        got = execute(db, "pmove", text)
        want = list(naive_execute(db, "pmove", text).rows)
        if "PERCENTILE" in text:  # a sketch answer: compare it to itself
            want = [(t, list(r)) for t, r in got.rows]
        rows = got.rows
        assert isinstance(rows, ColumnRows) and len(rows) == len(want) == len(got)
        assert list(rows) == want and rows == want and want == rows
        assert repr(rows) == repr(want)
        assert [rows[i] for i in range(len(want))] == want
        if want:
            assert rows[-1] == want[-1]
        assert rows[1:3] == want[1:3] and isinstance(rows[1:3], ColumnRows)
        for column in got.columns:
            idx = got.columns.index(column)
            pairs = [(t, r[idx]) for t, r in want if r[idx] is not None]
            assert got.series(column) == ([t for t, _ in pairs], [v for _, v in pairs])

    @pytest.mark.parametrize("text", TEXTS[:5])
    def test_limit_slices_the_columns(self, db, text):
        whole = execute(db, "pmove", text).rows
        cut = execute(db, "pmove", text + " LIMIT 3").rows
        assert isinstance(cut, ColumnRows) and cut == whole[:3] == list(whole)[:3]
        assert cut.times == whole.times[:3]

    def test_an_answer_is_not_an_alias_of_the_tier(self, db):
        """Columns handed out are copies: editing one cannot reach the
        rollup arrays or the kept percentiles."""
        for text in (self.TEXTS[0], self.TEXTS[4]):
            first = execute(db, "pmove", text).rows
            want = list(first)
            for col in first.cols:
                if col is not None:
                    col[:] = [None] * len(col)
            first.times.clear()
            assert list(execute(db, "pmove", text).rows) == want


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
        """So is an infinite one: ``+inf`` used to land, set the frontier to
        ``inf`` and only then fail in byte accounting, half applied."""
        db = _mk([Point("m", {}, {"v": 1.0}, 1.0)])
        assert db.stats("pmove")["measurements"]["m"]["rows_unfolded"] == 1
        before = db.freshness("pmove", "m"), db.stats("pmove")  # now caught up
        for when in (math.nan, math.inf, -math.inf):
            for name in ("m", "never_written"):
                with pytest.raises(InfluxError):
                    db.write("pmove", Point(name, {}, {"v": 2.0}, when))
            assert (db.freshness("pmove", "m"), db.stats("pmove")) == before
            assert db.measurements("pmove") == ["m"]
        db.write("pmove", Point("m", {}, {"v": 3.0}, 2.0))
        assert db.freshness("pmove", "m")[0] == before[0][0]  # still in order

    def test_nan_aggregate_still_exact(self):
        db = _mk([Point("m", {}, {"v": v}, float(i))
                  for i, v in enumerate([1.0, math.nan, 3.0])])
        for agg in ("MEAN", "SUM", "MIN", "MAX", "LAST", "COUNT"):
            q = Query("m", ("v",), agg, (), None, None, None)
            _assert_same(db, q)
