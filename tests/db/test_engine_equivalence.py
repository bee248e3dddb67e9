"""Indexed engine ≡ naive scan: randomized equivalence proofs.

The series-sharded, time-indexed engine (:class:`repro.db.influx.InfluxDB`)
must return *byte-identical* results to the flat-list reference
(:class:`repro.db.naive.NaiveInfluxDB`) — same points, same order, same
query output, same retention drops, same byte accounting — for arbitrary
workloads including out-of-order writes, duplicate timestamps, multi-series
tag sets, and sparse field sets.

Raw selects get their own section: the indexed engine answers them with
column copies behind a row-sequence view (:class:`ColumnRows`), so the view
has to *be* the row list the naive engine builds — under ``==`` both ways,
``repr``, ``len``, iteration, indexing and slicing — and nothing it hands
out may alias engine storage.
"""

import copy
import math
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import ColumnRows, InfluxDB, Point, _merge_keyed
from repro.db.influxql import Query, ResultSet, execute, naive_execute, parse_query
from repro.db.naive import NaiveInfluxDB
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH

MEASUREMENTS = ["cpu_idle", "mem_used"]
TAG_KEYS = ["tag", "host"]
TAG_VALUES = ["a", "b", "c"]
FIELD_NAMES = ["_cpu0", "_cpu1", "v"]

# Mix a coarse grid (forcing duplicate and boundary timestamps) with
# arbitrary floats (forcing out-of-order insertion paths).
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

tag_filter = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES), max_size=2),
)
time_bound = st.one_of(st.none(), st.integers(0, 8).map(float), st.floats(0, 100))


def mk_pair(pts):
    indexed, naive = InfluxDB(), NaiveInfluxDB()
    for d in (indexed, naive):
        d.create_database("pmove")
    indexed.write_many("pmove", list(pts))
    naive.write_many("pmove", list(pts))
    return indexed, naive


class TestScanEquivalence:
    @given(workloads, tag_filter, time_bound, time_bound, st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_points_identical(self, pts, tags, t0, t1, x0, x1):
        indexed, naive = mk_pair(pts)
        for meas in MEASUREMENTS:
            got = indexed.points(
                "pmove", meas, tags, t0, t1, t0_exclusive=x0, t1_exclusive=x1
            )
            want = naive.points(
                "pmove", meas, tags, t0, t1, t0_exclusive=x0, t1_exclusive=x1
            )
            assert got == want

    @given(workloads)
    @settings(max_examples=60, deadline=None)
    def test_measurements_and_stats_identical(self, pts):
        indexed, naive = mk_pair(pts)
        assert indexed.measurements("pmove") == naive.measurements("pmove")
        si, sn = indexed.stats("pmove"), naive.stats("pmove")
        for key in ("points_written", "bytes_written", "series_stored"):
            assert si[key] == sn[key]

    @given(workloads, st.floats(1, 50), st.floats(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_retention_identical(self, pts, duration, now):
        indexed, naive = mk_pair(pts)
        indexed.set_retention_policy("pmove", duration)
        naive.set_retention_policy("pmove", duration)
        assert indexed.enforce_retention("pmove", now) == naive.enforce_retention(
            "pmove", now
        )
        assert indexed.measurements("pmove") == naive.measurements("pmove")
        for meas in MEASUREMENTS:
            assert indexed.points("pmove", meas) == naive.points("pmove", meas)


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
    group_by_s=st.one_of(st.none(), st.sampled_from([2.0, 5.0])),
    limit=st.one_of(st.none(), st.integers(1, 5)),
    t0_exclusive=st.booleans(),
    t1_exclusive=st.booleans(),
)


class TestQueryEquivalence:
    @given(workloads, queries)
    @settings(max_examples=120, deadline=None)
    def test_execute_identical(self, pts, q):
        if q.group_by_s is not None and q.aggregate is None:
            q = Query(**{**q.__dict__, "aggregate": "MEAN"})
        indexed, naive = mk_pair(pts)
        got = execute(indexed, "pmove", q)
        want = execute(naive, "pmove", q)
        assert got.columns == want.columns
        assert got.rows == want.rows


# ----------------------------------------------------------------------
# Raw selects: columns behind a row view ≡ the naive engine's row list
# ----------------------------------------------------------------------
ENGINES = {
    "indexed": InfluxDB,
    "1-shard": lambda: ShardedInfluxDB(1),
    "4-shard": lambda: ShardedInfluxDB(4),
}

raw_selects = st.builds(
    Query,
    measurement=st.sampled_from(MEASUREMENTS),
    columns=st.one_of(
        st.just(("*",)),
        # "never" is a column no point ever writes
        st.lists(
            st.sampled_from(FIELD_NAMES + ["never"]), min_size=1, max_size=4, unique=True
        ).map(tuple),
    ),
    aggregate=st.none(),
    # an exact tag set is one series (the dashboard shape); fewer tags, several
    tag_filters=st.lists(
        st.tuples(st.sampled_from(TAG_KEYS), st.sampled_from(TAG_VALUES)),
        max_size=2, unique_by=lambda kv: kv[0],
    ).map(tuple),
    t0=time_bound,
    t1=time_bound,
    group_by_s=st.none(),
    limit=st.one_of(st.none(), st.integers(1, 5)),
    t0_exclusive=st.booleans(),
    t1_exclusive=st.booleans(),
)


def mk_engine(kind, pts):
    db = ENGINES[kind]()
    db.create_database("pmove")
    db.write_many("pmove", list(pts))
    return db


def _naive(pts):
    naive = NaiveInfluxDB()
    naive.create_database("pmove")
    naive.write_many("pmove", list(pts))
    return naive


class TestRawSelectEquivalence:
    @given(workloads, raw_selects, st.sampled_from(sorted(ENGINES)))
    @settings(max_examples=200, deadline=None)
    def test_execute_is_the_naive_row_list(self, pts, q, kind):
        got = execute(mk_engine(kind, pts), "pmove", q)
        want = naive_execute(_naive(pts), "pmove", q)
        assert type(want.rows) is list  # the reference really is rows
        assert got.columns == want.columns
        assert got.rows == want.rows and want.rows == got.rows
        assert not got.rows != want.rows and not want.rows != got.rows
        assert got == want
        assert repr(got.rows) == repr(want.rows)
        assert len(got) == len(want) and bool(got.rows) == bool(want.rows)
        assert list(got.rows) == want.rows
        assert got.times() == want.times()
        assert got.series() == want.series()
        for name in want.columns:
            assert got.column(name) == want.column(name)
            assert got.series(name) == want.series(name)
        # indexing and slicing, on a result nothing has iterated yet
        fresh = execute(mk_engine(kind, pts), "pmove", q).rows
        for i in (0, -1):
            if want.rows:
                assert fresh[i] == want.rows[i]
            else:
                with pytest.raises(IndexError):
                    fresh[i]
        fresh = execute(mk_engine(kind, pts), "pmove", q).rows
        for sl in (slice(1, 3), slice(None, 2), slice(None, None, -1), slice(5, 1)):
            assert fresh[sl] == want.rows[sl] and want.rows[sl] == fresh[sl]
        # ... and one result type for a slice, rows built or not
        if isinstance(fresh, ColumnRows):
            before = fresh[1:3]
            list(fresh)
            assert type(fresh[1:3]) is type(before) is ColumnRows
            assert fresh[1:3] == before == want.rows[1:3]

    @given(workloads, raw_selects)
    @settings(max_examples=100, deadline=None)
    def test_view_differs_from_a_different_list(self, pts, q):
        rows = execute(mk_engine("indexed", pts), "pmove", q).rows
        assert isinstance(rows, ColumnRows)
        plain = [(t, list(r)) for t, r in rows]
        assert rows == plain
        assert rows != plain + [(0.0, [None] * len(q.columns))]
        assert rows != tuple(plain) and rows != "rows"
        if plain and plain[0][1]:
            plain[0][1][0] = object()
            assert rows != plain and plain != rows

    def test_series_of_a_result_built_from_rows(self):
        rs = ResultSet(columns=["a", "b"],
                       rows=[(1.0, [None, 2.0]), (2.0, [3.0, None]), (3.0, [4.0, 5.0])])
        assert rs.series() == ([2.0, 3.0], [3.0, 4.0])
        assert rs.series("b") == ([1.0, 3.0], [2.0, 5.0])
        assert ResultSet(columns=[], rows=[]).series() == ([], [])
        with pytest.raises(ValueError):
            rs.series("c")


class TestNothingAliasesStorage:
    """Edit everything a read hands out; the engine must not notice."""

    @given(workloads, raw_selects, st.sampled_from(sorted(ENGINES)))
    @settings(max_examples=120, deadline=None)
    def test_mutating_results_changes_no_later_answer(self, pts, q, kind):
        db = mk_engine(kind, pts)
        columns = None if q.columns == ("*",) else list(q.columns)

        def scan():
            return db.scan_columns(
                "pmove", q.measurement, columns=columns, tags=dict(q.tag_filters),
                t0=q.t0, t1=q.t1, t0_exclusive=q.t0_exclusive,
                t1_exclusive=q.t1_exclusive, limit=q.limit,
            )

        before_scan = copy.deepcopy([list(scan()[0]), list(scan()[1])])
        before_points = db.points("pmove", q.measurement)

        cols, rows = scan()
        cols.append("junk")
        if isinstance(rows, ColumnRows):  # the columns themselves
            rows.times[:] = [-1.0] * len(rows.times)
            for col in rows.cols:
                if col is not None:
                    col[:] = [-2.0] * len(col)
        _, rows = scan()
        for _, values in rows:  # rows built from them
            values[:] = [-3.0] * len(values)
        rs = execute(db, "pmove", q)
        for out in (rs.times(), *rs.series(),
                    *(rs.column(c) for c in rs.columns),
                    *(part for c in rs.columns for part in rs.series(c))):
            out[:] = [-4.0] * (len(out) + 1)
        for _, values in rs.rows:
            values[:] = [-5.0]
        rs.columns.append("junk")

        after = scan()
        assert [list(after[0]), list(after[1])] == before_scan
        assert db.points("pmove", q.measurement) == before_points
        fresh = execute(db, "pmove", q)
        assert fresh.rows == before_scan[1]
        # a second read of the *same* result is not its caller's edits either
        again = execute(db, "pmove", q)
        first = again.series()
        first[0].append(-6.0), first[1].append(-6.0)
        assert again.series() == fresh.series()


# ----------------------------------------------------------------------
# The keyed merge: the one routine that orders rows of several sources
# ----------------------------------------------------------------------
# k runs over three columns: "dense" every run wrote, "sparse" with holes
# and missing from some runs, "never" no run wrote.  Times come from a grid
# of four values, so most keys tie on time and are settled by seq.
merge_rows = st.lists(
    st.tuples(st.integers(0, 3).map(float), st.integers(0, 3),
              st.one_of(st.none(), st.integers(0, 9).map(float))),
    min_size=1, max_size=40,
)


class TestKeyedMerge:
    @staticmethod
    def _runs(rows):
        """Rows ``(time, run, sparse value)`` dealt to their runs, each in
        (time, seq) order, seq being the row's place in ``rows``.  The seqs
        ride along as the last column, as a caller that wants them merged
        passes them."""
        runs = []
        for r in sorted({r for _, r, _ in rows}):
            mine = sorted((t, q, v) for q, (t, run, v) in enumerate(rows) if run == r)
            seqs = [q for _, q, _ in mine]
            runs.append((
                [t for t, _, _ in mine], seqs,
                [[t * 100.0 + q for t, q, _ in mine],
                 None if r % 2 else [v for _, _, v in mine],
                 None, seqs],
            ))
        return runs

    @given(merge_rows, st.one_of(st.none(), st.integers(1, 12)))
    @settings(max_examples=150, deadline=None)
    def test_merge_is_the_sorted_rows_and_limit_its_prefix(self, rows, limit):
        runs = self._runs(rows)
        times, (dense, sparse, never, seqs) = _merge_keyed(runs, 4)
        assert list(zip(times, seqs)) == sorted((t, q) for q, (t, _, _) in enumerate(rows))
        assert dense == [t * 100.0 + q for t, q in zip(times, seqs)]
        assert never is None  # not a list of None
        if all(r % 2 for _, r, _ in rows):
            assert sparse is None
        else:
            assert sparse == [None if rows[q][1] % 2 else rows[q][2] for q in seqs]
        clamped = [(ts[:limit], qs[:limit], [c and c[:limit] for c in cols])
                   for ts, qs, cols in runs]
        for given_runs in (runs, clamped):
            lt, lcols = _merge_keyed(given_runs, 4, limit)
            assert lt == times[:limit]
            assert lcols == [c and c[:limit] for c in (dense, sparse, never, seqs)]

    def test_one_run_is_handed_back_as_it_is(self):
        times, seqs, cols = [1.0, 1.0, 2.0], [4, 7, 5], [[0.1, 0.2, 0.3], None]
        for limit in (None, 3):
            got = _merge_keyed([(times, seqs, cols)], 2, limit)
            assert got[0] is times and got[1] is cols
        assert _merge_keyed([(times, seqs, cols)], 2, limit=2) == (
            [1.0, 1.0], [[0.1, 0.2], None])
        assert _merge_keyed([], 2) == ([], [None, None])


# ----------------------------------------------------------------------
# Summaries caught up on read: reads fall between the writes
# ----------------------------------------------------------------------
# Tiers, digests and HLLs are memos over a row prefix (``_Series.folded``)
# that readers advance.  So the state to cover is *where the mark stands
# when the next mutation arrives*: late writes below, at and above it
# (dense integer times make them land in the bucket that straddles it),
# NaN values, retention cutting through a half-folded bucket, series
# dropped and moved.  Two properties: every read equals the naive fold of
# the raw rows (exactly, or within the sketch bounds), and the reads made
# on the way change no later answer.
LAZY_TAGS = ["a", "b"]
LAZY_FIELDS = ["v", "w"]

lazy_points = st.builds(
    Point,
    measurement=st.just("m"),
    tags=st.fixed_dictionaries({"tag": st.sampled_from(LAZY_TAGS)}),
    fields=st.dictionaries(
        st.sampled_from(LAZY_FIELDS),
        st.one_of(
            st.integers(-3, 3).map(float),  # few distinct values, cancelling sums
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.sampled_from([math.nan, 0.1, 1e16, -1e16]),
        ),
        min_size=1, max_size=2,
    ),
    time=st.one_of(
        st.integers(0, 130).map(float),
        st.floats(0, 130, allow_nan=False, allow_infinity=False),
    ),
)

_where = st.sampled_from(["", " AND time < 45s", " AND time >= 12s AND time <= 70s",
                          " AND time > 60s"])
lazy_reads = st.one_of(
    st.builds(
        'SELECT {}("{}") FROM "m" WHERE tag=\'{}\'{} GROUP BY time({}s)'.format,
        st.sampled_from(["MEAN", "SUM", "MIN", "MAX", "COUNT", "LAST", "STDDEV",
                         "PERCENTILE50", "PERCENTILE95"]),
        st.sampled_from(LAZY_FIELDS), st.sampled_from(LAZY_TAGS), _where,
        st.sampled_from([10, 20, 60, 7]),
    ).map(lambda text: text.replace('PERCENTILE50("v")', 'PERCENTILE("v", 50)')
          .replace('PERCENTILE95("v")', 'PERCENTILE("v", 95)')
          .replace('PERCENTILE50("w")', 'PERCENTILE("w", 50)')
          .replace('PERCENTILE95("w")', 'PERCENTILE("w", 95)')),
    st.builds(
        'SELECT {} FROM "m" WHERE tag=\'{}\'{}'.format,
        st.sampled_from(['PERCENTILE("v", 90)', 'COUNT(DISTINCT("v"))',
                         'DISTINCT("w")', 'STDDEV("v")', '"v", "w"']),
        st.sampled_from(LAZY_TAGS), _where,
    ),
    st.sampled_from(['SELECT COUNT(DISTINCT("v")) FROM "m"',
                     'SELECT MAX("w") FROM "m" GROUP BY time(10s)',
                     # two columns of one tier window; two kept percentiles
                     'SELECT MEAN("v"), MEAN("w") FROM "m" WHERE tag=\'a\' '
                     'GROUP BY time(10s)',
                     'SELECT PERCENTILE("v", 95), PERCENTILE("w", 95) FROM "m" '
                     'WHERE tag=\'b\' AND time < 45s GROUP BY time(10s)',
                     'SELECT STDDEV("v") FROM "m" GROUP BY time(60s)']),
)

lazy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.lists(lazy_points, min_size=1, max_size=12)),
        st.tuples(st.just("write"), st.lists(lazy_points, min_size=1, max_size=12)),
        st.tuples(st.just("read"), lazy_reads),
        st.tuples(st.just("read"), lazy_reads),
        st.tuples(st.just("stats"), st.none()),
        st.tuples(st.just("retain"), st.integers(100, 190).map(float)),
        st.tuples(st.just("delete"), st.sampled_from(LAZY_TAGS)),
        st.tuples(st.just("move"), st.sampled_from(LAZY_TAGS)),
    ),
    max_size=14,
)

FINAL_READS = [
    f'SELECT {agg} FROM "m" WHERE tag=\'{tag}\'{where} GROUP BY time({n}s)'
    for agg in ('MEAN("v")', 'MAX("w")', 'STDDEV("v")', 'PERCENTILE("v", 95)')
    for tag in LAZY_TAGS
    for where in ("", " AND time < 45s")
    for n in (10, 20, 60)
] + [f'SELECT {sel} FROM "m" WHERE tag=\'{tag}\''
     for sel in ('PERCENTILE("w", 50)', 'COUNT(DISTINCT("v"))') for tag in LAZY_TAGS]


def _rank_error(sorted_vals, got, q):
    n = len(sorted_vals)
    lo = bisect_left(sorted_vals, got) / n
    hi = bisect_right(sorted_vals, got) / n
    return 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))


def assert_answers_like_naive(db, text):
    """Exact families: the naive fold's rows, NaN for NaN.  PERCENTILE:
    every value within the merged-digest rank bound of its bucket's rows.
    COUNT(DISTINCT): within the HLL bound of the exact count."""
    got = execute(db, "pmove", text)
    want = naive_execute(db, "pmove", text)
    q = parse_query(text) if isinstance(text, str) else text
    if q.aggregate == "COUNT_DISTINCT":
        (_, [g]), (_, [w]) = got.rows[0], want.rows[0]
        assert (g is None) == (w is None)
        assert g is None or abs(g - w) <= max(2.0, 4 * 1.04 / 64.0 * w)
        return
    if q.aggregate != "PERCENTILE":
        assert got.columns == want.columns
        assert repr(list(got.rows)) == repr(list(want.rows)), text
        return
    raw = naive_execute(db, "pmove", Query(**{**q.__dict__, "aggregate": None,
                                              "agg_arg": None, "group_by_s": None}))
    assert [t for t, _ in got.rows] == [t for t, _ in want.rows]
    bound = DEFAULT_SKETCH.digest_bound(merged=True)
    for ci in range(len(got.columns)):
        buckets = {}
        for t, row in raw.rows:
            v = row[ci]
            if v is not None and v == v:
                key = 0.0 if q.group_by_s is None else (t // q.group_by_s) * q.group_by_s
                buckets.setdefault(key, []).append(v)
        for (t, grow), (_, wrow) in zip(got.rows, want.rows):
            g, w = grow[ci], wrow[ci]
            assert (g is None) == (w is None), text
            if g is not None:
                vals = sorted(buckets[t if q.group_by_s is not None else 0.0])
                assert _rank_error(vals, g, q.agg_arg / 100.0) <= bound + 1.0 / len(vals)


def lazy_engine(kind):
    db = ENGINES[kind]()
    db.create_database("pmove")
    db.set_retention_policy("pmove", 100.0)
    return db


def apply_mutation(db, op, arg):
    if op == "write":
        db.write_many("pmove", list(arg))
    elif op == "retain":
        db.enforce_retention("pmove", arg)
    elif op == "delete":
        db.delete_series("pmove", "m", {"tag": arg})
    elif op == "move":
        if isinstance(db, ShardedInfluxDB):  # pop_series/import_rows per series
            if len(db.shard_names()) > 1 and arg == "a":
                db.remove_shard(db.shard_names()[-1])
            else:
                db.add_shard()
        else:
            rows = db.pop_series("pmove", "m", {"tag": arg})
            if rows is not None:
                db.import_rows("pmove", "m", {"tag": arg}, rows)


class TestReadsBetweenWrites:
    @given(lazy_ops, st.sampled_from(sorted(ENGINES)))
    @settings(max_examples=150, deadline=None)
    def test_every_read_answers_like_the_naive_fold(self, ops, kind):
        db = lazy_engine(kind)
        for op, arg in ops:
            if op == "read":
                assert_answers_like_naive(db, arg)
            elif op == "stats":
                db.stats("pmove")
            else:
                apply_mutation(db, op, arg)
        for text in FINAL_READS:
            assert_answers_like_naive(db, text)

    @given(lazy_ops, st.sampled_from(sorted(ENGINES)))
    @settings(max_examples=150, deadline=None)
    def test_reads_on_the_way_change_no_later_answer(self, ops, kind):
        """Any interleaving of writes, ``stats()``, tier reads and DISTINCT
        reads ends in the answers — sketch-served ones included, bit for
        bit — of the mutations alone."""
        looked, quiet = lazy_engine(kind), lazy_engine(kind)
        for op, arg in ops:
            if op == "read":
                execute(looked, "pmove", arg)
            elif op == "stats":
                looked.stats("pmove")
            else:
                apply_mutation(looked, op, arg)
                apply_mutation(quiet, op, arg)
        for text in FINAL_READS:
            assert repr(list(execute(looked, "pmove", text).rows)) == repr(
                list(execute(quiet, "pmove", text).rows)), text
        # ... and in the same stored state; what differs is how much of it
        # was summarised when stats() arrived, and which sketches exist (an
        # HLL that hashed a row retention dropped before the other looked)
        after = [db.stats("pmove") for db in (looked, quiet)]
        for st_ in after:
            for shard in st_.get("shards", {"": st_}).values():
                for block in shard["measurements"].values():
                    del block["rows_unfolded"], block["sketch"]
        assert after[0] == after[1]
