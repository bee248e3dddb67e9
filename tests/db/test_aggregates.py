"""The one aggregate table (``repro.db.aggregates``) and what reads it.

- A statement the table cannot answer is refused, by ``execute`` and by
  ``naive_execute`` alike (they share the parse): an unknown function used
  to be answered as a raw column named ``FOO("f")``, and a raw field beside
  an aggregate was folded with it.
- MEAN and SUM see one sequence on every path — a bucket's rows in (time,
  seq) order — so the raw fold, a tier-served ``time(T)`` read, a 4-shard
  router's refold and the naive fold agree bit for bit on the running
  Python, on a bucket whose left-fold and compensated sums differ.
- A statement renders back to itself: a drawn :class:`Query` over every
  aggregate the table names parses back equal, and a near-miss text either
  raises :class:`InfluxError` or parses to a statement whose rendering
  parses to it again.
"""

import functools
import math
import operator
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import InfluxDB, InfluxError, Point, ShardedInfluxDB
from repro.db.aggregates import AGGREGATES
from repro.db.influxql import Query, execute, naive_execute, parse_query
from repro.viz.dashboard import DashboardError, Target
from repro.viz.grafana import quote_tag_value


def _db():
    db = InfluxDB()
    db.create_database("d")
    db.write_many("d", [Point("m", {}, {"f": float(i), "g": 10.0 + i}, float(i))
                        for i in range(5)])
    return db


def _refused(text):
    db = _db()
    for run in (execute, naive_execute):
        with pytest.raises(InfluxError):
            run(db, "d", text)


class TestRefusedStatements:
    def test_an_unknown_function_is_refused(self):
        """It used to read as a raw column literally named ``FOO("f")``,
        rows of ``None``; as a panel target it rendered an empty series."""
        _refused('SELECT FOO("f") FROM "m"')
        with pytest.raises(DashboardError):
            Target("m", "f", agg="FOO")

    def test_an_aggregate_beside_a_raw_field_is_refused(self):
        """``g`` (10 … 14) used to be folded with MEAN too: ``[2.0, 12.0]``."""
        for sel in ('MEAN("f"), "g"', '"g", MEAN("f")'):
            _refused(f'SELECT {sel} FROM "m"')

    @pytest.mark.parametrize("text", [
        'SELECT MEAN(DISTINCT "f") FROM "m"',
        'SELECT MEAN("f"), MAX("g") FROM "m"',
        'SELECT PERCENTILE("f", 101) FROM "m"',
        'SELECT PERCENTILE("f", nan) FROM "m"',
        'SELECT PERCENTILE("f") FROM "m"',
        'SELECT DISTINCT("f"), DISTINCT("g") FROM "m"',
        'SELECT COUNT(DISTINCT "f") FROM "m" GROUP BY time(10s)',
        'SELECT MEAN("f") FROM "m" WHERE time >= 1e999',
        'SELECT MEAN("f") FROM "m" WHERE tag="a" junk',
        'SELECT MEAN("f") FROM "m" GROUP BY time(1..2s)',
    ])
    def test_what_no_record_answers_is_refused(self, text):
        _refused(text)

    def test_a_built_query_is_held_to_the_table_too(self):
        for q in (Query("m", ("f",), "FOO", (), None, None, None),
                  Query("m", ("f",), "PERCENTILE", (), None, None, None),
                  Query("m", ("f",), "MEAN", (), None, None, None, agg_arg=5.0),
                  Query("m", ("f",), "DISTINCT", (), None, None, 10.0)):
            with pytest.raises(InfluxError):
                execute(_db(), "d", q)

    def test_quoted_names_stay_raw_columns(self):
        q = parse_query('SELECT "a(b)", "FOO(f)" FROM "m"')
        assert q.aggregate is None and q.columns == ("a(b)", "FOO(f)")

    def test_a_target_takes_what_its_record_admits(self):
        Target("m", "f", agg="median")
        Target("m", "f", agg="PERCENTILE", agg_arg=0.0)
        for agg, arg in (("MEAN", 5.0), ("MEDIAN", 50.0), ("PERCENTILE", -1.0)):
            with pytest.raises(DashboardError):
                Target("m", "f", agg=agg, agg_arg=arg)


class TestFoldOrder:
    VALUES = [1e16, 1.0, -1e16]

    @staticmethod
    def _shards(router):
        """Three tag values the ring places on more than one shard."""
        def shard(tag):
            return router.shard_for("m", {"s": tag})
        other = next(str(k) for k in range(1, 100) if shard(str(k)) != shard("0"))
        return ["0", other, next(str(k) for k in range(1, 100) if str(k) != other)]

    def test_every_path_folds_one_sequence(self):
        vals = self.VALUES
        assert functools.reduce(operator.add, vals) != math.fsum(vals)
        raw, tiered = InfluxDB(rollup_tiers=()), InfluxDB(rollup_tiers=(10.0,))
        router = ShardedInfluxDB(4, rollup_tiers=(10.0,))
        for db, tags in ((raw, None), (tiered, None), (router, self._shards(router))):
            db.create_database("d")
            db.write_many("d", [Point("m", {"s": tags[i]} if tags else {}, {"v": v},
                                      float(i)) for i, v in enumerate(vals)])
        for agg, want in (("SUM", sum(vals)), ("MEAN", sum(vals) / len(vals))):
            for gb in (" GROUP BY time(10s)", ""):
                text = f'SELECT {agg}("v") FROM "m"{gb}'
                got = {repr(list(run(db, "d", text).rows)) for run, db in (
                    (execute, raw), (execute, tiered), (execute, router),
                    (naive_execute, raw))}
                assert got == {repr([(0.0, [want])])}, text
        assert tiered.rollup_plan["served:10"] == 2


NAMES = st.text("abcxyz019_.", min_size=1, max_size=5)
HOSTILE = st.text(st.sampled_from(list("ab \t\n\"'=,()<>*;.ANDé ")), max_size=10)


def _quotable(value):
    try:
        quote_tag_value(value)
    except DashboardError:
        return False
    return True


def render(q: Query) -> str:
    """The statement ``q`` stands for, spelled as the table spells it."""
    a = AGGREGATES.get(q.aggregate)

    def item(c):
        f = c if c == "*" else f'"{c}"'
        if a is None:
            return f
        if a.distinct:
            f = f"DISTINCT {f}"
        if a.arg is not None:
            f = f"{f}, {q.agg_arg!r}"
        return f"{a.spelling}({f})"

    where = [f"{k}={quote_tag_value(v)}" for k, v in q.tag_filters]
    if q.t0 is not None:
        where.append(f"time {'>' if q.t0_exclusive else '>='} {q.t0!r}")
    if q.t1 is not None:
        where.append(f"time {'<' if q.t1_exclusive else '<='} {q.t1!r}")
    text = f'SELECT {", ".join(map(item, q.columns))} FROM "{q.measurement}"'
    if where:
        text += " WHERE " + " AND ".join(where)
    if q.group_by_s is not None:
        text += f" GROUP BY time({Decimal(repr(q.group_by_s)):f}s)"  # no exponent
    if q.limit is not None:
        text += f" LIMIT {q.limit}"
    return text


@st.composite
def queries(draw):
    a = draw(st.sampled_from([None, *AGGREGATES.values()]))
    if a is not None and a.field:
        columns = (draw(NAMES),)
    else:
        columns = tuple(draw(st.one_of(st.just(["*"]), st.lists(NAMES, min_size=1,
                                                                  max_size=3))))
    bound = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
    t0, t1 = draw(bound), draw(bound)
    width = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return Query(
        measurement=draw(NAMES),
        columns=columns,
        aggregate=None if a is None else a.name,
        tag_filters=tuple(draw(st.lists(st.tuples(NAMES, HOSTILE.filter(_quotable)),
                                        max_size=3))),
        t0=t0,
        t1=t1,
        group_by_s=None if a is None or a.grouped is None else draw(
            st.one_of(st.none(), width)),
        limit=draw(st.one_of(st.none(), st.integers(1, 10**6))),
        t0_exclusive=t0 is not None and draw(st.booleans()),
        t1_exclusive=t1 is not None and draw(st.booleans()),
        agg_arg=None if a is None or a.arg is None else draw(st.floats(*a.arg)),
    )


@st.composite
def near_misses(draw):
    text = render(draw(queries()))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        c = draw(st.sampled_from(list("\"'(),=<>* ;.s0e-ANDt")))
        text = (text[:i] + c + text[i:] if edit == "insert"
                else text[:i] + text[i + 1:] if edit == "delete"
                else text[:i] + c + text[i + 1:])
    return text


def check_round_trip(q):
    assert parse_query(render(q)) == q


def check_near_miss(text):
    try:
        q = parse_query(text)
    except InfluxError:
        return
    assert parse_query(render(q)) == q, text


class TestStatementsRenderBackToThemselves:
    @given(queries())
    @settings(max_examples=50, deadline=None)
    def test_a_query_parses_back_equal(self, q):
        check_round_trip(q)

    @given(near_misses())
    @settings(max_examples=50, deadline=None)
    def test_a_near_miss_is_refused_or_a_fixed_point(self, text):
        check_near_miss(text)

    @pytest.mark.chaos
    @given(queries())
    @settings(max_examples=1000, deadline=None)
    def test_a_query_parses_back_equal_wide(self, q):
        check_round_trip(q)

    @pytest.mark.chaos
    @given(near_misses())
    @settings(max_examples=2000, deadline=None)
    def test_a_near_miss_is_refused_or_a_fixed_point_wide(self, text):
        check_near_miss(text)
