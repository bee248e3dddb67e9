"""Every door into storage takes the same points and stores the same values.

A point is defined once, in :mod:`repro.db.influx`: its values and time are
checked when it is built, its names once per series by ``check_names``.
Each door below builds or takes ``Point`` objects, so for any point drawn
either every door refuses it with ``InfluxError`` and stores nothing, or
every door stores the same fields, bit for bit.  The text and durable doors
carry the time at nanosecond grain; the others keep it as given.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import InfluxDB, InfluxError, Point, ShardedInfluxDB, naive_execute
from repro.db.influx import _ns
from repro.db.influxql import execute
from repro.db.naive import NaiveInfluxDB
from repro.pcp import (
    CommitLog,
    DbWriterConsumer,
    IngestPipeline,
    Shipper,
    TransportModel,
)


def _engine():
    db = InfluxDB()
    db.create_database("d")
    return db


def _rows(db):
    """Every stored row as ``(measurement, tags, fields, time)``."""
    return [(m, sorted(p.tags.items()), p.fields, p.time)
            for m in db.measurements("d") for p in db.points("d", m)]


# Each door: a fresh store, as ``(write one point, read every stored row)``.
def _write():
    db = _engine()
    return lambda p: db.write("d", p), lambda: _rows(db)


def _write_many():
    db = _engine()
    return lambda p: db.write_many("d", [p]), lambda: _rows(db)


def _write_lines():
    db = _engine()
    return lambda p: db.write_lines("d", p.to_line()), lambda: _rows(db)


def _router():
    db = ShardedInfluxDB(2)
    db.create_database("d")
    return (lambda p: db.write("d", p),
            lambda: [row for sh in db.shards.values() for row in _rows(sh)])


def _durable():
    log = CommitLog(n_partitions=1)
    pipe = IngestPipeline(log)
    db = InfluxDB()
    pipe.add(DbWriterConsumer(log, db, "d"))

    def write(p):
        pipe.produce(0.0, 0.0, [p], "t")
        pipe.drain(100.0)
    return write, lambda: _rows(db)


def _shipper():
    db = _engine()
    shipper = Shipper(db, "d", TransportModel(jitter_rel_std=0.0, hiccup_rate_max=0.0),
                      rng=np.random.default_rng(0))

    def write(p):
        shipper.offer(0.0, 0.0, [p], len(p.fields), False, "t")
        shipper.advance(100.0)
    return write, lambda: _rows(db)


def _naive():
    db = NaiveInfluxDB()
    db.create_database("d")
    return lambda p: db.write("d", p), lambda: [
        (m, sorted(q.tags.items()), q.fields, q.time)
        for m in db.measurements("d") for q in db.points("d", m)]


#: every door but construction, which the property runs first
DOORS = {"write": _write, "write_many": _write_many, "write_lines": _write_lines,
         "router": _router, "durable": _durable, "shipper": _shipper,
         "naive": _naive}
#: the doors whose time travels as a nanosecond count
NS_DOORS = {"write_lines", "durable"}

#: name characters: plain, separators, a comment mark, whitespace a parser
#: strips, and line breaks
NAME_CHARS = ["a", "b", ",", "=", " ", "\\", "#", "\t", "\n", "\r", " "]
HOSTILE_VALUES = [True, False, np.float64(2.0), "1.5", None, 2**1100]
HOSTILE_TIMES = [math.nan, math.inf, -math.inf, True, np.float64(1.5), "1", None]


def _name(rng):
    if rng.random() < 0.7:
        return rng.choice(["m", "host", "v", "_cpu0"])
    return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(0, 3)))


def _value(rng):
    kind = rng.random()
    if kind < 0.5:
        return rng.uniform(-1e6, 1e6)
    if kind < 0.7:
        return rng.randint(-(2**60), 2**60)
    if kind < 0.8:
        return rng.choice([0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
    return rng.choice(HOSTILE_VALUES)


def _time(rng):
    kind = rng.random()
    if kind < 0.6:
        return rng.uniform(-1e9, 1e9)
    if kind < 0.8:
        return rng.randint(-(10**9), 10**9)
    return rng.choice(HOSTILE_TIMES)


def draw(rng):
    """The arguments of one point: any name, value and time a caller hands over."""
    tags = {_name(rng): _name(rng) for _ in range(rng.randint(0, 2))}
    fields = {_name(rng): _value(rng) for _ in range(rng.randint(0, 3))}
    return _name(rng), tags, fields, _time(rng)


def bits(fields):
    return sorted((k, type(v), struct.pack("<d", v)) for k, v in fields.items())


def outcome(door, p):
    """``None`` if the door refused ``p`` (having stored nothing), else
    every row it stored."""
    write, read = DOORS[door]()
    try:
        write(p)
    except InfluxError:
        assert read() == [], door
        return None
    return read()


class TestEveryDoorAgrees:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_all_refuse_or_all_store_the_same_bits(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            args = draw(rng)
            try:
                p = Point(*args)
            except InfluxError:
                continue  # no point exists: no door can be handed one
            got = {door: outcome(door, p) for door in DOORS}
            refused = [door for door, rows in got.items() if rows is None]
            assert refused in ([], list(DOORS)), (args, refused)
            if refused:
                continue
            for door, rows in got.items():
                (m, tags, fields, t), = rows
                assert (m, tags) == (p.measurement, sorted(p.tags.items())), door
                assert bits(fields) == bits(p.fields), door
                if door in NS_DOORS:
                    assert _ns(t) == _ns(p.time), door
                else:
                    assert t == p.time and type(t) is type(p.time), door

    @pytest.mark.parametrize("value", HOSTILE_VALUES, ids=[
        "True", "False", "numpy-float64", "str", "None", "int-beyond-a-double"])
    def test_a_value_that_is_not_a_float_or_an_int_is_refused_at_construction(self, value):
        with pytest.raises(InfluxError):
            Point("m", {}, {"v": value}, 1.0)

    @pytest.mark.parametrize("t", HOSTILE_TIMES, ids=repr)
    def test_a_time_that_is_not_a_finite_float_or_int_is_refused(self, t):
        with pytest.raises(InfluxError):
            Point("m", {}, {"v": 1.0}, t)

    def test_an_int_is_kept_as_its_float_in_a_fresh_dict(self):
        fields = {"a": 1.5, "b": 2}
        p = Point("m", {}, fields, 3)
        assert p.fields == {"a": 1.5, "b": 2.0} and type(p.fields["b"]) is float
        assert fields == {"a": 1.5, "b": 2} and p.time == 3 and type(p.time) is int
        same = {"a": 1.5}
        assert Point("m", {}, same, 0.0).fields is same  # nothing to convert


class TestAnExactPathMatchesItsReference:
    """An exact aggregate answers what the naive reference answers, because
    neither can be handed a value the other would read differently."""

    @pytest.mark.parametrize("hostile", [True, np.float64(2.0)], ids=repr)
    def test_count_distinct_and_mean_over_what_the_door_took(self, hostile):
        engine, naive = _engine(), NaiveInfluxDB()
        naive.create_database("d")
        for v, t in ((1.0, 1.0), (hostile, 2.0), (2.0, 3.0), (1, 4.0)):
            try:
                p = Point("m", {}, {"v": v}, t)
            except InfluxError:
                assert v is hostile  # refused here, before either store
                continue
            engine.write("d", p)
            naive.write("d", p)
        for statement, want in (('SELECT COUNT(DISTINCT("v")) FROM "m"', 2.0),
                                ('SELECT MEAN("v") FROM "m"', 4.0 / 3)):
            fast = list(execute(engine, "d", statement).rows)
            slow = list(naive_execute(naive, "d", statement).rows)
            assert fast == slow == [(1.0, [want])]
            assert type(fast[0][1][0]) is float


def test_a_refused_name_leaves_the_engine_as_it_was():
    db = _engine()
    db.write("d", Point("m", {"k": "v"}, {"f": 1.0}, 1.0))
    db.stats("d")  # bills and folds what the write left
    before = (db.stats("d"), db.freshness("d", "m"))
    for p in (Point("n", {"k": ""}, {"f": 1.0}, 2.0),       # new measurement
              Point("m", {"k": "a\nb"}, {"f": 1.0}, 2.0),   # new series
              Point("m", {"k": "v"}, {"": 1.0}, 2.0),       # new column
              Point("#m", {}, {"f": 1.0}, 2.0)):
        with pytest.raises(InfluxError):
            db.write("d", p)
    assert (db.stats("d"), db.freshness("d", "m")) == before
    assert db.measurements("d") == ["m"]
