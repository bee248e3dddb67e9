"""``bytes_written`` is billed when ``stats()`` asks, and it is exact.

The engine charges a row's line-protocol bytes lazily: ``_Series`` keeps a
``billed`` mark and ``stats()`` (or anything that trims or detaches rows)
bills ``[billed, len)`` column by column.  The oracle is
``NaiveInfluxDB``, which counts ``len(p.to_line()) + 1`` as each point
lands.  Whenever anything reads the counters, both agree — through in-order
and out-of-order writes above and below the mark, ``write_lines``,
seq-pinned writes, retention, ``delete_series`` and a ``pop_series`` →
``import_rows`` move (a move is not new ingest), on one engine and on a
4-shard router that rebalances.

Also here: a ``None`` field value is refused by ``Point`` itself — it
would be counted as written, read as absent, and printed as a line no
parser takes back.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.naive import NaiveInfluxDB
from repro.db.sharded import ShardedInfluxDB

DB = "d"
MEASUREMENTS = ["cpu", "m x"]  # the second needs escaping
TAGS = [{}, {"host": "a"}, {"host": "b,c", "tag": "t"}]
FIELDS = ["_cpu0", "v", "a=b"]
SPECIAL = [0.0, -0.0, 0.1, 5e-324, 1e-300, 1.5e300, float("nan"), float("inf"),
           -float("inf"), 0, -7, 10**6]


def value(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(SPECIAL)
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)


def points(rng):
    return [
        Point(rng.choice(MEASUREMENTS), rng.choice(TAGS),
              {f: value(rng) for f in rng.sample(FIELDS, rng.randint(1, 3))},
              # a few instants, so writes land above, on and below the mark
              float(rng.randint(0, 12)) if rng.random() < 0.5 else rng.uniform(0.0, 12.0))
        for _ in range(rng.randint(1, 4))
    ]


KINDS = ["write", "lines", "seqs", "stats", "retention", "delete", "move"]


def op(step):
    """A script step from one integer (``random.Random`` of it): one draw
    per step keeps 1 000 examples cheap to generate, and hypothesis still
    shrinks the script's length and its steps."""
    rng = random.Random(step)
    kind = KINDS[step % len(KINDS)]
    if kind in ("write", "lines", "seqs"):
        return kind, points(rng)
    if kind == "retention":
        return kind, rng.uniform(0.0, 14.0)
    if kind == "delete":
        return kind, rng.choice(MEASUREMENTS), rng.choice([None, {"host": "a"}])
    if kind == "move":
        return kind, rng.choice(MEASUREMENTS), rng.choice(TAGS)
    return (kind,)


ops = st.lists(st.integers(0, 2**32).map(op), max_size=14)


def counters(db):
    s = db.stats(DB)
    return s["points_written"], s["bytes_written"]


def run(engine, script):
    naive = NaiveInfluxDB()
    for db in (engine, naive):
        db.create_database(DB)
        db.set_retention_policy(DB, 5.0)
    seq = 10**6
    for op in script:
        kind = op[0]
        if kind == "write":
            engine.write_many(DB, op[1])
            naive.write_many(DB, op[1])
        elif kind == "lines":
            engine.write_lines(DB, "\n".join(p.to_line() for p in op[1]))
            naive.write_many(DB, [Point.from_line(p.to_line()) for p in op[1]])
        elif kind == "seqs":
            engine.write_many(DB, op[1], seqs=list(range(seq, seq + len(op[1]))))
            naive.write_many(DB, op[1])
            seq += len(op[1])
        elif kind == "stats":
            assert counters(engine) == counters(naive)
        elif kind == "retention":
            engine.enforce_retention(DB, op[1])
            naive.enforce_retention(DB, op[1])
        elif kind == "delete":
            engine.delete_series(DB, op[1], op[2])  # counters are cumulative
        elif isinstance(engine, ShardedInfluxDB):
            engine.add_shard()  # a rebalance pops and imports series
        else:
            rows = engine.pop_series(DB, op[1], op[2])
            if rows:
                engine.import_rows(DB, op[1], op[2], rows)
    assert counters(engine) == counters(naive)


class TestBytesWrittenEqualsTheEagerCount:
    @given(ops)
    @settings(max_examples=50, deadline=None)
    def test_one_engine(self, script):
        run(InfluxDB(), script)

    @given(ops)
    @settings(max_examples=50, deadline=None)
    def test_router(self, script):
        run(ShardedInfluxDB(4), script)

    @pytest.mark.chaos
    @given(ops)
    @settings(max_examples=1000, deadline=None)
    def test_one_engine_wide(self, script):
        run(InfluxDB(), script)

    @pytest.mark.chaos
    @given(ops)
    @settings(max_examples=1000, deadline=None)
    def test_router_wide(self, script):
        run(ShardedInfluxDB(4), script)

    def test_a_write_below_the_mark_is_billed_at_once(self):
        db = InfluxDB()
        db.create_database(DB)
        db.write_many(DB, [Point("cpu", {}, {"v": 1.0}, t) for t in (1.0, 2.0, 3.0)])
        billed = counters(db)[1]
        late = Point("cpu", {}, {"v": 0.25, "w": -7.0}, 1.5)
        db.write(DB, late)
        series = db._dbs[DB].meas["cpu"].series[0]
        assert series.billed == 4
        assert db._dbs[DB].bytes_written == billed + len(late.to_line()) + 1

    def test_a_moved_series_is_not_billed_twice(self):
        src, dst = InfluxDB(), InfluxDB()
        for db in (src, dst):
            db.create_database(DB)
        pts = [Point("cpu", {"host": "a"}, {"v": float(t)}, float(t)) for t in range(5)]
        src.write_many(DB, pts)
        dst.write(DB, Point("cpu", {"host": "a"}, {"v": 9.0}, 9.0))
        rows = src.pop_series(DB, "cpu", {"host": "a"})
        dst.import_rows(DB, "cpu", {"host": "a"}, rows)
        assert counters(src) == (5, sum(len(p.to_line()) + 1 for p in pts))
        assert counters(dst)[1] == len("cpu,host=a v=9.0 9000000000") + 1


class TestANoneFieldIsRefused:
    @pytest.mark.parametrize("engine", [InfluxDB, NaiveInfluxDB, lambda: ShardedInfluxDB(4)])
    def test_no_engine_takes_it(self, engine):
        db = engine()
        db.create_database(DB)
        with pytest.raises(InfluxError, match="None"):
            db.write(DB, Point("m", {}, {"f": None, "g": 1.0}, 1.0))
        assert db.stats(DB)["points_written"] == 0

    def test_zeros_and_nan_still_pass(self):
        p = Point("m", {}, {"a": 0.0, "b": -0.0, "c": float("nan"), "d": 0}, 1.0)
        assert Point.from_line(p.to_line()).fields.keys() == p.fields.keys()
