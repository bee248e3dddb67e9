"""A column's hole count is exact, and the reads that trust it answer right.

``_Series.holes`` counts the ``None`` cells of a series' field columns,
so a read knows a whole series' columns are dense without looking at
them: ``ColumnRows.series`` hands its lists over, a fold takes a bucket's
slice as its values, and ``SELECT *`` discovery takes a column at its
word.  The state machine
below runs writes in order and out of order, points missing a field, a
field first written mid-series, retention trims, ``pop_series`` →
``import_rows`` moves and, on a router, shard adds and removes.  After
every step each series' count is ``sum(col.count(None))``, and each read
(raw, ``SELECT *``, grouped and ungrouped folds, a sliced row view)
equals ``naive_execute`` — whose folds look at every cell — and no column
a read calls dense holds a ``None``.

Each step is one drawn integer expanded by ``random.Random``: cheap to
generate, and hypothesis still shrinks the run's length and its steps.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.influx import ColumnRows, InfluxDB, Point
from repro.db.influxql import execute, naive_execute
from repro.db.sharded import ShardedInfluxDB

DB = "d"
TAGS = [{"host": "a"}, {"host": "b"}, {"host": "a", "core": "1"}]
FIELDS = ["x", "y", "z"]
KINDS = ["write", "write", "late", "sparse", "retention", "move", "read"]
STATEMENTS = [
    'SELECT "x" FROM "m"',
    'SELECT "y" FROM "m" WHERE host=\'a\'',
    'SELECT "z", "x" FROM "m" WHERE host=\'b\' AND time >= {t0}',
    'SELECT * FROM "m" WHERE time >= {t0} AND time <= {t1}',
    'SELECT * FROM "m" WHERE host=\'a\' LIMIT 3',
    'SELECT MEAN("x") FROM "m" WHERE time >= {t0} GROUP BY time(3s)',
    'SELECT SUM(*) FROM "m" WHERE host=\'a\' GROUP BY time(5s)',
    'SELECT MAX("y"), MAX("z") FROM "m" WHERE time <= {t1}',
    'SELECT COUNT(*) FROM "m" WHERE host=\'b\'',
    'SELECT PERCENTILE("x", 90) FROM "m" GROUP BY time(4s)',
    'SELECT STDDEV("y") FROM "m" WHERE time >= {t0}',
]


def engines(db):
    return list(db.shards.values()) if isinstance(db, ShardedInfluxDB) else [db]


def all_series(db):
    for engine in engines(db):
        d = engine._dbs.get(DB)
        for m in d.meas.values() if d is not None else ():
            yield from m.series.values()


class HoleCount(RuleBasedStateMachine):
    """One engine (no rollup tiers: every fold reads the raw columns)."""

    statements = STATEMENTS

    def make(self):
        return InfluxDB(rollup_tiers=())

    def __init__(self):
        super().__init__()
        self.db = self.make()
        self.db.create_database(DB)
        self.db.set_retention_policy(DB, 20.0)
        self.now = 0.0

    def point(self, rng, t, fields=None):
        names = fields or rng.sample(FIELDS, rng.randint(1, 3))
        return Point("m", rng.choice(TAGS), {f: float(rng.randint(-9, 9)) for f in names}, t)

    @rule(step=st.integers(0, 2**32))
    def step(self, step):
        rng = random.Random(step)
        kind = KINDS[step % len(KINDS)]
        if kind == "write":  # in order: every field, or a few
            self.now += rng.choice([0.0, 0.5, 1.0, 2.0])
            fields = FIELDS if rng.random() < 0.5 else None
            self.db.write_many(DB, [self.point(rng, self.now, fields)
                                    for _ in range(rng.randint(1, 3))])
        elif kind == "late":  # below the frontier
            self.db.write(DB, self.point(rng, self.now - rng.uniform(0.0, 25.0)))
        elif kind == "sparse":  # one field: a hole in the others, or a new column
            self.now += 1.0
            self.db.write(DB, self.point(rng, self.now, [rng.choice(FIELDS)]))
        elif kind == "retention":
            self.db.enforce_retention(DB, self.now + rng.uniform(-5.0, 10.0))
        elif kind == "move":
            self.move(rng)
        else:
            self.read(rng)

    def move(self, rng):
        tags = rng.choice(TAGS)
        rows = self.db.pop_series(DB, "m", tags)
        if rows:
            self.db.import_rows(DB, "m", tags, rows)

    def read(self, rng):
        t0 = self.now - rng.uniform(0.0, 30.0)
        text = rng.choice(self.statements).format(t0=t0, t1=t0 + rng.uniform(0.0, 20.0))
        got, want = execute(self.db, DB, text), naive_execute(self.db, DB, text)
        assert got.columns == want.columns, text
        assert repr(list(got.rows)) == repr(list(want.rows)), text
        for name in got.columns:
            assert got.series(name) == want.series(name), text
        rows = got.rows
        if isinstance(rows, ColumnRows):
            for view in (rows, rows[1:]):
                for col, dense in zip(view.cols, view.dense or ()):
                    assert not dense or col is None or None not in col, text

    @invariant()
    def holes_are_counted(self):
        for s in all_series(self.db):
            assert s.holes == sum(col.count(None) for col in s.cols.values())


class ShardedHoleCount(HoleCount):
    """A router: a move is a rebalance, which pops and imports series.  (A
    router's percentile merges the shards' digests: within its error bound
    of the exact answer, not equal to it.)"""

    statements = [text for text in STATEMENTS if "PERCENTILE" not in text]

    def make(self):
        return ShardedInfluxDB(3, rollup_tiers=())

    def move(self, rng):
        names = self.db.shard_names()
        if rng.random() < 0.5 or len(names) == 1:
            self.db.add_shard()
        else:
            self.db.remove_shard(rng.choice(names))


TestHoleCount = HoleCount.TestCase
TestHoleCount.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
TestShardedHoleCount = ShardedHoleCount.TestCase
TestShardedHoleCount.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
