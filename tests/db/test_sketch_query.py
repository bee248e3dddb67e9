"""The sketch-served query path: InfluxQL analytics, the serving planner,
shard scatter-gather merges, and their exact naive references.

Equivalence is asserted the only honest way: exact paths (STDDEV,
DISTINCT, fallback scans) must match ``naive_execute`` bit-for-bit;
sketch-served answers (PERCENTILE from tier digests, COUNT DISTINCT from
HLLs) must land within the configured error contract, measured in rank
(digests) or relative count (HLL) — never in value distance.
"""

import math
import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import InfluxError, execute, naive_execute, parse_query
from repro.db.naive import NaiveInfluxDB
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH, SketchConfig, TDigest


def rank_error(sorted_vals, got, q):
    n = len(sorted_vals)
    lo = bisect_left(sorted_vals, got) / n
    hi = bisect_right(sorted_vals, got) / n
    return 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))


def seeded_db(n=6000, tiers=(10.0, 60.0), seed=11, engine=None):
    db = engine if engine is not None else InfluxDB(rollup_tiers=tiers)
    db.create_database("pmove")
    rnd = random.Random(seed)
    vals = []
    pts = []
    for i in range(n):
        v = rnd.lognormvariate(1.0, 0.6)
        vals.append(v)
        pts.append(Point("lat", {"tag": "j"}, {"ms": v}, float(i) * 0.1))
    db.write_many("pmove", pts)
    return db, vals


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class TestAnalyticParse:
    def test_percentile(self):
        q = parse_query('SELECT PERCENTILE("ms", 99) FROM "lat"')
        assert q.aggregate == "PERCENTILE"
        assert q.agg_arg == 99.0

    def test_median_rewrites_to_percentile_50(self):
        q = parse_query('SELECT MEDIAN("ms") FROM "lat"')
        assert q.aggregate == "PERCENTILE"
        assert q.agg_arg == 50.0

    def test_count_distinct(self):
        for text in ('SELECT COUNT(DISTINCT("ms")) FROM "lat"',
                     'SELECT COUNT(DISTINCT "ms") FROM "lat"'):
            q = parse_query(text)
            assert q.aggregate == "COUNT_DISTINCT"

    def test_percentile_range_validated(self):
        with pytest.raises(InfluxError):
            parse_query('SELECT PERCENTILE("ms", 101) FROM "lat"')

    def test_distinct_rejects_group_by(self):
        db = InfluxDB()
        db.create_database("pmove")
        with pytest.raises(InfluxError):
            execute(db, "pmove",
                    'SELECT DISTINCT("ms") FROM "lat" GROUP BY time(10s)')

    def test_execute_does_not_answer_through_the_oracle(self):
        """An engine without the analytic reads is not quietly answered by
        ``naive_execute``: the reference is called by name or not at all."""
        naive = NaiveInfluxDB()
        naive.create_database("pmove")
        naive.write("pmove", Point("lat", {}, {"ms": 1.0}, 0.0))
        for sel in ('STDDEV("ms")', 'PERCENTILE("ms", 50)', 'DISTINCT("ms")',
                    'COUNT(DISTINCT("ms"))'):
            text = f'SELECT {sel} FROM "lat"'
            with pytest.raises(AttributeError):
                execute(naive, "pmove", text)
            assert len(naive_execute(naive, "pmove", text).rows) == 1


# ----------------------------------------------------------------------
# Exact paths ≡ naive
# ----------------------------------------------------------------------
class TestExactEquivalence:
    def test_stddev_matches_naive_bitwise(self):
        db, _ = seeded_db(2000)
        for text in ('SELECT STDDEV("ms") FROM "lat"',
                     'SELECT STDDEV("ms") FROM "lat" GROUP BY time(10s)',
                     'SELECT STDDEV("ms") FROM "lat" GROUP BY time(7s)'):
            a = execute(db, "pmove", text)
            b = naive_execute(db, "pmove", text)
            assert a.rows == b.rows, text

    def test_distinct_matches_naive(self):
        db = InfluxDB()
        db.create_database("pmove")
        pts = [Point("m", {"tag": "a"}, {"v": float(i % 7)}, float(i))
               for i in range(50)]
        db.write_many("pmove", pts)
        a = execute(db, "pmove", 'SELECT DISTINCT("v") FROM "m"')
        b = naive_execute(db, "pmove", 'SELECT DISTINCT("v") FROM "m"')
        assert a.rows == b.rows
        assert a.columns == b.columns == ["v"]

    def test_percentile_fallback_is_exact(self):
        """A GROUP BY no tier divides falls back to the exact scan."""
        db, _ = seeded_db(1000)
        text = 'SELECT PERCENTILE("ms", 95) FROM "lat" GROUP BY time(7s)'
        a = execute(db, "pmove", text)
        b = naive_execute(db, "pmove", text)
        assert a.rows == b.rows
        assert db.sketch_plan.get("skip:tier-not-dividing")

    def test_multi_series_percentile_is_exact(self):
        db = InfluxDB(rollup_tiers=(10.0,))
        db.create_database("pmove")
        pts = []
        for i in range(400):
            pts.append(Point("m", {"tag": "a"}, {"v": float(i)}, float(i)))
            pts.append(Point("m", {"tag": "b"}, {"v": float(-i)}, float(i)))
        db.write_many("pmove", pts)
        text = 'SELECT PERCENTILE("v", 90) FROM "m" GROUP BY time(10s)'
        a = execute(db, "pmove", text)
        b = naive_execute(db, "pmove", text)
        assert a.rows == b.rows
        assert db.sketch_plan.get("fallback:multi-series")


# ----------------------------------------------------------------------
# Sketch-served paths: within the error contract
# ----------------------------------------------------------------------
class TestSketchServed:
    def test_percentile_group_by_within_rank_bound(self):
        db, vals = seeded_db(6000)
        text = 'SELECT PERCENTILE("ms", 99) FROM "lat" GROUP BY time(60s)'
        rs = execute(db, "pmove", text)
        assert any(k.startswith("served:") for k in db.sketch_plan)
        per_bucket = {}
        for i, v in enumerate(vals):
            per_bucket.setdefault((i * 0.1) // 60.0 * 60.0, []).append(v)
        eps = db.sketch.epsilon
        for t, row in rs.rows:
            exact = sorted(per_bucket[t])
            err = rank_error(exact, row[0], 0.99)
            assert err <= eps + 1.0 / len(exact), (t, err)

    def test_count_distinct_served_by_hll(self):
        db = InfluxDB(rollup_tiers=(10.0,))
        db.create_database("pmove")
        pts = [Point("m", {"tag": "a"}, {"v": float(i % 2000)}, float(i))
               for i in range(8000)]
        db.write_many("pmove", pts)
        rs = execute(db, "pmove", 'SELECT COUNT(DISTINCT("v")) FROM "m"')
        got = rs.rows[0][1][0]
        assert db.sketch_plan.get("hll-served")
        assert abs(got - 2000) / 2000 <= 4 * 1.04 / math.sqrt(2 ** db.sketch.hll_p)

    def test_retention_trims_poison_hll(self):
        db = InfluxDB(rollup_tiers=(10.0,))
        db.create_database("pmove")
        pts = [Point("m", {"tag": "a"}, {"v": float(i)}, float(i))
               for i in range(500)]
        db.write_many("pmove", pts)
        db.set_retention_policy("pmove", 100.0)
        db.enforce_retention("pmove", 500.0)
        rs = execute(db, "pmove", 'SELECT COUNT(DISTINCT("v")) FROM "m"')
        naive = naive_execute(db, "pmove", 'SELECT COUNT(DISTINCT("v")) FROM "m"')
        assert rs.rows == naive.rows  # exact fallback, not a stale HLL
        assert not db.sketch_plan.get("hll-served")

    def test_nan_poisoned_tier_falls_back(self):
        db = InfluxDB(rollup_tiers=(10.0,))
        db.create_database("pmove")
        pts = [Point("m", {"tag": "a"}, {"v": float(i)}, float(i))
               for i in range(100)]
        pts.append(Point("m", {"tag": "a"}, {"v": math.nan}, 5.0))
        db.write_many("pmove", pts)
        text = 'SELECT PERCENTILE("v", 95) FROM "m" GROUP BY time(10s)'
        a = execute(db, "pmove", text)
        b = naive_execute(db, "pmove", text)
        assert a.rows == b.rows
        assert db.sketch_plan.get("skip:nan-poisoned")


# ----------------------------------------------------------------------
# Sharded scatter-gather
# ----------------------------------------------------------------------
class TestShardedSketches:
    def _pair(self, n_shards=4, n=4000):
        single = InfluxDB(rollup_tiers=(10.0, 60.0))
        sharded = ShardedInfluxDB(n_shards, rollup_tiers=(10.0, 60.0))
        vals = []
        rnd = random.Random(5)
        pts = []
        for i in range(n):
            v = rnd.gauss(50.0, 12.0)
            vals.append(v)
            # Distinct tags spread series across shards.
            pts.append(Point("m", {"tag": f"t{i % 8}"}, {"v": v}, float(i) * 0.1))
        for eng in (single, sharded):
            eng.create_database("pmove")
            eng.write_many("pmove", pts)
        return single, sharded, vals

    def test_stddev_identical_sharded_vs_unsharded(self):
        single, sharded, _ = self._pair()
        for text in ('SELECT STDDEV("v") FROM "m"',
                     'SELECT STDDEV("v") FROM "m" GROUP BY time(60s)'):
            assert (execute(single, "pmove", text).rows
                    == execute(sharded, "pmove", text).rows), text

    def test_distinct_identical_sharded_vs_unsharded(self):
        single, sharded, _ = self._pair(n=500)
        text = 'SELECT DISTINCT("v") FROM "m"'
        assert (execute(single, "pmove", text).rows
                == execute(sharded, "pmove", text).rows)

    def test_percentile_merge_within_bound(self):
        single, sharded, vals = self._pair()
        svals = sorted(vals)
        eps = single.sketch.epsilon
        for pct in (50, 95, 99):
            text = f'SELECT PERCENTILE("v", {pct}) FROM "m"'
            got_s = execute(sharded, "pmove", text).rows[0][1][0]
            got_1 = execute(single, "pmove", text).rows[0][1][0]
            q = pct / 100.0
            assert rank_error(svals, got_s, q) <= eps + 1.0 / len(svals)
            assert rank_error(svals, got_1, q) <= eps + 1.0 / len(svals)

    @given(st.integers(2, 5), st.integers(1, 200),
           st.sampled_from([50.0, 90.0, 99.0]))
    @settings(max_examples=25, deadline=None)
    def test_shard_split_property(self, n_shards, n, pct):
        """Any shard count, any size: the scatter-gathered percentile
        stays within the rank bound of the exact unsharded data."""
        sharded = ShardedInfluxDB(n_shards, rollup_tiers=(10.0,))
        sharded.create_database("pmove")
        vals = [math.sin(i * 0.7) * 100.0 for i in range(n)]
        pts = [Point("m", {"tag": f"t{i % 4}"}, {"v": v}, float(i))
               for i, v in enumerate(vals)]
        sharded.write_many("pmove", pts)
        text = f'SELECT PERCENTILE("v", {pct:g}) FROM "m"'
        got = execute(sharded, "pmove", text).rows[0][1][0]
        bound = DEFAULT_SKETCH.digest_bound(merged=True)
        assert rank_error(sorted(vals), got, pct / 100.0) <= bound + 1.0 / n


class TestRouterErrorBound:
    """The router merges sketches only inside the bound the configuration
    promises (``_merged_sketch``); past it, it folds the exact answer."""

    SHAPES = (
        'SELECT PERCENTILE("x", 95) FROM "m"',
        'SELECT PERCENTILE("x", 95) FROM "m" GROUP BY time(60s)',
        'SELECT PERCENTILE("x", 95) FROM "m" GROUP BY time(10s) LIMIT 7',
        'SELECT MEDIAN("x") FROM "m" WHERE tag="t3"',
        'SELECT PERCENTILE("x", 99) FROM "m" WHERE tag="t3" GROUP BY time(60s)',
        'SELECT PERCENTILE("x", 50), PERCENTILE("never", 50) FROM "m" '
        'WHERE time >= 13 AND time < 207 GROUP BY time(20s)',
    )

    @staticmethod
    def _load(engine, n=8000):
        rnd = random.Random(7)
        engine.create_database("pmove")
        engine.write_many("pmove", [
            Point("m", {"tag": f"t{i % 8}"}, {"x": rnd.lognormvariate(1.0, 0.6)},
                  i * 0.05)
            for i in range(n)])
        return engine

    def test_epsilon_zero_router_is_exact(self):
        cfg = SketchConfig(epsilon=0.0)
        router = self._load(ShardedInfluxDB(4, sketch=cfg))
        single = self._load(InfluxDB(sketch=cfg))
        for text in self.SHAPES:
            want = naive_execute(single, "pmove", text)
            got = execute(router, "pmove", text)
            assert got.columns == want.columns, text
            assert got.rows == want.rows, text
            assert execute(single, "pmove", text).rows == want.rows, text
        assert not router.sketch_served
        assert all(k.startswith(("skip:", "fallback:")) for k in router.sketch_plan)

    def test_default_router_still_merges_digests(self):
        """4/200 = 0.02 <= 0.02: at the default configuration the ungrouped
        answer is the merge of the shards' digests, as it was."""
        router = self._load(ShardedInfluxDB(4))
        assert len({router.shard_for("m", {"tag": f"t{i}"}) for i in range(8)}) > 1
        digests = [
            sh.quantile_partials("pmove", "m", columns=["x"])[2][0]
            for sh in router.shards.values()
            if sh.series_count("pmove", "m")
        ]
        want = TDigest.merged(digests).quantile(0.95)
        got = execute(router, "pmove", self.SHAPES[0]).rows[0][1][0]
        assert got == want
        assert got != naive_execute(router, "pmove", self.SHAPES[0]).rows[0][1][0]

    def test_count_distinct_merge_checks_the_hll_bound(self):
        pts = [Point("m", {"tag": f"t{i % 8}"}, {"x": float(i % 900)}, float(i))
               for i in range(3600)]
        exact = 900.0
        for cfg, is_exact in ((SketchConfig(), False),
                              (SketchConfig(hll_epsilon=0.0), True)):
            router = ShardedInfluxDB(4, sketch=cfg)
            router.create_database("pmove")
            router.write_many("pmove", pts)
            got = execute(router, "pmove",
                          'SELECT COUNT(DISTINCT("x")) FROM "m"').rows[0][1][0]
            assert (got == exact) == is_exact
            assert abs(got - exact) / exact <= 4 * 1.04 / math.sqrt(2 ** cfg.hll_p)
