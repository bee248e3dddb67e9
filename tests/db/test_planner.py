"""One tier planner (``InfluxDB._plan``) against the pickers it replaced.

``ParentPlanner`` keeps the parent's ``_pick_rollup``,
``_pick_sketch_rollup`` and the planning half of ``_range_digests``
verbatim (only ``self`` is a stand-in holding the counters and the sketch
configuration, and the range planner returns its tier where it went on to
merge digests), plus the two inline picks of ``stddev_buckets`` and
``bucket_partials``.  Over drawn tier sets, widths, aggregates, NaN, cut
and aligned ranges and sketch configurations, the planner must choose the
same tier, catch a series up only when a tier serves, and record the same
decisions but for the ``fallback:`` → ``skip:`` reason relabel; the
answers stay bit-equal to ``naive_execute`` on exact families and within
the configured rank bound on sketch families.
"""

import importlib.util
import math
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import (
    _PARTIALS,
    _ROLLUP,
    _SKETCH,
    _SKETCH_RANGE,
    _STDDEV,
    InfluxDB,
    Point,
    _Rollup,
    _Series,
)
from repro.db.influxql import Query, execute, naive_execute
from repro.db.sketch import SketchConfig

DB = "pmove"
WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"
EXACT = ("MEAN", "SUM", "COUNT", "MIN", "MAX", "LAST", "STDDEV")


class ParentPlanner:
    """The parent's pickers and recorders; ``self`` holds what they read."""

    def __init__(self, sketch: SketchConfig) -> None:
        self.sketch = sketch
        self.rollup_plan: dict[str, int] = {}
        self.sketch_plan: dict[str, int] = {}
        self.sketch_served = 0

    def _note_plan(self, outcome: str) -> None:
        self.rollup_plan[outcome] = self.rollup_plan.get(outcome, 0) + 1

    def _pick_rollup(
        self, s: _Series, agg: str, group_by_s: float, hi: int | None = None
    ) -> _Rollup | None:
        """Largest rollup tier that can serve ``GROUP BY time(N)`` exactly
        over rows below ``hi`` (default: all of them)."""
        best = None
        skips: set[str] = set()
        for r in s._rollups:  # planned on tier sizes: nothing read from one yet
            # exact divisibility: 0.5 / 0.1 == 5.0 rounds a remainder away,
            # and buckets of such a tier straddle the edges of time(0.5)
            if group_by_s < r.tier or group_by_s % r.tier != 0.0:
                skips.add("skip:tier-not-dividing")
                continue
            if group_by_s != r.tier and agg in ("MEAN", "SUM"):
                # cross-bucket float summation reorders the fold
                skips.add("skip:mean-sum-needs-exact-tier")
                continue
            if agg in ("MIN", "MAX") and s.has_nan:
                # NaN makes min/max folds order-dependent
                skips.add("skip:nan-poisoned")
                continue
            if best is None or r.tier > best.tier:
                best = r
        if best is not None:
            s.catch_up(len(s) if hi is None else hi)
        for reason in skips:
            self._note_plan(reason)
        self._note_plan(f"served:{best.tier:g}" if best is not None else "raw-fallback")
        return best

    def _note_sketch(self, outcome: str) -> None:
        self.sketch_plan[outcome] = self.sketch_plan.get(outcome, 0) + 1
        if "served" in outcome:  # served:<tier>, stddev-served:<tier>, hll-served
            self.sketch_served += 1

    def _pick_sketch_rollup(
        self, s: _Series, group_by_s: float, hi: int
    ) -> _Rollup | None:
        """Largest tier whose per-bucket digests can serve ``GROUP BY
        time(N)`` percentiles within the configured rank-error bound."""
        cfg = self.sketch
        best = None
        skips: set[str] = set()
        for r in s._rollups:  # planned on tier sizes: nothing read from one yet
            k = group_by_s / r.tier
            if k < 1.0 or group_by_s % r.tier != 0.0:  # see _pick_rollup
                skips.add("fallback:tier-not-dividing")
                continue
            if s.has_nan:
                skips.add("fallback:nan-poisoned")
                continue
            if k > cfg.max_merge:
                skips.add("fallback:merge-bound")
                continue
            if cfg.digest_bound(merged=k > 1.0) > cfg.epsilon:
                skips.add("fallback:error-bound")
                continue
            if best is None or r.tier > best.tier:
                best = r
        if best is not None:
            s.catch_up(hi)
        for reason in skips:
            self._note_sketch(reason)
        self._note_sketch(
            f"served:{best.tier:g}" if best is not None else "fallback:raw-scan"
        )
        return best

    def _range_digests(self, s: _Series, lo: int, hi: int) -> _Rollup | None:
        cfg = self.sketch
        times = s.times
        n = len(times)
        skips: set[str] = set()
        for r in sorted(s._rollups, key=lambda r: -r.tier):
            T = r.tier
            keyt = lambda t: (t // T) * T  # noqa: E731
            if (lo > 0 and keyt(times[lo - 1]) == keyt(times[lo])) or (
                hi < n and keyt(times[hi]) == keyt(times[hi - 1])
            ):
                skips.add("fallback:unaligned-range")
                continue
            if s.has_nan:
                skips.add("fallback:nan-poisoned")
                continue
            s.catch_up(hi)
            ri0 = bisect_left(r.starts, keyt(times[lo]))
            ri1 = bisect_right(r.starts, keyt(times[hi - 1]))
            m = ri1 - ri0
            if m > cfg.max_merge:
                skips.add("fallback:merge-bound")
                continue
            if cfg.digest_bound(merged=m > 1) > cfg.epsilon:
                skips.add("fallback:error-bound")
                continue
            for reason in skips:
                self._note_sketch(reason)
            self._note_sketch(f"served:{T:g}")
            return r  # (the parent went on to merge the digests of r)
        for reason in skips:
            self._note_sketch(reason)
        self._note_sketch("fallback:raw-scan")
        return None

    @staticmethod
    def stddev_tier(s: _Series, group_by_s: float) -> _Rollup | None:
        return next((r for r in s._rollups if r.tier == group_by_s), None)

    @staticmethod
    def partials_tier(s: _Series, group_by_s: float) -> _Rollup | None:
        r = next((r for r in s._rollups if r.tier == group_by_s), None)
        return r if r is not None and not s.has_nan else None


def relabelled(plan: dict[str, int]) -> dict[str, int]:
    """A parent counter with its reasons named the way they are now."""
    reasons = ("tier-not-dividing", "nan-poisoned", "merge-bound", "error-bound",
               "unaligned-range")
    return {("skip:" + k[9:] if k[9:] in reasons and k.startswith("fallback:") else k): v
            for k, v in plan.items()}


def rank_error(sorted_vals, got, q):
    n = len(sorted_vals)
    lo = bisect_left(sorted_vals, got) / n
    hi = bisect_right(sorted_vals, got) / n
    return 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))


@st.composite
def cases(draw):
    tiers = draw(st.sampled_from([(10.0, 60.0), (0.1, 0.5), (7.0,), ()]))
    N = draw(st.sampled_from([0.1, 0.5, 7.0, 60.0, 3600.0]))
    cfg = SketchConfig(max_merge=draw(st.sampled_from([2, 64])),
                       epsilon=draw(st.sampled_from([0.005, 0.01, 0.02])))
    step = draw(st.sampled_from([0.05, 1.0, 2.5, 13.0]))
    n = draw(st.integers(1, 60))
    times = [k * step for k in range(n)]
    values = [float((k * 7919) % 101) - 50.0 for k in range(n)]
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = math.nan
    bound = st.one_of(st.none(), st.sampled_from(times))  # a row's time cuts or not
    t0, t1 = draw(bound), draw(bound)
    if t0 is not None and t1 is not None and t1 < t0:
        t0, t1 = t1, t0
    return tiers, N, cfg, times, values, t0, t1


def load(tiers, cfg, times, values):
    db = InfluxDB(rollup_tiers=tiers, sketch=cfg)
    db.create_database(DB)
    db.write_many(DB, [Point("m", {}, {"v": v}, t) for t, v in zip(times, values)])
    return db


def the_series(db):
    return next(iter(db._dbs[DB].meas["m"].series.values()))


def matched(db, t0, t1):
    (s, lo, hi), = db._matched_slices(db._db(DB), "m", None, t0, t1, False, False)
    return s, lo, hi


def check(case):
    tiers, N, cfg, times, values, t0, t1 = case

    def plans():
        """A fresh engine and its parent stand-in, nothing folded yet."""
        db = load(tiers, cfg, times, values)
        return db, ParentPlanner(cfg), matched(db, t0, t1)

    def same(got, want, s, hi):
        """The same tier; folded to ``hi`` if one serves, untouched if not."""
        assert (got and got.tier) == (want and want.tier)
        assert s.folded == (0 if got is None else hi)

    # -- tier choice, catch-up and the recorded decision, per family ---
    for agg in ("MEAN", "SUM", "COUNT", "MIN", "MAX", "LAST"):
        (db, par, (s, lo, hi)), (_, _, (ps, _, _)) = plans(), plans()
        same(db._plan(_ROLLUP[agg], s, lo, hi, N), par._pick_rollup(ps, agg, N, hi), s, hi)
        assert (db.rollup_plan, db.sketch_served) == (par.rollup_plan, par.sketch_served)
    (db, par, (s, lo, hi)), (_, _, (ps, _, _)) = plans(), plans()
    same(db._plan(_SKETCH, s, lo, hi, N), par._pick_sketch_rollup(ps, N, hi), s, hi)
    assert db.sketch_plan == relabelled(par.sketch_plan)
    assert db.sketch_served == par.sketch_served
    (db, par, (s, lo, hi)), (_, _, (ps, _, _)) = plans(), plans()
    same(db._plan(_SKETCH_RANGE, s, lo, hi), par._range_digests(ps, lo, hi), s, hi)
    # every tier is judged now: the parent's reasons, and those of the
    # tiers below its winner, with the same one outcome
    want = relabelled(par.sketch_plan)
    assert {k: v for k, v in db.sketch_plan.items() if not k.startswith("skip:")} == {
        k: v for k, v in want.items() if not k.startswith("skip:")}
    assert set(want) <= set(db.sketch_plan)
    for fam, pick in ((_STDDEV, par.stddev_tier), (_PARTIALS, par.partials_tier)):
        db, _, (s, lo, hi) = plans()
        same(db._plan(fam, s, lo, hi, N), pick(s, N), s, hi)
    assert db.sketch_plan == {} and db.rollup_plan == {}  # partials record nothing

    # -- answers ------------------------------------------------------------
    db = load(tiers, cfg, times, values)
    for agg in EXACT:
        q = Query("m", ("v",), agg, (), t0, t1, N)
        assert repr(execute(db, DB, q).rows) == repr(naive_execute(db, DB, q).rows)
    for group_by_s in (N, None):
        q = Query("m", ("v",), "PERCENTILE", (), t0, t1, group_by_s, agg_arg=95.0)
        served = db.sketch_served
        got = execute(db, DB, q).rows
        want = naive_execute(db, DB, q).rows
        if db.sketch_served == served:
            assert repr(got) == repr(want)
            continue
        assert [t for t, _ in got] == [t for t, _ in want]
        for t, (v,) in got:
            exact = sorted(x for ti, x in zip(times, values)
                           if (t0 is None or ti >= t0) and (t1 is None or ti <= t1)
                           and (group_by_s is None or (ti // N) * N == t))
            assert rank_error(exact, v, 0.95) <= cfg.epsilon + 1.0 / len(exact)


class TestOnePlanner:
    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_same_tier_same_decisions_same_answers(self, case):
        check(case)

    @pytest.mark.chaos
    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_same_tier_same_decisions_same_answers_wide(self, case):
        check(case)

    def test_one_read_is_one_fallback(self):
        """``time(7s)`` over tiers (10, 60): no tier divides 7, and the
        benchmark's counter (``_sum_served``) sees one fallback per read.
        The PERCENTILE read's reason used to carry the ``fallback:`` prefix
        too, and counted as a second one."""
        spec = importlib.util.spec_from_file_location("_e2e_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        db = load((10.0, 60.0), SketchConfig(), [float(k) for k in range(100)],
                  [float(k) for k in range(100)])
        for text, counter in (
            ('SELECT PERCENTILE("v", 95) FROM "m" GROUP BY time(7s)', "sketch_plan"),
            ('SELECT MEAN("v") FROM "m" GROUP BY time(7s)', "rollup_plan"),
        ):
            before = workloads._sum_served(getattr(db, counter))
            execute(db, DB, text)
            served, fallback = workloads._sum_served(getattr(db, counter))
            assert (served, fallback) == (before[0], before[1] + 1), text
            assert getattr(db, counter)["skip:tier-not-dividing"] == 1
        assert the_series(db).folded == 0

    def test_a_range_read_judges_every_tier(self):
        """An aligned range the 60 s tier serves within the merge bound and
        the 10 s tier does not: the planner says both."""
        db = load((10.0, 60.0), SketchConfig(max_merge=4),
                  [float(k) for k in range(240)], [float(k) for k in range(240)])
        execute(db, DB, 'SELECT PERCENTILE("v", 50) FROM "m"')
        assert db.sketch_plan == {"skip:merge-bound": 1, "served:60": 1}
