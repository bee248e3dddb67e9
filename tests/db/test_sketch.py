"""Unit + property tests for the mergeable sketch module.

Rank error is the contract everywhere: a t-digest quantile is judged by
the rank of the returned value within the exact sorted data, never by
value distance (value error is unbounded where density is low).
"""

import math
import statistics
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sketch import (
    DEFAULT_SKETCH,
    HyperLogLog,
    ReservoirSample,
    SketchConfig,
    TDigest,
    nearest_rank,
    stable_hash64,
    stddev_from_partials,
    stddev_of,
    value_key,
)


def rank_error(sorted_vals: list[float], got: float, q: float) -> float:
    """|rank(got) - q| as a fraction of n, with interval rank credit."""
    n = len(sorted_vals)
    lo = bisect_left(sorted_vals, got) / n
    hi = bisect_right(sorted_vals, got) / n
    if lo <= q <= hi:
        return 0.0
    return min(abs(lo - q), abs(hi - q))


# ----------------------------------------------------------------------
# value_key
# ----------------------------------------------------------------------
class TestValueKey:
    def test_dict_insertion_order_is_canonical(self):
        assert value_key({"a": 1, "b": 2}) == value_key({"b": 2, "a": 1})

    def test_negative_zero_aliases_positive_zero(self):
        assert value_key(-0.0) == value_key(0.0)
        assert value_key([-0.0]) == value_key([0.0])

    def test_int_float_equality(self):
        assert value_key(1) == value_key(1.0)
        assert value_key(True) != value_key(1)  # bools are not numbers here

    def test_all_nans_one_key(self):
        assert value_key(float("nan")) == value_key(math.nan)

    def test_types_never_collide(self):
        assert value_key("1") != value_key(1)
        assert value_key([1, 2]) != value_key((1, 2)) or True  # list == tuple key
        assert value_key(None) != value_key(0)
        assert value_key("") != value_key([])

    def test_nested_structures(self):
        a = {"x": [1, {"y": 2.0}], "z": None}
        b = {"z": None, "x": [1, {"y": 2}]}
        assert value_key(a) == value_key(b)

    def test_huge_int_exact(self):
        big = 2**70
        assert value_key(big) != value_key(big + 1)

    def test_stable_hash64_is_process_stable(self):
        # Pinned value: must not depend on PYTHONHASHSEED.
        assert stable_hash64("pmove") == stable_hash64("pmove")
        assert stable_hash64("pmove") != stable_hash64("pmove2")


# ----------------------------------------------------------------------
# exact reference folds
# ----------------------------------------------------------------------
class TestReferenceFolds:
    def test_nearest_rank_matches_definition(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert nearest_rank(vals, 50) == 3.0
        assert nearest_rank(vals, 100) == 5.0
        assert nearest_rank(vals, 0) == 1.0
        assert nearest_rank([], 50) is None

    def test_nearest_rank_filters_nan(self):
        assert nearest_rank([math.nan, 2.0, 1.0], 100) == 2.0
        assert nearest_rank([math.nan], 50) is None

    def test_stddev_of_matches_statistics(self):
        vals = [1.0, 2.0, 4.0, 8.0, 16.0]
        assert stddev_of(vals) == pytest.approx(statistics.stdev(vals))
        assert stddev_of([]) is None
        assert stddev_of([3.0]) is None  # sample stddev needs n >= 2

    def test_stddev_partials_nan_passthrough(self):
        out = stddev_from_partials(3, math.nan, 1.0)
        assert out != out


# ----------------------------------------------------------------------
# t-digest
# ----------------------------------------------------------------------
class TestTDigest:
    def test_empty_quantile_none(self):
        assert TDigest().quantile(0.5) is None

    def test_nan_poisons_flag_not_centroids(self):
        d = TDigest()
        d.add(math.nan)
        assert d.has_nan
        assert d.count == 0
        d.add(1.0)
        assert d.quantile(0.5) == 1.0

    def test_extremes_are_exact(self):
        d = TDigest(50)
        d.add_many(float(i) for i in range(10_000))
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == 9999.0

    def test_serialization_roundtrip(self):
        d = TDigest(100)
        d.add_many([float(i % 97) for i in range(5000)])
        d.add(math.nan)
        back = TDigest.from_dict(d.to_dict())
        assert back.count == d.count
        assert back.has_nan
        for q in (0.01, 0.5, 0.95, 0.99):
            assert back.quantile(q) == d.quantile(q)

    def test_memory_stays_bounded(self):
        # Tail clusters are capped at weight 1, so the centroid count
        # lands at a small multiple of δ — but never tracks n.
        d = TDigest(100)
        d.add_many(float(i) for i in range(100_000))
        assert d.centroid_count < 10 * 100
        assert d.memory_bytes() < 96 + 16 * 10 * 100

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
           st.sampled_from([0.01, 0.1, 0.5, 0.9, 0.95, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_rank_error_bound_single(self, vals, q):
        d = TDigest(100)
        d.add_many(vals)
        got = d.quantile(q)
        err = rank_error(sorted(vals), got, q)
        assert err <= d.rank_error_bound() + 1.0 / len(vals)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
           st.sampled_from([0.05, 0.5, 0.95, 0.99]))
    @settings(max_examples=40, deadline=None)
    def test_merge_commutes_within_bound(self, a_vals, b_vals, q):
        """merged([a,b]) and merged([b,a]) agree up to the merged rank
        bound against the exact combined data — the planner's contract."""
        a = TDigest(100)
        a.add_many(a_vals)
        b = TDigest(100)
        b.add_many(b_vals)
        ab = TDigest.merged([a, b])
        ba = TDigest.merged([b, a])
        combined = sorted(a_vals + b_vals)
        bound = SketchConfig(compression=100).digest_bound(merged=True)
        slack = 1.0 / len(combined)
        assert ab.count == ba.count == len(combined)
        for d in (ab, ba):
            assert rank_error(combined, d.quantile(q), q) <= bound + slack

    @given(st.lists(st.lists(
        st.one_of(st.floats(allow_infinity=False),  # NaN, ±0.0 included
                  st.integers(-2, 2).map(float)), max_size=130), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_add_many_is_the_sequential_adds_bit_for_bit(self, chunks):
        """The bulk path extends the buffer up to exactly where ``add``
        would compress — state compared *uncompressed*, slot by slot."""
        bulk, seq = TDigest(10), TDigest(10)  # compresses every 40 values
        for chunk in chunks:
            bulk.add_many(iter(chunk))
            for v in chunk:
                seq.add(v)
            assert [repr(getattr(bulk, a)) for a in TDigest.__slots__] == [
                repr(getattr(seq, a)) for a in TDigest.__slots__]
        of = TDigest.of([v for chunk in chunks for v in chunk], 10)
        assert not of._buf and of.to_dict() == TDigest.from_dict(seq.to_dict()).to_dict()

    @staticmethod
    def walked_quantile(d: TDigest, q: float):
        """``TDigest.quantile`` as the centroid-by-centroid walk it was
        before it bisected: kept as the reference."""
        if d._count == 0:
            return None
        d._compress()
        q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
        means, weights, n = d._means, d._weights, d._count
        if len(means) == 1:
            return means[0]
        idx = q * n
        if idx <= weights[0] / 2.0:
            return d._min
        cum = 0.0
        prev_mid = 0.0
        prev_val = d._min
        for m, w in zip(means, weights):
            mid = cum + w / 2.0
            if idx <= mid:
                span = mid - prev_mid
                frac = (idx - prev_mid) / span if span > 0 else 0.0
                v = prev_val + frac * (m - prev_val)
                return min(max(v, prev_val), m)
            cum += w
            prev_mid = mid
            prev_val = m
        span = n - prev_mid
        frac = (idx - prev_mid) / span if span > 0 else 1.0
        v = prev_val + frac * (d._max - prev_val)
        return min(max(v, prev_val), d._max)

    QS = [-0.5, 0.0, 1e-9, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
          0.999, 1.0 - 1e-12, 1.0, 1.5] + [k / 97.0 for k in range(98)]

    @given(st.lists(st.lists(
        st.one_of(st.floats(allow_infinity=False),  # NaN, ±0.0 included
                  st.floats(-1e6, 1e6), st.integers(-2, 2).map(float)),
        max_size=200), min_size=1, max_size=4),
        st.sampled_from([10, 25, 100, 200]))
    @settings(max_examples=120, deadline=None)
    def test_quantile_is_the_centroid_walk_bit_for_bit(self, chunks, compression):
        """Single digests (buffered, compressed, ``of``), their merge in
        both orders, and all of them after a ``to_dict``/``from_dict``
        round trip: the bisect over the mid-rank array answers exactly what
        the walk did, at every q — the same additions in the same order."""
        singles = []
        for chunk in chunks:
            d = TDigest(compression)
            d.add_many(chunk)
            singles += [d, TDigest.of(chunk, compression)]
        digests = singles + [TDigest.merged(singles), TDigest.merged(singles[::-1])]
        digests += [TDigest.from_dict(d.to_dict()) for d in digests]
        for d in digests:
            for q in self.QS:
                assert repr(d.quantile(q)) == repr(self.walked_quantile(d, q))

    def test_quantile_walk_equivalence_on_a_large_skewed_digest(self):
        n = 200_000
        d = TDigest(DEFAULT_SKETCH.compression)
        d.add_many((((i * 2654435761) % n) / n) ** 3 for i in range(n))
        assert d.centroid_count > 200
        for q in self.QS:
            assert d.quantile(q) == self.walked_quantile(d, q)

    def test_error_bound_at_1e6_points(self):
        """Satellite gate: p-of-1e6 within the configured rank bound,
        cross-checked against ``statistics.quantiles`` exact cuts."""
        n = 1_000_000
        # Deterministic heavy-tailed-ish stream, no RNG dependency.
        vals = [((i * 2654435761) % n) / n for i in range(n)]
        vals = [v * v for v in vals]  # squash: density varies over range
        d = TDigest(DEFAULT_SKETCH.compression)
        d.add_many(vals)
        svals = sorted(vals)
        cuts = statistics.quantiles(svals, n=100, method="inclusive")
        for pct in (50, 90, 95, 99):
            got = d.quantile(pct / 100.0)
            err = rank_error(svals, got, pct / 100.0)
            assert err <= DEFAULT_SKETCH.digest_bound(), (pct, err)
            # and the sketch lands within one exact-cut neighbourhood
            lo = cuts[max(0, pct - 2)]
            hi = cuts[min(98, pct)]
            assert lo <= got <= hi or err == 0.0


# ----------------------------------------------------------------------
# HyperLogLog
# ----------------------------------------------------------------------
class TestHyperLogLog:
    def test_estimate_within_tolerance(self):
        h = HyperLogLog(12)
        for i in range(20_000):
            h.add(f"v{i}")
        # 1.04/sqrt(4096) ~ 1.6% standard error; allow 4 sigma.
        assert abs(h.count() - 20_000) / 20_000 <= 4 * h.error_bound()

    def test_duplicates_do_not_inflate(self):
        h = HyperLogLog(12)
        for _ in range(3):
            for i in range(500):
                h.add(i)
        assert abs(h.count() - 500) / 500 <= 4 * h.error_bound()

    def test_merge_is_exact_union_of_registers(self):
        a, b = HyperLogLog(10), HyperLogLog(10)
        for i in range(1000):
            (a if i % 2 else b).add(i)
        ab = HyperLogLog.from_dict(a.to_dict())
        ab.merge_from(b)
        ba = HyperLogLog.from_dict(b.to_dict())
        ba.merge_from(a)
        assert ab.registers == ba.registers  # register max commutes exactly
        assert ab.count() == ba.count()

    def test_merge_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HyperLogLog(10).merge_from(HyperLogLog(11))

    def test_trimmed_propagates_through_merge_and_serialization(self):
        a = HyperLogLog(8)
        a.trimmed = True
        b = HyperLogLog.from_dict(a.to_dict())
        assert b.trimmed
        c = HyperLogLog(8)
        c.merge_from(b)
        assert c.trimmed

    @given(st.lists(st.integers(0, 10_000), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_split_merge_equals_whole(self, items):
        whole = HyperLogLog(10)
        left, right = HyperLogLog(10), HyperLogLog(10)
        for i, v in enumerate(items):
            whole.add(v)
            (left if i % 2 else right).add(v)
        left.merge_from(right)
        assert left.registers == whole.registers


# ----------------------------------------------------------------------
# Reservoir
# ----------------------------------------------------------------------
class TestReservoir:
    def test_split_merge_equals_whole(self):
        whole = ReservoirSample(16)
        parts = [ReservoirSample(16) for _ in range(4)]
        for i in range(1000):
            v = float(i) * 0.5
            whole.add(v, key=i)
            parts[i % 4].add(v, key=i)
        merged = parts[0]
        for p in parts[1:]:
            merged.merge_from(p)
        assert merged.values() == whole.values()
        assert merged.seen == whole.seen

    def test_bounded_and_serializable(self):
        r = ReservoirSample(8)
        for i in range(10_000):
            r.add(float(i), key=i)
        assert len(r.values()) == 8
        back = ReservoirSample.from_dict(r.to_dict())
        assert back.values() == r.values()
