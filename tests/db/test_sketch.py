"""Unit + property tests for the mergeable sketch module.

Rank error is the contract everywhere: a t-digest quantile is judged by
the rank of the returned value within the exact sorted data, never by
value distance (value error is unbounded where density is low).
"""

import json
import math
import random
import statistics
import struct
from bisect import bisect_left, bisect_right
from typing import Any, Iterable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.sketch import (
    _SPARSE_ENTRY_BYTES,
    DEFAULT_SKETCH,
    HyperLogLog,
    SketchConfig,
    TDigest,
    _hll_alpha,
    float_hash64,
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

    # every bit pattern is a float: NaN payloads of both signs, ±0.0, ±inf
    # and subnormals are named, the rest is drawn
    @given(st.one_of(
        st.integers(0, 2**64 - 1),
        st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
                  st.integers(0, 1), st.integers(0, 2**52 - 1)),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        .map(lambda v: struct.unpack(">Q", struct.pack(">d", v))[0]),
    ))
    @example(0x0000000000000000)
    @example(0x8000000000000000)
    @example(0x7FF0000000000000)
    @example(0xFFF0000000000000)
    @example(0x7FF8000000000000)
    @example(0xFFF0000000000001)
    @example(0x0000000000000001)
    @example(0x800FFFFFFFFFFFFF)
    @settings(max_examples=200, deadline=None)
    def test_float_hash64_is_stable_hash64_of_every_float(self, bits):
        v = struct.unpack(">d", struct.pack(">Q", bits))[0]
        assert float_hash64(v) == stable_hash64(v)


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

    @staticmethod
    def parent_recluster(d: TDigest) -> None:
        """``TDigest._recluster`` as it was before it returned early when
        nothing can merge: kept verbatim as the reference."""
        if not d._means:
            return
        pairs = sorted(zip(d._means, d._weights))
        total = 0.0
        for _, w in pairs:
            total += w
        delta = float(d.compression)
        means: list[float] = []
        weights: list[float] = []
        cm, cw = pairs[0]
        cum = 0.0  # total weight in already-sealed clusters
        for m, w in pairs[1:]:
            nw = cw + w
            q = (cum + nw / 2.0) / total
            limit = 4.0 * total * q * (1.0 - q) / delta
            if nw <= limit or limit < 1.0 and nw <= 1.0:
                cw = nw
                cm += (w / cw) * (m - cm)
            else:
                means.append(cm)
                weights.append(cw)
                cum += cw
                cm, cw = m, w
        means.append(cm)
        weights.append(cw)
        d._means = means
        d._weights = weights

    @given(st.lists(st.tuples(
        st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0])),
        st.one_of(st.just(1.0), st.integers(1, 40).map(float),
                  st.floats(0.01, 60.0))), min_size=1, max_size=90),
        st.sampled_from([10, 25, 100, 200]))
    @settings(max_examples=200, deadline=None)
    @example([(float(k), 1.0) for k in range(10)], 10)  # total = δ
    @example([(float(k), 1.0) for k in range(11)], 10)  # total = δ + 1
    @example([(0.0, 9.5), (1.0, 1.0), (2.0, 1.0), (3.0, 8.49)], 10)  # ≈ 2δ
    def test_recluster_is_the_parent_pass_bit_for_bit(self, pairs, compression):
        """The early return (total ≤ δ, every weight ≥ 1) against the full
        pass it skips: the same centroids, signed zeros included."""
        got, want = TDigest(compression), TDigest(compression)
        for d in (got, want):
            d._means = [m for m, _ in pairs]
            d._weights = [w for _, w in pairs]
        got._recluster()
        self.parent_recluster(want)
        assert repr(got._means) == repr(want._means)
        assert repr(got._weights) == repr(want._weights)

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
_POW2_NEG = tuple(2.0 ** -r for r in range(65))


class DenseHLL:
    """The HyperLogLog as it was while it had one state: ``2**p`` one-byte
    registers from the first value on, shipped as their hex.  Kept verbatim
    as the reference for what the registers, every estimate and the dense
    wire form must (still) be."""

    __slots__ = ("p", "m", "registers", "trimmed")

    def __init__(self, p: int = DEFAULT_SKETCH.hll_p) -> None:
        if not 4 <= p <= 16:
            raise ValueError("HLL precision p must be in [4, 16]")
        self.p = p
        self.m = 1 << p
        self.registers = bytearray(self.m)
        self.trimmed = False

    def add(self, value: Any) -> None:
        self.add_hash(stable_hash64(value))

    def add_hash(self, h: int) -> None:
        j = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        # rank = leading zeros of the remaining 64-p bits, plus one
        rank = (64 - self.p) - rest.bit_length() + 1
        if rank > self.registers[j]:
            self.registers[j] = rank

    def merge_from(self, other: "DenseHLL") -> None:
        if other.p != self.p:
            raise ValueError("cannot merge HLLs of different precision")
        regs, oregs = self.registers, other.registers
        for i in range(self.m):
            if oregs[i] > regs[i]:
                regs[i] = oregs[i]
        self.trimmed = self.trimmed or other.trimmed

    @classmethod
    def merged(cls, hlls: Iterable["DenseHLL"]) -> "DenseHLL":
        """The union of at least one HLL (one: itself, to read, not a copy)."""
        first, *rest = hlls
        if not rest:
            return first
        out = cls(first.p)
        for h in (first, *rest):
            out.merge_from(h)
        return out

    def count(self) -> float:
        m = self.m
        zeros = 0
        acc = 0.0
        for r in self.registers:
            if r == 0:
                zeros += 1
            acc += _POW2_NEG[r]
        est = _hll_alpha(m) * m * m / acc
        if est <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting regime
        return est

    def error_bound(self) -> float:
        """Relative standard error: ``1.04/√m``."""
        return 1.04 / math.sqrt(self.m)

    def memory_bytes(self) -> int:
        return 64 + self.m

    def to_dict(self) -> dict[str, Any]:
        return {
            "p": self.p,
            "registers": bytes(self.registers).hex(),
            "trimmed": self.trimmed,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "DenseHLL":
        h = cls(doc["p"])
        regs = bytes.fromhex(doc["registers"])
        if len(regs) != h.m:
            raise ValueError("HLL register payload does not match precision")
        h.registers = bytearray(regs)
        h.trimmed = bool(doc.get("trimmed", False))
        return h


def sparse_limit(p: int) -> int:
    """Most occupied registers an HLL of precision ``p`` holds sparse."""
    return (1 << p) // _SPARSE_ENTRY_BYTES


def is_sparse(h: HyperLogLog) -> bool:
    return "sparse" in h.to_dict()


def filled(p: int, n: int, seed: int = 0) -> tuple[HyperLogLog, DenseHLL]:
    """An HLL and the oracle after the same ``n`` seeded hashes."""
    rnd = random.Random(seed)
    pair = HyperLogLog(p), DenseHLL(p)
    for _ in range(n):
        h = rnd.getrandbits(64)
        for side in pair:
            side.add_hash(h)
    return pair


def filled_with(*values: Any) -> DenseHLL:
    """The oracle after one ``add`` of each value."""
    h = DenseHLL()
    for v in values:
        h.add(v)
    return h


WHICH = st.integers(0, 2)
#: What a field value can be: every float (NaN and -0.0 among them), the
#: numpy double an SpMV kernel's arithmetic hands out, ints on both sides of
#: 2**53 (exactly representable, and not), bools and strings.
HLL_VALUES = st.one_of(
    st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, math.nan, 1.0]),
    st.floats(-1e3, 1e3).map(np.float64), st.integers(-5, 5),
    st.integers(2**53 - 2, 2**64), st.booleans(), st.text(max_size=3))
HLL_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), WHICH, HLL_VALUES),
    st.tuples(st.just("add_many"), WHICH, st.lists(HLL_VALUES, max_size=12)),
    st.tuples(st.just("add_hash"), WHICH, st.integers(0, 2**64 - 1)),
    # enough hashes at once to reach, and to cross, the promotion point
    st.tuples(st.just("burst"), WHICH, st.integers(0, 2**32), st.floats(0.0, 2.5)),
    st.tuples(st.just("merge_from"), WHICH, WHICH),
    st.tuples(st.just("merged"), WHICH, st.lists(WHICH, min_size=1, max_size=3)),
    st.tuples(st.just("roundtrip"), WHICH),
    st.tuples(st.just("trim"), WHICH),
), max_size=10)


def check_interleaving(p: int, n: int, ops) -> None:
    """Run ``ops`` over ``n`` HLLs and ``n`` oracles; they never differ."""
    new = [HyperLogLog(p) for _ in range(n)]
    old = [DenseHLL(p) for _ in range(n)]
    for op, i, *args in ops:
        i %= n
        if op in ("add", "add_hash"):
            getattr(new[i], op)(*args)
            getattr(old[i], op)(*args)
        elif op == "add_many":
            new[i].add_many(args[0])
            for v in args[0]:
                old[i].add(v)
        elif op == "burst":
            rnd = random.Random(args[0])
            for _ in range(int(args[1] * sparse_limit(p)) + 1):
                h = rnd.getrandbits(64)
                new[i].add_hash(h)
                old[i].add_hash(h)
        elif op == "merge_from":
            new[i].merge_from(new[args[0] % n])
            old[i].merge_from(old[args[0] % n])
        elif op == "merged":
            new[i] = HyperLogLog.merged([new[k % n] for k in args[0]])
            old[i] = DenseHLL.merged([old[k % n] for k in args[0]])
        elif op == "roundtrip":
            new[i] = HyperLogLog.from_dict(json.loads(json.dumps(new[i].to_dict())))
            old[i] = DenseHLL.from_dict(old[i].to_dict())
        else:
            new[i].trimmed = old[i].trimmed = True
        for h, o in zip(new, old):
            assert h.registers == o.registers and h.trimmed == o.trimmed
            occupied = h.m - h.registers.count(0)
            assert is_sparse(h) == (occupied <= sparse_limit(p))
            assert h.memory_bytes() <= o.memory_bytes()
    for h, o in zip(new, old):
        assert h.count() == o.count()  # bit-equal, not approximately
        assert h.error_bound() == o.error_bound()
        # equal registers serialise equal whatever built them — here: the
        # ops above, and a load of the oracle's (the parent's) dense payload
        assert HyperLogLog.from_dict(o.to_dict()).to_dict() == h.to_dict()


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

    @pytest.mark.parametrize("p", [4, 10, 12, 16])
    @given(n=st.integers(1, 3), ops=HLL_OPS)
    @settings(max_examples=12, deadline=None)
    def test_any_interleaving_equals_the_dense_oracle(self, p, n, ops):
        check_interleaving(p, n, ops)

    @pytest.mark.chaos
    @pytest.mark.parametrize("p", [4, 10, 12, 16])
    @given(n=st.integers(1, 3), ops=HLL_OPS)
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_equals_the_dense_oracle_long(self, p, n, ops):
        check_interleaving(p, n, ops)

    @pytest.mark.parametrize("p", [4, 10, 12, 16])
    @given(sizes=st.tuples(*[st.floats(0.0, 2.5)] * 3), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_merge_commutes_and_associates_across_states(self, p, sizes, seed):
        """Exactly: the serialised forms are equal, not only the counts."""
        def copy(h):
            return HyperLogLog.from_dict(h.to_dict())

        (a, oa), (b, ob), (c, oc) = (
            filled(p, int(f * sparse_limit(p)), seed + k)
            for k, f in enumerate(sizes))
        ab, ba = copy(a), copy(b)
        ab.merge_from(b)
        ba.merge_from(a)
        assert ab.to_dict() == ba.to_dict()
        bc = copy(b)
        bc.merge_from(c)
        left, right = copy(ab), copy(a)
        left.merge_from(c)
        right.merge_from(bc)
        whole = DenseHLL.merged([oa, ob, oc])
        assert left.to_dict() == right.to_dict() \
            == HyperLogLog.merged([c, a, b]).to_dict()
        assert left.registers == whole.registers
        assert left.count() == whole.count()

    @pytest.mark.parametrize("p", [4, 6, 10, 12])
    @given(fill=st.floats(0.0, 2.5), seed=st.integers(0, 2**16),
           values=st.lists(HLL_VALUES, max_size=60).map(lambda v: v + v[::2]))
    @settings(max_examples=60, deadline=None)
    def test_add_many_is_the_sequential_adds_bit_for_bit(self, p, fill, seed, values):
        """The bulk build against one ``add_hash`` per value, from a sparse
        or a dense start, over mixed types and repeats: the same registers,
        held in the same form (``to_dict`` carries both)."""
        bulk, oracle = filled(p, int(fill * sparse_limit(p)), seed)
        seq = HyperLogLog.from_dict(bulk.to_dict())
        bulk.add_many(values)
        for v in values:
            seq.add_hash(stable_hash64(v))
            oracle.add(v)
        assert bulk.to_dict() == seq.to_dict()
        assert bulk.registers == oracle.registers
        occupied = bulk.m - bulk.registers.count(0)
        assert is_sparse(bulk) == (occupied <= sparse_limit(p))
        one = HyperLogLog.from_dict(seq.to_dict())
        for v in values:
            one.add(v)
        assert one.to_dict() == bulk.to_dict()

    def test_add_many_hashes_each_distinct_float_once(self, monkeypatch):
        import repro.db.sketch as sketch

        hashed = []

        def counted(v, real=sketch.float_hash64):
            hashed.append(v)
            return real(v)

        monkeypatch.setattr(sketch, "float_hash64", counted)
        h = HyperLogLog()
        h.add_many([1.5, 2.5, 1.5, -0.0, 0.0, 2.5, 1.5])
        assert sorted(hashed) == [0.0, 1.5, 2.5]
        assert h.registers == filled_with(1.5, 2.5, 0.0).registers

    @pytest.mark.parametrize("p", [4, 10, 12, 16])
    def test_promotion_is_at_one_occupied_count_whatever_crosses_it(self, p):
        limit, top = sparse_limit(p), 64 - p + 1

        def at_limit():
            return HyperLogLog.from_dict(
                {"p": p, "sparse": [j << 6 | 1 + j % top for j in range(limit)]})

        one_more = HyperLogLog(p)
        one_more.add_hash(limit << (64 - p))  # register ``limit``: unoccupied
        assert is_sparse(at_limit()) and at_limit().count() == \
            DenseHLL.from_dict({"p": p, "registers": at_limit().registers.hex()}).count()

        by_add, by_merge, raised = at_limit(), at_limit(), at_limit()
        by_add.add_hash(limit << (64 - p))
        by_merge.merge_from(one_more)
        raised.merge_from(at_limit())  # the same registers: nothing new is set
        for j in range(limit):
            raised.add_hash(j << (64 - p))  # top rank, an occupied register
        by_sparse_load = HyperLogLog.from_dict(
            {"p": p, "sparse": [j << 6 | 1 for j in range(limit + 1)]})
        by_dense_load = HyperLogLog.from_dict(
            {"p": p, "registers": by_sparse_load.registers.hex()})
        assert is_sparse(raised)
        assert raised.registers == bytes([top] * limit + [0] * ((1 << p) - limit))
        for h in (by_add, by_merge, by_sparse_load, by_dense_load):
            assert not is_sparse(h)
            assert h.memory_bytes() == 64 + (1 << p)
        assert by_add.to_dict() == by_merge.to_dict()
        assert by_sparse_load.to_dict() == by_dense_load.to_dict()
        # a dense one stays dense through its own wire form
        assert not is_sparse(HyperLogLog.from_dict(by_add.to_dict()))

    def test_parent_format_payload_and_sparse_payload_merge_alike(self):
        regs = bytearray(4096)
        regs[7], regs[900], regs[4095] = 3, 1, 52
        old_form = HyperLogLog.from_dict({"p": 12, "registers": regs.hex()})
        new_form = HyperLogLog.from_dict(
            {"p": 12, "sparse": [7 << 6 | 5, 12 << 6 | 2, 4095 << 6 | 1]})
        assert is_sparse(old_form) and old_form.registers == bytes(regs)
        both, other_way = HyperLogLog.merged([old_form, new_form]), \
            HyperLogLog.merged([new_form, old_form])
        want = DenseHLL.merged([
            DenseHLL.from_dict({"p": 12, "registers": regs.hex()}),
            DenseHLL.from_dict({"p": 12, "registers": new_form.registers.hex()})])
        assert both.to_dict() == other_way.to_dict() == {
            "p": 12, "trimmed": False,
            "sparse": [7 << 6 | 5, 12 << 6 | 2, 900 << 6 | 1, 4095 << 6 | 52]}
        assert both.count() == want.count()

    @pytest.mark.parametrize("p", range(4, 17))
    def test_a_sparse_hll_is_always_in_the_linear_counting_regime(self, p):
        """Why ``count()`` may answer the sparse state from the number of
        zero registers alone: the dense walk's raw estimate is at most
        ``α·m²/zeros``, which is under ``2.5·m`` while fewer than ``0.71·m``
        registers are set — and the promotion point is far below that."""
        m = 1 << p
        assert sparse_limit(p) <= m // 2
        most = math.ceil(0.71 * m) - 1
        assert _hll_alpha(m) * m * m / (m - most) <= 2.5 * m
        # the worst case for the walk: top ranks add next to nothing to acc
        worst = DenseHLL(p)
        worst.registers[:m // 2] = bytes([64 - p + 1]) * (m // 2)
        assert worst.count() == m * math.log(m / (m - m // 2))

    def test_memory_bytes_reports_the_state_held(self):
        h = HyperLogLog(12)
        assert h.memory_bytes() == 64
        for v in range(9):
            h.add(float(v))
        assert h.memory_bytes() == 64 + _SPARSE_ENTRY_BYTES * 9
        for v in range(5000):
            h.add(v)
        assert h.memory_bytes() == 64 + 4096 == DenseHLL(12).memory_bytes()

    def test_nine_values_ship_as_a_short_sorted_list(self):
        h = HyperLogLog(12)
        for v in range(9):
            h.add(v * 1.5)
        doc = h.to_dict()
        assert list(doc) == ["p", "sparse", "trimmed"]
        assert doc["sparse"] == sorted(doc["sparse"]) and len(doc["sparse"]) == 9
        assert len(json.dumps(doc)) * 20 <= len(json.dumps(
            DenseHLL.from_dict({"p": 12, "registers": h.registers.hex()}).to_dict()))

    # -- from_dict refuses what no hash can produce ----------------------
    def test_the_parent_loaded_impossible_ranks(self):
        doc = {"p": 4, "registers": "c8" + "00" * 15}
        with pytest.raises(IndexError):  # one such document aborted a compare
            DenseHLL.from_dict(doc).count()
        # 63 at p=4 (the most a hash gives is 61): wrong but plausible
        assert round(DenseHLL.from_dict(
            {"p": 4, "registers": "3f" + "00" * 15}).count(), 2) == 1.03
        with pytest.raises(ValueError):
            HyperLogLog.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"p": 4, "registers": "3f" + "00" * 15},           # rank 63 > 61
        {"p": 16, "registers": "32" + "00" * 65535},       # rank 50 > 49
        {"p": 4, "registers": "00" * 15},                  # 15 registers
        {"p": 4, "registers": "00" * 17},
        {"p": 4, "registers": "00" * 16, "sparse": []},    # both forms
        {"p": 4},                                          # neither
        {"p": 4, "sparse": [1 << 6 | 62]},                 # rank 62 > 61
        {"p": 4, "sparse": [1 << 6]},                      # rank 0
        {"p": 4, "sparse": [16 << 6 | 1]},                 # index == m
        {"p": 4, "sparse": [2 << 6 | 1, 1 << 6 | 1]},      # descending
        {"p": 4, "sparse": [1 << 6 | 1, 1 << 6 | 2]},      # one index twice
        {"p": 4, "sparse": [-63]},
        {"p": 4, "sparse": [True]},
        {"p": 4, "sparse": [65.0]},
        {"p": 4, "sparse": ["65"]},
        {"p": 3, "sparse": []},
    ])
    def test_from_dict_rejects(self, doc):
        with pytest.raises(ValueError):
            HyperLogLog.from_dict(doc)

    def test_from_dict_accepts_the_legal_extremes(self):
        for p in (4, 16):
            top, m = 64 - p + 1, 1 << p
            regs = bytes([top]) + bytes(m - 2) + bytes([1])
            dense = HyperLogLog.from_dict({"p": p, "registers": regs.hex()})
            sparse = HyperLogLog.from_dict(
                {"p": p, "sparse": [top, (m - 1) << 6 | 1]})
            assert dense.registers == sparse.registers == regs
            assert dense.count() == sparse.count() == \
                DenseHLL.from_dict({"p": p, "registers": regs.hex()}).count()


# ----------------------------------------------------------------------
# The bytes form
# ----------------------------------------------------------------------
def random_digest(rng: random.Random) -> TDigest:
    """Empty, NaN-flagged, few values (uncompressed run) or many."""
    d = TDigest(rng.choice([10, 50, DEFAULT_SKETCH.compression]))
    n = rng.choice([0, 1, rng.randint(2, 60), rng.randint(500, 3000)])
    d.add_many([rng.gauss(0.0, 1e3) for _ in range(n)])
    if rng.random() < 0.3:
        d.add(math.nan)
    if rng.random() < 0.3:
        d.merge_from(TDigest.of([rng.random() for _ in range(rng.randint(0, 40))],
                                d.compression))
    return d


def random_hll(rng: random.Random) -> HyperLogLog:
    """Empty, sparse, at the sparse limit, or dense; trimmed or not."""
    p = rng.choice([4, 5, 12, 16])
    h = HyperLogLog(p)
    n = rng.choice([0, rng.randint(1, 9), sparse_limit(p), sparse_limit(p) + 1,
                    rng.randint(1, 3 * min(1 << p, 4096))])
    for _ in range(n):
        h.add_hash(rng.getrandbits(64))
    h.trimmed = rng.random() < 0.3
    return h


def hll_bytes(p: int, held: list[int] | bytes) -> bytes:
    """A hand-made ``HyperLogLog.to_bytes`` payload: sparse entries (a
    list) or registers (bytes)."""
    if isinstance(held, bytes):
        return struct.pack(">cBBI", b"H", p, 2, len(held)) + held
    return struct.pack(f">cBBI{len(held)}I", b"H", p, 0, len(held), *held)


class TestBytesForm:
    """``to_bytes``/``from_bytes`` hold exactly the ``to_dict`` state, and
    ``from_bytes`` refuses what ``from_dict`` refuses, and a cut payload."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_the_bytes_form_round_trips(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            d = random_digest(rng)
            back = TDigest.from_bytes(d.to_bytes())
            assert back.to_dict() == d.to_dict()
            assert back.to_bytes() == d.to_bytes()
            h = random_hll(rng)
            again = HyperLogLog.from_bytes(h.to_bytes())
            assert again.to_dict() == h.to_dict()
            assert again.registers == h.registers and again.count() == h.count()
            cut = rng.randrange(len(h.to_bytes()))
            with pytest.raises(ValueError):
                HyperLogLog.from_bytes(h.to_bytes()[:cut])
            cut = rng.randrange(len(d.to_bytes()))
            with pytest.raises(ValueError):
                TDigest.from_bytes(d.to_bytes()[:cut])

    def test_every_state_is_covered(self):
        """Empty, NaN-flagged, sparse, dense and trimmed each round-trip."""
        empty, nan, few = TDigest(), TDigest(), TDigest()
        nan.add(math.nan)
        few.add_many([3.0, 1.0, 2.0])
        sparse, dense = filled(12, 9)[0], filled(12, 5000)[0]
        trimmed = filled(4, 3)[0]
        trimmed.trimmed = True
        assert is_sparse(sparse) and not is_sparse(dense)
        for d in (empty, nan, few):
            assert TDigest.from_bytes(d.to_bytes()).to_dict() == d.to_dict()
        for h in (HyperLogLog(), sparse, dense, trimmed):
            assert HyperLogLog.from_bytes(h.to_bytes()).to_dict() == h.to_dict()
        assert len(sparse.to_bytes()) * 20 <= len(dense.to_bytes())

    @pytest.mark.parametrize("payload", [
        b"", b"H", b"H\x0c\x00",                  # cut in the header
        hll_bytes(12, [1 << 6 | 1])[:-1],         # cut in an entry
        hll_bytes(3, []),                         # p below 4
        hll_bytes(17, []),                        # p above 16
        hll_bytes(3, bytes(8)),
        hll_bytes(4, [1 << 6 | 62]),              # rank 62 > 61
        hll_bytes(4, [1 << 6]),                   # rank 0
        hll_bytes(4, b"\x3f" + bytes(15)),        # rank 63 > 61
        hll_bytes(4, bytes(15)),                  # 15 registers
        hll_bytes(4, [2 << 6 | 1, 1 << 6 | 1]),   # descending
        hll_bytes(4, [1 << 6 | 1, 1 << 6 | 2]),   # one index twice
        b"T" + hll_bytes(4, [])[1:],              # another family
    ])
    def test_hll_from_bytes_rejects(self, payload):
        with pytest.raises(ValueError):
            HyperLogLog.from_bytes(payload)

    @pytest.mark.parametrize("cut", [0, 1, 33, 34 + 8])
    def test_digest_from_bytes_rejects_a_cut_payload(self, cut):
        d = TDigest()
        d.add_many([1.0, 2.0])
        with pytest.raises(ValueError):
            TDigest.from_bytes(d.to_bytes()[:cut])
        with pytest.raises(ValueError):
            TDigest.from_bytes(b"H" + d.to_bytes()[1:])  # another family
