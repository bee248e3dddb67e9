"""Mergeable sketches for incremental analytics: t-digest and HLL.

PR 5's rollup tiers keep count/total/min/max/last per bucket, which
serves MEAN/SUM/COUNT/MIN/MAX/LAST at O(tiers) cost — but percentiles and
distinct counts still require a raw columnar scan on every read.  This
module supplies the two mergeable summaries that close that gap (the
online-ODA pattern of DCDB Wintermute):

- :class:`TDigest` — quantile sketch (merging-digest variant).  Clusters
  near the tails stay small (the ``4·n·q·(1−q)/δ`` size limit), so rank
  error is tightest exactly where p95/p99 dashboards look.
- :class:`HyperLogLog` — cardinality with ``1.04/√m`` standard error,
  register-wise-max mergeable across shards and federation hosts; held and
  shipped as its occupied registers until the dense array is the smaller.

Everything here is pure python, deterministic (no entropy source — ties
break on canonical byte encodings), and serializable to JSON-safe dicts,
which is what lets SUPERDB ship sketches over a ``FederationLink`` and
lets the sharded engine scatter-gather *summaries* instead of rows.

:func:`value_key` is the canonical value encoding shared by every sketch
(and by ``repro.db.mongo.distinct``): type-tagged, length-prefixed bytes
with ``-0.0`` folded onto ``+0.0``, every NaN collapsed to one key, and
dict entries ordered by encoded key — so logically equal values can never
alias apart (or distinct values alias together) the way interpreter
``hash()`` tricks allow.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b
from itertools import accumulate
from typing import Any, Iterable

__all__ = [
    "SketchConfig",
    "DEFAULT_SKETCH",
    "TDigest",
    "HyperLogLog",
    "value_key",
    "stable_hash64",
    "float_hash64",
    "nearest_rank",
    "stddev_from_partials",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SketchConfig:
    """Sketch parameters plus the serving-planner error contract.

    ``epsilon`` is the *rank* error the planner promises for any
    sketch-served quantile: a single digest at compression ``δ`` is bounded
    by ``2/δ``; merging buckets costs at most one doubling (the merged
    centroids re-compress once), so the planner serves iff
    ``digest_bound · (2 if merged else 1) ≤ epsilon`` and at most
    ``max_merge`` digests fold into one answer.  ``hll_epsilon`` bounds the
    relative error of an HLL-served ``COUNT(DISTINCT …)`` the same way.
    """

    compression: int = 200
    epsilon: float = 0.02
    hll_p: int = 12
    hll_epsilon: float = 0.025
    max_merge: int = 64

    def digest_bound(self, merged: bool = False) -> float:
        b = 2.0 / self.compression
        return 2.0 * b if merged else b


DEFAULT_SKETCH = SketchConfig()


# ----------------------------------------------------------------------
# Canonical value keying
# ----------------------------------------------------------------------
_F_NAN = b"f\x7f\xf8\x00\x00\x00\x00\x00\x00"  # canonical NaN encoding


def _encode(v: Any, out: bytearray) -> None:
    if v is None:
        out += b"z"
    elif isinstance(v, bool):
        out += b"b1" if v else b"b0"
    elif isinstance(v, float) or isinstance(v, int):
        f: float
        if isinstance(v, int):
            try:
                f = float(v)
            except OverflowError:
                out += b"i" + str(v).encode()
                out += b"\x00"
                return
            if int(f) != v:  # not exactly float-representable: exact key
                out += b"i" + str(v).encode()
                out += b"\x00"
                return
        else:
            f = v
        if f != f:
            out += _F_NAN  # every NaN payload is the same value key
        else:
            if f == 0.0:
                f = 0.0  # -0.0 and +0.0 are equal: one key
            out += b"f" + struct.pack(">d", f)
    elif isinstance(v, str):
        b = v.encode("utf-8")
        out += b"s" + struct.pack(">I", len(b)) + b
    elif isinstance(v, (bytes, bytearray)):
        out += b"y" + struct.pack(">I", len(v)) + bytes(v)
    elif isinstance(v, (list, tuple)):
        out += b"l" + struct.pack(">I", len(v))
        for item in v:
            _encode(item, out)
    elif isinstance(v, dict):
        entries = []
        for k, val in v.items():
            kb = bytearray()
            _encode(k, kb)
            vb = bytearray()
            _encode(val, vb)
            entries.append((bytes(kb), bytes(vb)))
        entries.sort()  # insertion order must not leak into the key
        out += b"d" + struct.pack(">I", len(entries))
        for kb, vb in entries:
            out += kb
            out += vb
    elif isinstance(v, (set, frozenset)):
        elems = []
        for item in v:
            eb = bytearray()
            _encode(item, eb)
            elems.append(bytes(eb))
        elems.sort()
        out += b"S" + struct.pack(">I", len(elems))
        for eb in elems:
            out += eb
    else:
        b = repr(v).encode("utf-8", "backslashreplace")
        out += b"r" + struct.pack(">I", len(b)) + b


def value_key(v: Any) -> bytes:
    """Canonical, prefix-free byte encoding of one (JSON-ish) value.

    Equal values always produce equal keys — ``1 == 1.0``, ``-0.0 == 0.0``
    and dicts regardless of insertion order — and unequal values never
    collide by construction (type tags + length prefixes)."""
    out = bytearray()
    _encode(v, out)
    return bytes(out)


def stable_hash64(v: Any) -> int:
    """64-bit blake2b of :func:`value_key` — stable across processes and
    machines (unlike ``hash()``, which is salted for strings and
    implementation-defined everywhere else)."""
    return int.from_bytes(blake2b(value_key(v), digest_size=8).digest(), "big")


def float_hash64(v: float) -> int:
    """:func:`stable_hash64` fast path for float field values (the ingest
    hot loop skips the generic encoder dispatch)."""
    if v != v:
        key = _F_NAN
    else:
        key = b"f" + struct.pack(">d", 0.0 if v == 0.0 else v)
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


# ----------------------------------------------------------------------
# Exact reference folds shared by execute() and naive_execute()
# ----------------------------------------------------------------------
def nearest_rank(values: list[float], pct: float) -> float | None:
    """Exact ``PERCENTILE(field, pct)`` reference: nearest-rank over the
    sorted non-NaN values (Influx returns an actual stored value)."""
    vals = sorted(v for v in values if v == v)
    if not vals:
        return None
    idx = math.ceil((pct / 100.0) * len(vals)) - 1
    if idx < 0:
        idx = 0
    elif idx >= len(vals):
        idx = len(vals) - 1
    return vals[idx]


def stddev_from_partials(count: int, total: float, sumsq: float) -> float | None:
    """Sample standard deviation from the (count, Σv, Σv²) fold state.

    Both the pushdown path (rollup sumsq partials) and the naive reference
    call this on partials folded in the *same* row order, so the two paths
    stay bit-identical."""
    if count < 2:
        return None
    var = (sumsq - (total * total) / count) / (count - 1)
    if var != var:  # NaN poisoned the fold
        return var
    return math.sqrt(var) if var > 0.0 else 0.0


def stddev_of(values: list[float]) -> float | None:
    """Sample stddev of raw values, folded left-to-right exactly like the
    rollup write path (``sum`` then ``Σv²`` in order) so exact scans and
    rollup-served answers agree bit-for-bit."""
    if not values:
        return None
    total = sum(values)
    sq = 0.0
    for v in values:
        sq += v * v
    return stddev_from_partials(len(values), total, sq)


# ----------------------------------------------------------------------
# t-digest
# ----------------------------------------------------------------------
class TDigest:
    """Deterministic merging t-digest.

    Values buffer unsorted (O(1) append) and fold
    into weight-limited centroids on compression, which runs when the
    buffer reaches ``4·compression`` or a read arrives.  NaN never enters a
    centroid; it sets ``has_nan`` so the serving planner can refuse the
    digest the same way rollup MIN/MAX serving refuses NaN-poisoned tiers.
    """

    __slots__ = ("compression", "has_nan", "_means", "_weights", "_count",
                 "_min", "_max", "_buf")

    def __init__(self, compression: int = DEFAULT_SKETCH.compression) -> None:
        if compression < 10:
            raise ValueError("t-digest compression must be >= 10")
        self.compression = int(compression)
        self.has_nan = False
        self._means: list[float] = []
        self._weights: list[float] = []
        self._count = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buf: list[float] = []

    # -- write side -----------------------------------------------------
    def add(self, v: float) -> None:
        if v != v:
            self.has_nan = True
            return
        self._buf.append(v)
        self._count += 1.0
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if len(self._buf) >= 4 * self.compression:
            self._compress()

    def add_many(self, values: Iterable[float]) -> None:
        """Bulk :meth:`add`, bit-equal to the sequential one: the buffer is
        extended in chunks that end exactly where ``add`` would compress."""
        values = list(values)
        vals = [v for v in values if v == v]
        if len(vals) != len(values):
            self.has_nan = True
        if not vals:
            return
        self._count += len(vals)
        self._min = min(self._min, min(vals))
        self._max = max(self._max, max(vals))
        cap = 4 * self.compression
        i = 0
        while i < len(vals):
            room = cap - len(self._buf)
            self._buf.extend(vals[i:i + room])
            i += room
            if len(self._buf) >= cap:
                self._compress()

    @classmethod
    def of(cls, values: Iterable[float], compression: int) -> "TDigest":
        """The compressed digest of exactly ``values``.  Held this way a
        digest answers — alone or merged, which reads centroids and buffer
        as they are — by its values only, not by which read compressed it."""
        d = cls(compression)
        d.add_many(values)
        d._compress()
        return d

    def merge_from(self, other: "TDigest") -> None:
        """Fold ``other`` in.  Commutative up to identical results: both
        orders sort the same (mean, weight) multiset before compressing."""
        other_pairs = list(zip(other._means, other._weights))
        other_pairs.extend((v, 1.0) for v in other._buf)
        self._compress()
        pairs = list(zip(self._means, self._weights))
        pairs.extend(other_pairs)
        self._count += other._count
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self.has_nan = self.has_nan or other.has_nan
        self._means = [m for m, _ in pairs]
        self._weights = [w for _, w in pairs]
        self._buf = []
        self._recluster()

    @classmethod
    def merged(cls, digests: Iterable["TDigest"],
               compression: int | None = None) -> "TDigest":
        digests = list(digests)
        if compression is None:
            compression = (digests[0].compression if digests
                           else DEFAULT_SKETCH.compression)
        out = cls(compression)
        for d in digests:
            out.merge_from(d)
        return out

    # -- compression ----------------------------------------------------
    def _compress(self) -> None:
        if not self._buf:
            return
        pairs = list(zip(self._means, self._weights))
        pairs.extend((v, 1.0) for v in self._buf)
        self._buf = []
        self._means = [m for m, _ in pairs]
        self._weights = [w for _, w in pairs]
        self._recluster()

    def _recluster(self) -> None:
        """One deterministic merge pass over the sorted (mean, weight)
        multiset, with the classic ``4·n·q·(1−q)/δ`` cluster-size limit."""
        if not self._means:
            return
        pairs = sorted(zip(self._means, self._weights))
        total = 0.0
        for _, w in pairs:
            total += w
        delta = float(self.compression)
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
        self._means = means
        self._weights = weights

    # -- read side ------------------------------------------------------
    @property
    def count(self) -> float:
        return self._count

    @property
    def centroid_count(self) -> int:
        self._compress()
        return len(self._means)

    def quantile(self, q: float) -> float | None:
        """Approximate value at quantile ``q`` (rank error ≤ 2/δ)."""
        if self._count == 0:
            return None
        self._compress()
        q = 0.0 if q < 0.0 else 1.0 if q > 1.0 else q
        means, weights, n = self._means, self._weights, self._count
        if len(means) == 1:
            return means[0]
        idx = q * n
        if idx <= weights[0] / 2.0:
            return self._min
        # Rank of each centroid's middle — the running weight sum a
        # centroid-by-centroid walk would carry, added in its order — and
        # the first one at or past the asked rank, by bisect.
        mids = [cum + w / 2.0
                for cum, w in zip(accumulate(weights, initial=0.0), weights)]
        k = bisect_left(mids, idx)
        prev_mid, prev_val = (mids[k - 1], means[k - 1]) if k else (0.0, self._min)
        if k < len(means):
            span = mids[k] - prev_mid
            frac = (idx - prev_mid) / span if span > 0 else 0.0
            # Clamp to the bracketing interval (means are sorted):
            # prev + frac*(m - prev) cancels catastrophically when
            # |prev| dwarfs |m| (prev=-1.0, m=-6e-89, frac=1 gives
            # 0.0 — outside the data range entirely).
            v = prev_val + frac * (means[k] - prev_val)
            return min(max(v, prev_val), means[k])
        span = n - prev_mid
        frac = (idx - prev_mid) / span if span > 0 else 1.0
        v = prev_val + frac * (self._max - prev_val)
        return min(max(v, prev_val), self._max)

    def rank_error_bound(self) -> float:
        return 2.0 / self.compression

    def memory_bytes(self) -> int:
        """Arithmetic footprint estimate (object + centroid/buffer floats)."""
        return 96 + 16 * len(self._means) + 8 * len(self._buf)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        self._compress()
        return {
            "compression": self.compression,
            "count": self._count,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "means": list(self._means),
            "weights": list(self._weights),
            "has_nan": self.has_nan,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TDigest":
        d = cls(doc["compression"])
        d._means = [float(m) for m in doc["means"]]
        d._weights = [float(w) for w in doc["weights"]]
        d._count = float(doc["count"])
        if doc.get("min") is not None:
            d._min = float(doc["min"])
        if doc.get("max") is not None:
            d._max = float(doc["max"])
        d.has_nan = bool(doc.get("has_nan", False))
        return d


# ----------------------------------------------------------------------
# HyperLogLog
# ----------------------------------------------------------------------
def _hll_alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


#: Bytes an occupied register costs held sparse (a list slot, a boxed int):
#: sparse is the smaller form while ``occupied <= m // _SPARSE_ENTRY_BYTES``.
_SPARSE_ENTRY_BYTES = 40


class HyperLogLog:
    """Classic 64-bit HLL over :func:`stable_hash64` values.

    ``2**p`` registers; merge is register-wise max, so shard and
    federation merges estimate exactly the union.  ``trimmed`` marks that
    values were *removed* from the backing store (retention, series drops)
    — HLL cannot forget, so the planner must fall back to exact scans.

    Held as the occupied registers alone, an ascending ``index << 6 | rank``
    each, while few are set, and as one byte per register from then on
    (HLL++'s sparse mode).  The occupied count only grows, so the state is a
    function of the register contents: equal HLLs serialise equal however
    they were built."""

    __slots__ = ("p", "m", "_sparse", "_dense", "trimmed")

    def __init__(self, p: int = DEFAULT_SKETCH.hll_p) -> None:
        if not 4 <= p <= 16:
            raise ValueError("HLL precision p must be in [4, 16]")
        self.p = p
        self.m = 1 << p
        self._sparse: list[int] | None = []
        self._dense: bytearray | None = None
        self.trimmed = False

    @property
    def registers(self) -> bytes:
        """Read-only dense view: one rank byte per register."""
        regs = self._dense
        if regs is None:
            regs = bytearray(self.m)
            for e in self._sparse:
                regs[e >> 6] = e & 63
        return bytes(regs)

    def _settle(self) -> None:
        """Go dense, for good, once sparse stopped being the smaller form."""
        if len(self._sparse) > self.m // _SPARSE_ENTRY_BYTES:
            self._sparse, self._dense = None, bytearray(self.registers)

    def add(self, value: Any) -> None:
        self.add_hash((float_hash64 if type(value) is float else stable_hash64)(value))

    def add_hash(self, h: int) -> None:
        j = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        # rank = leading zeros of the remaining 64-p bits, plus one
        rank = (64 - self.p) - rest.bit_length() + 1
        dense = self._dense
        if dense is not None:
            if rank > dense[j]:
                dense[j] = rank
            return
        sparse = self._sparse
        k = bisect_left(sparse, j << 6)
        if k == len(sparse) or sparse[k] >> 6 != j:
            sparse.insert(k, j << 6 | rank)
            self._settle()
        elif rank > sparse[k] & 63:
            sparse[k] = j << 6 | rank

    def merge_from(self, other: "HyperLogLog") -> None:
        if other.p != self.p:
            raise ValueError("cannot merge HLLs of different precision")
        mine, theirs = self._sparse, other._sparse
        if mine is not None and theirs is not None:
            # Sorted, a register's highest rank comes last: the one kept.
            self._sparse = list({e >> 6: e for e in sorted(mine + theirs)}.values())
            self._settle()
        else:
            if mine is not None:  # max commutes: take other's, fold the few held here
                theirs, self._sparse, self._dense = mine, None, bytearray(other._dense)
            regs = self._dense
            for j, r in (enumerate(other._dense) if theirs is None
                         else ((e >> 6, e & 63) for e in theirs)):
                if r > regs[j]:
                    regs[j] = r
        self.trimmed = self.trimmed or other.trimmed

    @classmethod
    def merged(cls, hlls: Iterable["HyperLogLog"]) -> "HyperLogLog":
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
        if self._dense is None:
            # The dense walk below answers by linear counting whenever
            # α·m²/acc ≤ 2.5·m; acc ≥ zeros and α < 0.7213, so that holds
            # with fewer than 0.71·m registers set — and the promotion point
            # is far below.  Linear counting reads only how many are zero.
            return m * math.log(m / (m - len(self._sparse)))
        zeros = 0
        acc = 0.0
        for r in self._dense:
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
        held = self.m if self._dense is not None else _SPARSE_ENTRY_BYTES * len(self._sparse)
        return 64 + held

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe: dense as ``registers`` (hex, a byte each), sparse as
        ``sparse`` (the ascending ``index << 6 | rank`` list held)."""
        held = ({"sparse": list(self._sparse)} if self._dense is None
                else {"registers": bytes(self._dense).hex()})
        return {"p": self.p, **held, "trimmed": self.trimmed}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "HyperLogLog":
        """Load either form — the state follows the contents, not the form
        — refusing registers no hash can produce."""
        h = cls(doc["p"])
        if ("registers" in doc) == ("sparse" in doc):
            raise ValueError("HLL payload needs one of 'registers' and 'sparse'")
        top = 64 - h.p + 1  # the rank of a hash whose remaining bits are all 0
        if "registers" in doc:
            regs = bytes.fromhex(doc["registers"])
            if len(regs) != h.m or max(regs) > top:
                raise ValueError("HLL register payload does not match precision")
            h._sparse = [j << 6 | r for j, r in enumerate(regs) if r]
        else:
            last = -1
            for e in doc["sparse"]:
                if type(e) is not int or not (last < e >> 6 < h.m and 1 <= e & 63 <= top):
                    raise ValueError(f"sparse HLL entry {e!r}: bad rank, index or order")
                last = e >> 6
            h._sparse = list(doc["sparse"])
        h._settle()
        h.trimmed = bool(doc.get("trimmed", False))
        return h


_POW2_NEG = tuple(2.0 ** -r for r in range(65))
