"""In-memory InfluxDB 1.8 substitute — series-sharded storage engine.

P-MoVE stores *SWTelemetry* and *HWTelemetry* samples in InfluxDB (§III-A),
keyed by measurement name, tagged with observation UUIDs, with one field per
instance (``_cpu0``, ``_node1``, …).  This substrate implements the pieces
the framework exercises: line-protocol ingest, per-database measurement
stores, retention policies (the paper's answer to long-term disk pressure,
§V-B), and the InfluxQL subset executed by :mod:`repro.db.influxql`.

Storage layout (mirroring what production ODA stacks such as DCDB sit on):
each measurement is sharded into **series**, one per distinct tag set.  A
series holds columnar arrays — a sorted time array, a parallel write-sequence
array, and one value array per field — so the dominant dashboard query shape
(``WHERE tag="<uuid>" AND time >= a AND time <= b``) resolves via an inverted
tag index (``tag=value → series``) plus two ``bisect`` calls instead of a
full scan.  Writes take an O(1) append fast path when they arrive in time
order (the sampler's case) and a bisect-based insertion otherwise.

The read path is columnar end to end.  Dashboards re-issue the same
queries on every refresh, so four mechanisms serve them without per-row
tuple materialization:

- :meth:`InfluxDB.scan_columns` answers a raw select with copies of the
  column slices (:class:`ColumnRows`); ``(time, values)`` rows exist only
  for a reader that iterates them;
- :meth:`InfluxDB.aggregate_columns` folds MEAN/MAX/MIN/SUM/COUNT/LAST
  directly over the per-series value arrays;
- :meth:`InfluxDB.scan_buckets` answers ``GROUP BY time(N)`` as columns
  too: it steps from bucket edge to bucket edge (:func:`bucket_runs`), and
  reads fully covered buckets as slices of **rollup tiers** — per-series
  downsample shards (default tiers 10s/60s, the continuous-query pattern
  of production Influx stacks), with raw-point folds for the unaligned
  head/tail so results stay exactly equal to raw aggregation;
- per-measurement **freshness stamps** (:meth:`InfluxDB.freshness`): a
  generation bumped on every mutation, and an epoch and frontier that say
  which mutations were in-order appends, so read layers (the Grafana panel
  cache) invalidate with integer compares and keep what an append cannot
  have changed.

A write maintains none of this.  The paper's default path has no buffer
between sampler and database (§V-A), so a write stores its row in the
columns and returns; tiers, per-bucket t-digests and per-field HLLs are
memos over a prefix of those columns (``_Series.folded``), caught up by
the first read that needs them with the one routine late writes and
retention use (``_RollupCol.set_from`` over a raw slice) — on-demand
operators over a head-extended sensor cache, as in DCDB Wintermute.

Timestamps are virtual-clock seconds stored at nanosecond resolution, as
Influx line protocol does.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from heapq import merge as _heap_merge
from itertools import chain, islice

from .aggregates import (  # all five planner families: _plan's callers name them here
    _PARTIALS, _ROLLUP, _SKETCH, _SKETCH_RANGE, _STDDEV, AGGREGATES, Aggregate, Family,
    Stat, _values, digest_range, digest_tier, first_seen, partial_stat, stat_tier,
)
from .sketch import (
    DEFAULT_SKETCH,
    HyperLogLog,
    SketchConfig,
    TDigest,
    float_hash64,
    stable_hash64,
)

__all__ = ["Point", "InfluxError", "RetentionPolicy", "InfluxDB", "ColumnRows",
           "DEFAULT_ROLLUP_TIERS", "bucket_runs"]

#: Downsample shard sizes every series keeps, seconds.
DEFAULT_ROLLUP_TIERS = (10.0, 60.0)


class InfluxError(ValueError):
    """Malformed line protocol, unknown database/measurement, refused statement."""


def named_aggregate(agg: str) -> Aggregate:
    """The record of ``agg`` if the engine's named reads (``aggregate_columns``,
    ``scan_buckets``) answer it."""
    a = AGGREGATES.get(agg)
    if a is None or not a.named:
        raise InfluxError(f"unknown aggregate {agg}")
    return a


_ESCAPE_RE = re.compile(r"([,= \\])")
_UNESCAPE_RE = re.compile(r"\\([,= \\])")
#: Everything ``str.splitlines`` cuts at: a batch is split into lines
#: before it is parsed, so none of these can be carried inside one.
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _escape(s: str) -> str:
    """Backslash-escape the separators *and the backslash itself*: left
    bare, a value ending in one would swallow the separator after it."""
    if "," not in s and "=" not in s and " " not in s and "\\" not in s:
        return s
    return _ESCAPE_RE.sub(r"\\\1", s)


def _unescape(s: str) -> str:
    if "\\" not in s:
        return s
    return _UNESCAPE_RE.sub(r"\1", s)


# Escaped-length memo for field names: sampler field names (``_cpu0`` …)
# repeat millions of times, so byte accounting never re-escapes them.
_ESC_LEN: dict[str, int] = {}


def _esc_len(s: str) -> int:
    n = _ESC_LEN.get(s)
    if n is None:
        n = _ESC_LEN[s] = len(_escape(s))
    return n


def _split_unescaped(s: str, sep: str) -> list[str]:
    """Split on ``sep`` except where backslash-escaped."""
    if "\\" not in s:
        return s.split(sep)
    out, buf, i = [], "", 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            buf += s[i : i + 2]
            i += 2
            continue
        if ch == sep:
            out.append(buf)
            buf = ""
        else:
            buf += ch
        i += 1
    out.append(buf)
    return out


def _split_pair(kv: str) -> tuple[str, str]:
    """``key=value`` cut at the first ``=`` that is not escaped."""
    k, *rest = _split_unescaped(kv, "=")
    return k, "=".join(rest)


def _parse_field_value(v: str) -> float:
    """Parse one line-protocol field value.

    Influx writes integer-typed fields with an ``i`` suffix (``value=42i``);
    we store everything as floats, so the suffix is stripped on ingest.
    """
    try:
        if len(v) > 1 and v[-1] == "i":
            return float(int(v[:-1]))
        return float(v)
    except ValueError:
        raise InfluxError(f"non-numeric field value {v!r}") from None


@dataclass(frozen=True)
class Point:
    """One time-series sample."""

    measurement: str
    tags: dict[str, str]
    fields: dict[str, float]
    time: float  # seconds

    def __post_init__(self) -> None:
        if not self.measurement:
            raise InfluxError("point needs a measurement name")
        if not self.fields:
            raise InfluxError("point needs at least one field")

    def to_line(self) -> str:
        """Serialize to Influx line protocol (ns timestamp, float fields).

        ``from_line(p.to_line()) == p`` for every point this returns a line
        for.  A name no single line can carry is refused: a line break
        anywhere (batches are cut into lines before they are parsed),
        leading whitespace on the measurement (parsers strip the line), or
        a leading ``#`` on it (the line would read as a comment).
        """
        key = _escape(self.measurement)
        if self.tags:
            key += "," + ",".join(
                f"{_escape(k)}={_escape(v)}" for k, v in sorted(self.tags.items())
            )
        fields = ",".join(f"{_escape(k)}={v!r}" for k, v in sorted(self.fields.items()))
        line = f"{key} {fields} {int(self.time * 1e9)}"
        if _LINE_BREAK_RE.search(line) or key[0].isspace():
            raise InfluxError(
                f"line break or leading whitespace in a name of {line!r}; "
                "line protocol cannot carry it"
            )
        if key[0] == "#":
            raise InfluxError(
                f"measurement of {line!r} starts with '#': a batch parser "
                "would skip the line as a comment"
            )
        return line

    @classmethod
    def from_line(cls, line: str) -> "Point":
        """Parse one line-protocol record."""
        parts = _split_unescaped(line.strip(), " ")
        parts = [p for p in parts if p != ""]
        if len(parts) < 2:
            raise InfluxError(f"malformed line protocol: {line!r}")
        key = parts[0]
        field_part = parts[1]
        ts = int(parts[2]) / 1e9 if len(parts) > 2 else 0.0
        key_parts = _split_unescaped(key, ",")
        measurement = _unescape(key_parts[0])
        tags: dict[str, str] = {}
        for kv in key_parts[1:]:
            k, v = _split_pair(kv)
            if not k or not v:
                raise InfluxError(f"malformed tag {kv!r}")
            tags[_unescape(k)] = _unescape(v)
        fields: dict[str, float] = {}
        for kv in _split_unescaped(field_part, ","):
            k, v = _split_pair(kv)
            if not k or v == "":
                raise InfluxError(f"malformed field {kv!r}")
            fields[_unescape(k)] = _parse_field_value(v)
        return cls(measurement=measurement, tags=tags, fields=fields, time=ts)


@dataclass
class RetentionPolicy:
    """How long a database keeps points (``duration_s=None`` = forever)."""

    duration_s: float | None = None
    name: str = "autogen"


class _RollupCol:
    """Per-bucket fold state of one field, parallel with ``_Rollup.starts``.

    A bucket with ``count == 0`` holds no value for this field.  ``total``,
    ``vmin``, ``vmax`` and ``last`` are the fold of the bucket's raw values
    in (time, write-seq) order — :meth:`set_from` is the only routine that
    writes them, so every stat is bit-identical to folding the raw column
    slice of that bucket.  ``sumsq`` extends the fold with Σv² (STDDEV
    partials, same fold order).  ``digest`` holds the bucket's
    :class:`~repro.db.sketch.TDigest` once a PERCENTILE read has asked for
    it (:meth:`_Series.bucket_digest`), and ``kept[q]`` what that digest
    answered at quantile ``q`` (``None`` = not asked, or nothing to ask):
    both are memos of the bucket's rows, emptied wherever the bucket is
    re-folded or moves, so a sealed bucket is worked out once.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "last", "sumsq", "digest",
                 "kept")

    #: Quantiles remembered per field; asking for one more forgets the
    #: oldest (a dashboard asks for one or two, an ad-hoc user for any).
    KEPT_QUANTILES = 4

    def __init__(self, n: int) -> None:
        self.count = [0] * n
        self.total = [0.0] * n
        self.vmin = [0.0] * n
        self.vmax = [0.0] * n
        self.last = [0.0] * n
        self.sumsq = [0.0] * n
        self.digest: list[TDigest | None] = [None] * n
        self.kept: dict[float, list[float | None]] = {}

    def _arrays(self):
        return (self.count, self.total, self.vmin, self.vmax, self.last,
                self.sumsq)

    def _memos(self):
        return (self.digest, *self.kept.values())

    def append_bucket(self) -> None:
        for a in self._arrays():
            a.append(0)
        for a in self._memos():
            a.append(None)

    def insert_bucket(self, k: int) -> None:
        for a in self._arrays():
            a.insert(k, 0)
        for a in self._memos():
            a.insert(k, None)

    def drop_buckets(self, k: int) -> None:
        for a in (*self._arrays(), *self._memos()):
            del a[:k]

    def remove_bucket(self, k: int) -> None:
        for a in (*self._arrays(), *self._memos()):
            del a[k]

    def kept_for(self, q: float) -> list[float | None]:
        """The per-bucket answers kept for quantile ``q``."""
        kept = self.kept.get(q)
        if kept is None:
            if len(self.kept) >= self.KEPT_QUANTILES:
                del self.kept[next(iter(self.kept))]
            kept = self.kept[q] = [None] * len(self.count)
        return kept

    def set_from(self, k: int, values: list[float | None]) -> None:
        """Fold bucket ``k`` from its raw in-order column slice and drop the
        digest, and its answers, built from the rows it held before."""
        for a in self._memos():
            a[k] = None
        try:
            total = sum(values)
        except TypeError:  # a hole: some row of the slice lacks the field
            values = [v for v in values if v is not None]
            total = sum(values)
        self.count[k] = len(values)
        if not values:
            self.sumsq[k] = 0.0
            return
        self.total[k] = total
        self.vmin[k] = min(values)
        self.vmax[k] = max(values)
        self.last[k] = values[-1]
        sq = 0.0
        for v in values:
            sq += v * v
        self.sumsq[k] = sq


class _Rollup:
    """One downsample shard of one series: per-bucket folds at tier ``T``.

    ``starts`` is the sorted list of bucket starts ``(t // T) * T`` that
    hold at least one folded raw row.
    """

    __slots__ = ("tier", "starts", "fields")

    def __init__(self, tier: float) -> None:
        self.tier = tier
        self.starts: list[float] = []
        self.fields: dict[str, _RollupCol] = {}


def bucket_runs(times: list[float], lo: int, hi: int, N: float):
    """Rows ``[lo, hi)`` of a sorted time column cut where ``GROUP BY
    time(N)`` cuts them: yields ``(b, i, j)``, rows ``[i, j)`` being the
    ones whose ``(t // N) * N`` is ``b``.  A label is ``+ 0.0``'d: a row at
    ``-0.0`` keys equal to one at ``0.0``, and the bucket's label must not
    depend on which of them comes first.

    The key does not fall with time, so a bucket is one run.  A plain
    bisect for ``b + N`` proposes where it ends and the key then settles it
    from both sides: ``b + N`` is a rounded sum and need not be the time
    at which the key moves (widths like 0.1, times near 2**53), whereas
    this way no row is ever placed by anything but its own key — at two
    key evaluations per bucket (the second is the next bucket's ``b``),
    not one per row."""
    if lo >= hi:
        return
    i, b = lo, (times[lo] // N) * N + 0.0
    while True:
        j = bisect_left(times, b + N, i + 1, hi)
        while (times[j - 1] // N) * N != b:  # row i is of b: stops there
            j -= 1
        while j < hi and (nb := (times[j] // N) * N) == b:
            j += 1
        yield b, i, j
        if j >= hi:
            return
        i, b = j, nb + 0.0


def _bucket_start(times: list[float], b: float, N: float, lo: int, hi: int) -> int:
    """First row of ``[lo, hi)`` whose ``(t // N) * N`` is ``b`` or later;
    proposed by a bisect for ``b``, settled by the key (``b`` itself need
    not key to ``b``: it is a rounded product)."""
    i = bisect_left(times, b, lo, hi)
    while i < hi and (times[i] // N) * N < b:
        i += 1
    while i > lo and (times[i - 1] // N) * N >= b:
        i -= 1
    return i


class _Series:
    """One (measurement, tag set): columnar time/seq/field arrays.

    ``times`` is kept sorted; ``seqs`` carries the per-measurement write
    sequence so equal timestamps preserve global insertion order across
    series (matching a stable sort over a flat point list).  ``cols`` maps
    field name → value array aligned with ``times`` (``None`` = field absent
    in that row).

    The per-series summaries — one downsample shard per configured tier
    (``rollups``) and one value-cardinality HLL per field (``hlls``) — are
    memos over the row prefix ``[0, folded)``.  A write only stores its
    row; a reader first asks :meth:`catch_up` for the prefix it reads
    (either attribute: for all of it), which folds what is missing of that
    and costs one compare when nothing is.
    """

    __slots__ = ("tags", "key_len", "times", "seqs", "cols", "_rollups", "max_seq",
                 "_hlls", "hll_trimmed", "sketch", "folded", "has_nan")

    def __init__(
        self, tags: dict[str, str], key_len: int, tiers: tuple[float, ...] = (),
        sketch: SketchConfig = DEFAULT_SKETCH,
    ) -> None:
        self.tags = tags
        self.key_len = key_len  # len of the escaped "measurement,tag=…" prefix
        self.times: list[float] = []
        self.seqs: list[int] = []
        self.cols: dict[str, list[float | None]] = {}
        self.sketch = sketch
        #: Rows ``[0, folded)`` are reflected in ``_rollups`` and ``_hlls``.
        self.folded = 0
        #: A NaN was ever written here.  It poisons tier serving of MIN/MAX
        #: (NaN makes those folds order-dependent) and of percentiles, and
        #: is noted by the write, not by a fold: which plan a read gets
        #: must not depend on how far an earlier read made the folds run.
        self.has_nan = False
        self._rollups: tuple[_Rollup, ...] = tuple(_Rollup(t) for t in tiers)
        #: Per-field value-cardinality HLL over the series' whole history —
        #: what serves ``COUNT(DISTINCT field)`` without a scan.  Order- and
        #: duplicate-insensitive, so out-of-order writes need no rebuild;
        #: retention trims set ``hll_trimmed`` (an HLL cannot forget) and
        #: the planner falls back to exact scans from then on.
        self._hlls: dict[str, HyperLogLog] = {}
        self.hll_trimmed = False
        #: Highest write sequence ever stored — the durable-ingest apply
        #: gate reads this to answer "did record seq N already land here?"
        #: (retention trims rows but must not forget the high-watermark).
        self.max_seq = -1

    def add(self, time: float, seq: int, fields: dict[str, float]) -> None:
        if seq > self.max_seq:
            self.max_seq = seq
        times = self.times
        cols = self.cols
        if not times or time >= times[-1]:
            idx = len(times)  # append fast path (in-order ingest)
            times.append(time)
            self.seqs.append(seq)
            for col in cols.values():
                col.append(None)
        else:
            idx = bisect_right(times, time)
            times.insert(idx, time)
            self.seqs.insert(idx, seq)
            for col in cols.values():
                col.insert(idx, None)
        for name, v in fields.items():
            col = cols.get(name)
            if col is None:
                col = cols[name] = [None] * len(times)
            col[idx] = v
            if v != v:
                self.has_nan = True
        if idx < self.folded:
            # The row landed inside the folded prefix: the prefix grew by
            # it, and only the bucket it fell in (as far as it is folded)
            # changed.
            self.folded += 1
            self._hash(idx, idx + 1)
            for r in self._rollups:
                self._rollup_recompute(r, (time // r.tier) * r.tier + 0.0)

    # -- summaries: memos over rows [0, folded) --------------------------
    @property
    def rollups(self) -> tuple[_Rollup, ...]:
        self.catch_up(len(self.times))
        return self._rollups

    @property
    def hlls(self) -> dict[str, HyperLogLog]:
        self.catch_up(len(self.times))
        return self._hlls

    def catch_up(self, upto: int) -> None:
        """Make the summaries reflect rows ``[0, upto)`` at least — all a
        read of rows ``[lo, upto)`` can be served from, since a tier bucket
        that lies whole inside the read lies whole below ``upto``.

        Folds rows ``[folded, upto)`` in: hashes their values, and re-folds
        whole tier buckets from the one that holds row ``folded`` (it may
        be half folded already) to the one that holds row ``upto - 1``.  A
        bucket is always folded from its raw slice, never continued, so a
        tier is by construction the fold of the raw columns below
        ``folded``."""
        f = self.folded
        if f >= upto:
            return
        times = self.times
        self._hash(f, upto)
        self.folded = upto
        for r in self._rollups:
            T = r.tier
            starts = r.starts
            first = _bucket_start(times, (times[f] // T) * T, T, 0, f)
            for b, i, j in bucket_runs(times, first, upto, T):
                if not starts or starts[-1] != b:
                    starts.append(b)
                    for rc in r.fields.values():
                        rc.append_bucket()
                self._fold_bucket(r, len(starts) - 1, i, j)

    def _hash(self, i: int, j: int) -> None:
        """Add the values of rows ``[i, j)`` to the per-field HLLs."""
        hlls = self._hlls
        for name, col in self.cols.items():
            hll = hlls.get(name)
            for v in col[i:j]:
                if v is not None:
                    if hll is None:
                        hll = hlls[name] = HyperLogLog(self.sketch.hll_p)
                    hll.add_hash(float_hash64(v))

    def _fold_bucket(self, r: _Rollup, k: int, i: int, j: int) -> None:
        """Set bucket ``k`` of tier ``r`` to the fold of rows ``[i, j)``."""
        for name, col in self.cols.items():
            rc = r.fields.get(name)
            if rc is None:
                rc = r.fields[name] = _RollupCol(len(r.starts))
            rc.set_from(k, col[i:j])

    def _rollup_recompute(self, r: _Rollup, b: float) -> None:
        """Rebuild bucket ``b`` from its folded raw rows (out-of-order
        insert, retention trim).  The fold re-runs in storage order, so
        exactness survives any write pattern."""
        i, j = self.bucket_rows(b, r.tier)
        k = bisect_left(r.starts, b)
        have = k < len(r.starts) and r.starts[k] == b
        if i == j:  # bucket holds no raw rows any more
            if have:
                del r.starts[k]
                for rc in r.fields.values():
                    rc.remove_bucket(k)
            return
        if not have:
            r.starts.insert(k, b)
            for rc in r.fields.values():
                rc.insert_bucket(k)
        self._fold_bucket(r, k, i, j)

    def bucket_digest(self, r: _Rollup, name: str, k: int) -> TDigest | None:
        """The t-digest of field ``name`` over bucket ``k`` of tier ``r``,
        built from the bucket's folded rows on first use and held
        compressed — so what a digest answers, alone or merged, depends on
        those rows and not on what was read before."""
        rc = r.fields.get(name)
        if rc is None or not rc.count[k]:
            return None
        d = rc.digest[k]
        if d is None:
            i, j = self.bucket_rows(r.starts[k], r.tier)
            d = rc.digest[k] = TDigest.of(
                (v for v in self.cols[name][i:j] if v is not None),
                self.sketch.compression,
            )
        return d

    def bucket_rows(self, b: float, T: float) -> tuple[int, int]:
        """``[i, j)``: the folded rows of bucket ``b`` of width ``T``."""
        times, hi = self.times, self.folded
        i = _bucket_start(times, b, T, 0, hi)
        if i == hi or (times[i] // T) * T != b:
            return i, i
        return i, next(bucket_runs(times, i, hi, T))[2]

    def whole_buckets(self, lo: int, hi: int, T: float) -> tuple[int, int]:
        """``[full_lo, full_hi)``: the maximal sub-range of rows ``[lo, hi)``
        exactly tiled by whole buckets of width ``T``; ``[lo, full_lo)`` and
        ``[full_hi, hi)`` are the head/tail of buckets the range cuts."""
        times = self.times
        full_lo = lo
        if lo > 0 and (times[lo - 1] // T) * T == (times[lo] // T) * T:
            full_lo = next(bucket_runs(times, lo, hi, T))[2]
        full_hi = hi
        if hi < len(times) and (times[hi] // T) * T == (times[hi - 1] // T) * T:
            full_hi = _bucket_start(
                times, (times[hi - 1] // T) * T, T, full_lo, hi)
        return full_lo, max(full_hi, full_lo)

    def time_slice(
        self,
        t0: float | None,
        t1: float | None,
        t0_exclusive: bool,
        t1_exclusive: bool,
    ) -> tuple[int, int]:
        """Resolve a time range to array indices with two bisects."""
        times = self.times
        if t0 is None:
            lo = 0
        elif t0_exclusive:
            lo = bisect_right(times, t0)
        else:
            lo = bisect_left(times, t0)
        if t1 is None:
            hi = len(times)
        elif t1_exclusive:
            hi = bisect_left(times, t1)
        else:
            hi = bisect_right(times, t1)
        return lo, hi

    def drop_before(self, horizon: float) -> int:
        """Retention: slice off rows with ``time < horizon``; returns #dropped."""
        idx = bisect_left(self.times, horizon)
        if idx:
            # HLLs cannot forget the trimmed values: poison cardinality
            # serving for this series (exact scans take over).
            self.hll_trimmed = True
            for hll in self._hlls.values():
                hll.trimmed = True
            del self.times[:idx]
            del self.seqs[:idx]
            for col in self.cols.values():
                del col[:idx]
            self.folded = max(self.folded - idx, 0)
            for r in self._rollups:
                if not self.folded:  # no folded row is left
                    r.starts.clear()
                    r.fields.clear()
                    continue
                # Drop fully expired buckets, then rebuild the boundary
                # bucket the horizon may have cut through.
                b0 = (self.times[0] // r.tier) * r.tier + 0.0
                k = bisect_left(r.starts, b0)
                if k:
                    del r.starts[:k]
                    for rc in r.fields.values():
                        rc.drop_buckets(k)
                self._rollup_recompute(r, b0)
        return idx

    def __len__(self) -> int:
        return len(self.times)


class _Measurement:
    """All series of one measurement plus the inverted tag index."""

    __slots__ = ("name", "key_base_len", "series", "by_tags", "tag_index",
                 "seq", "next_sid", "tiers", "sketch", "series_hll")

    def __init__(self, name: str, tiers: tuple[float, ...] = (),
                 sketch: SketchConfig = DEFAULT_SKETCH) -> None:
        self.name = name
        self.tiers = tiers
        self.sketch = sketch
        self.key_base_len = _esc_len(name)
        self.series: dict[int, _Series] = {}
        self.by_tags: dict[tuple[tuple[str, str], ...], int] = {}
        self.tag_index: dict[tuple[str, str], set[int]] = {}
        self.seq = 0  # monotonically increasing write sequence
        # Monotonic so a sid is never reused: sizing the id to the live
        # series count would hand a dropped series' id to the next new one
        # and silently alias it with a survivor.
        self.next_sid = 0
        #: Every tag set ever seen, HLL-summarized — the "active series"
        #: cardinality `fleet_health` reports without enumerating series.
        self.series_hll = HyperLogLog(sketch.hll_p)

    def series_for(self, tags: dict[str, str]) -> _Series:
        key = tuple(sorted(tags.items()))
        sid = self.by_tags.get(key)
        if sid is None:
            sid = self.next_sid
            self.next_sid += 1
            key_len = self.key_base_len + sum(
                2 + _esc_len(k) + _esc_len(v) for k, v in key
            )
            s = _Series(dict(tags), key_len, self.tiers, self.sketch)
            self.series[sid] = s
            self.by_tags[key] = sid
            for kv in key:
                self.tag_index.setdefault(kv, set()).add(sid)
            self.series_hll.add_hash(stable_hash64(key))
            return s
        return self.series[sid]

    def match_ids(self, tags: dict[str, str] | None):
        """Series ids whose tag set contains every requested (key, value)."""
        if not tags:
            return list(self.series)
        ids: set[int] | None = None
        for kv in tags.items():
            hit = self.tag_index.get(kv)
            if not hit:
                return []
            ids = set(hit) if ids is None else ids & hit
            if not ids:
                return []
        return ids or []

    def remove_series(self, sid: int) -> None:
        s = self.series.pop(sid)
        key = tuple(sorted(s.tags.items()))
        del self.by_tags[key]
        for kv in key:
            bucket = self.tag_index.get(kv)
            if bucket is not None:
                bucket.discard(sid)
                if not bucket:
                    del self.tag_index[kv]


class ColumnRows(Sequence):
    """What :meth:`InfluxDB.scan_columns` returns as ``rows``: the scanned
    columns, readable as the ``list[(time, [value, …])]`` they stand for.

    ``times`` and each entry of ``cols`` (aligned with the scan's column
    names; ``None`` = a column no matched series ever wrote) are fresh
    lists owned by this object, never aliases of engine storage.  Length,
    iteration, indexing, slicing, ``==`` and ``repr`` are those of the row
    list; the rows themselves are built on first use, once, so a reader
    that only wants columns (:meth:`series`) never pays for them.  A slice
    is always another ``ColumnRows`` over the sliced columns.
    """

    __slots__ = ("times", "cols", "_rows")

    def __init__(
        self, times: list[float], cols: list[list[float | None] | None]
    ) -> None:
        self.times = times
        self.cols = cols
        self._rows: list[tuple[float, list[float | None]]] | None = None

    def _build_rows(self) -> list[tuple[float, list[float | None]]]:
        n = len(self.times)
        filled = [c if c is not None else [None] * n for c in self.cols]
        values = map(list, zip(*filled)) if filled else ([] for _ in range(n))
        return list(zip(self.times, values))

    def _materialized(self) -> list[tuple[float, list[float | None]]]:
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows

    def series(self, idx: int = 0) -> tuple[list[float], list[float]]:
        """Column ``idx`` as fresh ``(times, values)`` lists, rows whose
        value is ``None`` dropped from both."""
        col = self.cols[idx]
        if col is None:
            return [], []
        if None not in col:
            return list(self.times), list(col)
        return (
            [t for t, v in zip(self.times, col) if v is not None],
            [v for v in col if v is not None],
        )

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(self._materialized())

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return self._materialized()[i]
        return ColumnRows(
            self.times[i], [c[i] if c is not None else None for c in self.cols]
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnRows):
            other = other._materialized()
        elif not isinstance(other, list):
            return NotImplemented
        return self._materialized() == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._materialized())


def _fold_buckets(
    times: list[float], sel: list[list | None], lo: int, hi: int, N: float, fold
) -> ColumnRows:
    """``GROUP BY time(N)`` over rows ``[lo, hi)`` of aligned columns, as
    columns: per bucket (:func:`bucket_runs`) and per column of ``sel``
    (``None`` = never written), ``fold`` of the bucket's values."""
    runs = list(bucket_runs(times, lo, hi, N))
    out: list[list | None] = []
    for col in sel:
        if col is None:
            out.append(None)
            continue
        try:
            sum(col[lo:hi])  # the cheapest probe for a hole: None + float
        except TypeError:
            out.append([fold([v for v in col[i:j] if v is not None])
                        for _, i, j in runs])
        else:  # none in the range: a bucket's slice is its values
            out.append([fold(col[i:j]) for _, i, j in runs])
    return ColumnRows([b for b, _, _ in runs], out)


def _merge_keyed(
    runs: list[tuple[list[float], list[int], list[list | None]]],
    width: int,
    limit: int | None = None,
) -> tuple[list[float], list[list | None]]:
    """Several (time, seq)-ordered column sources as one: the only place
    rows of different series — or of different shards — are put in order.

    A run is ``(times, seqs, cols)``: aligned lists in (time, seq) order,
    ``cols`` being ``width`` value columns (``None`` = one the source never
    wrote).  Returns ``(times, cols)`` of every row, or of the first
    ``limit`` (each run is sorted, so a caller may clamp it to ``limit``
    rows first): a column no run wrote stays ``None``, a run without a
    column another has reads ``None`` in its rows.  A caller that wants the
    merged seqs too gives them as one more column.  One run that fits is
    handed back as it is — the caller's lists, not a copy of them.

    (time, seq) is unique, so the key tuples order on it alone.  No LIMIT:
    one sort, which merges the k ascending runs natively.  LIMIT: the first
    ``limit`` of a k-way merge — O(limit · log k), where a sort would pay
    for every one of the k · limit clamped rows."""
    if len(runs) == 1 and (limit is None or len(runs[0][0]) <= limit):
        return runs[0][0], runs[0][2]
    times: list[float] = []
    keys = []  # per run, ascending: (time, seq, place in `times`)
    for ts, qs, _ in runs:
        at = len(times)
        keys.append(zip(ts, qs, range(at, at + len(ts))))
        times += ts
    merged = (
        sorted(chain.from_iterable(keys)) if limit is None
        else islice(_heap_merge(*keys), limit)
    )
    order = [i for _, _, i in merged]
    out: list[list | None] = []
    for ci in range(width):
        col: list = []
        written = False
        for ts, _, cols in runs:
            part = cols[ci]
            if part is None:
                col += [None] * len(ts)
            else:
                written = True
                col += part
        out.append([col[i] for i in order] if written else None)
    return [times[i] for i in order], out


def _merge_runs(runs: list, width: int, limit: int | None = None):
    """:func:`_merge_keyed` for a caller that wants a run back, ``(times,
    seqs, cols)``: the seqs ride through the merge as one more column."""
    times, cols = _merge_keyed(
        [(ts, qs, [*sel, qs]) for ts, qs, sel in runs], width + 1, limit)
    return times, cols.pop() or [], cols


def _of_values(f):
    """``f`` of a column range's values as an :meth:`InfluxDB._ungrouped`
    fold, for the families that do not look at the rows' keys."""
    return lambda times, seqs, col, lo, hi: f(_values(col, lo, hi))


def _walk_values(fold):
    """``fold`` of each bucket's values as an :meth:`InfluxDB._grouped`
    walk (:func:`_fold_buckets`), for the families that do not look at the
    rows' keys."""
    return lambda times, seqs, sel, N, lo, hi: _fold_buckets(times, sel, lo, hi, N, fold)


class _Database:
    __slots__ = ("name", "meas", "retention", "points_written", "bytes_written",
                 "tiers", "fresh", "sketch")

    def __init__(self, name: str, tiers: tuple[float, ...] = (),
                 sketch: SketchConfig = DEFAULT_SKETCH) -> None:
        self.name = name
        self.meas: dict[str, _Measurement] = {}
        self.retention = RetentionPolicy()
        self.points_written = 0
        self.bytes_written = 0
        self.tiers = tiers
        self.sketch = sketch
        #: measurement → ``[epoch, generation, frontier]``, the one record
        #: behind :meth:`InfluxDB.freshness` and :meth:`InfluxDB.generation`.
        self.fresh: dict[str, list] = {}


class InfluxDB:
    """The time-series store: multiple databases, line-protocol ingest.

    ``rollup_tiers`` configures the downsample shards every series keeps
    caught up on read (seconds per bucket, ascending); ``()`` disables them.
    """

    #: One engine holds all of its rows: no answer of it is partial (the
    #: shard router's flag, read by every reader alike).
    last_partial = False

    def __init__(self, rollup_tiers: tuple[float, ...] = DEFAULT_ROLLUP_TIERS,
                 sketch: SketchConfig | None = None) -> None:
        tiers = tuple(sorted(float(t) for t in rollup_tiers))
        if any(t <= 0 for t in tiers):
            raise InfluxError("rollup tiers must be positive durations")
        if len(set(tiers)) != len(tiers):
            raise InfluxError("rollup tiers must be distinct")
        self._dbs: dict[str, _Database] = {}
        self._rollup_tiers = tiers
        self.sketch = sketch if sketch is not None else DEFAULT_SKETCH
        # Instance-global generation sequence: never reused, so a cached
        # (statement → rows) entry can never collide with a post-drop
        # recreation of the same database/measurement.
        self._gen_seq = 0
        #: Planner decision counters (:meth:`_plan`), of the MEAN … LAST reads
        #: and of the PERCENTILE/STDDEV/DISTINCT ones: per read exactly one
        #: outcome (``served:<tier>``, ``raw-fallback``, ``hll-served``, …) and
        #: each distinct reason a tier was turned down (``skip:<why>``).
        #: Purely observational — the scenario fuzzer's coverage signal.
        self.rollup_plan: dict[str, int] = {}
        self.sketch_plan: dict[str, int] = {}
        #: How many of those decisions were to serve from a sketch or tier
        #: partial: what a caller diffs to learn whether its read was.
        self.sketch_served = 0

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------
    def create_database(self, name: str) -> None:
        if not name:
            raise InfluxError("database name cannot be empty")
        self._dbs.setdefault(name, _Database(name, self._rollup_tiers, self.sketch))

    def drop_database(self, name: str) -> None:
        self._dbs.pop(name, None)

    def databases(self) -> list[str]:
        return sorted(self._dbs)

    def _db(self, name: str) -> _Database:
        try:
            return self._dbs[name]
        except KeyError:
            raise InfluxError(f"database {name!r} does not exist") from None

    def set_retention_policy(self, db: str, duration_s: float | None) -> None:
        self._db(db).retention = RetentionPolicy(duration_s=duration_s)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _bump(self, d: _Database, measurement: str,
              written: float | None = None) -> None:
        """Stamp a mutation that may have changed rows *below* the
        frontier: a new epoch (and generation).  ``written`` is the
        timestamp of the write that caused it, if one did; it sets the
        frontier only as the measurement's first — any other write that
        comes here lies below it."""
        self._gen_seq = stamp = self._gen_seq + 1
        fresh = d.fresh.get(measurement)
        if fresh is None:
            d.fresh[measurement] = [
                stamp, stamp, -math.inf if written is None else written]
        else:
            fresh[0] = fresh[1] = stamp

    def _append(self, d: _Database, point: Point, seq: int | None = None) -> None:
        time = point.time
        if time - time != 0.0:  # NaN or ±inf
            # Refused before anything moves.  A NaN key has no place in a
            # sorted column: every bisect over it afterwards would answer
            # by where its probes happen to land.  An infinite one has no
            # bucket and no nanosecond spelling, and as the frontier it
            # would make every window test as sealed.
            raise InfluxError(f"point time is not finite: {point!r}")
        fresh = d.fresh.get(point.measurement)
        if fresh is not None and time >= fresh[2]:
            # In-order append: nothing below the frontier moves.
            self._gen_seq = fresh[1] = self._gen_seq + 1
            fresh[2] = time
        else:
            self._bump(d, point.measurement, time)
        m = d.meas.get(point.measurement)
        if m is None:
            m = d.meas[point.measurement] = _Measurement(
                point.measurement, d.tiers, d.sketch
            )
        s = m.series_for(point.tags)
        if seq is None:
            seq = m.seq
            m.seq += 1
        elif seq >= m.seq:
            m.seq = seq + 1
        s.add(time, seq, point.fields)
        d.points_written += len(point.fields)
        # Line-protocol byte accounting, computed arithmetically: the series
        # key prefix length is cached, so only field values and the ns
        # timestamp are formatted.  Matches len(point.to_line()) + 1 exactly.
        nf = len(point.fields)
        d.bytes_written += (
            s.key_len
            + sum(_esc_len(k) + 1 + len(repr(v)) for k, v in point.fields.items())
            + (nf - 1)
            + len(str(int(point.time * 1e9)))
            + 3  # two separating spaces + trailing newline
        )

    def write(self, db: str, point: Point) -> None:
        self._append(self._db(db), point)

    def write_many(
        self, db: str, points: list[Point], *, seqs: list[int] | None = None
    ) -> int:
        """Bulk write: one database lookup, then straight appends.

        ``seqs`` lets a routing layer (the sharded engine) pin each point's
        per-measurement write sequence explicitly, so rows scattered over
        several engines keep one global (time, seq) order and scatter-gather
        merges reproduce a single engine's row order exactly.
        """
        d = self._db(db)
        append = self._append
        if seqs is None:
            for p in points:
                append(d, p)
        else:
            if len(seqs) != len(points):
                raise InfluxError("seqs must align 1:1 with points")
            for p, q in zip(points, seqs):
                append(d, p, q)
        return len(points)

    def write_lines(self, db: str, lines: str) -> int:
        """Ingest a line-protocol batch; returns points written.

        The whole batch is parsed (and therefore validated) before any
        point lands, so a malformed line rejects the batch atomically.
        """
        d = self._db(db)
        batch = [
            Point.from_line(line)
            for line in lines.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        append = self._append
        for p in batch:
            append(d, p)
        return len(batch)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def measurements(self, db: str) -> list[str]:
        return sorted(self._db(db).meas)

    def generation(self, db: str, measurement: str) -> int:
        """Monotonic mutation stamp of one measurement.

        Any write, series drop, or retention trim touching the measurement
        moves the stamp to a never-reused value, so a cached query result
        taken at generation ``g`` is provably fresh iff the stamp still
        equals ``g``.  Unknown databases/measurements report 0 (nothing to
        invalidate against — they have no rows).
        """
        return self.freshness(db, measurement)[1]

    def freshness(self, db: str, measurement: str) -> tuple[int, int, float]:
        """``(epoch, generation, frontier)`` of one measurement.

        Telemetry is appended in time order, and an append cannot change
        what lies before it.  ``frontier`` is the largest timestamp written
        to the measurement so far; a write at ``time >= frontier`` moves
        ``generation`` and ``frontier`` and nothing else.  Every other
        mutation — the measurement's first write, a write below the
        frontier, a series drop or move, a retention trim — starts a new
        epoch.  So while ``epoch`` holds, the rows at ``time < frontier``
        are exactly the rows that were there when ``frontier`` was read:
        an answer over a window that ends below it stays right whatever
        ``generation`` does.  All three share the never-reused stamp
        sequence; an unknown database or measurement reports
        ``(0, 0, -inf)``.
        """
        d = self._dbs.get(db)
        fresh = None if d is None else d.fresh.get(measurement)
        return (0, 0, -math.inf) if fresh is None else tuple(fresh)

    def max_seq(
        self, db: str, measurement: str, tags: dict[str, str] | None = None
    ) -> int:
        """Highest write sequence stored for a measurement (optionally
        narrowed to the series matching ``tags``); -1 if nothing matches.

        This is the durable-ingest idempotence gate: a commit-log record
        applied with ``write_many(..., seqs=[N, ...])`` leaves ``N`` as the
        matched series' high-watermark, so a crash-redelivered copy of the
        record sees ``max_seq >= N`` and is skipped instead of re-applied.
        """
        d = self._dbs.get(db)
        if d is None:
            return -1
        m = d.meas.get(measurement)
        if m is None:
            return -1
        best = -1
        for sid in m.match_ids(tags):
            s = m.series[sid]
            if s.max_seq > best:
                best = s.max_seq
        return best

    def _matched_slices(
        self,
        d: _Database,
        measurement: str,
        tags: dict[str, str] | None,
        t0: float | None,
        t1: float | None,
        t0_exclusive: bool,
        t1_exclusive: bool,
    ) -> list[tuple[_Series, int, int]]:
        """(series, lo, hi) for every series matching the tag filter with a
        non-empty time-range slice."""
        m = d.meas.get(measurement)
        if m is None:
            return []
        out = []
        for sid in m.match_ids(tags):
            s = m.series[sid]
            lo, hi = s.time_slice(t0, t1, t0_exclusive, t1_exclusive)
            if lo < hi:
                out.append((s, lo, hi))
        return out

    def points(
        self,
        db: str,
        measurement: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[Point]:
        """Point scan with optional tag-equality and time filters.

        Tag filters resolve through the inverted index; time bounds resolve
        via bisect.  Results are ordered by (time, write order), identical
        to a stable time-sort over a flat insertion-ordered list.
        """
        return [
            p
            for _, _, p in self.scan_points(
                db, measurement, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
            )
        ]

    def scan_points(
        self,
        db: str,
        measurement: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[tuple[float, int, Point]]:
        """:meth:`points` plus each row's (time, seq) merge key.

        The seq is the per-measurement write sequence — what a scatter
        router needs to interleave several engines' rows into one globally
        ordered stream.
        """
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        out: list[tuple[float, int, Point]] = []
        for s, lo, hi in matched:
            names = list(s.cols)
            cols = [s.cols[n] for n in names]
            times, seqs, stags = s.times, s.seqs, s.tags
            for i in range(lo, hi):
                fields = {
                    nm: col[i] for nm, col in zip(names, cols) if col[i] is not None
                }
                out.append(
                    (times[i], seqs[i], Point(measurement, dict(stags), fields, times[i]))
                )
        if len(matched) > 1:
            out.sort(key=lambda r: (r[0], r[1]))
        return out

    @staticmethod
    def _resolve_columns(
        matched: list[tuple[_Series, int, int]], columns: list[str] | None
    ) -> list[str]:
        """``SELECT *`` column discovery: every field with at least one
        value among the matched rows, sorted by name."""
        if columns is not None:
            return list(columns)
        names: set[str] = set()
        for s, lo, hi in matched:
            for nm, col in s.cols.items():
                # a dense column answers at its first row; a sparse one is
                # one C-level count over the slice
                if nm not in names and (
                    col[lo] is not None or col[lo:hi].count(None) != hi - lo
                ):
                    names.add(nm)
        return sorted(names)

    def scan_columns(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
        limit: int | None = None,
    ) -> tuple[list[str], ColumnRows]:
        """Columnar read used by the query engine: no Point, no row tuples.

        Returns ``(columns, rows)`` where ``rows`` is a :class:`ColumnRows`
        — column copies that read as ``(time, values)`` rows aligned with
        ``columns``.  ``columns=None`` selects every field with
        at least one value among the matched rows (the ``SELECT *`` shape),
        sorted by name — discovery always covers the full matched range even
        under ``limit``, so the column set is limit-invariant.  Row order
        matches :meth:`points`.  ``limit`` is pushed into the scan: a
        series contributes at most its first ``limit`` rows.

        One matched series (the Listing 3 dashboard shape) is answered by
        slicing its arrays; several are put into (time, seq) order by
        :func:`_merge_keyed`.
        """
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        cols = self._resolve_columns(matched, columns)
        if limit is not None:
            # each series is (time, seq)-sorted, so the first `limit` merged
            # rows come from the first `limit` of every series
            matched = [(s, lo, min(hi, lo + limit)) for s, lo, hi in matched]
        if len(matched) == 1:
            s, lo, hi = matched[0]
            out = []
            for c in cols:
                col = s.cols.get(c)
                out.append(col[lo:hi] if col is not None else None)
            return cols, ColumnRows(s.times[lo:hi], out)
        return cols, ColumnRows(
            *_merge_keyed(self._runs(matched, cols), len(cols), limit))

    @staticmethod
    def _runs(matched: list[tuple[_Series, int, int]], cols: list[str]) -> list:
        """The matched slices of ``cols`` as :func:`_merge_keyed` runs."""
        runs = []
        for s, lo, hi in matched:
            sel = []
            for c in cols:
                col = s.cols.get(c)
                sel.append(col if col is None else col[lo:hi])
            runs.append((s.times[lo:hi], s.seqs[lo:hi], sel))
        return runs

    def scan_keyed(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
        limit: int | None = None,
    ) -> tuple[list[str], tuple[list[float], list[int], list[list | None]]]:
        """:meth:`scan_columns` with each row's merge key: ``(columns,
        (times, seqs, value columns))`` in (time, seq) order.

        This is the scatter-gather primitive: what it returns is a
        :func:`_merge_keyed` run, so a router puts its shards' rows into
        exactly the order a single engine would with the routine this
        engine orders its series with.  Column discovery stays
        limit-invariant.
        """
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        cols = self._resolve_columns(matched, columns)
        if limit is not None:
            matched = [(s, lo, min(hi, lo + limit)) for s, lo, hi in matched]
        return cols, _merge_runs(self._runs(matched, cols), len(cols), limit)

    # ------------------------------------------------------------------
    # Aggregation pushdown
    # ------------------------------------------------------------------
    def aggregate_columns(
        self,
        db: str,
        measurement: str,
        agg: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        """Fold one aggregate per column straight over the value arrays.

        Returns ``(columns, first_row_time, aggregates)``; ``first_row_time``
        is ``None`` when no row matches.  The result is exactly what folding
        :meth:`scan_columns` rows in (time, seq) order yields
        (:meth:`_ungrouped`).
        """
        return self._answer(named_aggregate(agg), None, None, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def _answer(
        self, a: Aggregate, arg, N: float | None, db: str, measurement: str,
        columns, tags, t0, t1, t0_exclusive: bool, t1_exclusive: bool,
    ):
        """Aggregate ``a`` (argument ``arg``) per column — per bucket of
        ``time(N)`` unless ``N`` is None — by the read skeleton of its shape,
        with the record's fold, tier planner family and tier reader."""
        fold = partial(a.fold, arg)
        if N is None:
            return self._ungrouped(
                db, measurement, columns, tags, t0, t1, t0_exclusive, t1_exclusive,
                _of_values(fold), a.range_plan, a.range_tier, arg)
        return self._grouped(
            db, measurement, N, columns, tags, t0, t1, t0_exclusive, t1_exclusive,
            _walk_values(fold), a.plan, a.tier, arg)

    def _ungrouped(
        self, db: str, measurement: str, columns, tags, t0, t1,
        t0_exclusive: bool, t1_exclusive: bool, fold, fam=None, tier=None, arg=None,
    ) -> tuple[list[str], float | None, list]:
        """The one shape of a read without ``GROUP BY``: ``(columns,
        first_row_time, [answer per column])``, ``first_row_time`` being
        ``None`` when no row matches and an answer ``None`` for a column
        never written.

        One matched series (the Listing 3 dashboard shape) of a family a
        tier may serve is first planned (:meth:`_plan`); a tier ``r`` that
        serves answers every column, ``tier(arg, s, r, lo, hi, cols)``.  Else
        each column is ``fold(times, seqs, col, lo, hi)`` over the series'
        own arrays.  Several are put into (time, seq) order by
        :func:`_merge_keyed` and folded the same way, so what a fold sees
        is what a fold over :meth:`scan_columns` rows would."""
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        cols = self._resolve_columns(matched, columns)
        if not matched:
            return cols, None, [None] * len(cols)
        if len(matched) == 1:
            s, lo, hi = matched[0]
            if fam is not None and (r := self._plan(fam, s, lo, hi)) is not None:
                return cols, s.times[lo], tier(arg, s, r, lo, hi, cols)
            times, seqs, sel = s.times, s.seqs, [s.cols.get(c) for c in cols]
        else:
            if fam is not None:
                self._plan(fam)
            times, seqs, sel = _merge_runs(self._runs(matched, cols), len(cols))
            lo, hi = 0, len(times)
        return cols, times[lo], [
            None if col is None else fold(times, seqs, col, lo, hi) for col in sel
        ]

    def _grouped(
        self, db: str, measurement: str, N: float, columns, tags, t0, t1,
        t0_exclusive: bool, t1_exclusive: bool, walk, fam, tier, arg=None,
    ) -> tuple[list[str], ColumnRows]:
        """The one shape of a ``GROUP BY time(N)`` read: per bucket and
        column the family's answer, as columns under the bucket starts
        (:class:`ColumnRows`); ``walk(times, seqs, sel, N, lo, hi)`` works
        it out from rows ``[lo, hi)`` of aligned columns.

        One matched series (the Listing 3 dashboard shape) is first planned
        for family ``fam`` (:meth:`_plan`); a tier ``r`` that serves reads
        every whole bucket through ``tier(arg, s, r, …)`` (:meth:`_tier_buckets`),
        and the series is walked raw otherwise.  Several are merged into
        (time, seq) order by :func:`_merge_keyed` and walked the same way
        (rare shape — exactness over speed)."""
        if N <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        cols = self._resolve_columns(matched, columns)
        if not matched:
            return cols, ColumnRows([], [None] * len(cols))
        if len(matched) == 1:
            s, lo, hi = matched[0]
            raw = partial(walk, s.times, s.seqs, [s.cols.get(c) for c in cols], N)
            r = self._plan(fam, s, lo, hi, N)
            return cols, raw(lo, hi) if r is None else self._tier_buckets(
                s, lo, hi, cols, N, r, raw, partial(tier, arg, s, r))
        self._plan(fam)
        times, seqs, sel = _merge_runs(self._runs(matched, cols), len(cols))
        return cols, walk(times, seqs, sel, N, 0, len(times))

    def scan_buckets(
        self,
        db: str,
        measurement: str,
        agg: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """``GROUP BY time(N)`` without row materialization.

        Single-series matches (the Listing 3 dashboard shape) step from
        bucket edge to bucket edge (:func:`bucket_runs`) and, when a rollup
        tier divides ``N`` evenly, read every bucket the time filter left
        whole off the rollup shard (the record's ``plan`` and ``tier``) —
        raw folds cover only the one it cut at either end.  Output is
        exactly equal to bucketing :meth:`scan_columns` rows.
        """
        return self._answer(named_aggregate(agg), None, group_by_s, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def _plan(
        self, fam: Family, s: _Series | None = None, lo: int = 0, hi: int = 0,
        N: float = 0.0, outcome: str | None = None,
    ) -> _Rollup | None:
        """The tier of ``s`` that serves rows ``[lo, hi)`` for read family
        ``fam`` (``N``: the ``GROUP BY time`` width, 0 for a range) — the
        largest that passes every rule, caught up to ``hi`` — or ``None``,
        with nothing folded.  The one place a plan is recorded: in ``fam``'s
        counter, each distinct rule a tier failed once as ``skip:<rule>``
        (unless the family is quiet), and exactly one outcome — the serving
        tier, the fallback, or, with no series to judge, ``outcome`` (a read
        no tier answers: ``hll-served``) else the several-series label."""
        best = None
        why: list[str] = []
        if s is None:
            outcome = outcome or fam.multi
        else:
            cfg, times = self.sketch, s.times
            for r in s._rollups:
                T = r.tier
                for rule in fam.rules:
                    if rule == "tier-not-dividing":
                        # exact divisibility: 0.5 / 0.1 == 5.0 rounds a remainder
                        # away, and buckets of such a tier straddle time(0.5)'s edges
                        failed = N < T or N % T != 0.0
                    elif rule == "nan-poisoned":
                        # NaN makes min/max folds and digests order-dependent
                        failed = s.has_nan
                    elif rule == "merge-bound":
                        # a time(N) bucket merges N / T digests; a range, one per
                        # tier bucket it holds (counted no further than the bound)
                        k = N / T if N else sum(1 for _ in islice(
                            bucket_runs(times, lo, hi, T), cfg.max_merge + 1))
                        failed = k > cfg.max_merge
                    elif rule == "error-bound":
                        failed = cfg.digest_bound(merged=k > 1) > cfg.epsilon
                    elif rule == "unaligned-range":  # the range cuts a tier bucket
                        failed = (
                            lo > 0 and (times[lo - 1] // T) * T == (times[lo] // T) * T
                            or hi < len(times)
                            and (times[hi] // T) * T == (times[hi - 1] // T) * T)
                    else:  # an exact tier: cross-bucket float sums reorder the fold
                        failed = N != T
                    if failed:
                        if not fam.quiet and rule not in why:
                            why.append(rule)
                        break
                else:
                    if best is None or T > best.tier:
                        best = r
            if best is not None:
                s.catch_up(hi)
            outcome = fam.fallback if best is None else f"{fam.served}{best.tier:g}"
        if fam.counter is not None:
            plan = getattr(self, fam.counter)
            for rule in why:
                plan["skip:" + rule] = plan.get("skip:" + rule, 0) + 1
            plan[outcome] = plan.get(outcome, 0) + 1
            if "served" in outcome and fam.counter == "sketch_plan":
                self.sketch_served += 1
        return best

    @staticmethod
    def _tier_buckets(
        s: _Series, lo: int, hi: int, cols: list[str], N: float, r: _Rollup,
        raw, served,
    ) -> ColumnRows:
        """Rows ``[lo, hi)`` grouped by ``time(N)``, every whole bucket read
        off tier ``r`` (caught up to ``hi``; its width divides ``N``).

        The time filter cuts at most the first and the last bucket: those
        two are ``raw(i, j)``, the fold of their rows.  The buckets between
        are tiled by tier buckets ``[ri0, ri1)`` and come from
        ``served(c, rc, ri0, ri1, spans)`` per column.  When the tier *is*
        ``N`` a tier bucket is an output bucket — ``spans`` is ``None``
        and ``served`` reads slices; when ``N`` spans several, ``spans``
        holds each output bucket's ``(ka, kb)`` tier range, found from its
        rows' own keys, for ``served`` to reduce over."""
        times, T, starts = s.times, r.tier, r.starts
        full_lo, full_hi = s.whole_buckets(lo, hi, N)
        head, tail = raw(lo, full_lo), raw(full_hi, hi)
        mid: list[float] = []
        spans = ri0 = ri1 = None
        if full_lo < full_hi:
            ri0 = bisect_left(starts, (times[full_lo] // T) * T)
            ri1 = bisect_right(starts, (times[full_hi - 1] // T) * T)
            if T == N:
                mid = starts[ri0:ri1]
            else:
                spans, ka = [], ri0
                for b, _, j in bucket_runs(times, full_lo, full_hi, N):
                    kb = bisect_right(starts, (times[j - 1] // T) * T, ka, ri1)
                    mid.append(b)
                    spans.append((ka, kb))
                    ka = kb
        out = []
        for c, h, t in zip(cols, head.cols, tail.cols):
            if h is None:  # a column the series never wrote
                out.append(None)
                continue
            rc = r.fields.get(c)
            out.append(h + (
                [None] * len(mid) if rc is None or not mid
                else served(c, rc, ri0, ri1, spans)) + t)
        return ColumnRows(head.times + mid + tail.times, out)

    # ------------------------------------------------------------------
    # Scatter-gather partials (consumed by repro.db.sharded; the record
    # of each aggregate names the reads that ship its partials)
    # ------------------------------------------------------------------
    def aggregate_partials(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[Stat | None]]:
        """``(columns, first_row_time, stats)``: one partial stat
        (:data:`~repro.db.aggregates.Stat`) per column over the matched
        range, folded in this engine's (time, seq) row order."""
        return self._ungrouped(
            db, measurement, columns, tags, t0, t1, t0_exclusive, t1_exclusive,
            partial_stat,
        )

    def bucket_partials(
        self,
        db: str,
        measurement: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """``GROUP BY time(N)`` partial stats per bucket per column: a
        rollup tier exactly equal to ``N`` (no NaN ever ingested) serves the
        whole buckets, raw folds the head/tail the time filter cut."""
        return self._grouped(
            db, measurement, group_by_s, columns, tags, t0, t1, t0_exclusive,
            t1_exclusive, self._partials_raw, _PARTIALS, stat_tier,
        )

    @staticmethod
    def _partials_raw(
        times: list[float], seqs: list[int], sel: list[list | None],
        N: float, lo: int, hi: int,
    ) -> ColumnRows:
        """Raw bucket walk over rows ``[lo, hi)`` of aligned columns, a
        partial stat per bucket and column."""
        runs = list(bucket_runs(times, lo, hi, N))
        return ColumnRows([b for b, _, _ in runs], [
            None if col is None else
            [partial_stat(times, seqs, col, i, j) for _, i, j in runs]
            for col in sel
        ])

    # ------------------------------------------------------------------
    # Sketch-served analytics: PERCENTILE / STDDEV / DISTINCT
    # ------------------------------------------------------------------
    def quantile_buckets(
        self,
        db: str,
        measurement: str,
        pct: float,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """``PERCENTILE(field, pct) … GROUP BY time(N)``: whole buckets of
        one series off the tier's digests where the planner allows, the
        head/tail a time filter cut and every fallback the exact fold."""
        return self._answer(AGGREGATES["PERCENTILE"], pct, group_by_s, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def quantile_columns(
        self,
        db: str,
        measurement: str,
        pct: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        """Ungrouped ``PERCENTILE(field, pct)`` per column.

        Served from merged tier digests when the matched slice is exactly
        bucket-tiled and within the merge/error bounds; exact nearest-rank
        scan otherwise."""
        return self._answer(AGGREGATES["PERCENTILE"], pct, None, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def stddev_columns(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        """Ungrouped sample STDDEV per column — exact, folded in the same
        (time, seq) order as the naive reference."""
        return self._answer(AGGREGATES["STDDEV"], None, None, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def stddev_buckets(
        self,
        db: str,
        measurement: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """``STDDEV(field) … GROUP BY time(N)``, exact: a tier equal to ``N``
        serves whole buckets from its (count, Σv, Σv²), the same fold of the
        same slice as the raw fold of the head/tail buckets."""
        return self._answer(AGGREGATES["STDDEV"], None, group_by_s, db, measurement,
                            columns, tags, t0, t1, t0_exclusive, t1_exclusive)

    def distinct_keyed(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[tuple[float, int, float]]:
        """Exact distinct values of one field with their first-occurrence
        (time, seq) merge keys, ordered by first occurrence
        (:func:`~repro.db.aggregates.first_seen`, which the router merges
        shards with too)."""
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        return first_seen(zip(s.times[lo:hi], s.seqs[lo:hi], s.cols[column][lo:hi])
                          for s, lo, hi in matched if column in s.cols)

    def distinct_values(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[tuple[float, float]]:
        """``DISTINCT(field)``: (first_time, value) per distinct value in
        first-occurrence order — always exact (a value list cannot be
        sketch-served)."""
        self._plan(_SKETCH, outcome="distinct-scan")
        return [
            (t, v)
            for t, _, v in self.distinct_keyed(
                db, measurement, column, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
            )
        ]

    def count_distinct(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[float | None, float | None]:
        """``COUNT(DISTINCT field)`` → ``(first_time, count)``: HLL-served
        when provably within the configured relative error bound — every
        matched series fully covered by the time range and never trimmed —
        else an exact value-keyed scan.  Count is ``None`` when no value
        matches."""
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        if not matched:
            return None, None
        first_t = min(s.times[lo] for s, lo, _ in matched)
        hll, reason = self._covering_hll(matched, column)
        if reason is None:
            if hll is None:
                return first_t, None
            reason = ("hll-served" if hll.error_bound() <= self.sketch.hll_epsilon
                      else "fallback:hll-error-bound")
        self._plan(_SKETCH, outcome=reason)
        if reason == "hll-served":
            return first_t, float(round(hll.count()))
        n = len(
            self.distinct_keyed(
                db, measurement, column, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
            )
        )
        return first_t, (float(n) if n else None)

    @staticmethod
    def _covering_hll(
        matched: list[tuple[_Series, int, int]], column: str
    ) -> tuple[HyperLogLog | None, str | None]:
        """``(hll, None)`` — the matched series' HLLs of ``column`` merged
        (one: itself, to read, not a copy; no series has the field:
        ``None``) — when they describe
        exactly the matched rows: every series covered whole and never
        trimmed.  Else ``(None, reason)``."""
        hlls: list[HyperLogLog] = []
        for s, lo, hi in matched:
            if lo != 0 or hi != len(s.times):
                return None, "fallback:hll-partial-range"
            h = None if s.hll_trimmed else s.hlls.get(column)
            if s.hll_trimmed or (h is not None and h.trimmed):
                return None, "fallback:hll-trimmed"
            if h is not None:
                hlls.append(h)
        return (HyperLogLog.merged(hlls) if hlls else None), None

    def quantile_partials(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[TDigest | None]]:
        """Scatter-gather primitive: one digest per column over the matched
        range — merged tier digests where the planner allows, else built
        from the values in (time, seq) order: a true mergeable sketch."""
        return self._ungrouped(
            db, measurement, columns, tags, t0, t1, t0_exclusive, t1_exclusive,
            _of_values(self._digest_of), _SKETCH_RANGE, digest_range,
        )

    def _digest_of(self, vals: list[float]) -> TDigest | None:
        """The digest a shard ships for ``vals`` (None for none at all)."""
        if not vals:
            return None
        d = TDigest(self.sketch.compression)
        d.add_many(vals)
        return d

    def quantile_bucket_partials(
        self,
        db: str,
        measurement: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """Per-bucket digest partials for sharded ``GROUP BY time(N)``
        percentiles: tier-digest-served interior buckets, built-from-raw
        boundary buckets — every bucket ships a mergeable digest."""
        return self._grouped(
            db, measurement, group_by_s, columns, tags, t0, t1, t0_exclusive,
            t1_exclusive, _walk_values(self._digest_of), _SKETCH, digest_tier,
        )

    def distinct_partials(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[float | None, HyperLogLog | None, list[tuple[float, int, float]]]:
        """Cardinality partials for the shard router: ``(first_t, hll,
        exact)``.

        ``hll`` is a merged per-series HLL when this engine could serve the
        range approximately (None otherwise); ``exact`` is the value-keyed
        distinct list with first-occurrence merge keys, always present so
        the router can fall back to an exact union when any shard's HLL is
        disqualified."""
        matched = self._matched_slices(
            self._db(db), measurement, tags, t0, t1, t0_exclusive, t1_exclusive
        )
        first_t = min((s.times[lo] for s, lo, _ in matched), default=None)
        hll, _ = self._covering_hll(matched, column)
        exact = self.distinct_keyed(
            db, measurement, column, tags, t0, t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        return first_t, hll, exact

    # ------------------------------------------------------------------
    # Series administration
    # ------------------------------------------------------------------
    def delete_series(self, db: str, measurement: str, tags: dict[str, str] | None = None) -> int:
        """DROP SERIES: remove every series of ``measurement`` whose tag set
        contains all of ``tags``; returns rows removed.

        This is the idempotency primitive federation re-sync relies on —
        re-copying an observation's raw points first drops the stale copy,
        so repeated syncs converge instead of duplicating.  Cumulative
        ingest counters (``points_written``/``bytes_written``) are *not*
        rolled back, matching real InfluxDB's write statistics.
        """
        d = self._db(db)
        m = d.meas.get(measurement)
        if m is None:
            return 0
        removed = 0
        for sid in list(m.match_ids(tags)):
            removed += len(m.series[sid])
            m.remove_series(sid)
        if not m.series:
            del d.meas[measurement]
        if removed:
            self._bump(d, measurement)
        return removed

    def series_count(
        self, db: str, measurement: str, tags: dict[str, str] | None = None
    ) -> int:
        """Number of live series of ``measurement`` matching the tag filter
        — a pure index probe, used by the shard router to find which
        engines a query must scatter to."""
        m = self._db(db).meas.get(measurement)
        return 0 if m is None else len(m.match_ids(tags))

    def list_series(self, db: str) -> list[tuple[str, dict[str, str]]]:
        """Every live series as ``(measurement, tags)`` — the rebalancer's
        enumeration primitive."""
        d = self._db(db)
        return [
            (name, dict(s.tags))
            for name, m in sorted(d.meas.items())
            for _, s in sorted(m.series.items())
        ]

    def pop_series(
        self, db: str, measurement: str, tags: dict[str, str]
    ) -> list[tuple[float, int, dict[str, float]]] | None:
        """Detach exactly the series whose tag set equals ``tags``.

        Returns its rows as ``(time, seq, fields)`` (None if absent) and
        starts a new epoch.  Unlike :meth:`delete_series` this matches by
        *exact* tag set, not containment — migration must never drag a
        superset series along.  Cumulative ingest counters stay put: a
        shard move is not new ingest.
        """
        d = self._db(db)
        m = d.meas.get(measurement)
        if m is None:
            return None
        sid = m.by_tags.get(tuple(sorted(tags.items())))
        if sid is None:
            return None
        s = m.series[sid]
        names = list(s.cols)
        cols = [s.cols[n] for n in names]
        rows = [
            (t, q, {nm: col[i] for nm, col in zip(names, cols) if col[i] is not None})
            for i, (t, q) in enumerate(zip(s.times, s.seqs))
        ]
        m.remove_series(sid)
        if not m.series:
            del d.meas[measurement]
        self._bump(d, measurement)
        return rows

    def import_rows(
        self,
        db: str,
        measurement: str,
        tags: dict[str, str],
        rows: list[tuple[float, int, dict[str, float]]],
    ) -> int:
        """Migration receive path: append rows keeping their original
        (time, seq) keys, so global merge order survives the move.  Starts
        a new epoch; leaves the ingest counters untouched (the mirror of
        :meth:`pop_series`)."""
        if not rows:
            return 0
        d = self._db(db)
        m = d.meas.get(measurement)
        if m is None:
            m = d.meas[measurement] = _Measurement(measurement, d.tiers, d.sketch)
        s = m.series_for(tags)
        for t, seq, fields in rows:
            if seq >= m.seq:
                m.seq = seq + 1
            s.add(t, seq, fields)
        self._bump(d, measurement)
        return len(rows)

    # ------------------------------------------------------------------
    # Retention & stats
    # ------------------------------------------------------------------
    def enforce_retention(self, db: str, now: float) -> int:
        """Drop points older than the retention horizon; returns #dropped.

        Per series this is one bisect plus a slice — no list rebuilding."""
        d = self._db(db)
        if d.retention.duration_s is None:
            return 0
        horizon = now - d.retention.duration_s
        dropped = 0
        for name in list(d.meas):
            m = d.meas[name]
            meas_dropped = 0
            for sid in list(m.series):
                s = m.series[sid]
                meas_dropped += s.drop_before(horizon)
                if not s.times:
                    m.remove_series(sid)
            if not m.series:
                del d.meas[name]
            if meas_dropped:
                self._bump(d, name)
            dropped += meas_dropped
        return dropped

    def stats(self, db: str) -> dict:
        """Introspection snapshot of one database.

        Besides the cumulative ingest counters, ``measurements`` breaks the
        live state down per measurement — series and row counts, rollup
        bucket counts per tier, and the freshness stamps.  The shard
        rebalancer, the balance tests, and the ``pmove shard`` CLI all read
        this; it doubles as a debugging endpoint.  ``rows_unfolded`` is how
        many rows no summary reflected yet when the call arrived; the call
        itself catches them up (so ``rollup_buckets`` counts every bucket)
        and changes no answer: the digests reported are the ones reads have
        built, as they are held, and ``kept_quantiles`` counts the bucket
        percentiles kept beside them.  ``hll_memory_bytes`` is the state each
        HLL is in (its occupied registers while sparse); ``hll_registers`` is ``m``.
        """
        d = self._db(db)
        stored = sum(
            len(s) for m in d.meas.values() for s in m.series.values()
        )
        n_series = sum(len(m.series) for m in d.meas.values())
        measurements: dict[str, dict] = {}
        for name, m in sorted(d.meas.items()):
            rollup_buckets: dict[float, int] = {t: 0 for t in d.tiers}
            digest_buckets = 0
            digest_centroids = 0
            digest_bytes = 0
            kept_quantiles = 0
            hll_fields = 0
            hll_bytes = m.series_hll.memory_bytes()
            rows_unfolded = 0
            for s in m.series.values():
                rows_unfolded += len(s) - s.folded
                for r in s.rollups:
                    rollup_buckets[r.tier] = rollup_buckets.get(r.tier, 0) + len(r.starts)
                    for rc in r.fields.values():
                        for dg in rc.digest:
                            if dg is not None:
                                digest_buckets += 1
                                digest_centroids += dg.centroid_count
                                digest_bytes += dg.memory_bytes()
                        kept_quantiles += sum(
                            len(a) - a.count(None) for a in rc.kept.values())
                hll_fields += len(s.hlls)
                hll_bytes += sum(h.memory_bytes() for h in s.hlls.values())
            measurements[name] = {
                "series": len(m.series),
                "points": sum(len(s) for s in m.series.values()),
                "rollup_buckets": rollup_buckets,
                "rows_unfolded": rows_unfolded,
                "epoch": d.fresh[name][0],
                "generation": d.fresh[name][1],
                "frontier": d.fresh[name][2],
                "sketch": {
                    "digest_buckets": digest_buckets,
                    "digest_centroids": digest_centroids,
                    "digest_memory_bytes": digest_bytes,
                    "kept_quantiles": kept_quantiles,
                    "hll_fields": hll_fields,
                    "hll_registers": 1 << m.sketch.hll_p,
                    "hll_memory_bytes": hll_bytes,
                    "active_series_estimate": float(round(m.series_hll.count())),
                },
            }
        return {
            "points_written": d.points_written,
            "bytes_written": d.bytes_written,
            "series_stored": stored,
            "series_count": n_series,
            "measurements": measurements,
        }
