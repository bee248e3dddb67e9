"""One record per InfluxQL aggregate: everything a layer knows of one.

Every aggregate a generated statement names (Listing 3, Fig 2) passes
three layers: :mod:`~repro.db.influxql` reads its spelling, the engine
folds it over raw rows or reads it off a rollup tier, and the shard router
merges the shards' partials of it or refolds their rows.  Each layer looks
it up in :data:`AGGREGATES`, one constant :class:`Aggregate` per aggregate
— DCDB Wintermute's operators, defined once and instantiated by
configuration — and refuses what the table does not name.  The naive
references (``naive_execute``, ``NaiveInfluxDB``) read nothing here: their
own folds are what these are checked against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from .sketch import TDigest, nearest_rank, stddev_from_partials, stddev_of, value_key

__all__ = ["AGGREGATES", "SPELLINGS", "Aggregate", "Family", "Stat", "FALLBACK"]


@dataclass(frozen=True, slots=True)
class Family:
    """What one family of reads asks of a rollup tier (``InfluxDB._plan``):
    ``rules`` judged per tier in order, each named by the reason a tier that
    fails it is turned down; the counter the decisions land in (``None``:
    nowhere); the outcome label of a serving tier (followed by its width),
    of none, and of a read over several series; ``quiet``: record the
    outcome only, no reasons."""

    counter: str | None
    rules: tuple[str, ...]
    served: str = "served:"
    fallback: str = "fallback:raw-scan"
    multi: str = "fallback:multi-series"
    quiet: bool = False


#: Tier digests serve a percentile only where the configured error bound
#: provably holds; anything else is the exact nearest-rank scan.
_SKETCH = Family("sketch_plan", (
    "tier-not-dividing", "nan-poisoned", "merge-bound", "error-bound"))
_SKETCH_RANGE = Family("sketch_plan", (
    "unaligned-range", "nan-poisoned", "merge-bound", "error-bound"))
_STDDEV = Family("sketch_plan", ("exact-tier",), "stddev-served:", "stddev-raw",
                 "stddev-raw", quiet=True)
#: The router's merge, not the shard, decides what a partial served.
_PARTIALS = Family(None, ("exact-tier", "nan-poisoned"))


#: A partial stat: the mergeable fold state of one column slice in (time,
#: seq) order.  ``last_t``/``last_seq`` key its last value (None where a rollup
#: bucket served it); ``has_nan`` poisons order-sensitive MIN/MAX merges.
Stat = namedtuple("Stat", "count total vmin vmax last last_t last_seq has_nan")


#: What a router merge returns where only a refold of the shards' rows can
#: reproduce one engine's answer bit for bit.
FALLBACK = object()


def _values(col: list, lo: int, hi: int, dense: bool) -> list[float]:
    """The values rows ``[lo, hi)`` of a column hold, in order: the slice
    itself where ``dense`` says the column holds no ``None``."""
    part = col[lo:hi]
    return part if dense else [v for v in part if v is not None]


def partial_stat(times: list[float], seqs: list[int], col: list, lo: int, hi: int,
                 dense: bool):
    """Rows ``[lo, hi)`` of one column folded in order into a :class:`Stat`
    keyed by its last value's row (None if they hold no value)."""
    vals = _values(col, lo, hi, dense)
    if not vals:
        return None
    last = hi - 1
    while col[last] is None:
        last -= 1
    return Stat(len(vals), sum(vals), min(vals), max(vals), vals[-1],
                times[last], seqs[last], any(v != v for v in vals))


# -- tier readers: tier(arg, s, r, c, rc, ri0, ri1, spans) -------------------
# Column ``c``'s whole buckets of a window (``InfluxDB._tier_buckets``): ``rc``
# its state in tier ``r`` of series ``s``, ``[ri0, ri1)`` the tier buckets,
# ``spans`` their grouping into output buckets (None: the tier is the width).

def _stat_tier(stat: str, finish, reduce=None):
    """MEAN … LAST: ``finish(counts, stats)`` over slices of ``count`` and
    the stat the aggregate reads; over ``spans``, each span's present stats
    reduced by ``reduce`` (COUNT/MIN/MAX/LAST: exact across sub-buckets)."""
    def read(arg, s, r, c, rc, ri0, ri1, spans):
        count, vals = rc.count, getattr(rc, stat)
        if spans is None:
            return finish(count[ri0:ri1], vals[ri0:ri1])
        return [reduce(xs) if (xs := [x for n, x in zip(count[ka:kb], vals[ka:kb]) if n])
                else None for ka, kb in spans]
    return read


def _present(counts, vals):
    return [x if n else None for n, x in zip(counts, vals)]


def _stddev_tier(arg, s, r, c, rc, ri0, ri1, spans):
    return [
        stddev_from_partials(n, total, sq) if n else None
        for n, total, sq in zip(
            rc.count[ri0:ri1], rc.total[ri0:ri1], rc.sumsq[ri0:ri1])
    ]


def stat_tier(arg, s, r, c, rc, ri0, ri1, spans):
    """Partial stats with no last key and, the planner having refused a
    series that ever held one, no NaN."""
    return [
        Stat(n, total, lo, hi, last, None, None, False) if n else None
        for n, total, lo, hi, last in zip(
            rc.count[ri0:ri1], rc.total[ri0:ri1], rc.vmin[ri0:ri1],
            rc.vmax[ri0:ri1], rc.last[ri0:ri1])
    ]


def _merged(digests: list[TDigest]) -> TDigest | None:
    """One digest for all of them (a single one: itself, no copy)."""
    if len(digests) < 2:
        return digests[0] if digests else None
    return TDigest.merged(digests)


def digest_tier(arg, s, r, c, rc, ri0, ri1, spans) -> list[TDigest | None]:
    """One digest per whole output bucket: the tier bucket's own, or the
    merge of the ones the output bucket spans."""
    if spans is None:
        return [s.bucket_digest(r, c, k) for k in range(ri0, ri1)]
    return [
        _merged([d for k in range(ka, kb)
                 if (d := s.bucket_digest(r, c, k)) is not None])
        for ka, kb in spans
    ]


def _quantile_tier(pct, s, r, c, rc, ri0, ri1, spans) -> list[float | None]:
    """Percentile ``pct`` per whole output bucket.  A tier bucket's answer
    is asked of its digest once and kept in ``rc.kept[q]`` for as long as
    the digest holds."""
    q = pct / 100.0
    if spans is not None:
        return [d if d is None else d.quantile(q)
                for d in digest_tier(pct, s, r, c, rc, ri0, ri1, spans)]
    kept = rc.kept_for(q)
    part = kept[ri0:ri1]
    if None in part:  # never asked (or a bucket with no value)
        for k in range(ri0, ri1):
            if kept[k] is None and (d := s.bucket_digest(r, c, k)) is not None:
                kept[k] = d.quantile(q)
        part = kept[ri0:ri1]
    return part


def digest_range(arg, s, r, lo: int, hi: int, cols: list[str]) -> list[TDigest | None]:
    """One merged digest per column over rows ``[lo, hi)``, which the
    planner found exactly tiled by the whole buckets of tier ``r``."""
    T, times = r.tier, s.times
    ri0 = bisect_left(r.starts, (times[lo] // T) * T)
    ri1 = bisect_right(r.starts, (times[hi - 1] // T) * T)
    return [
        _merged([d for ri in range(ri0, ri1)
                 if (d := s.bucket_digest(r, c, ri)) is not None])
        for c in cols
    ]


def _quantile_range(pct, s, r, lo, hi, cols) -> list[float | None]:
    return [d if d is None else d.quantile(pct / 100.0)
            for d in digest_range(pct, s, r, lo, hi, cols)]


# -- router merges: merge(arg, cfg, partials) --------------------------------
# The shards' partials of one (bucket, column) slot, at least one; DISTINCT and
# COUNT(DISTINCT) merge the shards' whole answers.

def _alone(finish):
    """MEAN, SUM: a slot one shard holds is its stat finalized; a sum of
    several shards' sums is another fold than the interleaved rows'."""
    return lambda arg, cfg, stats: finish(stats[0]) if len(stats) == 1 else FALLBACK


def _count(arg, cfg, stats):
    return float(sum(st.count for st in stats))


def _extremum(pick, stat: str):
    def merge(arg, cfg, stats):
        vals = [getattr(st, stat) for st in stats]
        if len(vals) == 1:
            return vals[0]
        if any(st.has_nan for st in stats):
            return FALLBACK  # NaN makes the fold order-sensitive
        best = pick(vals)
        # min/max keep the *first* extremum in fold order, and -0.0 == 0.0:
        # a tie between bit-distinct values is order-sensitive, so only a
        # bitwise-unambiguous extremum merges associatively.
        if any(v == best and repr(v) != repr(best) for v in vals):
            return FALLBACK
        return best
    return merge


def _latest(arg, cfg, stats):
    """LAST: the stat with the latest (time, seq) key wins."""
    if len(stats) == 1:
        return stats[0].last
    if any(st.last_t is None for st in stats):
        return FALLBACK  # a rollup-served stat lost its key
    return max(stats, key=lambda st: (st.last_t, st.last_seq)).last


def merged_sketch(sketches: list, cfg):
    """The shards' t-digests or HLLs of one slot as one — the only place the
    router answers approximately, so the only place it checks that it may:
    FALLBACK when the bound of what it would hand over exceeds the one
    configured (a digest's doubles once it is a merge)."""
    first = sketches[0]
    if isinstance(first, TDigest):
        ok = cfg.digest_bound(merged=len(sketches) > 1) <= cfg.epsilon
    else:
        ok = first.error_bound() <= cfg.hll_epsilon
    if not ok:
        return FALLBACK
    return first if len(sketches) == 1 else type(first).merged(sketches)


def _quantile_merge(pct, cfg, digests):
    d = merged_sketch(digests, cfg)
    return d if d is FALLBACK else d.quantile(pct / 100.0)


def first_seen(runs) -> list[tuple[float, int, float]]:
    """Each distinct value among ``runs`` of ``(time, seq, value)`` (a
    ``None`` value is none) as ``(time, seq, value)`` of its first
    occurrence, in that order: the engine's series and the router's shards
    dedup alike, on :func:`~repro.db.sketch.value_key` (``-0.0`` is
    ``0.0``, every NaN one value)."""
    best: dict[bytes, tuple[float, int, float]] = {}
    for run in runs:
        for t, seq, v in run:
            if v is not None:
                vk = value_key(v)
                prev = best.get(vk)
                if prev is None or (t, seq) < (prev[0], prev[1]):
                    best[vk] = (t, seq, v)
    return sorted(best.values())


def _first_seen(arg, cfg, per_shard):
    return [(t, v) for t, _, v in first_seen(per_shard)]


def _cardinality(arg, cfg, per_shard):
    """COUNT(DISTINCT): the HLLs merged when every shard may serve
    approximately, else the exact value-key union."""
    first_t = min((t for t, _, _ in per_shard if t is not None), default=None)
    hlls = [h for _, h, _ in per_shard if h is not None]
    if hlls and len(hlls) == len(per_shard):
        hll = merged_sketch(hlls, cfg)
        if hll is not FALLBACK:
            return first_t, float(round(hll.count()))
    keys = {value_key(v) for _, _, exact in per_shard for _, _, v in exact}
    return first_t, (float(len(keys)) if keys else None)


# -- the table ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Aggregate:
    """One InfluxQL aggregate, as every layer reads it.

    - *Spelling*: the function as written, ``distinct`` if ``DISTINCT``
      precedes the field; ``arg``: its argument's closed range, or None.
    - *Engine reads*: ``ungrouped``, and ``grouped`` under ``GROUP BY time``
      (None: refused).  A ``named`` read serves several aggregates and takes
      the name first; a ``field`` read takes one field, not a column list.
    - *Engine folds*: ``fold(arg, values)``, the exact answer over one
      bucket's values; the tier-planner family and tier reader of the
      grouped read (``plan``, ``tier``) and of the ungrouped one
      (``range_plan``, ``range_tier``), None where rows are always folded.
    - *Router*: the engine reads that ship partials (ungrouped, grouped;
      None: it refolds the shards' rows by ``fold``) and ``merge(arg, cfg,
      partials)``, which gives :data:`FALLBACK` where only ``fold`` is exact.
    """

    name: str
    spelling: str
    ungrouped: str
    grouped: str | None = None
    distinct: bool = False
    arg: tuple[float, float] | None = None
    named: bool = False
    field: bool = False
    fold: Callable | None = None
    plan: Family | None = None
    tier: Callable | None = None
    range_plan: Family | None = None
    range_tier: Callable | None = None
    partials: tuple[str, str | None] | None = None
    merge: Callable | None = None

    def admits(self, arg: float | None) -> bool:
        """Whether ``arg`` is an argument this aggregate takes."""
        if self.arg is None or arg is None:
            return self.arg is None and arg is None
        return self.arg[0] <= arg <= self.arg[1]


def _by_stat(name: str, fold, tier, merge, *rules: str) -> Aggregate:
    """MEAN … LAST: the engine's named reads, rollup tiers, partial stats."""
    return Aggregate(
        name, name, "aggregate_columns", "scan_buckets", named=True, fold=fold,
        plan=Family("rollup_plan", ("tier-not-dividing", *rules),
                    fallback="raw-fallback", multi="multi-series-raw"),
        tier=tier, partials=("aggregate_partials", "bucket_partials"), merge=merge)


# Fold order: MEAN and SUM see one sequence, the bucket's rows in (time, seq)
# order summed by one ``sum()`` — raw, off a tier bucket (``set_from`` folds
# that slice), refolded by the router (a sum of shard sums is another
# sequence: the merge falls back) and in the naive references.  ``sum()`` is
# compensated from CPython 3.12 on, so no path continues or splits a sum.
AGGREGATES: dict[str, Aggregate] = {a.name: a for a in (
    # cross-bucket float sums reorder the fold: MEAN/SUM need the tier at N
    _by_stat("MEAN", lambda arg, v: sum(v) / len(v) if v else None,
             _stat_tier("total", lambda ns, xs: [x / n if n else None
                                                 for n, x in zip(ns, xs)]),
             _alone(lambda st: st.total / st.count), "mean-sum-needs-exact-tier"),
    _by_stat("SUM", lambda arg, v: sum(v) if v else None,
             _stat_tier("total", _present), _alone(lambda st: st.total),
             "mean-sum-needs-exact-tier"),
    # NaN makes min/max folds order-dependent
    _by_stat("MIN", lambda arg, v: min(v) if v else None,
             _stat_tier("vmin", _present, min), _extremum(min, "vmin"), "nan-poisoned"),
    _by_stat("MAX", lambda arg, v: max(v) if v else None,
             _stat_tier("vmax", _present, max), _extremum(max, "vmax"), "nan-poisoned"),
    _by_stat("COUNT", lambda arg, v: float(len(v)) if v else None,
             _stat_tier("count", lambda ns, _: [float(n) if n else None for n in ns],
                        lambda ns: float(sum(ns))), _count),
    _by_stat("LAST", lambda arg, v: v[-1] if v else None,
             _stat_tier("last", _present, lambda v: v[-1]), _latest),
    Aggregate("PERCENTILE", "PERCENTILE", "quantile_columns", "quantile_buckets",
              arg=(0.0, 100.0), fold=lambda pct, v: nearest_rank(v, pct),
              plan=_SKETCH, tier=_quantile_tier,
              range_plan=_SKETCH_RANGE, range_tier=_quantile_range,
              partials=("quantile_partials", "quantile_bucket_partials"),
              merge=_quantile_merge),
    # Σv and Σv² are float sums: the router always refolds
    Aggregate("STDDEV", "STDDEV", "stddev_columns", "stddev_buckets",
              fold=lambda arg, v: stddev_of(v), plan=_STDDEV, tier=_stddev_tier),
    Aggregate("DISTINCT", "DISTINCT", "distinct_values", field=True,
              partials=("distinct_keyed", None), merge=_first_seen),
    Aggregate("COUNT_DISTINCT", "COUNT", "count_distinct", distinct=True, field=True,
              partials=("distinct_partials", None), merge=_cardinality),
)}

#: How the parser reads a call: (function, DISTINCT before the field) →
#: (record, the argument the spelling fixes).  MEDIAN is PERCENTILE at 50.
SPELLINGS: dict[tuple[str, bool], tuple[Aggregate, float | None]] = {
    (a.spelling, a.distinct): (a, None) for a in AGGREGATES.values()
} | {("MEDIAN", False): (AGGREGATES["PERCENTILE"], 50.0)}

#: The rollup families by aggregate.
_ROLLUP = {a.name: a.plan for a in AGGREGATES.values() if a.named}
