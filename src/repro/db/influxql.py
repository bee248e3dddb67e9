"""InfluxQL subset: the query language P-MoVE auto-generates (Listing 3).

Supported grammar::

    SELECT <select_list> FROM "<measurement>"
        [WHERE <cond> [AND <cond>]*]
        [GROUP BY time(<N>s)] [LIMIT <n>]

    SHOW MEASUREMENTS
    select_list := * | field [, field]* | call [, call]*
    field       := "name" | 'name' | name
    call        := AGG(field) for AGG in MEAN MAX MIN SUM COUNT LAST STDDEV
                   DISTINCT MEDIAN | PERCENTILE(field, <pct>)
                 | COUNT(DISTINCT field)
    cond        := tagkey = "value" | tagkey = 'value' | tagkey = value
                 | time >= <sec>[s] | time <= <sec>[s] | time > | time <

A call the aggregate table (:data:`~repro.db.aggregates.SPELLINGS`) does
not name, a select list mixing calls with raw fields (InfluxDB's own rule)
or two calls, and an argument or shape the record refuses raise
:class:`InfluxError`: nothing is answered as a raw column it was not meant
to be.  The paper's generated queries (Listing 3) are exactly this shape::

    SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle"
        WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"

:func:`execute` is one table lookup and one engine read, returning a
:class:`ResultSet` of (time, values-per-column); :func:`naive_execute`
keeps the original materialize-then-fold path, with folds of its own, as
the exact reference tests and benchmarks compare against, and nothing here
calls it.  Parsed statements are LRU-cached on their text; a sliding
window's text changes every refresh, so
:class:`~repro.viz.grafana.GrafanaServer` parses a target's time-free
statement and passes :func:`execute` that :class:`Query` with the bounds
filled in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

from .aggregates import AGGREGATES, SPELLINGS, Aggregate
from .influx import ColumnRows, InfluxDB, InfluxError
from .naive import reference_fold
from .sketch import value_key

__all__ = [
    "Query",
    "ResultSet",
    "parse_query",
    "execute",
    "naive_execute",
    "show_measurements",
]

# Split a select list on commas that sit *outside* parentheses, so
# PERCENTILE("f", 99) stays one item.
_SEL_SPLIT = re.compile(r"\s*,\s*(?![^()]*\))")
_CALL = re.compile(r"(\w+)\((.+)\)$")
_DISTINCT = re.compile(r"DISTINCT\s*\(\s*(.+?)\s*\)$|DISTINCT\s+(.+)$", re.IGNORECASE)
_FIELD = re.compile(r"\"([^\"]+)\"|'([^'\"]+)'|([^\s\"'(),]+)")
_TIME = re.compile(r"time\s*(>=|<=|>|<)\s*([\d.eE+-]+)s?")
_TAG = re.compile(r"(\"[\w.]+\"|[\w.]+)\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s\"']+)")


@dataclass(frozen=True)
class Query:
    """A parsed InfluxQL statement."""

    measurement: str
    columns: tuple[str, ...]  # field names, or ("*",)
    aggregate: str | None  # None, or the name of a record in AGGREGATES
    tag_filters: tuple[tuple[str, str], ...]
    t0: float | None
    t1: float | None
    group_by_s: float | None
    limit: int | None = None
    t0_exclusive: bool = False  # strict time >  (vs >=)
    t1_exclusive: bool = False  # strict time <  (vs <=)
    agg_arg: float | None = None  # PERCENTILE threshold (MEDIAN → 50.0)


@dataclass
class ResultSet:
    """Query output: ordered columns and (time, row) tuples.

    ``rows`` of a raw select and of a ``GROUP BY time`` is the engine's
    :class:`ColumnRows` — a row list to anyone who iterates it, columns to
    :meth:`series`."""

    columns: list[str]
    rows: list[tuple[float, list[float | None]]] | ColumnRows
    _col_cache: dict[str, list[float | None]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def column(self, name: str) -> list[float | None]:
        """One column's values, memoized: dashboards extract the same
        column per series per render, so the index lookup and list build
        are paid once per name.  Callers get a fresh list — the cache
        entry must never be handed out, or one caller's in-place edit
        would poison every later read."""
        cached = self._col_cache.get(name)
        if cached is None:
            idx = self.columns.index(name)
            cached = [row[idx] for _, row in self.rows]
            self._col_cache[name] = cached
        return list(cached)

    def times(self) -> list[float]:
        return [t for t, _ in self.rows]

    def series(self, column: str | None = None) -> tuple[list[float], list[float]]:
        """One column (default: the first) as the ``(times, values)`` a
        panel plots: rows where it is ``None`` dropped from both.  Fresh
        lists; read straight off the columns when the engine returned them."""
        if column is None and not self.columns:
            return [], []  # SELECT * over no data
        idx = 0 if column is None else self.columns.index(column)
        rows = self.rows
        if isinstance(rows, ColumnRows):
            return rows.series(idx)
        times, values = [], []
        for t, row in rows:
            if row[idx] is not None:
                times.append(t)
                values.append(row[idx])
        return times, values

    def __len__(self) -> int:
        return len(self.rows)


def _strip_quotes(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _field(text: str) -> str:
    """A field name as written: quoted, or one bare word; never with a
    ``"`` in it, so that it can be written back double-quoted."""
    m = _FIELD.fullmatch(text.strip())
    if m is None:
        raise InfluxError(f"bad field {text.strip()!r}")
    return m.group(m.lastindex)


def _number(text: str, what: str) -> float:
    """A finite number, or InfluxError: no statement spells ``inf``/``nan``."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise InfluxError(f"bad {what} {text.strip()!r}")
    return val


def _call(fn: str, inner: str) -> tuple[Aggregate, float | None, str]:
    """One aggregate call: its record, argument and field."""
    dm = _DISTINCT.match(inner.strip())
    spelled = SPELLINGS.get((fn.upper(), dm is not None))
    if spelled is None:
        raise InfluxError(f"unknown aggregate {fn}({'DISTINCT …' if dm else '…'})")
    a, arg = spelled
    if dm:
        inner = dm.group(1) or dm.group(2)
    if a.arg is not None and arg is None:
        inner, _, text = inner.rpartition(",")
        arg = _number(text, f"{fn} argument")
    return a, arg, _field(inner)


def show_measurements(db: InfluxDB, database: str) -> list[str]:
    """Execute ``SHOW MEASUREMENTS`` (what Grafana's query builder runs)."""
    return db.measurements(database)


def parse_query(text: str) -> Query:
    """Parse one InfluxQL statement (raises :class:`InfluxError`).

    Parses are LRU-cached on the statement text, so the regex work is paid
    once per distinct statement — which helps exactly the statements whose
    text repeats (Listing 3 recall queries, a panel's time-free form).  The
    returned :class:`Query` is frozen, so sharing the cached instance is
    safe, and a windowed one is a copy of it with the bounds filled in.
    """
    return _parse_query_cached(text)


@lru_cache(maxsize=512)
def _parse_query_cached(text: str) -> Query:
    src = text.strip().rstrip(";")
    m = re.match(
        r"SELECT\s+(?P<sel>.+?)\s+FROM\s+(?P<meas>\"[^\"]+\"|\S+)"
        r"(?:\s+WHERE\s+(?P<where>.+?))?"
        r"(?:\s+GROUP\s+BY\s+time\((?P<gb>[\d.]+)s\))?"
        r"(?:\s+LIMIT\s+(?P<limit>\d+))?\s*$",
        src,
        re.IGNORECASE | re.DOTALL,
    )
    if not m:
        raise InfluxError(f"unparseable InfluxQL: {text!r}")

    # One kind of item per statement: raw fields (None), or one call.
    kinds: set = set()
    columns: list[str] = []
    for item in _SEL_SPLIT.split(m.group("sel").strip()):
        call = _CALL.match(item.strip())
        if call is None:
            kinds.add(None)
            columns.append(_field(item))
        else:
            a, arg, col = _call(*call.groups())
            kinds.add((a.name, arg))
            columns.append(col)
    if len(kinds) > 1:
        raise InfluxError("mixed aggregate functions not supported" if None not in kinds
                          else "mixed aggregate and raw fields not supported")
    aggregate, agg_arg = kinds.pop() or (None, None)

    tag_filters: list[tuple[str, str]] = []
    t0 = t1 = None
    t0_exclusive = t1_exclusive = False
    if m.group("where"):
        for cond in re.split(r"\s+AND\s+", m.group("where"), flags=re.IGNORECASE):
            cond = cond.strip()
            if tm := _TIME.fullmatch(cond):
                op, val = tm.group(1), _number(tm.group(2), "time bound")
                if op in (">=", ">"):
                    t0, t0_exclusive = val, op == ">"
                else:
                    t1, t1_exclusive = val, op == "<"
            elif em := _TAG.fullmatch(cond):
                tag_filters.append((_strip_quotes(em.group(1)), _strip_quotes(em.group(2))))
            else:
                raise InfluxError(f"unparseable WHERE condition {cond!r}")

    gb = _number(m.group("gb"), "GROUP BY width") if m.group("gb") else None
    if gb is not None and aggregate is None:
        aggregate = "MEAN"  # Influx requires an aggregate with GROUP BY time
    limit = int(m.group("limit")) if m.group("limit") else None
    if limit is not None and limit < 1:
        raise InfluxError("LIMIT must be positive")
    q = Query(
        measurement=_strip_quotes(m.group("meas")),
        columns=tuple(columns),
        aggregate=aggregate,
        tag_filters=tuple(tag_filters),
        t0=t0,
        t1=t1,
        group_by_s=gb,
        limit=limit,
        t0_exclusive=t0_exclusive,
        t1_exclusive=t1_exclusive,
        agg_arg=agg_arg,
    )
    if aggregate is not None:
        _record(q)
    return q


def _record(q: Query) -> Aggregate:
    """The table's record of ``q``'s aggregate, or :class:`InfluxError` for
    a statement no engine read answers."""
    a = AGGREGATES.get(q.aggregate)
    if a is None:
        raise InfluxError(f"unknown aggregate {q.aggregate}")
    if q.group_by_s is not None and a.grouped is None:
        raise InfluxError(f"{q.aggregate} with GROUP BY time is not supported")
    if a.field and (len(q.columns) != 1 or q.columns[0] == "*"):
        raise InfluxError(f"{q.aggregate} needs exactly one field")
    if not a.admits(q.agg_arg):
        raise InfluxError(f"{q.aggregate} takes " + (
            "no argument" if a.arg is None else "an argument in [%g, %g]" % a.arg))
    return a


def execute(db: InfluxDB, database: str, query: Query | str) -> ResultSet:
    """Execute a query against one database: one lookup, one engine read.

    A raw select is ``scan_columns`` with LIMIT pushed into the scan; an
    aggregate is the read its record names, ungrouped or under GROUP BY
    time(N), given its name or argument first where the record says so.
    DISTINCT and COUNT(DISTINCT) take one field and have rows of their own
    shape.  Results are exactly equal to :func:`naive_execute` on exact paths.
    """
    q = parse_query(query) if isinstance(query, str) else query
    columns = None if q.columns == ("*",) else list(q.columns)
    if q.aggregate is None:
        cols, rows = db.scan_columns(
            database, q.measurement, columns, dict(q.tag_filters), q.t0, q.t1,
            t0_exclusive=q.t0_exclusive, t1_exclusive=q.t1_exclusive, limit=q.limit)
        return ResultSet(columns=cols, rows=rows)
    a = _record(q)
    kw = dict(tags=dict(q.tag_filters), t0=q.t0, t1=q.t1,
              t0_exclusive=q.t0_exclusive, t1_exclusive=q.t1_exclusive)
    lead = (q.aggregate,) if a.named else () if a.arg is None else (q.agg_arg,)
    if q.group_by_s is not None:
        cols, rows = getattr(db, a.grouped)(
            database, q.measurement, *lead, q.group_by_s, columns, **kw)
        return ResultSet(columns=cols, rows=rows if q.limit is None else rows[: q.limit])
    if a.field:
        out = getattr(db, a.ungrouped)(database, q.measurement, q.columns[0], **kw)
        if q.aggregate == "DISTINCT":
            rows = [(t, [v]) for t, v in out][: q.limit]
        else:
            rows = [(0.0 if out[0] is None else out[0], [out[1]])]
        return ResultSet(columns=[q.columns[0]], rows=rows)
    cols, first_t, aggs = getattr(db, a.ungrouped)(
        database, q.measurement, *lead, columns, **kw)
    return ResultSet(columns=cols, rows=[(0.0 if first_t is None else first_t, aggs)])


def naive_execute(db, database: str, query: Query | str) -> ResultSet:
    """The seed execute path: materialize scan rows, then fold in Python.

    Kept as the equivalence reference (and benchmark baseline) for the
    pushdown/rollup paths in :func:`execute`, with its own folds
    (:func:`~repro.db.naive.reference_fold`).  Works against any engine
    exposing ``scan_columns`` — including :class:`~repro.db.naive.NaiveInfluxDB`.
    """
    q = parse_query(query) if isinstance(query, str) else query
    if q.aggregate in ("DISTINCT", "COUNT_DISTINCT") and (
            q.group_by_s is not None or len(q.columns) != 1 or q.columns[0] == "*"):
        raise InfluxError(f"{q.aggregate} needs one field and no GROUP BY time")
    cols, rows = db.scan_columns(
        database,
        q.measurement,
        columns=None if q.columns == ("*",) else list(q.columns),
        tags=dict(q.tag_filters),
        t0=q.t0,
        t1=q.t1,
        t0_exclusive=q.t0_exclusive,
        t1_exclusive=q.t1_exclusive,
    )

    if q.aggregate is None:
        if q.limit is not None:
            rows = rows[: q.limit]
        return ResultSet(columns=cols, rows=rows)

    if q.aggregate == "DISTINCT":
        # One row per distinct value (value-keyed), in first-seen order.
        idx = cols.index(q.columns[0]) if q.columns[0] in cols else None
        seen: dict[bytes, tuple[float, float]] = {}
        if idx is not None:
            for t, r in rows:
                v = r[idx]
                if v is None:
                    continue
                vk = value_key(v)
                if vk not in seen:
                    seen[vk] = (t, v)
        out = [(t, [v]) for t, v in seen.values()]
        if q.limit is not None:
            out = out[: q.limit]
        return ResultSet(columns=[q.columns[0]], rows=out)

    if q.group_by_s is None:
        row = []
        for i in range(len(cols)):
            vals = [r[i] for _, r in rows if r[i] is not None]
            row.append(reference_fold(q.aggregate, vals, q.agg_arg))
        t = rows[0][0] if rows else 0.0
        if q.aggregate == "COUNT_DISTINCT":
            return ResultSet(columns=[q.columns[0]], rows=[(t, row)])
        return ResultSet(columns=cols, rows=[(t, row)])

    # GROUP BY time(Ns): bucket on floor(time / N) * N (+ 0.0: -0.0 labels 0.0).
    buckets: dict[float, list[list[float]]] = {}
    for t, vals in rows:
        b = (t // q.group_by_s) * q.group_by_s + 0.0
        slot = buckets.setdefault(b, [[] for _ in cols])
        for i, v in enumerate(vals):
            if v is not None:
                slot[i].append(v)
    out = [
        (b, [reference_fold(q.aggregate, bucket, q.agg_arg) for bucket in buckets[b]])
        for b in sorted(buckets)
    ]
    if q.limit is not None:
        out = out[: q.limit]
    return ResultSet(columns=cols, rows=out)
