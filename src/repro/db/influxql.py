"""InfluxQL subset: the query language P-MoVE auto-generates (Listing 3).

Supported grammar::

    SELECT <select_list> FROM "<measurement>"
        [WHERE <cond> [AND <cond>]*]
        [GROUP BY time(<N>s)]

    SHOW MEASUREMENTS
    select_list := * | item [, item]*
    item        := "field" | field | AGG("field") with AGG in
                   MEAN MAX MIN SUM COUNT LAST STDDEV MEDIAN DISTINCT
                 | PERCENTILE("field", <pct>) | COUNT(DISTINCT "field")
    cond        := tagkey = "value" | tagkey = 'value'
                 | time >= <sec> | time <= <sec> | time > | time <

The paper's generated queries (Listing 3) are exactly this shape::

    SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle"
        WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"

Results come back as a :class:`ResultSet` of (time, values-per-column).

Execution pushes work into the storage engine: raw selects ride
:meth:`InfluxDB.scan_columns` (with LIMIT pushed into the scan),
aggregates ride :meth:`InfluxDB.aggregate_columns`, and ``GROUP BY time``
rides :meth:`InfluxDB.scan_buckets` — which serves coarse buckets from
rollup tiers, caught up on read, when that is provably exact.  The analytic
aggregates added by the sketch layer dispatch the same way:
``PERCENTILE``/``MEDIAN`` ride :meth:`InfluxDB.quantile_buckets` /
:meth:`InfluxDB.quantile_columns` (tier t-digests when the serving
planner's error bound holds, exact nearest-rank otherwise), ``STDDEV``
rides the (count, Σv, Σv²) rollup partials, and ``COUNT(DISTINCT f)``
rides per-series HyperLogLogs.  Every engine :func:`execute` is handed
has all of these reads; :func:`naive_execute` keeps the original
materialize-then-fold path over anything with a ``scan_columns`` as the
exact reference tests and benchmarks compare against, and nothing here
calls it.  Parsed statements are LRU-cached on their text, which pays
for statements whose text is fixed (recall queries, unbounded panels).
A sliding-window refresh has a
new time bound in its text every time and would never hit, so
:class:`~repro.viz.grafana.GrafanaServer` parses a target's time-free
statement — fixed text — and passes :func:`execute` that :class:`Query`
with the bounds filled in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .influx import ColumnRows, InfluxDB, InfluxError
from .sketch import nearest_rank, stddev_of, value_key

__all__ = [
    "Query",
    "ResultSet",
    "parse_query",
    "execute",
    "naive_execute",
    "show_measurements",
]

_AGGS = ("MEAN", "MAX", "MIN", "SUM", "COUNT", "LAST", "STDDEV", "DISTINCT")
# Analytic aggregates introduced by the sketch layer; MEDIAN parses to
# PERCENTILE/50 and COUNT(DISTINCT f) to COUNT_DISTINCT, so neither
# appears in Query.aggregate.
_ANALYTIC = ("PERCENTILE", "STDDEV", "DISTINCT", "COUNT_DISTINCT")

# Split a select list on commas that sit *outside* parentheses, so
# PERCENTILE("f", 99) stays one item.
_SEL_SPLIT = re.compile(r"\s*,\s*(?![^()]*\))")


@dataclass(frozen=True)
class Query:
    """A parsed InfluxQL statement."""

    measurement: str
    columns: tuple[str, ...]  # field names, or ("*",)
    aggregate: str | None  # None, one of _AGGS, PERCENTILE or COUNT_DISTINCT
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
    sel = m.group("sel").strip()
    measurement = _strip_quotes(m.group("meas"))

    aggregate: str | None = None
    agg_arg: float | None = None
    columns: list[str] = []
    if sel == "*":
        columns = ["*"]
    else:
        for item in _SEL_SPLIT.split(sel):
            am = re.match(r"(\w+)\((.+)\)$", item.strip())
            agg: str | None = None
            arg: float | None = None
            col: str | None = None
            if am:
                fn = am.group(1).upper()
                inner = am.group(2).strip()
                if fn == "COUNT":
                    dm = re.match(
                        r"DISTINCT\s*\(\s*(.+?)\s*\)$|DISTINCT\s+(.+)$",
                        inner,
                        re.IGNORECASE,
                    )
                    if dm:
                        agg = "COUNT_DISTINCT"
                        col = _strip_quotes(dm.group(1) or dm.group(2))
                    else:
                        agg, col = "COUNT", _strip_quotes(inner)
                elif fn == "PERCENTILE":
                    parts = re.split(r"\s*,\s*", inner)
                    if len(parts) != 2:
                        raise InfluxError("PERCENTILE takes (field, pct)")
                    try:
                        arg = float(parts[1])
                    except ValueError:
                        raise InfluxError(
                            f"bad PERCENTILE threshold {parts[1]!r}"
                        ) from None
                    if not 0.0 <= arg <= 100.0:
                        raise InfluxError(
                            "PERCENTILE threshold must be in [0, 100]"
                        )
                    agg, col = "PERCENTILE", _strip_quotes(parts[0])
                elif fn == "MEDIAN":
                    agg, arg, col = "PERCENTILE", 50.0, _strip_quotes(inner)
                elif fn in _AGGS:
                    agg, col = fn, _strip_quotes(inner)
            if agg is not None:
                if aggregate is not None and (aggregate != agg or agg_arg != arg):
                    raise InfluxError("mixed aggregate functions not supported")
                aggregate = agg
                agg_arg = arg
                columns.append(col)
            else:
                columns.append(_strip_quotes(item))

    tag_filters: list[tuple[str, str]] = []
    t0 = t1 = None
    t0_exclusive = t1_exclusive = False
    if m.group("where"):
        for cond in re.split(r"\s+AND\s+", m.group("where"), flags=re.IGNORECASE):
            cond = cond.strip()
            tm = re.match(r"time\s*(>=|<=|>|<)\s*([\d.eE+-]+)", cond)
            if tm:
                op = tm.group(1)
                try:
                    val = float(tm.group(2))
                except ValueError:  # "-", "1e", "1.2.3": matched, not a number
                    raise InfluxError(f"bad time bound in {cond!r}") from None
                if op in (">=", ">"):
                    t0, t0_exclusive = val, op == ">"
                else:
                    t1, t1_exclusive = val, op == "<"
                continue
            em = re.match(r"(\"?[\w.]+\"?)\s*=\s*(\"[^\"]*\"|'[^']*'|\S+)", cond)
            if not em:
                raise InfluxError(f"unparseable WHERE condition {cond!r}")
            tag_filters.append((_strip_quotes(em.group(1)), _strip_quotes(em.group(2))))

    gb = float(m.group("gb")) if m.group("gb") else None
    if gb is not None and aggregate is None:
        aggregate = "MEAN"  # Influx requires an aggregate with GROUP BY time
    limit = int(m.group("limit")) if m.group("limit") else None
    if limit is not None and limit < 1:
        raise InfluxError("LIMIT must be positive")
    return Query(
        measurement=measurement,
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


def _agg(name: str, values: list[float], arg: float | None = None) -> float | None:
    if not values:
        return None
    if name == "MEAN":
        return sum(values) / len(values)
    if name == "MAX":
        return max(values)
    if name == "MIN":
        return min(values)
    if name == "SUM":
        return sum(values)
    if name == "COUNT":
        return float(len(values))
    if name == "LAST":
        return values[-1]
    if name == "PERCENTILE":
        return nearest_rank(values, arg if arg is not None else 50.0)
    if name == "STDDEV":
        return stddev_of(values)
    if name == "COUNT_DISTINCT":
        return float(len({value_key(v) for v in values}))
    raise InfluxError(f"unknown aggregate {name}")


def _check_analytic(q: Query) -> None:
    """Shape rules shared by :func:`execute` and :func:`naive_execute` so
    the pushdown and reference paths reject the same statements."""
    if q.aggregate in ("DISTINCT", "COUNT_DISTINCT"):
        if q.group_by_s is not None:
            raise InfluxError(
                f"{q.aggregate} with GROUP BY time is not supported"
            )
        if len(q.columns) != 1 or q.columns[0] == "*":
            raise InfluxError(f"{q.aggregate} needs exactly one field")


def execute(db: InfluxDB, database: str, query: Query | str) -> ResultSet:
    """Execute a query against one database.

    Each statement shape dispatches to the matching engine pushdown:

    - raw select → ``scan_columns`` with LIMIT pushed into the scan;
    - plain aggregate → ``aggregate_columns`` (column folds, no rows);
    - GROUP BY time(N) → ``scan_buckets`` (bucket edge to bucket edge,
      or slices of a rollup tier when that is provably exact).

    Results are exactly equal to :func:`naive_execute`.
    """
    q = parse_query(query) if isinstance(query, str) else query
    columns = None if q.columns == ("*",) else list(q.columns)
    tags = dict(q.tag_filters)

    if q.aggregate in _ANALYTIC:
        return _execute_analytic(db, database, q, columns, tags)

    if q.aggregate is None:
        cols, rows = db.scan_columns(
            database,
            q.measurement,
            columns=columns,
            tags=tags,
            t0=q.t0,
            t1=q.t1,
            t0_exclusive=q.t0_exclusive,
            t1_exclusive=q.t1_exclusive,
            limit=q.limit,
        )
        return ResultSet(columns=cols, rows=rows)

    if q.group_by_s is None:
        cols, first_t, aggs = db.aggregate_columns(
            database,
            q.measurement,
            q.aggregate,
            columns=columns,
            tags=tags,
            t0=q.t0,
            t1=q.t1,
            t0_exclusive=q.t0_exclusive,
            t1_exclusive=q.t1_exclusive,
        )
        return ResultSet(
            columns=cols, rows=[(first_t if first_t is not None else 0.0, aggs)]
        )

    cols, out = db.scan_buckets(
        database,
        q.measurement,
        q.aggregate,
        q.group_by_s,
        columns=columns,
        tags=tags,
        t0=q.t0,
        t1=q.t1,
        t0_exclusive=q.t0_exclusive,
        t1_exclusive=q.t1_exclusive,
    )
    if q.limit is not None:
        out = out[: q.limit]
    return ResultSet(columns=cols, rows=out)


def _execute_analytic(
    db,
    database: str,
    q: Query,
    columns: list[str] | None,
    tags: dict[str, str],
) -> ResultSet:
    """Dispatch PERCENTILE / STDDEV / DISTINCT / COUNT(DISTINCT) to the
    engine's sketch-aware reads."""
    _check_analytic(q)
    kw = dict(
        tags=tags,
        t0=q.t0,
        t1=q.t1,
        t0_exclusive=q.t0_exclusive,
        t1_exclusive=q.t1_exclusive,
    )
    if q.aggregate == "DISTINCT":
        pairs = db.distinct_values(database, q.measurement, q.columns[0], **kw)
        rows = [(t, [v]) for t, v in pairs]
        if q.limit is not None:
            rows = rows[: q.limit]
        return ResultSet(columns=[q.columns[0]], rows=rows)
    if q.aggregate == "COUNT_DISTINCT":
        first_t, cnt = db.count_distinct(database, q.measurement, q.columns[0], **kw)
        return ResultSet(
            columns=[q.columns[0]],
            rows=[(first_t if first_t is not None else 0.0, [cnt])],
        )
    pct = q.agg_arg if q.agg_arg is not None else 50.0
    if q.group_by_s is not None:
        if q.aggregate == "PERCENTILE":
            cols, out = db.quantile_buckets(
                database, q.measurement, pct, q.group_by_s, columns=columns, **kw
            )
        else:
            cols, out = db.stddev_buckets(
                database, q.measurement, q.group_by_s, columns=columns, **kw
            )
        if q.limit is not None:
            out = out[: q.limit]
        return ResultSet(columns=cols, rows=out)
    if q.aggregate == "PERCENTILE":
        cols, first_t, aggs = db.quantile_columns(
            database, q.measurement, pct, columns=columns, **kw
        )
    else:
        cols, first_t, aggs = db.stddev_columns(
            database, q.measurement, columns=columns, **kw
        )
    return ResultSet(
        columns=cols, rows=[(first_t if first_t is not None else 0.0, aggs)]
    )


def naive_execute(db, database: str, query: Query | str) -> ResultSet:
    """The seed execute path: materialize scan rows, then fold in Python.

    Kept as the equivalence reference (and benchmark baseline) for the
    pushdown/rollup paths in :func:`execute`.  Works against any engine
    exposing ``scan_columns`` — including :class:`~repro.db.naive.NaiveInfluxDB`.
    """
    q = parse_query(query) if isinstance(query, str) else query
    if q.aggregate in _ANALYTIC:
        _check_analytic(q)
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
            row.append(_agg(q.aggregate, vals, q.agg_arg))
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
        (b, [_agg(q.aggregate, bucket, q.agg_arg) for bucket in buckets[b]])
        for b in sorted(buckets)
    ]
    if q.limit is not None:
        out = out[: q.limit]
    return ResultSet(columns=cols, rows=out)
