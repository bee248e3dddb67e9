"""Naive flat-list reference store for the indexed engine.

This is the seed implementation of :class:`repro.db.influx.InfluxDB`
preserved verbatim in behavior: one ``list[Point]`` per measurement, every
query a full linear scan plus a stable re-sort, byte accounting via a
``to_line()`` round-trip.  It exists for two reasons:

- the hypothesis equivalence suite proves the series-sharded engine returns
  byte-identical results to this reference on randomized workloads;
- ``benchmarks/test_perf_db.py`` measures the indexed engine's speedup
  against it (the ≥5× acceptance bar).

It is *not* part of the production path.
"""

from __future__ import annotations

from collections import defaultdict

from .influx import InfluxError, Point, RetentionPolicy
from .sketch import nearest_rank, stddev_of, value_key

__all__ = ["NaiveInfluxDB", "reference_fold"]


def reference_fold(agg: str, values: list[float], arg: float | None = None) -> float | None:
    """The seed's fold of one aggregate over ``values`` in row order: what
    this store and :func:`~repro.db.influxql.naive_execute` answer with,
    written apart from the engine's aggregate table so that it checks it."""
    if not values:
        return None
    if agg == "MEAN":
        return sum(values) / len(values)
    if agg == "MAX":
        return max(values)
    if agg == "MIN":
        return min(values)
    if agg == "SUM":
        return sum(values)
    if agg == "COUNT":
        return float(len(values))
    if agg == "LAST":
        return values[-1]
    if agg == "PERCENTILE":
        return nearest_rank(values, arg if arg is not None else 50.0)
    if agg == "STDDEV":
        return stddev_of(values)
    if agg == "COUNT_DISTINCT":
        return float(len({value_key(v) for v in values}))
    raise InfluxError(f"unknown aggregate {agg}")


class _NaiveDatabase:
    def __init__(self, name: str) -> None:
        self.name = name
        self.measurements: dict[str, list[Point]] = defaultdict(list)
        self.retention = RetentionPolicy()
        self.points_written = 0
        self.bytes_written = 0


class NaiveInfluxDB:
    """Flat-list store: linear scans everywhere (the pre-engine behavior)."""

    def __init__(self) -> None:
        self._dbs: dict[str, _NaiveDatabase] = {}

    def create_database(self, name: str) -> None:
        if not name:
            raise InfluxError("database name cannot be empty")
        self._dbs.setdefault(name, _NaiveDatabase(name))

    def drop_database(self, name: str) -> None:
        self._dbs.pop(name, None)

    def databases(self) -> list[str]:
        return sorted(self._dbs)

    def _db(self, name: str) -> _NaiveDatabase:
        try:
            return self._dbs[name]
        except KeyError:
            raise InfluxError(f"database {name!r} does not exist") from None

    def set_retention_policy(self, db: str, duration_s: float | None) -> None:
        self._db(db).retention = RetentionPolicy(duration_s=duration_s)

    def write(self, db: str, point: Point) -> None:
        d = self._db(db)
        d.measurements[point.measurement].append(point)
        d.points_written += len(point.fields)
        d.bytes_written += len(point.to_line()) + 1

    def write_many(self, db: str, points: list[Point]) -> int:
        for p in points:
            self.write(db, p)
        return len(points)

    def measurements(self, db: str) -> list[str]:
        return sorted(self._db(db).measurements)

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
        """Full scan with tag-equality and time filters; stable time sort."""
        pts = self._db(db).measurements.get(measurement, [])
        out = []
        for p in pts:
            if tags and any(p.tags.get(k) != v for k, v in tags.items()):
                continue
            if t0 is not None and (p.time <= t0 if t0_exclusive else p.time < t0):
                continue
            if t1 is not None and (p.time >= t1 if t1_exclusive else p.time > t1):
                continue
            out.append(p)
        return sorted(out, key=lambda p: p.time)

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        """Same contract as the indexed engine's scan, via Point scans.

        ``limit`` truncates the materialized rows; column discovery stays
        limit-invariant, matching the indexed engine.
        """
        pts = self.points(
            db, measurement, tags, t0, t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        if columns is None:
            cols = sorted({f for p in pts for f in p.fields})
        else:
            cols = list(columns)
        if limit is not None:
            pts = pts[:limit]
        return cols, [(p.time, [p.fields.get(c) for c in cols]) for p in pts]

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
        """Reference aggregate: fold the materialized scan rows per column."""
        cols, rows = self.scan_columns(
            db, measurement, columns, tags, t0, t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        out = []
        for i in range(len(cols)):
            vals = [r[i] for _, r in rows if r[i] is not None]
            out.append(reference_fold(agg, vals))
        return cols, (rows[0][0] if rows else None), out

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        """Reference GROUP BY time(N): bucket materialized rows in order."""
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        cols, rows = self.scan_columns(
            db, measurement, columns, tags, t0, t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        buckets: dict[float, list[list[float]]] = {}
        for t, vals in rows:
            b = (t // group_by_s) * group_by_s + 0.0
            slot = buckets.setdefault(b, [[] for _ in cols])
            for i, v in enumerate(vals):
                if v is not None:
                    slot[i].append(v)
        return cols, [
            (b, [reference_fold(agg, vs) for vs in buckets[b]])
            for b in sorted(buckets)
        ]

    def enforce_retention(self, db: str, now: float) -> int:
        d = self._db(db)
        if d.retention.duration_s is None:
            return 0
        horizon = now - d.retention.duration_s
        dropped = 0
        for name in list(d.measurements):
            kept = [p for p in d.measurements[name] if p.time >= horizon]
            dropped += len(d.measurements[name]) - len(kept)
            if kept:
                d.measurements[name] = kept
            else:
                del d.measurements[name]
        return dropped

    def stats(self, db: str) -> dict[str, int]:
        d = self._db(db)
        stored = sum(len(v) for v in d.measurements.values())
        return {
            "points_written": d.points_written,
            "bytes_written": d.bytes_written,
            "series_stored": stored,
        }
