"""Storage-engine perf: indexed series-sharded store vs naive flat scan.

Every P-MoVE pillar funnels through ``repro.db.influx`` — the Table III
sampling pipeline, the auto-generated dashboard queries (Listing 3), the
live-CARM panels, anomaly detection, SUPERDB aggregation, and the cluster
monitor.  This benchmark measures what the series sharding + inverted tag
index + bisect time resolution buys on that query shape, at the scale a
monitoring host actually accumulates (1e5 points by default; crank
``PMOVE_BENCH_DB_POINTS`` up to 1e6 for the full sweep).

The run is also a CI gate: tag-filtered time-range queries through the
indexed engine must be at least 5× faster than the naive-scan reference,
and — tiers and sketches at their defaults — it must ingest no slower than
that reference appends to its flat list: a write stores its row, and the
summaries are folded from the rows when a read asks (best of three
alternating loads each, so one slow second does not decide it).
Results land in ``benchmarks/results/BENCH_db.json`` so future PRs have a
perf trajectory to compare against.
"""

from __future__ import annotations

import os
import time

from _helpers import emit_json, latency_stats

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import execute, parse_query
from repro.db.naive import NaiveInfluxDB

N_POINTS = int(float(os.environ.get("PMOVE_BENCH_DB_POINTS", "100000")))
N_SERIES = 200  # distinct observation tags, as a long-lived host accrues
N_FIELDS = 4  # _cpu0.._cpu3
QUERY_ITERS = 30
NAIVE_QUERY_ITERS = 10  # naive scans are slow; keep the run bounded
SPEEDUP_FLOOR = 5.0
INGEST_REPEATS = 3  # loads per engine, alternating; the best one counts

MEASUREMENT = "kernel_percpu_cpu_idle"


def _workload(n: int) -> list[Point]:
    pts = []
    for i in range(n):
        tag = f"obs-{i % N_SERIES:04d}"
        t = float(i // N_SERIES)  # per-series time advances monotonically
        pts.append(
            Point(
                MEASUREMENT,
                {"tag": tag},
                {f"_cpu{c}": float(i + c) for c in range(N_FIELDS)},
                t,
            )
        )
    return pts


def _time_queries(db, query, iters: int) -> list[float]:
    samples = []
    for _ in range(iters):
        start = time.perf_counter()
        rs = execute(db, "pmove", query)
        samples.append(time.perf_counter() - start)
        assert len(rs) > 0
    return samples


def test_db_engine_speedup():
    pts = _workload(N_POINTS)

    def load(engine):
        db = engine()
        db.create_database("pmove")
        t0 = time.perf_counter()
        db.write_many("pmove", pts)
        return db, time.perf_counter() - t0

    ingest_indexed_s = ingest_naive_s = float("inf")
    for _ in range(INGEST_REPEATS):
        indexed, took = load(InfluxDB)
        ingest_indexed_s = min(ingest_indexed_s, took)
        naive, took = load(NaiveInfluxDB)
        ingest_naive_s = min(ingest_naive_s, took)

    # The dominant auto-generated dashboard shape (Listing 3 + a time window).
    span = N_POINTS // N_SERIES
    query = parse_query(
        f'SELECT "_cpu0", "_cpu1" FROM "{MEASUREMENT}" '
        f'WHERE tag="obs-0042" AND time >= {span // 4} AND time <= {3 * span // 4}'
    )
    # Identical results before timing anything.
    assert execute(indexed, "pmove", query).rows == execute(naive, "pmove", query).rows

    lat_indexed = _time_queries(indexed, query, QUERY_ITERS)
    lat_naive = _time_queries(naive, query, NAIVE_QUERY_ITERS)

    agg_query = parse_query(
        f'SELECT MEAN("_cpu0") FROM "{MEASUREMENT}" '
        f'WHERE tag="obs-0042" GROUP BY time(16s)'
    )
    lat_indexed_agg = _time_queries(indexed, agg_query, QUERY_ITERS)
    lat_naive_agg = _time_queries(naive, agg_query, NAIVE_QUERY_ITERS)

    stats_i, stats_n = latency_stats(lat_indexed), latency_stats(lat_naive)
    speedup = stats_n["p50_ms"] / stats_i["p50_ms"]
    agg_speedup = (
        latency_stats(lat_naive_agg)["p50_ms"] / latency_stats(lat_indexed_agg)["p50_ms"]
    )

    payload = {
        "workload": {
            "n_points": N_POINTS,
            "n_series": N_SERIES,
            "n_fields": N_FIELDS,
            "measurement": MEASUREMENT,
        },
        "ingest": {
            "indexed_points_per_s": N_POINTS / ingest_indexed_s,
            "naive_points_per_s": N_POINTS / ingest_naive_s,
            "indexed_s": ingest_indexed_s,
            "naive_s": ingest_naive_s,
            "repeats": INGEST_REPEATS,
        },
        "query_tag_time_window": {
            "indexed": stats_i,
            "naive": stats_n,
            "speedup_p50": speedup,
        },
        "query_groupby_mean": {
            "indexed": latency_stats(lat_indexed_agg),
            "naive": latency_stats(lat_naive_agg),
            "speedup_p50": agg_speedup,
        },
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "ingest_indexed_over_naive": ingest_naive_s / ingest_indexed_s,
            "ingest_floor": 1.0,
            "passed": speedup >= SPEEDUP_FLOOR and ingest_indexed_s <= ingest_naive_s,
        },
    }
    emit_json("BENCH_db.json", payload)

    assert ingest_indexed_s <= ingest_naive_s, (
        f"indexed engine ingests {N_POINTS / ingest_indexed_s:.0f} points/s, "
        f"slower than the naive flat list ({N_POINTS / ingest_naive_s:.0f})"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed engine only {speedup:.1f}x faster than naive scan at "
        f"{N_POINTS} points (floor {SPEEDUP_FLOOR}x)"
    )
