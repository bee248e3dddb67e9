"""Sharded-engine scaling: ingest + scatter-gather throughput vs shard count.

A real deployment runs one shard engine per process (or node) — DCDB
Wintermute's per-domain storage — so shard work proceeds in parallel and
the deployment-level cost of an operation is its *critical path*: the
router's serial routing/merge work plus the slowest shard's share.  Under
one Python process the GIL serializes the shards, so this benchmark
measures the critical path directly from the router's per-shard timing
instrumentation (``ShardedInfluxDB.instrument``):

    modeled = elapsed - sum(per-shard time) + max(per-shard time)

which charges the router everything it truly does serially (sequence
stamping, batching, k-way partial merges) and each shard only the slowest
engine's time.  Scaling therefore reflects the routing + merge overhead
the sharded design actually adds — if the router's serial work swamped
the per-shard savings, the model would show it.

CI gates: modeled ingest *and* scatter-gather query throughput at 4 shards
must be ≥1.5× the 1-shard path, and the 1-shard router must not regress
against the plain engine.  Results land in
``benchmarks/results/BENCH_shard.json``.
"""

from __future__ import annotations

import os
import statistics
import time

from _helpers import emit_json, latency_stats

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import execute, parse_query
from repro.db.sharded import ShardedInfluxDB

N_POINTS = int(float(os.environ.get("PMOVE_BENCH_SHARD_POINTS", "60000")))
N_SERIES = 120
N_FIELDS = 2
SHARD_COUNTS = (1, 2, 4, 8)
BATCH = 2000
QUERY_ITERS = 20
SCALING_FLOOR = 1.5  # modeled speedup at 4 shards vs the 1-shard path
REGRESSION_CEIL = 1.5  # 1-shard router may cost at most 1.5x plain engine

MEASUREMENT = "kernel_percpu_cpu_idle"


def _workload(n: int) -> list[Point]:
    pts = []
    for i in range(n):
        tag = f"obs-{i % N_SERIES:04d}"
        t = float(i // N_SERIES)
        pts.append(
            Point(
                MEASUREMENT,
                {"tag": tag},
                {f"_cpu{c}": float((i + c) % 997) for c in range(N_FIELDS)},
                t,
            )
        )
    return pts


def _modeled(elapsed: float, shard_s: dict[str, float]) -> float:
    times = list(shard_s.values())
    serial = elapsed - sum(times)
    return serial + (max(times) if times else 0.0)


def _ingest(db, pts) -> dict[str, float]:
    """Batched ingest; returns wall and modeled-parallel seconds."""
    wall = modeled = 0.0
    instrumented = isinstance(db, ShardedInfluxDB)
    if instrumented:
        db.instrument = True
    for i in range(0, len(pts), BATCH):
        batch = pts[i:i + BATCH]
        t0 = time.perf_counter()
        db.write_many("pmove", batch)
        elapsed = time.perf_counter() - t0
        wall += elapsed
        modeled += (
            _modeled(elapsed, db.last_timings["shard_s"])
            if instrumented
            else elapsed
        )
    return {"wall_s": wall, "modeled_s": modeled}


def _time_query(db, query) -> dict[str, float]:
    """p50 wall and modeled-parallel latency for one statement."""
    wall, modeled = [], []
    instrumented = isinstance(db, ShardedInfluxDB)
    for _ in range(QUERY_ITERS):
        t0 = time.perf_counter()
        rs = execute(db, "pmove", query)
        elapsed = time.perf_counter() - t0
        assert len(rs) > 0
        wall.append(elapsed)
        modeled.append(
            _modeled(elapsed, db.last_timings["shard_s"])
            if instrumented
            else elapsed
        )
    return {
        "wall": latency_stats(wall),
        "modeled_p50_ms": 1e3 * statistics.median(sorted(modeled)),
    }


def test_shard_scaling():
    pts = _workload(N_POINTS)
    span = N_POINTS // N_SERIES
    # Scatter-gather shape: every shard contributes bucket partials that
    # merge associatively at the router (COUNT / MAX).
    fanout_queries = {
        "count_buckets": parse_query(
            f'SELECT COUNT("_cpu0") FROM "{MEASUREMENT}" GROUP BY time(16s)'
        ),
        "max_window": parse_query(
            f'SELECT MAX("_cpu0") FROM "{MEASUREMENT}" '
            f"WHERE time >= {span // 4} AND time <= {3 * span // 4}"
        ),
    }
    # The dominant dashboard shape: one series, one shard, delegated whole.
    single_series = parse_query(
        f'SELECT "_cpu0" FROM "{MEASUREMENT}" WHERE tag="obs-0042" '
        f"AND time >= {span // 4} AND time <= {3 * span // 4}"
    )

    plain = InfluxDB()
    plain.create_database("pmove")
    plain_ingest = _ingest(plain, pts)
    plain_queries = {n: _time_query(plain, q) for n, q in fanout_queries.items()}
    plain_single = _time_query(plain, single_series)
    reference = {
        n: execute(plain, "pmove", q).rows for n, q in fanout_queries.items()
    }

    by_shards: dict[str, dict] = {}
    for n in SHARD_COUNTS:
        db = ShardedInfluxDB(n)
        db.create_database("pmove")
        ingest = _ingest(db, pts)
        # Identical bytes before any timing claims.
        for qname, q in fanout_queries.items():
            assert repr(execute(db, "pmove", q).rows) == repr(reference[qname])
        queries = {qn: _time_query(db, q) for qn, q in fanout_queries.items()}
        by_shards[str(n)] = {
            "ingest": {
                **ingest,
                "modeled_points_per_s": N_POINTS / ingest["modeled_s"],
            },
            "queries": queries,
            "query_modeled_p50_ms": statistics.fmean(
                q["modeled_p50_ms"] for q in queries.values()
            ),
            "single_series": _time_query(db, single_series),
        }

    one, four = by_shards["1"], by_shards["4"]
    ingest_scaling = (
        four["ingest"]["modeled_points_per_s"]
        / one["ingest"]["modeled_points_per_s"]
    )
    query_scaling = one["query_modeled_p50_ms"] / four["query_modeled_p50_ms"]
    one_shard_ingest_ratio = one["ingest"]["wall_s"] / plain_ingest["wall_s"]
    one_shard_query_ratio = (
        one["single_series"]["wall"]["p50_ms"] / plain_single["wall"]["p50_ms"]
    )

    payload = {
        "workload": {
            "n_points": N_POINTS,
            "n_series": N_SERIES,
            "n_fields": N_FIELDS,
            "measurement": MEASUREMENT,
            "model": "critical_path = serial router time + max(shard time)",
        },
        "plain_engine": {
            "ingest": plain_ingest,
            "queries": {n: q["wall"] for n, q in plain_queries.items()},
        },
        "by_shards": by_shards,
        "scaling": {
            "ingest_modeled_4x_vs_1x": ingest_scaling,
            "query_modeled_4x_vs_1x": query_scaling,
            "one_shard_ingest_wall_vs_plain": one_shard_ingest_ratio,
            "one_shard_single_series_p50_vs_plain": one_shard_query_ratio,
        },
        "gate": {
            "scaling_floor": SCALING_FLOOR,
            "regression_ceil": REGRESSION_CEIL,
            "passed": (
                ingest_scaling >= SCALING_FLOOR
                and query_scaling >= SCALING_FLOOR
                and one_shard_query_ratio <= REGRESSION_CEIL
            ),
        },
    }
    emit_json("BENCH_shard.json", payload)

    assert ingest_scaling >= SCALING_FLOOR, (
        f"modeled ingest throughput only {ingest_scaling:.2f}x at 4 shards "
        f"(floor {SCALING_FLOOR}x): router serial overhead dominates"
    )
    assert query_scaling >= SCALING_FLOOR, (
        f"modeled scatter-gather latency only {query_scaling:.2f}x better "
        f"at 4 shards (floor {SCALING_FLOOR}x)"
    )
    assert one_shard_query_ratio <= REGRESSION_CEIL, (
        f"1-shard router single-series p50 is {one_shard_query_ratio:.2f}x "
        f"the plain engine (ceil {REGRESSION_CEIL}x)"
    )
