"""Sketch-serving perf: tier t-digests vs the exact columnar scan.

The workload is the paper's worst-case dashboard statement — a high
percentile over a long-lived series, re-bucketed by a rollup-aligned
``GROUP BY time`` — at 1e6 points by default (crank
``PMOVE_BENCH_SKETCH_POINTS``).  Two layers are under test:

- **tier sketches**: ``PERCENTILE(f, 99) ... GROUP BY time(60s)``
  answers from ~N/600 per-bucket t-digests — each built from its bucket's
  rows by the first read that asked, and kept — instead of sorting every
  bucket's raw values;
- **scatter-gather sketch merge**: a 4-shard engine ships serialized
  digest partials and merges them, staying inside the merged rank bound.

Three CI gates: the sketch-served query must beat the exact scan
(``naive_execute``) by ≥10× at p50; every sketch-served bucket must land
within the configured rank-error bound of the exact sorted data; and the
4-shard merged percentile must hold the (looser, 2×) merged bound.
Results land in ``benchmarks/results/BENCH_sketch.json``.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left, bisect_right

from _helpers import emit_json, latency_stats

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import execute, naive_execute
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH

N_POINTS = int(float(os.environ.get("PMOVE_BENCH_SKETCH_POINTS", "1000000")))
TIERS = (10.0, 60.0)
GROUP_BY_S = 60.0
PCT = 99.0
CADENCE_S = 0.1  # 10 Hz sampler -> 600 points per 60s bucket
WRITE_BATCH = 100_000  # bound transient Point-object memory during ingest
SKETCH_ITERS = 9
NAIVE_ITERS = 3
SPEEDUP_FLOOR = 10.0
N_SHARDS = 4
STATEMENT = f'SELECT PERCENTILE("v", {PCT:g}) FROM "m" GROUP BY time({GROUP_BY_S:g}s)'


def rank_error(sorted_vals: list[float], got: float, q: float) -> float:
    """Distance in rank space; 0 when ``got`` sits inside q's value run."""
    n = len(sorted_vals)
    lo = bisect_left(sorted_vals, got) / n
    hi = bisect_right(sorted_vals, got) / n
    return 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))


def _ingest(engine, n: int, tags) -> list[float]:
    """Stream n lognormal points round-robin across ``tags``; returns values."""
    engine.create_database("pmove")
    rnd = random.Random(11)
    vals: list[float] = []
    batch: list[Point] = []
    for i in range(n):
        v = rnd.lognormvariate(1.0, 0.6)
        vals.append(v)
        batch.append(Point("m", {"tag": tags[i % len(tags)]}, {"v": v},
                           i * CADENCE_S))
        if len(batch) >= WRITE_BATCH:
            engine.write_many("pmove", batch)
            batch = []
    if batch:
        engine.write_many("pmove", batch)
    return vals


def test_sketch_served_percentile_speedup():
    db = InfluxDB(rollup_tiers=TIERS)
    # Single series: the planner only serves PERCENTILE from tier digests
    # when the statement resolves to one series (multi-series buckets fall
    # back to the exact scan by design).
    vals = _ingest(db, N_POINTS, tags=("host0",))

    # -- accuracy gate first: every bucket within the rank-error contract.
    rs = execute(db, "pmove", STATEMENT)
    assert db.sketch_plan.get(f"served:{GROUP_BY_S:g}"), dict(db.sketch_plan)
    per_bucket: dict[float, list[float]] = {}
    for i, v in enumerate(vals):
        per_bucket.setdefault((i * CADENCE_S) // GROUP_BY_S * GROUP_BY_S,
                              []).append(v)
    eps = db.sketch.epsilon
    worst = 0.0
    for t, row in rs.rows:
        exact = sorted(per_bucket[t])
        err = rank_error(exact, row[0], PCT / 100.0)
        worst = max(worst, err)
        assert err <= eps + 1.0 / len(exact), (t, err, eps)

    # -- speedup gate: warmed sketch path vs the exact scan.  (The first
    # sketch-served call compresses each tier digest in place; that cost
    # is paid once per ingest epoch, so steady state is what dashboards see.)
    lat_sketch = []
    for _ in range(SKETCH_ITERS):
        start = time.perf_counter()
        execute(db, "pmove", STATEMENT)
        lat_sketch.append(time.perf_counter() - start)
    lat_naive = []
    for _ in range(NAIVE_ITERS):
        start = time.perf_counter()
        naive_execute(db, "pmove", STATEMENT)
        lat_naive.append(time.perf_counter() - start)
    stats_s, stats_n = latency_stats(lat_sketch), latency_stats(lat_naive)
    speedup = stats_n["p50_ms"] / stats_s["p50_ms"]

    # -- 4-shard scatter-gather: merged digests hold the (2x) merged bound.
    n_shard_pts = min(N_POINTS, max(20_000, N_POINTS // 5))
    sharded = ShardedInfluxDB(N_SHARDS, rollup_tiers=TIERS)
    svals = sorted(_ingest(sharded, n_shard_pts,
                           tags=tuple(f"host{k}" for k in range(8))))
    merged_bound = DEFAULT_SKETCH.digest_bound(merged=True)
    shard_rows = {}
    for pct in (50.0, 95.0, 99.0):
        text = f'SELECT PERCENTILE("v", {pct:g}) FROM "m"'
        got = execute(sharded, "pmove", text).rows[0][1][0]
        err = rank_error(svals, got, pct / 100.0)
        shard_rows[f"p{pct:g}"] = {"value": got, "rank_error": err}
        assert err <= merged_bound + 1.0 / n_shard_pts, (pct, err, merged_bound)

    payload = {
        "workload": {
            "n_points": N_POINTS,
            "cadence_s": CADENCE_S,
            "rollup_tiers": list(TIERS),
            "statement": STATEMENT,
            "buckets": len(rs.rows),
            "compression": db.sketch.compression,
        },
        "percentile_group_by": {
            "sketch": stats_s,
            "naive_scan": stats_n,
            "speedup_p50": speedup,
            "worst_rank_error": worst,
            "epsilon": eps,
            "sketch_plan": dict(db.sketch_plan),
        },
        "sharded_merge": {
            "n_shards": N_SHARDS,
            "n_points": n_shard_pts,
            "merged_rank_bound": merged_bound,
            "percentiles": shard_rows,
        },
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "passed": speedup >= SPEEDUP_FLOOR and worst <= eps,
        },
    }
    emit_json("BENCH_sketch.json", payload)

    assert speedup >= SPEEDUP_FLOOR, (
        f"sketch-served PERCENTILE only {speedup:.1f}x faster than the exact "
        f"scan at {N_POINTS} points (floor {SPEEDUP_FLOOR}x)"
    )
