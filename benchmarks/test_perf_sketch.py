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

``hll_small_set`` is the HyperLogLog's two states beside the one-state
class the tests keep as their oracle (``DenseHLL``): what a nine-value HLL
weighs on the wire, as JSON and as its ``to_bytes`` value (each gated: at
most a twentieth of the dense form), what building, serialising and
300-way merging such HLLs costs, and what an
``add_hash`` costs once promoted (timings recorded with both absolutes, not
gated: ``serve_read_heavy`` in ``benchmarks/e2e`` is where a promoted HLL
paying for the sparse state would show).  Beside the per-value ``add``
loop it times the bulk ``add_many`` build of the same nine values — what a
SUPERDB sync pays per field — gated only on building the same registers.
Results land in ``benchmarks/results/BENCH_sketch.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from _helpers import emit_json, latency_stats

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import execute, naive_execute
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH, HyperLogLog

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
HLL_SMALL_VALUES = 9  # the median field of a profiling observation
HLL_MERGE_WAYS = 300
HLL_DENSE_VALUES = 100_000
HLL_PAYLOAD_RATIO_CEILING = 1.0 / 20.0
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


def _dense_oracle():
    """``DenseHLL`` — the one-state class — from where the tests keep it."""
    path = Path(__file__).resolve().parents[1] / "tests" / "db" / "test_sketch.py"
    spec = importlib.util.spec_from_file_location("_sketch_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DenseHLL


def _best_us(fn, repeats: int, per: int = 1) -> float:
    """Fastest of ``repeats`` timings of ``fn()``, in µs per ``per`` units."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6 / per


def _promoted(p: int) -> HyperLogLog:
    """A HyperLogLog past its sparse limit: held, and shipped, dense."""
    h = HyperLogLog(p)
    h.add_many(float(k) for k in range(p << 8))
    assert "registers" in h.to_dict()
    return h


def hll_small_set() -> dict:
    """Both HLL states against the dense-only oracle (module docstring)."""
    dense_cls = _dense_oracle()
    p = DEFAULT_SKETCH.hll_p
    values = [1.5 * k for k in range(HLL_SMALL_VALUES)]

    def built(cls, vals):
        h = cls(p)
        for v in vals:
            h.add(v)
        return h

    def bulk(vals):
        h = HyperLogLog(p)
        h.add_many(vals)
        return h

    rnd = random.Random(5)
    hashes = [rnd.getrandbits(64) for _ in range(HLL_DENSE_VALUES)]
    out: dict = {"values": HLL_SMALL_VALUES, "p": p}
    for name, cls in (("sparse", HyperLogLog), ("dense_oracle", dense_cls)):
        small = [built(cls, [float(HLL_SMALL_VALUES * i + k)
                             for k in range(HLL_SMALL_VALUES)])
                 for i in range(HLL_MERGE_WAYS)]

        def fill(cls=cls):
            h = cls(p)
            for x in hashes:
                h.add_hash(x)

        out[name] = {
            "payload_json_bytes": len(json.dumps(built(cls, values).to_dict())),
            "build_serialise_us": _best_us(
                lambda cls=cls: built(cls, values).to_dict(), repeats=200),
            f"merged_{HLL_MERGE_WAYS}_way_us": _best_us(
                lambda cls=cls, small=small: cls.merged(small), repeats=5),
            "merged_count": cls.merged(small).count(),
            "dense_regime_add_hash_us_per_value": _best_us(
                fill, repeats=3, per=HLL_DENSE_VALUES),
        }
    assert out["sparse"]["merged_count"] == out["dense_oracle"]["merged_count"]
    # The to_bytes form, what SUPERDB stores; the oracle has none, so a
    # promoted HyperLogLog's stands for the dense form.
    out["sparse"]["payload_bytes"] = len(built(HyperLogLog, values).to_bytes())
    out["dense_oracle"]["payload_bytes"] = len(_promoted(p).to_bytes())
    out["sparse"]["bulk_build_serialise_us"] = _best_us(
        lambda: bulk(values).to_dict(), repeats=200)
    out["bulk_registers_equal"] = (
        bulk(values).to_dict() == built(HyperLogLog, values).to_dict()
        and bulk(values).registers == built(dense_cls, values).registers)
    out["payload_ratio"] = (out["sparse"]["payload_json_bytes"]
                            / out["dense_oracle"]["payload_json_bytes"])
    out["payload_bytes_ratio"] = (out["sparse"]["payload_bytes"]
                                  / out["dense_oracle"]["payload_bytes"])
    out["gate"] = {"payload_ratio_ceiling": HLL_PAYLOAD_RATIO_CEILING,
                   "passed": out["payload_ratio"] <= HLL_PAYLOAD_RATIO_CEILING
                   and out["payload_bytes_ratio"] <= HLL_PAYLOAD_RATIO_CEILING
                   and out["bulk_registers_equal"]}
    return out


def test_hll_small_set_payload():
    """The gate alone, in milliseconds; the 1e6-point test below records it."""
    block = hll_small_set()
    assert block["gate"]["passed"], block


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

    hll_block = hll_small_set()
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
        "hll_small_set": hll_block,
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "passed": speedup >= SPEEDUP_FLOOR and worst <= eps,
        },
    }
    emit_json("BENCH_sketch.json", payload)

    assert hll_block["gate"]["passed"], hll_block
    assert speedup >= SPEEDUP_FLOOR, (
        f"sketch-served PERCENTILE only {speedup:.1f}x faster than the exact "
        f"scan at {N_POINTS} points (floor {SPEEDUP_FLOOR}x)"
    )
