"""Timeline engine perf: indexed prefix-sum reads vs naive flat scan.

Every observable in the reproduction — PMU counter reads, PCP sampler
ticks, live-CARM dots, activity-derived software telemetry — bottoms out
in ``Timeline.integrate``.  The naive reference pays an O(n) ``list.insert``
per deposited segment and an O(n) scan per query, so a long monitoring
session is quadratic in simulated history; the indexed engine stages
deposits O(1) and answers queries with two bisects on a compacted
prefix-sum layout.  This benchmark measures that gap on a long-session
shape: one hot series accumulating ``PMOVE_BENCH_TL_SEGMENTS`` segments
(1e5 by default) plus a populated neighbourhood of cooler series, queried
with sliding sampler windows near the end of history — exactly where a
live dashboard reads.

The run is also a CI gate, twice: sliding-window integration through the
indexed engine must be at least 5× faster than the naive scan, and one
``integrate_batch`` over 64 pairs must beat 64 scalar ``integrate`` calls by
``BATCH_FLOOR`` — the batched read is what a sampler tick is made of (PMU
events × cpus, and since PR 20 every /proc counter), and for five PRs it
bought 1.04× (ROADMAP item 3: "make the batched read pay or delete it").
The scalar call is a batch of one since PR 20, so the ratio is what a tick
saves by sharing the call, the validation and the result list; both sides'
absolute times are recorded beside it, so a ratio bought by a slower scalar
read shows.  A third gate runs a sampler's own shape on one series —
``TICKS`` rounds of write-one-tick-then-read-it — and bounds the last
``TICK_BLOCK`` ticks at ``TICK_GROWTH_CEILING`` × the first: a merge that
appends what it staged costs the tick, one that re-sweeps the history grows
with it.  Results land in ``benchmarks/results/BENCH_timeline.json`` so
future PRs have a perf trajectory to compare against.
"""

from __future__ import annotations

import os
import random
import time

from _helpers import emit_json, latency_stats, run_metadata

from repro.machine import NaiveTimeline, Timeline

N_SEGMENTS = int(float(os.environ.get("PMOVE_BENCH_TL_SEGMENTS", "100000")))
N_COOL_CPUS = 7  # cooler per-cpu series alongside the hot one
COOL_SEGMENTS = 2_000
QUERY_ITERS = 2_000
NAIVE_QUERY_ITERS = 100  # naive scans are slow; keep the run bounded
BATCH_PAIRS = 64
BATCH_REPEATS = 3
SPEEDUP_FLOOR = 5.0
#: batch ÷ scalar loop at 64 pairs, least disturbed of BATCH_REPEATS
#: alternating repeats: half-way between 1.0 and what PR 20 measured (≈ 1.5
#: on both rows, 1.37–1.90 over fourteen runs; 0.76–1.12 and 0.99–1.03 at its
#: parent under this file).
BATCH_FLOOR = {"sampler_window": 1.25, "since_boot_window": 1.25}
TICKS = 5_000
TICK_BLOCK = 1_000
TICK_REPEATS = 3
#: last TICK_BLOCK ticks ÷ first TICK_BLOCK ticks, least disturbed of
#: TICK_REPEATS: flat would be 1.0; a merge that re-sweeps every breakpoint
#: makes the last block ≈ TICKS / TICK_BLOCK times dearer than the first.
TICK_GROWTH_CEILING = 1.5
SEED = 20240806

HOT = (("cpu", 0), "cycles")


def _deposit(tl, rng: random.Random) -> None:
    """A long monitoring session: near-monotone deposits with overlap."""
    dt = 0.01
    for i in range(N_SEGMENTS):
        t0 = i * dt + rng.uniform(-0.002, 0.002)
        dur = rng.uniform(0.5, 3.0) * dt
        tl.add_rate(HOT[0], HOT[1], max(0.0, t0), max(0.0, t0) + dur,
                    1e9 * rng.uniform(0.5, 1.5))
    for cpu in range(1, N_COOL_CPUS + 1):
        for i in range(COOL_SEGMENTS):
            t0 = i * (N_SEGMENTS * dt / COOL_SEGMENTS)
            tl.add_rate(("cpu", cpu), "cycles", t0, t0 + dt, 2e6)


def _windows(rng: random.Random) -> list[tuple[float, float]]:
    """Sliding sampler windows biased to recent history (dashboard reads)."""
    horizon = N_SEGMENTS * 0.01
    out = []
    for k in range(max(QUERY_ITERS, NAIVE_QUERY_ITERS)):
        w = rng.choice((0.125, 0.5, 2.0))  # 8 Hz, 2 Hz, slow panels
        t1 = horizon * (0.5 + 0.5 * ((k % 97) / 97.0))
        out.append((max(0.0, t1 - w), t1))
    return out


def _time_queries(tl, windows, iters: int) -> list[float]:
    samples = []
    total = 0.0
    for t0, t1 in windows[:iters]:
        start = time.perf_counter()
        total += tl.integrate(HOT[0], HOT[1], t0, t1)
        samples.append(time.perf_counter() - start)
    assert total > 0.0
    return samples


def _batch_vs_scalar(tl, pairs, w0: float, w1: float) -> dict:
    """One ``integrate_batch`` against the scalar loop it replaces: batches
    then scalars, BATCH_REPEATS times alternating, least disturbed of each."""
    assert tl.integrate_batch(pairs, w0, w1) == [
        tl.integrate(scope, q, w0, w1) for scope, q in pairs]  # also the warm-up
    batch_s = scalar_s = float("inf")
    for _ in range(BATCH_REPEATS):
        t0 = time.perf_counter()
        for _ in range(200):
            tl.integrate_batch(pairs, w0, w1)
        batch_s = min(batch_s, (time.perf_counter() - t0) / 200)
        t0 = time.perf_counter()
        for _ in range(200):
            for scope, q in pairs:
                tl.integrate(scope, q, w0, w1)
        scalar_s = min(scalar_s, (time.perf_counter() - t0) / 200)
    return {
        "pairs": len(pairs),
        "window_s": [w0, w1],
        "batch_ms": 1e3 * batch_s,
        "scalar_loop_ms": 1e3 * scalar_s,
        "batch_vs_scalar": scalar_s / batch_s,
    }


def _tick_by_tick() -> dict:
    """A sampler on one series: each tick deposits its window's segment
    (rates vary, so every tick adds a breakpoint) and reads the window back,
    which merges what the tick staged.  Returns the first and last
    ``TICK_BLOCK`` ticks' wall time, least disturbed of ``TICK_REPEATS``."""
    dt = 1 / 32
    first_s = last_s = float("inf")
    for _ in range(TICK_REPEATS):
        tl = Timeline()
        stamps = [time.perf_counter()]
        for k in range(TICKS):
            t0, t1 = k * dt, (k + 1) * dt
            tl.add_rate(HOT[0], HOT[1], t0, t1, 1e9 + (k % 7) * 1e6)
            tl.integrate(HOT[0], HOT[1], t0, t1)
            stamps.append(time.perf_counter())
        first_s = min(first_s, stamps[TICK_BLOCK] - stamps[0])
        last_s = min(last_s, stamps[TICKS] - stamps[TICKS - TICK_BLOCK])
    return {
        "ticks": TICKS,
        "block": TICK_BLOCK,
        "first_block_ms": 1e3 * first_s,
        "last_block_ms": 1e3 * last_s,
        "last_over_first": last_s / first_s,
    }


def test_timeline_engine_speedup():
    rng = random.Random(SEED)
    windows = _windows(rng)

    indexed, naive = Timeline(), NaiveTimeline()

    t0 = time.perf_counter()
    _deposit(indexed, random.Random(7))
    ingest_indexed_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    _deposit(naive, random.Random(7))
    ingest_naive_s = time.perf_counter() - t0

    # Identical answers before timing anything (1e-9-relative, per the
    # equivalence contract; magnitudes here are ~1e9 * seconds).
    for w0, w1 in windows[:20]:
        a = indexed.integrate(HOT[0], HOT[1], w0, w1)
        b = naive.integrate(HOT[0], HOT[1], w0, w1)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    # First indexed read above already paid the one-off staging merge;
    # measure the steady state both engines run in.
    lat_indexed = _time_queries(indexed, windows, QUERY_ITERS)
    lat_naive = _time_queries(naive, windows, NAIVE_QUERY_ITERS)

    # The sampler-tick shape: many (scope, quantity) pairs, one window —
    # a PMU tick's short window, and a /proc snapshot's since-boot window
    # (every pair spans many intervals: the prefix-sum path).
    pairs = [(("cpu", c % (N_COOL_CPUS + 1)), "cycles") for c in range(BATCH_PAIRS)]
    batched = {
        "sampler_window": _batch_vs_scalar(indexed, pairs, *windows[0]),
        "since_boot_window": _batch_vs_scalar(indexed, pairs, 0.0, windows[0][1]),
    }

    ticks = _tick_by_tick()

    stats_i, stats_n = latency_stats(lat_indexed), latency_stats(lat_naive)
    speedup = stats_n["p50_ms"] / stats_i["p50_ms"]

    payload = {
        "workload": {
            "hot_segments": N_SEGMENTS,
            "cool_series": N_COOL_CPUS,
            "cool_segments_each": COOL_SEGMENTS,
            "window_widths_s": [0.125, 0.5, 2.0],
        },
        "ingest": {
            "indexed_segments_per_s": N_SEGMENTS / ingest_indexed_s,
            "naive_segments_per_s": N_SEGMENTS / ingest_naive_s,
            "indexed_s": ingest_indexed_s,
            "naive_s": ingest_naive_s,
        },
        "query_sliding_window": {
            "indexed": stats_i,
            "naive": stats_n,
            "speedup_p50": speedup,
        },
        "batched_read": batched,
        "tick_by_tick": ticks,
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "batch_floor": BATCH_FLOOR,
            "tick_growth_ceiling": TICK_GROWTH_CEILING,
            "passed": speedup >= SPEEDUP_FLOOR and all(
                batched[row]["batch_vs_scalar"] >= floor
                for row, floor in BATCH_FLOOR.items())
            and ticks["last_over_first"] <= TICK_GROWTH_CEILING,
        },
        "run": run_metadata(N_SEGMENTS, SEED),
    }
    emit_json("BENCH_timeline.json", payload)

    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed timeline only {speedup:.1f}x faster than naive scan at "
        f"{N_SEGMENTS} segments (floor {SPEEDUP_FLOOR}x)"
    )
    for row, floor in BATCH_FLOOR.items():
        assert batched[row]["batch_vs_scalar"] >= floor, (row, batched[row], floor)
    assert ticks["last_over_first"] <= TICK_GROWTH_CEILING, ticks
