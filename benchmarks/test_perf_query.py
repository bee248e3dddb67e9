"""Query-serving perf: pushdown + rollups + result cache vs the seed path.

The workload is the one P-MoVE actually serves — auto-generated Grafana
dashboards re-issuing the same Listing-3 statements on every panel refresh
over a long-lived host's series (1e5 points by default; crank
``PMOVE_BENCH_QUERY_POINTS``).  Three layers are under test:

- **aggregation pushdown**: ``execute`` folds aggregates/buckets straight
  over the column arrays instead of materializing row tuples;
- **rollup tiers**: tier-aligned GROUP BY queries read ~N/60 buckets —
  folded from the rows when the first such read asked, and kept — instead
  of N raw rows;
- **the freshness-stamped result cache**: an unchanged panel refresh is a
  dict hit in ``GrafanaServer`` — and so is a refresh of a window that ended
  before the samples written since.

- **columnar raw selects**: a cache *miss* on a raw window reads
  ``(times, values)`` off column slices and, when the window slides, parses
  nothing — against a seed that parses the statement, builds one
  ``(time, [value])`` tuple per row and unzips them again.

Three CI gates: the repeated dashboard-refresh workload must beat the seed
(naive execute, no cache) by ≥5× at p50; a *cold* GROUP BY — cache miss AND
rollup miss — must be no slower than the seed path; a cold raw window,
statement → ``(times, values)``, must beat the row-building seed by ≥3×.
One count gate, no timing: a dashboard of closed windows refreshed N times
with an in-order write before each refresh computes every target once and
serves it N − 1 times, and one out-of-order write among them costs exactly
one more computation per target.

- **grouped sliding windows**: one 1 Hz series, a sample appended before
  every refresh, three live ``GROUP BY time`` panels whose windows end at
  the newest sample — ``MEAN … time(60s)`` and ``PERCENTILE(…, 95) …
  time(60s)`` over the last hour (a tier window is a slice; a sealed
  bucket's percentile is worked out once) and ``MEAN … time(7s)`` over the
  last ten minutes (the raw walk steps by bucket edge).  Each is gated on
  its ratio to ``naive_execute`` — floors at half of what this was measured
  at when the case was added — and on a count: refreshing a window that
  did not move asks no digest for a quantile.
- **live-edge sliding window**: one raw panel over the last 600 rows of a
  1 Hz series, its window ending at the newest sample, ten rows appended
  before every refresh.  Gated on a count, not a time: the engine returns
  only the rows at or above the frontier the target's held answer was
  computed at (the ten new ones and the one that was newest), and the
  answer is a cache-cold server's; µs per refresh is recorded beside the
  cold server's.
- **multi-series ``SELECT * … LIMIT``**: the first ``LIMIT`` rows of twenty
  interleaved series, against scanning them all and cutting.

Results land in ``benchmarks/results/BENCH_query.json``.
"""

from __future__ import annotations

import os
import random
import time

from _helpers import emit_json, latency_stats, run_metadata

from repro.db import influxql
from repro.db.influx import InfluxDB, Point
from repro.db.sketch import TDigest
from repro.db.influxql import execute, naive_execute, parse_query
from repro.viz.dashboard import Panel, Target
from repro.viz.grafana import GrafanaServer

N_POINTS = int(float(os.environ.get("PMOVE_BENCH_QUERY_POINTS", "100000")))
N_SERIES = 20  # distinct observation tags sharing the measurement
N_FIELDS = 2
N_PANELS = 12  # dashboard width: panels re-queried on every refresh
REFRESH_ITERS = 15
NAIVE_REFRESH_ITERS = 6  # seed-path refreshes are slow; keep the run bounded
COLD_ITERS = 20
SLIDING_ITERS = 200
APPEND_REFRESHES = 20
SPEEDUP_FLOOR = 5.0
COLD_FLOOR = 0.9  # cold path must not regress vs seed (0.9 absorbs jitter)
RAW_FLOOR = 3.0  # columnar raw window vs one Python tuple per row
SEED = 0  # draws the sliding case's steps; the data itself is a formula
GROUPED_PRELOAD_S = 7200  # the grouped case's one series: two hours at 1 Hz
GROUPED_REFRESHES = 60
#: speedup over ``naive_execute`` each grouped panel must keep: half of what
#: it measured when the case was added (eight runs: medians 30.4 / 27.6 /
#: 4.5, ranges 25.8–35.4 / 24.1–30.9 / 3.9–4.8; the parent of that change
#: read 16–18 / 6.0–6.2 / 2.5–2.6 and asked 60 quantiles where 0 are allowed)
GROUPED_FLOORS = {"mean_60s_1h": 15.0, "p95_60s_1h": 14.0, "mean_7s_10min": 2.2}
LIVE_EDGE_ROWS, LIVE_EDGE_APPENDED, LIVE_EDGE_REFRESHES = 600, 10, 100
LIMIT_ROWS = 100
#: SELECT * … LIMIT against scan-all-then-cut, whose cost grows with the
#: points scanned: half of the 290 × measured at 1e5 points (220–490 over
#: eight runs), scaled to the session's size
LIMIT_FLOOR = 145.0 * N_POINTS / 1e5

MEASUREMENT = "kernel_percpu_cpu_idle"


def _workload(n: int) -> list[Point]:
    pts = []
    for i in range(n):
        tag = f"obs-{i % N_SERIES:04d}"
        t = float(i // N_SERIES)  # 1s cadence per series
        pts.append(
            Point(
                MEASUREMENT,
                {"tag": tag},
                {f"_cpu{c}": float(i + c) for c in range(N_FIELDS)},
                t,
            )
        )
    return pts


def _dashboard_panels(span: float) -> tuple[list[Panel], float, float]:
    """A refresh workload: raw windowed panels + rollup-aligned coarse ones."""
    t0, t1 = span * 0.25, span * 0.75
    panels = []
    for k in range(N_PANELS):
        tag = f"obs-{k % N_SERIES:04d}"
        if k % 2 == 0:
            target = Target(MEASUREMENT, f"_cpu{k % N_FIELDS}", tag=tag)
        else:
            target = Target(
                MEASUREMENT, f"_cpu{k % N_FIELDS}", tag=tag,
                agg="MEAN", group_by_s=60.0,
            )
        panels.append(Panel(id=k + 1, title=f"panel {k}", targets=[target]))
    return panels, t0, t1


def _seed_series(influx, statement):
    """The seed's raw-select read, statement → (times, values): parse the
    text, build one ``(time, [value, …])`` tuple per row in Python (what
    ``scan_columns`` returned before it returned columns), then walk the
    rows again to unzip the first column."""
    q = parse_query(statement) if isinstance(statement, str) else statement
    _, scanned = influx.scan_columns(
        "pmove", q.measurement, columns=list(q.columns), tags=dict(q.tag_filters),
        t0=q.t0, t1=q.t1, t0_exclusive=q.t0_exclusive,
        t1_exclusive=q.t1_exclusive, limit=q.limit,
    )
    ts, sel = scanned.times, scanned.cols
    rows = [
        (ts[i], [c[i] if c is not None else None for c in sel])
        for i in range(len(ts))
    ]
    times, values = [], []
    for t, row in rows:
        if row[0] is not None:
            times.append(t)
            values.append(row[0])
    return times, values


def _naive_refresh(influx, panels, t0, t1):
    """The seed read path: every target re-executed — raw selects through
    the row-building loop, the rest via naive row folds — no cache
    anywhere."""
    out = {}
    for panel in panels:
        for target in panel.targets:
            stmt = GrafanaServer.target_statement(target, t0, t1)
            if target.agg:
                times, values = naive_execute(influx, "pmove", stmt).series()
            else:
                times, values = _seed_series(influx, stmt)
            label = target.alias or f"{target.measurement}{target.params}"[-40:]
            out[label] = (times, values)
    return out


def _timed(fn, iters):
    lat = []
    for _ in range(iters):
        start = time.perf_counter()
        fn()
        lat.append(time.perf_counter() - start)
    return latency_stats(lat)


def _sliding_window(influx, span):
    """A live panel: the window's bounds move on every call, so the
    statement text never repeats and the result cache never hits.  Reports
    µs per statement and parser-LRU misses over the timed calls."""
    rng = random.Random(SEED)
    target = Target(MEASUREMENT, "_cpu0", tag="obs-0007")
    width = span * 0.1
    starts, t = [], span * 0.2
    for _ in range(SLIDING_ITERS):
        t += rng.uniform(0.5, 1.5)
        starts.append(t)
    server = GrafanaServer(influx)

    def run(one):
        one(starts[0] - 1.0)  # the template's own parse is not a per-refresh cost
        misses = influxql._parse_query_cached.cache_info().misses
        lat = []
        for t0 in starts:
            begin = time.perf_counter()
            one(t0)
            lat.append(time.perf_counter() - begin)
        stats = latency_stats(lat)
        return {
            "us_per_statement": 1e3 * stats["p50_ms"],
            "latency": stats,
            "parse_cache_misses":
                influxql._parse_query_cached.cache_info().misses - misses,
        }

    def columnar(t0):
        return server.execute_target(target, t0, t0 + width)[:2]

    def seed(t0):
        return _seed_series(
            influx, GrafanaServer.target_statement(target, t0, t0 + width))

    assert columnar(starts[3] + 0.25) == seed(starts[3] + 0.25)
    out = {"columnar": run(columnar), "seed": run(seed)}
    out["speedup_p50"] = (
        out["seed"]["us_per_statement"] / out["columnar"]["us_per_statement"])
    out["points_per_window"] = len(seed(starts[0])[0])
    assert server.cache_hits == 0
    return out


def _live_edge_sliding_window():
    """One live raw panel: the last ``LIVE_EDGE_ROWS`` rows of a 1 Hz
    series, ``LIVE_EDGE_APPENDED`` rows written before each refresh.  Rows
    the engine returned to each warm refresh, the rows at or above the
    frontier its held answer was computed at, and µs per refresh of the
    warm server and of a cache-cold one.

    A second series under the same tag holds one row of another field, at
    t = 0: the warm server's first read merges two series, so it holds its
    answer (one series' window is read again, not held), and every slid
    window after it is one series' rows, which the deltas read."""
    influx = InfluxDB()
    influx.create_database("pmove")
    target = Target("live", "_v", tag="s0")
    influx.write("pmove", Point("live", {"tag": "s0", "k": "u"}, {"_u": 0.0}, 0.0))

    def append(first, n):
        influx.write_many("pmove", [
            Point("live", {"tag": "s0"}, {"_v": float(t % 89)}, float(t))
            for t in range(first, first + n)])

    append(0, LIVE_EDGE_ROWS)
    warm = GrafanaServer(influx)
    returned = []
    scan = influx.scan_columns

    def counted(*args, **kw):
        cols, rows = scan(*args, **kw)
        returned.append(len(rows))
        return cols, rows

    lat = {"held": [], "cold": []}
    rows_read, rows_expected = [], []
    warm.execute_target(target, 0.0, LIVE_EDGE_ROWS - 1.0)
    influx.scan_columns = counted  # both sides pay for the count
    for k in range(LIVE_EDGE_REFRESHES):
        held_frontier = influx.freshness("pmove", "live")[2]
        newest = LIVE_EDGE_ROWS + (k + 1) * LIVE_EDGE_APPENDED - 1
        append(newest + 1 - LIVE_EDGE_APPENDED, LIVE_EDGE_APPENDED)
        window = (float(newest + 1 - LIVE_EDGE_ROWS), float(newest))
        answers = {}
        for side, server in (("held", warm), ("cold", GrafanaServer(influx))):
            begin = time.perf_counter()
            answers[side] = server.execute_target(target, *window)
            lat[side].append(time.perf_counter() - begin)
        assert answers["held"] == answers["cold"]
        assert len(answers["held"][0]) == LIVE_EDGE_ROWS
        rows_expected.append(int(newest - held_frontier) + 1)
        rows_read.append(returned[-2])
        assert returned[-1] == LIVE_EDGE_ROWS and len(returned) == 2 * (k + 1)
    stats = {side: latency_stats(samples) for side, samples in lat.items()}
    return {
        **stats,
        "us_per_refresh": 1e3 * stats["held"]["p50_ms"],
        "us_per_cold_refresh": 1e3 * stats["cold"]["p50_ms"],
        "speedup_p50": stats["cold"]["p50_ms"] / stats["held"]["p50_ms"],
        "rows_per_window": LIVE_EDGE_ROWS,
        "rows_read_per_refresh": sorted(set(rows_read)),
        "rows_at_or_above_held_frontier": sorted(set(rows_expected)),
        "rows_read_equal_expected": rows_read == rows_expected,
        "delta_serves": warm.delta_serves,
        "refreshes": LIVE_EDGE_REFRESHES,
    }


def _closed_windows_under_appends(influx, panels, t0, t1, late_at=None):
    """``APPEND_REFRESHES`` refreshes of a dashboard whose windows ended
    before the newest sample, one write landing before each: in order, but
    for the one before refresh ``late_at``, which lands inside the windows.
    Counts only — what was computed and what was served."""
    server = GrafanaServer(influx)
    newest = influx.freshness("pmove", MEASUREMENT)[2]
    assert t1 < newest
    for k in range(APPEND_REFRESHES):
        when = (t0 + t1) / 2 if k == late_at else newest + k
        influx.write("pmove", Point(MEASUREMENT, {"tag": "obs-0000"},
                                    {"_cpu0": float(k)}, when))
        for panel in panels:
            server.execute_panel(panel, t0=t0, t1=t1)
    return {"hits": server.cache_hits, "misses": server.cache_misses}


def _grouped_sliding_window():
    """Three live grouped panels over one 1 Hz series, a sample appended
    before every refresh.  µs per statement for ``execute`` and for
    ``naive_execute``, their ratio, and the quantiles asked of digests by
    the second refresh of a window that did not move."""
    influx = InfluxDB()
    influx.create_database("pmove")
    fields = ("_f0", "_f1", "_f2")

    def sample(t):
        return Point("grouped", {"tag": "s0"},
                     {f: 50.0 + 10.0 * ((t * (i + 3)) % 97) / 97.0
                      for i, f in enumerate(fields)}, float(t))

    influx.write_many("pmove", [sample(t) for t in range(GROUPED_PRELOAD_S)])
    panels = {
        "mean_60s_1h": ('MEAN("_f0")', 60, 3600.0),
        "p95_60s_1h": ('PERCENTILE("_f1", 95)', 60, 3600.0),
        "mean_7s_10min": ('MEAN("_f2")', 7, 600.0),
    }

    def statement(name, now):
        sel, width, window = panels[name]
        return parse_query(
            f'SELECT {sel} FROM "grouped" WHERE tag="s0" AND time >= {now - window} '
            f"AND time <= {now} GROUP BY time({width}s)")

    lat = {name: {"pushdown": [], "seed": []} for name in panels}
    for k in range(GROUPED_REFRESHES):
        now = GROUPED_PRELOAD_S + k
        influx.write("pmove", sample(now))
        for name in panels:
            q = statement(name, float(now))
            for side, run in (("pushdown", execute), ("seed", naive_execute)):
                begin = time.perf_counter()
                rs = run(influx, "pmove", q)
                lat[name][side].append(time.perf_counter() - begin)
            if k == 0 and name != "p95_60s_1h":  # exact paths: the naive rows
                assert execute(influx, "pmove", q).rows == rs.rows
            elif k == 0:
                assert [t for t, _ in execute(influx, "pmove", q).rows] == [
                    t for t, _ in rs.rows]
    out = {}
    for name, sides in lat.items():
        stats = {side: latency_stats(samples) for side, samples in sides.items()}
        out[name] = {
            **stats,
            "us_per_statement": 1e3 * stats["pushdown"]["p50_ms"],
            "speedup_p50": stats["seed"]["p50_ms"] / stats["pushdown"]["p50_ms"],
            "floor": GROUPED_FLOORS[name],
        }
    # counted, not timed: the same window again asks no digest anything
    q = statement("p95_60s_1h", float(now))
    asked = []
    inner = TDigest.quantile
    TDigest.quantile = lambda self, q_: asked.append(q_) or inner(self, q_)
    try:
        execute(influx, "pmove", q)
    finally:
        TDigest.quantile = inner
    out["quantiles_asked_by_an_unmoved_window"] = len(asked)
    return out


def _select_star_limit(influx):
    """``SELECT * … LIMIT`` across every series of the measurement: the
    first rows of a k-way merge, against the seed's scan-all-then-cut."""
    text = f'SELECT * FROM "{MEASUREMENT}" LIMIT {LIMIT_ROWS}'
    got, want = execute(influx, "pmove", text), naive_execute(influx, "pmove", text)
    assert got.columns == want.columns and got.rows == want.rows
    assert len(got.rows) == LIMIT_ROWS
    s_new = _timed(lambda: execute(influx, "pmove", text).rows[-1], COLD_ITERS)
    s_seed = _timed(lambda: naive_execute(influx, "pmove", text).rows[-1],
                    NAIVE_REFRESH_ITERS)
    return {
        "limit": LIMIT_ROWS, "series": N_SERIES, "pushdown": s_new, "seed": s_seed,
        "speedup_p50": s_seed["p50_ms"] / s_new["p50_ms"], "floor": LIMIT_FLOOR,
    }


def test_query_serving_speedup():
    pts = _workload(N_POINTS)
    influx = InfluxDB()  # default 10s/60s rollup tiers
    influx.create_database("pmove")
    influx.write_many("pmove", pts)

    span = float(N_POINTS // N_SERIES)
    panels, t0, t1 = _dashboard_panels(span)
    server = GrafanaServer(influx)

    def refresh():
        out = {}
        for panel in panels:
            out.update(server.execute_panel(panel, t0=t0, t1=t1))
        return out

    # Identical output before timing anything: cached+pushdown refresh vs
    # the seed path, and again on a warm cache.
    want = _naive_refresh(influx, panels, t0, t1)
    assert refresh() == want
    assert refresh() == want
    assert server.cache_hits > 0

    stats_c = _timed(refresh, REFRESH_ITERS)
    stats_n = _timed(lambda: _naive_refresh(influx, panels, t0, t1),
                     NAIVE_REFRESH_ITERS)
    refresh_speedup = stats_n["p50_ms"] / stats_c["p50_ms"]

    # Cold path: cache miss AND rollup miss.  7s divides neither tier, so
    # GROUP BY time(7s) runs the raw bucket walk; the raw select window is
    # a plain columnar scan, timed statement → (times, values).  Each path
    # runs in its own warmed loop (interleaving makes the two paths pay for
    # each other's allocation churn).
    cold_gb = parse_query(
        f'SELECT MEAN("_cpu0") FROM "{MEASUREMENT}" '
        f'WHERE tag="obs-0003" AND time >= {t0} AND time <= {t1} '
        f"GROUP BY time(7s)"
    )
    cold_raw = parse_query(
        f'SELECT "_cpu0", "_cpu1" FROM "{MEASUREMENT}" '
        f'WHERE tag="obs-0003" AND time >= {t0} AND time <= {t1}'
    )
    got, want_rs = (fn(influx, "pmove", cold_gb) for fn in (execute, naive_execute))
    assert got.columns == want_rs.columns and got.rows == want_rs.rows
    assert execute(influx, "pmove", cold_raw).series() == _seed_series(influx, cold_raw)
    cold = {}
    for name, new_path, seed_path in (
        ("groupby_7s",
         lambda: execute(influx, "pmove", cold_gb),
         lambda: naive_execute(influx, "pmove", cold_gb)),
        ("raw_window",
         lambda: execute(influx, "pmove", cold_raw).series(),
         lambda: _seed_series(influx, cold_raw)),
    ):
        s_new, s_seed = _timed(new_path, COLD_ITERS), _timed(seed_path, COLD_ITERS)
        cold[name] = {
            "pushdown": s_new,
            "seed": s_seed,
            "speedup_p50": s_seed["p50_ms"] / s_new["p50_ms"],
        }
    sliding = _sliding_window(influx, span)
    live_edge = _live_edge_sliding_window()
    grouped = _grouped_sliding_window()
    star_limit = _select_star_limit(influx)
    floors = {"groupby_7s": COLD_FLOOR, "raw_window": RAW_FLOOR}
    n_targets = sum(len(panel.targets) for panel in panels)
    appends = {
        "refreshes": APPEND_REFRESHES,
        "targets": n_targets,
        "in_order": _closed_windows_under_appends(influx, panels, t0, t1),
        "one_out_of_order": _closed_windows_under_appends(
            influx, panels, t0, t1, late_at=APPEND_REFRESHES // 2),
    }

    payload = {
        "workload": {
            "n_points": N_POINTS,
            "n_series": N_SERIES,
            "n_fields": N_FIELDS,
            "n_panels": N_PANELS,
            "measurement": MEASUREMENT,
            "rollup_tiers": list(influx._rollup_tiers),
        },
        "dashboard_refresh": {
            "cached": stats_c,
            "naive": stats_n,
            "speedup_p50": refresh_speedup,
            "cache_hits": server.cache_hits,
            "cache_misses": server.cache_misses,
        },
        "cold_queries": cold,
        "sliding_window": sliding,
        "live_edge_sliding_window": live_edge,
        "grouped_sliding_window": grouped,
        "select_star_limit": star_limit,
        "closed_windows_under_appends": appends,
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "cold_floor": COLD_FLOOR,
            "raw_floor": RAW_FLOOR,
            "passed": refresh_speedup >= SPEEDUP_FLOOR
            and all(c["speedup_p50"] >= floors[n] for n, c in cold.items())
            and all(grouped[n]["speedup_p50"] >= f for n, f in GROUPED_FLOORS.items())
            and grouped["quantiles_asked_by_an_unmoved_window"] == 0
            and live_edge["rows_read_equal_expected"]
            and star_limit["speedup_p50"] >= LIMIT_FLOOR,
        },
        "run": run_metadata(N_POINTS, SEED),
    }
    emit_json("BENCH_query.json", payload)

    assert refresh_speedup >= SPEEDUP_FLOOR, (
        f"dashboard refresh only {refresh_speedup:.1f}x faster than the seed "
        f"path at {N_POINTS} points (floor {SPEEDUP_FLOOR}x)"
    )
    for name, c in cold.items():
        assert c["speedup_p50"] >= floors[name], (
            f"cold {name} vs seed: {c['speedup_p50']:.2f}x "
            f"(floor {floors[name]}x)"
        )
    for name, floor in GROUPED_FLOORS.items():
        assert grouped[name]["speedup_p50"] >= floor, (
            f"grouped {name} vs naive: {grouped[name]['speedup_p50']:.1f}x "
            f"(floor {floor}x)"
        )
    assert grouped["quantiles_asked_by_an_unmoved_window"] == 0
    assert star_limit["speedup_p50"] >= LIMIT_FLOOR, (
        f"SELECT * LIMIT {LIMIT_ROWS} over {N_SERIES} series only "
        f"{star_limit['speedup_p50']:.1f}x faster than scan-and-cut "
        f"(floor {LIMIT_FLOOR}x)"
    )
    assert live_edge["rows_read_equal_expected"], (
        f"a live-edge refresh read {live_edge['rows_read_per_refresh']} rows; "
        f"{live_edge['rows_at_or_above_held_frontier']} lie at or above the held frontier")
    assert live_edge["rows_read_per_refresh"] == [LIVE_EDGE_APPENDED + 1]
    assert live_edge["delta_serves"] == LIVE_EDGE_REFRESHES
    assert sliding["columnar"]["parse_cache_misses"] == 0
    assert sliding["seed"]["parse_cache_misses"] == SLIDING_ITERS
    assert appends["in_order"] == {
        "hits": n_targets * (APPEND_REFRESHES - 1), "misses": n_targets}
    assert appends["one_out_of_order"] == {
        "hits": n_targets * (APPEND_REFRESHES - 2), "misses": 2 * n_targets}
