"""Serving-frontend perf: bounded concurrency + coalescing vs serial, and
tenant isolation under an aggressor flood.

Everything here runs on *virtual* time — the executor's
:class:`ServiceCostModel` is the clock — so the numbers are
bit-deterministic for a given seed and the CI gates cannot flake on a
noisy runner.  The cost model is deliberately inflated (20ms base) so
the offered load saturates a serial server and the capacity ratio
measures scheduling, not float noise.

Two scenarios, three gates, results in
``benchmarks/results/BENCH_serving.json``:

1. **capacity** — 8 tenants replay an identical oversubscribed burst of
   mixed live/backfill dashboard refreshes into (a) a serial
   one-at-a-time baseline (1 worker, no coalescing, no admission — the
   pre-serving read path) and (b) the bounded frontend (8 workers,
   single-flight coalescing).  Gate: sustained throughput
   (completed / virtual makespan) ≥ ``SPEEDUP_FLOOR``× the baseline's.
2. **isolation** — the same moderate load with admission enabled, run
   politely and then with the last tenant flooding 20×/8× with
   cache-busting windows.  Gates: the quiet tenants' live-class p99
   stays under ``LIVE_P99_BOUND_MS`` (virtual) during the flood, and
   degrades ≤ ``P99_DEGRADATION_CAP``× vs the polite run — the
   aggressor's excess is *rejected*, not socialized.

Both scenarios' schedules are pinned: the counts, makespans and p99s of
every run must equal ``PINNED_SCHEDULE`` exactly (at the default and the
CI workload sizes), so a change to the serving path that moves a single
scheduling decision fails here.  ``wall.us_per_request`` is report-only:
the median wall time a request costs over ``WALL_REPLAYS`` untraced
replays of the capacity burst through the 8-worker frontend, printed
beside ``WALL_US_BEFORE``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from _helpers import emit_json

from repro.db.influx import InfluxDB, Point
from repro.serve import (
    ServiceCostModel,
    ServingFrontend,
    TenantConfig,
    mixed_load,
    replay,
)
from repro.viz.dashboard import Panel, Target
from repro.viz.grafana import GrafanaServer

N_TENANTS = int(os.environ.get("PMOVE_BENCH_SERVE_TENANTS", "8"))
N_POINTS = int(float(os.environ.get("PMOVE_BENCH_SERVE_POINTS", "40000")))
N_SERIES = 8
N_PANELS = 6
N_WORKERS = 8
SEED = 1234

SPEEDUP_FLOOR = 5.0
LIVE_P99_BOUND_MS = 500.0  # documented SLO: quiet-tenant live p99, virtual ms
P99_DEGRADATION_CAP = 1.2  # aggressor may cost other tenants <= 20% at p99
P99_EPSILON_MS = 1.0  # floor for the ratio: sub-ms p99s are all "fast"

MEASUREMENT = "kernel_percpu_cpu_idle"

WALL_REPLAYS = 5
#: ``wall.us_per_request`` before the frontend dropped its per-request
#: scaffolding (slot min-scan, per-dispatch tenant sort, a decision object
#: per arrival): the median of ten runs on a 2-vCPU box, alternating with
#: the current code (median 65.4 there; single runs spread 44–97).
#: Context for the figure printed beside it, never a gate.
WALL_US_BEFORE = 83.8

#: (n_tenants, n_points) → the schedule both scenarios produce, at the
#: default size and at the CI smoke lane's (``PMOVE_BENCH_SERVE_POINTS``).
PINNED_SCHEDULE: dict[tuple[int, int], dict] = {
    (8, 40000): {
        "serial_baseline": {
            "executed": 808, "coalesced": 0, "timeouts": 0,
            "virtual_makespan_s": 19.190800000000035,
        },
        "bounded_concurrent": {
            "executed": 115, "coalesced": 693, "timeouts": 0,
            "virtual_makespan_s": 2.245894446301435,
        },
        "polite": {
            "virtual_makespan_s": 9.987219993667988,
            "executed": 59, "coalesced": 133, "timeouts": 0,
            "aggressor": {"submitted": 24, "admitted": 24, "rejected": {}},
            "quiet_live_p99_ms": [22.00000000000024],
        },
        "flooded": {
            "virtual_makespan_s": 9.987219993667988,
            "executed": 168, "coalesced": 114, "timeouts": 0,
            "aggressor": {"submitted": 439, "admitted": 114,
                          "rejected": {"rate_limited": 325}},
            "quiet_live_p99_ms": [22.00000000000024],
        },
    },
    (8, 20000): {
        "serial_baseline": {
            "executed": 808, "coalesced": 0, "timeouts": 0,
            "virtual_makespan_s": 17.785400000000145,
        },
        "bounded_concurrent": {
            "executed": 115, "coalesced": 693, "timeouts": 0,
            "virtual_makespan_s": 2.026894446301435,
        },
        "polite": {
            "virtual_makespan_s": 9.802819993667988,
            "executed": 59, "coalesced": 133, "timeouts": 0,
            "aggressor": {"submitted": 24, "admitted": 24, "rejected": {}},
            "quiet_live_p99_ms": [22.00000000000024],
        },
        "flooded": {
            "virtual_makespan_s": 9.945200000000002,
            "executed": 168, "coalesced": 114, "timeouts": 0,
            "aggressor": {"submitted": 439, "admitted": 114,
                          "rejected": {"rate_limited": 325}},
            "quiet_live_p99_ms": [22.00000000000024],
        },
    },
}

# Inflated virtual service costs (10x the frontend default): a live panel
# refresh ~25-60ms, a wide backfill scan ~100ms+.  Saturation, on purpose.
COST = ServiceCostModel(base_s=0.02, hit_s=0.005, per_point_s=2e-4)


def _grafana() -> tuple[GrafanaServer, float]:
    influx = InfluxDB()
    influx.create_database("pmove")
    pts = []
    for i in range(N_POINTS):
        tag = f"obs-{i % N_SERIES:04d}"
        t = float(i // N_SERIES)
        pts.append(Point(MEASUREMENT, {"tag": tag}, {"v": float(i % 97)}, t))
    influx.write_many("pmove", pts)
    return GrafanaServer(influx), float(N_POINTS // N_SERIES)


def _panels() -> list[Panel]:
    panels = []
    for k in range(N_PANELS):
        tag = f"obs-{k % N_SERIES:04d}"
        if k % 2 == 0:
            target = Target(MEASUREMENT, "v", tag=tag)
        else:
            target = Target(MEASUREMENT, "v", tag=tag, agg="MEAN", group_by_s=60.0)
        panels.append(Panel(id=k + 1, title=f"panel {k}", targets=[target]))
    return panels


def _tenants(**overrides) -> list[TenantConfig]:
    kw = dict(rate_per_s=10.0, burst=15.0, point_budget_per_s=20_000.0,
              point_burst=80_000.0, max_queue_depth=48, cache_entries=64)
    kw.update(overrides)
    return [TenantConfig(f"t{i}", **kw) for i in range(N_TENANTS)]


def _throughput(frontend: ServingFrontend, n_specs: int) -> dict:
    makespan = frontend.drain()
    ex = frontend.executor
    completed = sum(
        s.completed for s in (frontend.board.for_tenant(t)
                              for t in frontend.board.tenants())
    )
    return {
        "offered": n_specs,
        "completed": completed,
        "executed": ex.executed,
        "coalesced": ex.coalesced,
        "timeouts": ex.timeouts,
        "virtual_makespan_s": makespan,
        "throughput_rps": completed / makespan if makespan > 0 else 0.0,
    }


def _schedule(serial: dict, concurrent: dict, isolation: dict,
              aggressor: str) -> dict:
    """The virtual figures both scenarios produce, as pinned."""
    keep = ("executed", "coalesced", "timeouts", "virtual_makespan_s")
    out = {"serial_baseline": {k: serial[k] for k in keep},
           "bounded_concurrent": {k: concurrent[k] for k in keep}}
    for side, run in isolation.items():
        ex, tenants = run["health"]["executor"], run["health"]["tenants"]
        out[side] = {
            "virtual_makespan_s": run["makespan_s"],
            **{k: ex[k] for k in ("executed", "coalesced", "timeouts")},
            "aggressor": {k: tenants[aggressor][k]
                          for k in ("submitted", "admitted", "rejected")},
            "quiet_live_p99_ms": sorted({
                t["latency"].get("live", t["latency"]["all"])["p99_ms"]
                for name, t in tenants.items() if name != aggressor}),
        }
    return out


def _wall_us_per_request(burst) -> float:
    """Median wall µs a request over ``WALL_REPLAYS`` untraced replays of
    ``burst`` through the bounded frontend (engine build not timed)."""
    samples = []
    for _ in range(WALL_REPLAYS):
        grafana, _ = _grafana()
        fe = ServingFrontend(grafana, _tenants(), n_workers=N_WORKERS,
                             admission_enabled=False, cost_model=COST)
        t0 = time.perf_counter()
        replay(fe, burst)
        fe.drain()
        samples.append(1e6 * (time.perf_counter() - t0) / len(burst))
    return statistics.median(samples)


def test_serving_capacity_and_isolation():
    panels = _panels()
    _, span_s = _grafana()

    # ------------------------------------------------------------------
    # Scenario 1: sustained capacity, oversubscribed burst.  Admission
    # and deadlines off on BOTH sides: this measures raw scheduling
    # capacity over identical complete work, not policy.
    # Dashboard-refresh heavy (50 ticks/s across the fleet, a couple of
    # backfill scans per tenant): the burst lands far faster than a
    # serial server can absorb it, so both sides measure capacity, not
    # offered load.
    burst = mixed_load(
        [f"t{i}" for i in range(N_TENANTS)], panels,
        duration_s=2.0, span_s=span_s,
        live_period_s=0.02, backfill_period_s=1.0, window_s=60.0,
        live_deadline_s=None, seed=SEED,
    )

    def capacity_run(n_workers: int, coalesce: bool) -> dict:
        grafana, _ = _grafana()
        fe = ServingFrontend(
            grafana, _tenants(), n_workers=n_workers, coalesce=coalesce,
            admission_enabled=False, cost_model=COST,
        )
        replay(fe, burst)
        return _throughput(fe, len(burst))

    serial = capacity_run(n_workers=1, coalesce=False)
    concurrent = capacity_run(n_workers=N_WORKERS, coalesce=True)
    speedup = concurrent["throughput_rps"] / serial["throughput_rps"]

    # ------------------------------------------------------------------
    # Scenario 2: isolation.  Moderate load, admission + deadlines on;
    # identical polite traffic with and without the flood (the aggressor
    # sorts last, so every quiet tenant's schedule is byte-identical).
    names = [f"t{i}" for i in range(N_TENANTS)]
    aggressor = names[-1]
    quiet_names = names[:-1]

    def isolation_run(flood: bool) -> dict:
        grafana, _ = _grafana()
        fe = ServingFrontend(
            grafana, _tenants(), n_workers=N_WORKERS, cost_model=COST,
        )
        specs = mixed_load(
            names, panels,
            duration_s=10.0, span_s=span_s,
            live_period_s=0.5, backfill_period_s=2.0, window_s=60.0,
            live_deadline_s=2.0, seed=SEED,
            aggressor=aggressor if flood else None,
        )
        replay(fe, specs)
        return {"makespan_s": fe.drain(), "health": fe.health()}

    polite_run = isolation_run(flood=False)
    flooded_run = isolation_run(flood=True)
    polite, flooded = polite_run["health"], flooded_run["health"]
    schedule = _schedule(serial, concurrent,
                         {"polite": polite_run, "flooded": flooded_run}, aggressor)
    wall_us = _wall_us_per_request(burst)

    def live_p99_ms(health: dict, tenant: str) -> float:
        latency = health["tenants"][tenant]["latency"]
        return latency.get("live", latency["all"])["p99_ms"]

    quiet = {
        name: {
            "polite_p99_ms": live_p99_ms(polite, name),
            "flooded_p99_ms": live_p99_ms(flooded, name),
        }
        for name in quiet_names
    }
    worst_flooded_p99 = max(q["flooded_p99_ms"] for q in quiet.values())
    worst_ratio = max(
        q["flooded_p99_ms"] / max(q["polite_p99_ms"], P99_EPSILON_MS)
        for q in quiet.values()
    )
    agg = flooded["tenants"][aggressor]

    gates = {
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup": speedup,
        "live_p99_bound_ms": LIVE_P99_BOUND_MS,
        "worst_quiet_flooded_p99_ms": worst_flooded_p99,
        "p99_degradation_cap": P99_DEGRADATION_CAP,
        "worst_quiet_p99_ratio": worst_ratio,
        "aggressor_rejections": agg["rejected_total"],
        "passed": (
            speedup >= SPEEDUP_FLOOR
            and worst_flooded_p99 <= LIVE_P99_BOUND_MS
            and worst_ratio <= P99_DEGRADATION_CAP
            and agg["rejected_total"] > 0
        ),
    }
    emit_json("BENCH_serving.json", {
        "workload": {
            "n_tenants": N_TENANTS,
            "n_points": N_POINTS,
            "n_panels": N_PANELS,
            "n_workers": N_WORKERS,
            "seed": SEED,
            "cost_model": {"base_s": COST.base_s, "hit_s": COST.hit_s,
                           "per_point_s": COST.per_point_s},
        },
        "capacity": {
            "serial_baseline": serial,
            "bounded_concurrent": concurrent,
            "speedup": speedup,
        },
        "isolation": {
            "aggressor": aggressor,
            "aggressor_slo": {
                "submitted": agg["submitted"],
                "admitted": agg["admitted"],
                "rejected": agg["rejected"],
            },
            "quiet_tenants": quiet,
        },
        "gate": gates,
        "schedule": schedule,
        "wall": {"us_per_request": wall_us, "replays": WALL_REPLAYS,
                 "us_per_request_before": WALL_US_BEFORE},
    })

    pinned = PINNED_SCHEDULE.get((N_TENANTS, N_POINTS))
    if pinned is not None:
        assert json.loads(json.dumps(schedule)) == pinned, (
            "the serving schedule moved: a scheduling decision changed")

    assert serial["completed"] == serial["offered"]  # baseline served it all
    assert concurrent["completed"] == concurrent["offered"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"bounded frontend only {speedup:.2f}x the serial baseline "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert worst_flooded_p99 <= LIVE_P99_BOUND_MS, (
        f"quiet-tenant live p99 {worst_flooded_p99:.1f}ms breaches the "
        f"{LIVE_P99_BOUND_MS:.0f}ms bound under flood"
    )
    assert worst_ratio <= P99_DEGRADATION_CAP, (
        f"aggressor degraded a quiet tenant's live p99 {worst_ratio:.2f}x "
        f"(cap {P99_DEGRADATION_CAP}x)"
    )
    assert agg["rejected_total"] > 0, "the flood was never rejected"
