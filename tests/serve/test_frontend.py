"""The serving frontend end to end: admission → executor → Grafana cache
partitions → SLO board, plus the daemon/`PMoVE.health()` surfacing.
"""

import pytest

from repro.db.influx import InfluxDB, Point
from repro.serve import (
    Priority,
    ServiceCostModel,
    ServingFrontend,
    TenantConfig,
    mixed_load,
    percentile,
    replay,
)
from repro.viz.dashboard import Panel, Target
from repro.viz.grafana import GrafanaServer


def _grafana(n=120):
    influx = InfluxDB()
    influx.create_database("pmove")
    influx.write_many(
        "pmove",
        [Point("cpu", {"tag": "t1"}, {"_cpu0": float(i)}, float(i)) for i in range(n)],
    )
    return GrafanaServer(influx)


def _panel(pid=1):
    return Panel(id=pid, title=f"p{pid}", targets=[Target("cpu", "_cpu0", tag="t1")])


def _frontend(grafana=None, tenants=None, **kw):
    grafana = grafana or _grafana()
    tenants = tenants or [TenantConfig("a"), TenantConfig("b")]
    return ServingFrontend(grafana, tenants, **kw)


class TestSubmitAndServe:
    def test_served_series_matches_direct_grafana(self):
        grafana = _grafana()
        fe = _frontend(grafana, keep_results=True)
        rid = fe.submit("a", _panel(), at=0.0, t0=0.0, t1=50.0)
        fe.drain()
        assert fe.outcomes[rid] == "done"
        direct = GrafanaServer(grafana.influx).execute_panel(
            _panel(), t0=0.0, t1=50.0
        )
        assert fe.results[rid] == direct

    def test_needs_a_tenant(self):
        with pytest.raises(ValueError):
            ServingFrontend(_grafana(), [])

    def test_rejection_is_terminal_and_recorded(self):
        fe = _frontend(tenants=[TenantConfig("a", rate_per_s=0.001, burst=1.0)])
        rids = [fe.submit("a", _panel(), at=0.0) for _ in range(3)]
        fe.drain()
        outcomes = [fe.outcomes[r] for r in rids]
        assert outcomes.count("rejected:rate_limited") == 2
        slo = fe.board.for_tenant("a").snapshot()
        assert slo["submitted"] == 3 and slo["admitted"] == 1
        assert slo["rejected"] == {"rate_limited": 2}

    def test_unknown_tenant_rejected_not_crashed(self):
        fe = _frontend()
        rid = fe.submit("ghost", _panel(), at=0.0)
        fe.drain()
        assert fe.outcomes[rid] == "rejected:unknown_tenant"

    def test_admission_disabled_admits_everything(self):
        fe = _frontend(
            tenants=[TenantConfig("a", rate_per_s=0.001, burst=1.0)],
            admission_enabled=False,
        )
        rids = [fe.submit("a", _panel(), at=0.0) for _ in range(5)]
        fe.drain()
        assert all(fe.outcomes[r] in ("done", "coalesced") for r in rids)

    def test_point_estimate_scales_with_window(self):
        fe = _frontend()
        assert fe._estimate_points(_panel(), 0.0, 100.0) == 100.0
        assert fe._estimate_points(_panel(), None, None) == fe.default_est_points

    def test_register_tenant_after_construction(self):
        fe = _frontend()
        fe.register_tenant(TenantConfig("late", cache_entries=7))
        rid = fe.submit("late", _panel(), at=0.0)
        fe.drain()
        assert fe.outcomes[rid] == "done"
        assert fe.grafana.tenant_cache_info("late")["capacity"] == 7


class TestSloAccounting:
    def test_latency_split_by_priority_class(self):
        fe = _frontend()
        fe.submit("a", _panel(), at=0.0, priority="live", t0=0.0, t1=10.0)
        fe.submit("a", _panel(2), at=0.0, priority="backfill", t0=0.0, t1=100.0)
        fe.drain()
        snap = fe.board.for_tenant("a").snapshot()
        assert snap["latency"]["live"]["n"] == 1
        assert snap["latency"]["backfill"]["n"] == 1
        assert snap["latency"]["all"]["n"] == 2
        assert snap["latency"]["backfill"]["p99_ms"] > 0.0

    def test_cache_and_point_counters_accumulate(self):
        fe = _frontend()
        fe.submit("a", _panel(), at=0.0, t0=0.0, t1=50.0)
        fe.submit("a", _panel(), at=10.0, t0=0.0, t1=50.0)  # same window: hit
        fe.drain()
        slo = fe.board.for_tenant("a")
        assert slo.cache_miss_targets == 1 and slo.cache_hit_targets == 1
        assert slo.points_scanned == 51  # only the miss scanned points

    def test_timeout_counted_not_completed(self):
        fe = _frontend(
            n_workers=1,
            cost_model=ServiceCostModel(base_s=3.0),
        )
        fe.submit("a", _panel(), at=0.0, t0=0.0, t1=10.0)
        rid = fe.submit("a", _panel(), at=0.0, t0=0.0, t1=20.0, deadline_s=1.0)
        fe.drain()
        assert fe.outcomes[rid] == "timeout"
        slo = fe.board.for_tenant("a").snapshot()
        assert slo["timeouts"] == 1 and slo["completed"] == 1

    def test_percentile_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        assert percentile(xs, 0.50) == 50.0
        assert percentile(xs, 0.95) == 95.0
        assert percentile(xs, 0.99) == 99.0
        assert percentile([], 0.99) == 0.0
        assert percentile([7.0], 0.50) == 7.0

    def test_health_shape(self):
        fe = _frontend()
        fe.submit("a", _panel(), at=0.0)
        fe.drain()
        h = fe.health()
        assert set(h) == {"executor", "tenants", "cache_partitions"}
        assert h["executor"]["executed"] == 1
        assert h["tenants"]["a"]["completed"] == 1
        assert h["cache_partitions"]["a"]["entries"] == 1
        assert h["cache_partitions"]["a"]["sealed"] + h["cache_partitions"]["a"]["open"] == 1
        assert h["cache_partitions"]["b"] == {
            "entries": 0, "capacity": 128, "sealed": 0, "open": 0}


class TestCachePartitionIsolation:
    def test_aggressor_cannot_evict_quiet_tenants_entry(self):
        """Tenant b floods its own partition far past everyone's capacity;
        tenant a's cached refresh must still hit."""
        grafana = _grafana()
        fe = _frontend(
            grafana,
            tenants=[
                TenantConfig("a", cache_entries=4),
                TenantConfig("b", cache_entries=4,
                             rate_per_s=1000.0, burst=1000.0,
                             point_budget_per_s=1e9, point_burst=1e9,
                             max_queue_depth=1000),
            ],
        )
        fe.submit("a", _panel(), at=0.0, t0=0.0, t1=30.0)
        for k in range(20):  # 20 distinct windows through a 4-entry partition
            fe.submit("b", _panel(), at=0.1 * k, t0=float(k), t1=float(k) + 30.0)
        fe.submit("a", _panel(), at=5.0, t0=0.0, t1=30.0)
        fe.drain()
        slo_a = fe.board.for_tenant("a")
        assert slo_a.cache_hit_targets == 1  # the refresh hit despite the flood
        assert grafana.tenant_cache_info("b")["entries"] <= 4

    def test_coalesced_cross_tenant_refresh_costs_one_execution(self):
        fe = _frontend()
        fe.submit("a", _panel(), at=0.0, t0=0.0, t1=60.0)
        fe.submit("b", _panel(), at=0.0, t0=0.0, t1=60.0)
        fe.drain()
        assert fe.executor.executed == 1 and fe.executor.coalesced == 1


class TestDeterminism:
    def _run(self):
        fe = _frontend(
            _grafana(),
            tenants=[
                TenantConfig("t0"), TenantConfig("t1"),
                TenantConfig("t2", weight=2.0),
            ],
            n_workers=4,
        )
        panels = [_panel(1), _panel(2)]
        specs = mixed_load(
            ["t0", "t1", "t2"], panels,
            duration_s=6.0, span_s=100.0, seed=11, aggressor="t2",
        )
        replay(fe, specs)
        fe.drain()
        return fe.health(), fe.executor.makespan(), dict(fe.outcomes)

    def test_seeded_run_is_bit_deterministic(self):
        assert self._run() == self._run()

    def test_mixed_load_is_pure_function_of_seed(self):
        kw = dict(duration_s=5.0, span_s=80.0, seed=3)
        a = mixed_load(["x", "y"], [_panel()], **kw)
        assert a == mixed_load(["x", "y"], [_panel()], **kw)
        assert a != mixed_load(["x", "y"], [_panel()], duration_s=5.0,
                               span_s=80.0, seed=4)

    def test_mixed_load_validation(self):
        with pytest.raises(ValueError):
            mixed_load([], [_panel()], duration_s=1.0, span_s=1.0)
        with pytest.raises(ValueError):
            mixed_load(["a"], [], duration_s=1.0, span_s=1.0)

    def test_mixed_load_priorities_present(self):
        specs = mixed_load(["a"], [_panel()], duration_s=8.0, span_s=100.0)
        prios = {s.priority for s in specs}
        assert prios == {Priority.LIVE, Priority.BACKFILL}


class TestDaemonIntegration:
    def _daemon(self):
        from repro.core.daemon import PMoVE
        from repro.machine import SimulatedMachine, icl

        pm = PMoVE(seed=7)
        pm.attach_target(SimulatedMachine(icl(), seed=7))
        return pm

    def test_enable_serving_surfaces_in_health(self):
        pm = self._daemon()
        fe = pm.enable_serving([TenantConfig("ops"), "dev"])
        assert pm.serving is fe
        rid = fe.submit("dev", _panel(), at=0.0)
        fe.drain()
        assert fe.outcomes[rid] in ("done", "coalesced")
        h = pm.health()
        assert "serving" in h
        assert set(h["serving"]["tenants"]) == {"dev", "ops"}

    def test_enable_twice_is_an_error(self):
        pm = self._daemon()
        pm.enable_serving()
        with pytest.raises(RuntimeError):
            pm.enable_serving()

    def test_health_without_serving_unchanged(self):
        pm = self._daemon()
        assert "serving" not in pm.health()
