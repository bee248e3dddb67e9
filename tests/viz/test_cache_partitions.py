"""Grafana result-cache partitions: LRU order, tenant isolation, and the
engine-swap stats contract (``reset_stats`` / ``set_engine``).
"""

import random

import pytest

from repro.db.influx import InfluxDB, Point
from repro.viz.dashboard import Panel, Target
from repro.viz.grafana import GrafanaServer

from .test_panel_cache import (
    HeldAnswerCache,
    ParentCache,
    beside,
    check_index,
    held_answers,
)


def _mk(n=50):
    influx = InfluxDB()
    influx.create_database("pmove")
    influx.write_many(
        "pmove",
        beside([Point("cpu", {"tag": "t1"}, {"_cpu0": float(i)}, float(i))
                for i in range(n)]),
    )
    server = GrafanaServer(influx)
    panel = Panel(id=1, title="cpu", targets=[Target("cpu", "_cpu0", tag="t1")])
    return influx, server, panel


def _refresh(server, panel, t0, tenant=None):
    return server.execute_panel(panel, t0=t0, t1=t0 + 10.0, tenant=tenant)


class TestLruEvictionOrder:
    def test_oldest_entry_evicted_first(self):
        _, server, panel = _mk()
        server.cache_size = 2
        _refresh(server, panel, 0.0)   # A
        _refresh(server, panel, 10.0)  # B  → cache holds [A, B]
        _refresh(server, panel, 20.0)  # C  → A evicted, holds [B, C]
        misses = server.cache_misses
        _refresh(server, panel, 0.0)   # A again: must be a miss
        assert server.cache_misses == misses + 1
        _refresh(server, panel, 20.0)  # C: still resident
        assert server.cache_hits == 1

    def test_hit_refreshes_recency(self):
        """True LRU, not FIFO: touching A makes B the eviction victim."""
        _, server, panel = _mk()
        server.cache_size = 2
        _refresh(server, panel, 0.0)   # A
        _refresh(server, panel, 10.0)  # B
        _refresh(server, panel, 0.0)   # touch A → order [B, A]
        _refresh(server, panel, 20.0)  # C evicts B, holds [A, C]
        hits = server.cache_hits
        _refresh(server, panel, 0.0)   # A survives
        assert server.cache_hits == hits + 1
        misses = server.cache_misses
        _refresh(server, panel, 10.0)  # B is gone
        assert server.cache_misses == misses + 1


class TestTenantPartitions:
    def test_partitions_do_not_share_entries(self):
        """The same statement cached for tenant a is a miss for tenant b
        (and for the default partition) — partitions are private."""
        _, server, panel = _mk()
        server.set_tenant_cache_size("a", 8)
        server.set_tenant_cache_size("b", 8)
        _refresh(server, panel, 0.0, tenant="a")
        assert server.cache_misses == 1
        _refresh(server, panel, 0.0, tenant="b")
        assert server.cache_misses == 2
        _refresh(server, panel, 0.0)  # default partition: also cold
        assert server.cache_misses == 3
        _refresh(server, panel, 0.0, tenant="a")
        assert server.cache_hits == 1

    def test_aggressor_flood_cannot_evict_other_partitions(self):
        _, server, panel = _mk()
        server.set_tenant_cache_size("quiet", 4)
        server.set_tenant_cache_size("noisy", 4)
        _refresh(server, panel, 0.0, tenant="quiet")
        _refresh(server, panel, 0.0)  # default partition's copy
        for k in range(25):  # far past every partition's capacity
            _refresh(server, panel, float(k), tenant="noisy")
        assert server.tenant_cache_info("noisy")["entries"] == 4
        hits = server.cache_hits
        _refresh(server, panel, 0.0, tenant="quiet")
        _refresh(server, panel, 0.0)
        assert server.cache_hits == hits + 2  # both survived the flood

    def test_resize_trims_oldest(self):
        _, server, panel = _mk()
        server.set_tenant_cache_size("a", 8)
        for k in range(6):
            _refresh(server, panel, float(k), tenant="a")
        server.set_tenant_cache_size("a", 2)
        assert server.tenant_cache_info("a") == {
            "entries": 2, "capacity": 2, "sealed": 2, "open": 0}
        hits = server.cache_hits
        _refresh(server, panel, 5.0, tenant="a")  # newest survived the trim
        assert server.cache_hits == hits + 1

    def test_partition_size_must_be_positive(self):
        _, server, _ = _mk()
        with pytest.raises(ValueError):
            server.set_tenant_cache_size("a", 0)

    def test_invalidate_clears_every_partition(self):
        _, server, panel = _mk()
        server.set_tenant_cache_size("a", 8)
        _refresh(server, panel, 0.0, tenant="a")
        _refresh(server, panel, 0.0)
        server.invalidate_cache()
        assert server.tenant_cache_info("a")["entries"] == 0
        assert not server._cache


class TestEngineSwap:
    def test_reset_stats_zeroes_counters_only(self):
        _, server, panel = _mk()
        _refresh(server, panel, 0.0)
        _refresh(server, panel, 0.0)
        assert server.cache_hits == 1 and server.cache_misses == 1
        server.reset_stats()
        assert server.cache_hits == 0
        assert server.cache_misses == 0
        assert server.partial_serves == 0
        assert server._cache  # the cached results themselves survive

    def test_set_engine_swaps_invalidates_and_resets(self):
        """Freshness stamps are per-engine: a swap must drop both the
        cached results (stale stamps could look fresh) and the stats
        (they described the old engine)."""
        _, server, panel = _mk()
        _refresh(server, panel, 0.0)
        _refresh(server, panel, 0.0)

        fresh = InfluxDB()
        fresh.create_database("pmove")
        fresh.write_many("pmove", [
            Point("cpu", {"tag": "t1"}, {"_cpu0": -1.0}, float(i)) for i in range(5)
        ])
        server.set_engine(fresh)
        assert server.influx is fresh
        assert server.cache_hits == 0 and server.cache_misses == 0
        assert not server._cache
        # The next refresh answers from the new engine, not a stale entry.
        times, values = next(iter(_refresh(server, panel, 0.0).values()))
        assert set(values) == {-1.0}
        assert server.cache_misses == 1


class TestMeasurementIndex:
    """The per-measurement index behind dead-entry eviction names exactly
    the keys each partition holds, whatever removed the others."""

    def _two_measurements(self):
        influx, server, cpu = _mk()
        influx.write_many("pmove", beside([
            Point("mem", {"tag": "t1"}, {"v": float(i)}, float(i)) for i in range(50)]))
        mem = Panel(id=2, title="mem", targets=[Target("mem", "v", tag="t1")])
        return influx, server, cpu, mem

    def test_lru_eviction_keeps_the_index_exact(self):
        _, server, cpu, mem = self._two_measurements()
        server.cache_size = 3
        for k in range(4):
            _refresh(server, cpu, float(k))
            _refresh(server, mem, float(k))
            check_index(server)
        assert len(server._cache) == 3
        assert sorted(server._cache.by_measurement) == ["cpu", "mem"]
        for k in range(4, 8):  # cpu alone now: mem's last key ages out
            _refresh(server, cpu, float(k))
        check_index(server)
        assert list(server._cache.by_measurement) == ["cpu"]

    def test_invalidate_set_engine_and_shrink_keep_the_index_exact(self):
        influx, server, cpu, mem = self._two_measurements()
        server.set_tenant_cache_size("a", 8)
        for k in range(5):
            _refresh(server, cpu, float(k), tenant="a")
            _refresh(server, mem, float(k), tenant="a")
            _refresh(server, cpu, float(k))
        server.set_tenant_cache_size("a", 3)  # 10 → 3: seven trimmed, oldest first
        check_index(server)
        part = server._tenant_caches["a"]
        # (windows [k, k + 10] over samples up to t = 49: k = 4 is closed)
        assert server.tenant_cache_info("a") == {
            "entries": 3, "capacity": 3, "sealed": 3, "open": 0}
        assert {m: len(f.sealed) for m, f in part.by_measurement.items()} == {
            "cpu": 1, "mem": 2}
        server.invalidate_cache()
        check_index(server)
        assert not server._cache.by_measurement and not part.by_measurement
        _refresh(server, cpu, 0.0, tenant="a")
        server.set_engine(influx)
        check_index(server)
        assert not part.by_measurement and not part.entries

    def test_sizes_count_live_entries_only(self):
        """A tenant sliding a window that reaches the newest sample over a
        measurement that is written between refreshes holds one answer per
        live target, overwritten in place — not one per refresh it ever
        made — and pays the engine for the new rows only.  Crowded out of
        the partition, the target falls back to the full read: same answer."""
        influx, server, cpu, mem = self._two_measurements()
        server.set_tenant_cache_size("a", 4)
        _refresh(server, mem, 0.0, tenant="a")
        for k in range(20):
            now = 50.0 + k
            influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, now))
            got = server.execute_panel(cpu, t0=float(k), t1=now, tenant="a")
            assert got == GrafanaServer(influx).execute_panel(cpu, t0=float(k), t1=now)
            assert server.tenant_cache_info("a") == {
                "entries": 2, "capacity": 4, "sealed": 1, "open": 1}
            assert server.delta_serves == k  # all but the first
        part = server._tenant_caches["a"]
        (held,) = held_answers(part).values()
        assert held[3:] == (influx.freshness("pmove", "cpu"), (19.0, 69.0))
        hits = server.cache_hits
        _refresh(server, mem, 0.0, tenant="a")  # untouched by cpu's churn
        assert server.cache_hits == hits + 1
        for k in range(1, 4):  # sealed windows up to the cap: the held one is oldest
            _refresh(server, mem, float(k), tenant="a")
        assert not held_answers(part) and server.tenant_cache_info("a")["sealed"] == 4
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 70.0))
        got = server.execute_panel(cpu, t0=20.0, t1=70.0, tenant="a")
        assert got == GrafanaServer(influx).execute_panel(cpu, t0=20.0, t1=70.0)
        assert server.delta_serves == 19 and len(part) == 4
        assert list(held_answers(part)) == [list(part.entries)[-1]]
        check_index(server)

    def test_closed_windows_are_live_and_ride_the_lru(self):
        """The same slide over windows that ended before the newest sample:
        every one of them is still servable, so they stay until capacity
        says otherwise — and an out-of-order write ends them together."""
        influx, server, cpu, _ = self._two_measurements()
        server.set_tenant_cache_size("a", 8)
        for k in range(20):
            influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 50.0 + k))
            _refresh(server, cpu, float(k), tenant="a")
            assert server.tenant_cache_info("a")["sealed"] == min(k + 1, 8)
            check_index(server)
        hits = server.cache_hits
        for k in range(12, 20):
            _refresh(server, cpu, float(k), tenant="a")
        assert server.cache_hits == hits + 8
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 0.5))
        _refresh(server, cpu, 19.0, tenant="a")
        assert server.tenant_cache_info("a") == {
            "entries": 1, "capacity": 8, "sealed": 1, "open": 0}
        check_index(server)


class TestServeReadHeavyShape:
    def test_parents_hits_plus_the_closed_windows(self):
        """One of four measurements written per round, two tenants on
        windows that move every 40 rounds, one that never repeats a window
        (``benchmarks/e2e`` ``serve_read_heavy``, scaled down).  Every
        read the generation-only cache served is still served; what is
        gained is exactly the windows the round's write landed beyond, on
        the measurement it wrote — and here no live entry is ever crowded
        out, so evicting the dead changes no hit and no miss."""
        rng = random.Random(5)
        fields = ("_f0", "_f1", "_f2")
        influx = InfluxDB()
        influx.create_database("pmove")
        reports = [0] * 4

        def write(m):
            t = reports[m]
            reports[m] += 1
            influx.write_many("pmove", beside([
                Point(f"bench_m{m}", {"tag": f"s{s}"},
                      {f: float((t * 7 + s + i) % 13) for i, f in enumerate(fields)},
                      float(t))
                for s in range(4)]))

        for _ in range(400):
            for m in range(4):
                write(m)
        dashboard = [
            (window, Panel(1, title, targets))
            for m in range(4) for s in range(2)
            for window, title, targets in (
                (60.0, "raw", [Target(f"bench_m{m}", fields[0], tag=f"s{s}"),
                               Target(f"bench_m{m}", fields[1], tag=f"s{s}")]),
                (240.0, "mean", [Target(f"bench_m{m}", fields[0], tag=f"s{s}",
                                        agg="MEAN", group_by_s=60.0)]),
                (120.0, "mean7", [Target(f"bench_m{m}", fields[2], tag=f"s{s}",
                                         agg="MEAN", group_by_s=7.0)]),
            )
        ]
        server = GrafanaServer(influx)
        parent, model = ParentCache(256), HeldAnswerCache(256)
        for tenant in ("ops", "perf", "adhoc"):
            server.set_tenant_cache_size(tenant, 256)
        gained = 0
        for rnd in range(240):
            write(rnd % 4)
            now = float(min(reports))
            edge = now // 10 * 10
            for tenant in ("ops", "perf", "adhoc"):
                for window, panel in dashboard:
                    if tenant == "adhoc":
                        t0 = rng.uniform(0.0, now - 200.0)
                        t1 = t0 + rng.uniform(50.0, 150.0)
                    else:
                        t0, t1 = edge - window, edge
                    for target in panel.targets:
                        stmt = server.target_statement(target, t0, t1)
                        stamps = influx.freshness("pmove", target.measurement)
                        was = parent.read(tenant, ("pmove", stmt), stamps[1])
                        want = model.read(tenant, target, stmt, stamps, (t0, t1))
                        *_, hit = server.execute_target(target, t0, t1, tenant=tenant)
                        assert hit == want and hit >= was
                        if hit and not was:
                            assert target.measurement == f"bench_m{rnd % 4}"
                            assert t1 < stamps[2] and tenant != "adhoc"
                            gained += 1
        assert (server.cache_hits, server.cache_misses) == (model.hits, model.misses)
        assert server.cache_hits == parent.hits + gained
        assert parent.hits > 4000 and gained > 2500 and model.misses > 4000
        check_index(server)
