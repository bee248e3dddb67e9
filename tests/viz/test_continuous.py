"""Continuous-query registrar: standing PERCENTILE targets read from the engine."""

import random

import pytest

from repro.db.influx import InfluxDB, Point
from repro.db.influxql import execute
from repro.db.sketch import TDigest
from repro.viz import (
    ContinuousQueryRegistrar,
    Dashboard,
    DashboardError,
    GrafanaServer,
    Panel,
    Target,
)


def seeded_server(n=600, g=60.0):
    db = InfluxDB(rollup_tiers=(10.0, 60.0))
    db.create_database("pmove")
    rnd = random.Random(7)
    pts = [Point("m", {"tag": "j1"}, {"lat": rnd.gauss(10, 3)}, float(i))
           for i in range(n)]
    db.write_many("pmove", pts)
    srv = GrafanaServer(db)
    tgt = Target(measurement="m", params="lat", agg="PERCENTILE",
                 agg_arg=99.0, group_by_s=g, tag="j1")
    return db, srv, tgt


class TestTargetAggArg:
    def test_statement_carries_the_percentile(self):
        _, srv, tgt = seeded_server()
        stmt = srv.target_statement(tgt)
        assert 'PERCENTILE("lat", 99)' in stmt
        assert "GROUP BY time(60.0s)" in stmt

    def test_json_roundtrip(self):
        _, _, tgt = seeded_server()
        d = Dashboard(id=1, title="t", panels=[Panel(id=1, title="p", targets=[tgt])])
        back = Dashboard.loads(d.dumps())
        assert back.panels[0].targets[0].agg_arg == 99.0

    def test_legacy_targets_stay_byte_identical(self):
        plain = Target(measurement="m", params="lat")
        assert "aggArg" not in plain.to_json()

    def test_percentile_without_arg_rejected(self):
        with pytest.raises(DashboardError):
            Target(measurement="m", params="lat", agg="PERCENTILE")
        with pytest.raises(DashboardError):
            Target(measurement="m", params="lat", agg="PERCENTILE",
                   agg_arg=150.0)


class TestRegistrar:
    def test_refresh_materializes_only_closed_buckets(self):
        db, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        assert reg.refresh(300.0) == {"p99": 5}
        times, _ = reg.series("p99")
        assert times == [0.0, 60.0, 120.0, 180.0, 240.0]

    def test_incremental_advance_serves_from_sketches(self):
        db, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        reg.refresh(300.0)
        before = dict(db.sketch_plan)
        reg.refresh(600.0)
        times, values = reg.series("p99")
        assert times == [60.0 * k for k in range(10)]
        assert all(v == v for v in values)
        # Both refreshes answered from tier digests, O(tiers) per bucket.
        assert sum(v for k, v in db.sketch_plan.items()
                   if k.startswith("served:")) > sum(
            v for k, v in before.items() if k.startswith("served:"))

    def test_a_late_write_into_the_last_closed_bucket_is_served(self):
        db, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        reg.refresh(120.0)
        _, before = reg.series("p99")
        db.write_many("pmove", [
            Point("m", {"tag": "j1"}, {"lat": 10_000.0}, 110.0)
        ])
        reg.refresh(180.0)
        _, after = reg.series("p99")
        # Sketch-served p99 interpolates toward the new outlier; the
        # contract is that the late bucket *moved*, way up.
        assert after[1] > max(before) * 100

    def test_a_late_write_anywhere_below_the_watermark_is_served(self):
        """No replay window: the engine re-folds the late write's own
        bucket, and the next read serves it.  A materializer that replayed
        only the last closed bucket kept serving bucket 0's p99 as 15.07
        here, where the engine answers 891.67."""
        db, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        assert reg.refresh(600.0) == {"p99": 10}
        times, before = reg.series("p99")
        db.write_many("pmove", [Point("m", {"tag": "j1"}, {"lat": 1000.0}, 30.5)])
        closed = reg.refresh(600.0)
        got = reg.series("p99")
        want = execute(db, "pmove", srv.target_statement(tgt, t0=0.0, t1=599.0)).rows
        assert got == (times, [row[0] for _, row in want])
        assert got[1][0] > 50 * before[0] and got[1][1:] == before[1:]
        assert closed == {"p99": 0}  # nothing closed since

    def test_a_closed_bucket_asked_again_is_a_slice_read(self, monkeypatch):
        """The answers live beside the engine's tier digests, not here."""
        _, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        reg.refresh(600.0)
        first = reg.series("p99")
        asked = []
        orig = TDigest.quantile
        monkeypatch.setattr(TDigest, "quantile",
                            lambda d, q: asked.append(q) or orig(d, q))
        assert reg.series("p99") == first and asked == []

    def test_needs_agg_and_group_by(self):
        _, srv, _ = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        with pytest.raises(DashboardError):
            reg.register("raw", Target(measurement="m", params="lat"))
        with pytest.raises(DashboardError):
            reg.register("nogroup", Target(measurement="m", params="lat",
                                           agg="MEAN"))

    def test_stats_and_names(self):
        _, srv, tgt = seeded_server()
        reg = ContinuousQueryRegistrar(srv)
        reg.register("p99", tgt)
        reg.refresh(120.0)
        st = reg.stats()["p99"]
        assert st["watermark"] == 120.0
        assert st["refreshes"] == 1
        assert "PERCENTILE" in st["statement"]
        assert reg.names() == ["p99"]
