"""A one-series raw window is read, not held; what a target may spell.

An open raw window whose engine read came back as one series' slices
(``ColumnRows.runs == 1``) keeps no entry: each refresh is one
``scan_columns`` of exactly the window, and the panel gets that read's own
lists.  On a router that holds when one shard contributes.  A read that
merged several series keeps its held answer, as before.

Also here: a ``GROUP BY`` width every path can spell (a ``Target`` refuses
a non-finite one, the parser takes the exponent syntax and refuses zero),
and a panel's labels worked out once per state of its targets.
"""

import math

import pytest

from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.influxql import execute, naive_execute, parse_query
from repro.db.sharded import ShardedInfluxDB
from repro.viz.dashboard import DashboardError, Panel, Target
from repro.viz.grafana import GrafanaServer

N = 120


def _engine(kind):
    influx = InfluxDB() if kind == "single" else ShardedInfluxDB(3)
    influx.create_database("pmove")
    influx.write_many("pmove", [
        Point("cpu", {"tag": tag}, {"_cpu0": float(i), "_cpu1": -float(i)}, float(i))
        for i in range(N) for tag in ("t1", "t2")])
    return influx


def _counted_scans(influx, monkeypatch):
    """Each ``scan_columns`` call's window and the rows it returned."""
    scans = []
    scan = influx.scan_columns

    def counted(*a, **kw):
        cols, rows = scan(*a, **kw)
        scans.append(((kw.get("t0", a[4] if len(a) > 4 else None),
                       kw.get("t1", a[5] if len(a) > 5 else None)), list(rows.times)))
        return cols, rows

    monkeypatch.setattr(influx, "scan_columns", counted)
    return scans


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestOneRunWindow:
    def test_each_refresh_is_one_scan_of_exactly_the_window(self, kind, monkeypatch):
        influx = _engine(kind)
        server = GrafanaServer(influx)
        target = Target("cpu", "_cpu0", tag="t1")
        scans = _counted_scans(influx, monkeypatch)
        for k in range(5):
            now = float(N + k)
            influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": now}, now))
            times, values, hit = server.execute_target(target, now - 30.0, now)
            assert scans[-1] == ((now - 30.0, now), times) and len(scans) == k + 1
            assert times == [float(t) for t in range(N + k - 30, N + k + 1)]
            assert values == times and not hit
        assert (server.cache_misses, server.delta_serves) == (5, 0)
        assert len(server._cache) == 0

    def test_no_entry_is_kept_in_any_partition(self, kind):
        influx = _engine(kind)
        server = GrafanaServer(influx)
        panel = Panel(id=1, title="p", targets=[
            Target("cpu", "_cpu0", tag="t1"), Target("cpu", "_cpu1", tag="t2")])
        for tenant in (None, "a"):
            server.execute_panel(panel, t0=10.0, tenant=tenant)
            server.execute_panel(panel, t0=10.0, tenant=tenant)  # unmoved: read again
        assert server.cache_hits == 0 and server.cache_misses == 8
        assert len(server._cache) == 0
        assert server.tenant_cache_info("a") == {
            "entries": 0, "capacity": 512, "sealed": 0, "open": 0}

    def test_served_lists_are_independent_of_the_next_refresh(self, kind):
        influx = _engine(kind)
        server = GrafanaServer(influx)
        target = Target("cpu", "_cpu0", tag="t1")
        first = server.execute_target(target, 100.0)
        second = server.execute_target(target, 100.0)
        assert first[:2] == second[:2]
        assert first[0] is not second[0] and first[1] is not second[1]
        first[0].append(-1.0)
        first[1][:] = []
        third = server.execute_target(target, 100.0)
        assert third[:2] == second[:2] == GrafanaServer(influx).execute_target(
            target, 100.0)[:2]
        assert influx.points("pmove", "cpu", {"tag": "t1"})[100].fields["_cpu0"] == 100.0

    def test_a_merged_read_still_holds_and_slides_by_delta(self, kind):
        """Untagged, the read merges both series: the held answer and its
        delta apply as before; a one-series read after it drops the entry."""
        influx = _engine(kind)
        server = GrafanaServer(influx)
        both = Target("cpu", "_cpu0")
        server.execute_target(both, 10.0)
        assert len(server._cache) == 1
        influx.write("pmove", Point("cpu", {"tag": "t2"}, {"_cpu0": 1.0}, float(N)))
        got = server.execute_target(both, 11.0)
        assert got[:2] == GrafanaServer(influx).execute_target(both, 11.0)[:2]
        assert server.delta_serves == 1 and len(server._cache) == 1
        influx.delete_series("pmove", "cpu", {"tag": "t2"})  # one series left
        got = server.execute_target(both, 11.0)
        assert got[:2] == GrafanaServer(influx).execute_target(both, 11.0)[:2]
        assert server.delta_serves == 1 and len(server._cache) == 0


# ----------------------------------------------------------------------
# GROUP BY widths
# ----------------------------------------------------------------------
class TestGroupByWidth:
    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_target_refuses_a_width_no_statement_spells(self, width):
        with pytest.raises(DashboardError):
            Target("cpu", "_cpu0", agg="MEAN", group_by_s=width)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_from_json_refuses_a_non_finite_width(self, text):
        with pytest.raises(DashboardError):
            Target.from_json({"measurement": "cpu", "params": "_cpu0", "agg": "MEAN",
                              "groupBySeconds": text})

    @pytest.mark.parametrize("width", [1e-300, 2.5e-7, 1e16, 3.0, 0.1])
    def test_every_finite_positive_width_round_trips(self, width):
        influx = _engine("single")
        target = Target("cpu", "_cpu0", tag="t1", agg="MEAN", group_by_s=width)
        statement = GrafanaServer.target_statement(target, 0.0, 50.0)
        assert parse_query(statement).group_by_s == width
        times, values, _ = GrafanaServer(influx).execute_target(target, 0.0, 50.0)
        assert (times, values) == naive_execute(influx, "pmove", statement).series()
        assert times

    @pytest.mark.parametrize("width", ["0", "0.0", "-0.0", "0e5", "-5"])
    def test_a_zero_or_negative_width_is_refused_at_parse(self, width):
        influx = _engine("single")
        statement = f'SELECT MEAN("_cpu0") FROM "cpu" GROUP BY time({width}s)'
        for run in (parse_query, lambda s: execute(influx, "pmove", s),
                    lambda s: naive_execute(influx, "pmove", s)):
            with pytest.raises(InfluxError):
                run(statement)


# ----------------------------------------------------------------------
# Panel labels
# ----------------------------------------------------------------------
class TestPanelLabels:
    def test_worked_out_once_per_state_of_the_targets(self, monkeypatch):
        worked = []
        label = Panel._label
        monkeypatch.setattr(Panel, "_label", staticmethod(
            lambda targets: worked.append(len(targets)) or label(targets)))
        influx = _engine("single")
        server = GrafanaServer(influx)
        panel = Panel(id=1, title="p", targets=[
            Target("cpu", "_cpu0", tag="t1"), Target("cpu", "_cpu0", tag="t2")])
        for _ in range(3):
            assert list(server.execute_panel(panel)) == ["cpu_cpu0 [t1]", "cpu_cpu0 [t2]"]
        assert worked == [2]
        panel.targets.append(Target("cpu", "_cpu1", tag="t1"))  # edited in place
        assert list(server.execute_panel(panel)) == [
            "cpu_cpu0 [t1]", "cpu_cpu0 [t2]", "cpu_cpu1"]
        panel.targets = [Target("cpu", "_cpu1", tag="t1", alias="one")]  # replaced
        assert list(server.execute_panel(panel)) == ["one"]
        assert worked == [2, 3, 1]
        labels = panel.labels()
        labels.append("x")  # the caller's list
        assert panel.labels() == ["one"] and worked == [2, 3, 1]
