"""Tests for dashboards (Listing 1), generation, Grafana server, renderers."""

import json

import pytest

from repro.core import KnowledgeBase, focus_view, level_view
from repro.db import InfluxDB, Point
from repro.machine import icl
from repro.probing import probe
from repro.viz import (
    Dashboard,
    DashboardError,
    GrafanaServer,
    Panel,
    SvgCanvas,
    Target,
    generate_dashboard,
    render_series_svg,
    render_series_text,
    sparkline,
)

LISTING1 = """
{
 "id": 1,
 "panels": [
  {"id": 1,
   "targets":
    [{"datasource": {"type": "influxdb", "uid": "UUkm1881"},
      "measurement": "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value",
      "params": "_cpu0"}]}],
 "time": {"from": "now-5m", "to": "now"}
}
"""


class TestDashboardModel:
    def test_listing1_parses(self):
        dash = Dashboard.loads(LISTING1)
        assert dash.id == 1
        t = dash.panels[0].targets[0]
        assert t.measurement == "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value"
        assert t.params == "_cpu0"
        assert t.datasource_uid == "UUkm1881"
        assert dash.time_from == "now-5m"

    def test_roundtrip(self):
        dash = Dashboard.loads(LISTING1)
        again = Dashboard.loads(dash.dumps())
        assert again.to_json() == dash.to_json()

    def test_file_share_roundtrip(self, tmp_path):
        """Dashboards are shareable JSON files (§III-B)."""
        dash = Dashboard.loads(LISTING1)
        p = dash.save(tmp_path / "dash.json")
        loaded = Dashboard.load(p)
        assert loaded.panels[0].targets[0].params == "_cpu0"
        json.loads(p.read_text())  # plain JSON on disk

    def test_validation(self):
        with pytest.raises(DashboardError):
            Target(measurement="", params="_v")
        with pytest.raises(DashboardError):
            Panel(id=1, title="x", targets=[])
        with pytest.raises(DashboardError):
            Dashboard.from_json({"id": 1})
        with pytest.raises(DashboardError):
            Target.from_json({"datasource": {}})

    def test_panel_lookup(self):
        dash = Dashboard.loads(LISTING1)
        assert dash.panel(1).id == 1
        with pytest.raises(DashboardError):
            dash.panel(99)


class TestGeneration:
    def test_view_to_dashboard(self):
        kb = KnowledgeBase.from_probe(probe(icl()))
        view = focus_view(kb, kb.find_by_name("cpu0").id, sw=True, hw=False)
        dash = generate_dashboard(view, datasource_uid="DS1")
        assert dash.title == view.name
        assert len(dash.panels) == len(view.panels)
        assert all(t.datasource_uid == "DS1" for p in dash.panels for t in p.targets)

    def test_level_view_panel_has_all_series(self):
        kb = KnowledgeBase.from_probe(probe(icl()))
        view = level_view(kb, "thread", metric="kernel.percpu.cpu.idle")
        dash = generate_dashboard(view)
        assert len(dash.panels[0].targets) == 16


class TestGrafanaServer:
    def make(self):
        influx = InfluxDB()
        influx.create_database("pmove")
        for t in range(10):
            influx.write("pmove", Point("m", {"tag": "x"}, {"_cpu0": float(t)}, float(t)))
        g = GrafanaServer(influx)
        dash = Dashboard(id=7, title="t", panels=[
            Panel(id=1, title="p", targets=[Target(measurement="m", params="_cpu0")])
        ])
        uid = g.register(dash)
        return g, uid

    def test_register_and_get(self):
        g, uid = self.make()
        assert uid in g.dashboards()
        assert g.get(uid).title == "t"
        with pytest.raises(DashboardError):
            g.get("nope")

    def test_register_json_listing1(self):
        g, _ = self.make()
        uid = g.register_json(LISTING1)
        assert g.get(uid).panels[0].targets[0].params == "_cpu0"

    def test_execute_panel_series(self):
        g, uid = self.make()
        series = g.execute_panel(g.get(uid).panel(1))
        (label, (times, values)), = series.items()
        assert values == [float(t) for t in range(10)]

    def test_execute_with_tag_and_window(self):
        g, uid = self.make()
        series = g.execute_panel(g.get(uid).panel(1), t0=3, t1=5, tag="x")
        _, (times, values) = next(iter(series.items()))
        assert times == [3.0, 4.0, 5.0]
        series = g.execute_panel(g.get(uid).panel(1), tag="other")
        _, (times, values) = next(iter(series.items()))
        assert times == []

    def test_render_text_and_svg(self):
        g, uid = self.make()
        text = g.render_panel_text(uid, 1)
        assert "p" in text
        svg = g.render_panel_svg(uid, 1)
        assert svg.startswith("<svg") and "</svg>" in svg
        full = g.render_dashboard_text(uid)
        assert "== t ==" in full


class TestSeriesLabels:
    """``Panel.labels`` is the one label rule, for ``execute_panel`` and the
    serving frontend alike: no target's series overwrites another's."""

    def served(self, panel, points):
        from repro.serve import ServingFrontend, TenantConfig

        influx = InfluxDB()
        influx.create_database("pmove")
        influx.write_many("pmove", points)
        direct = GrafanaServer(influx).execute_panel(panel)
        fe = ServingFrontend(GrafanaServer(influx), [TenantConfig("a")], keep_results=True)
        rid = fe.submit("a", panel, at=0.0)
        fe.drain()
        assert fe.results[rid] == direct and list(direct) == panel.labels()
        return direct

    def test_one_line_per_execution_of_one_field(self):
        """Fig 2 c/d: one measurement and field under two tags, no alias."""
        panel = Panel(id=1, title="runs", targets=[
            Target("kernel", "_flops", tag="run-a"), Target("kernel", "_flops", tag="run-b")])
        series = self.served(panel, [
            Point("kernel", {"tag": f"run-{r}"}, {"_flops": v}, 1.0)
            for r, v in (("a", 1.0), ("b", 2.0))])
        assert series == {"kernel_flops [run-a]": ([1.0], [1.0]),
                          "kernel_flops [run-b]": ([1.0], [2.0])}

    def test_long_names_sharing_their_last_40_characters(self):
        tail = "x" * 36 + "_cpu"
        panel = Panel(id=1, title="long", targets=[
            Target("node.a." + tail, "0"), Target("node.b." + tail, "0"),
            Target("node.b." + tail, "0", tag="t"), Target("other", "v")])
        cut = (tail + "0")[-40:]
        assert panel.labels() == [f"{cut} #1", f"{cut} #2", f"{cut} [t]", "otherv"]
        series = self.served(panel, [
            Point(f"node.{n}.{tail}", {"tag": "t"}, {"0": v}, 1.0)
            for n, v in (("a", 1.0), ("b", 2.0))])
        assert [v for _, v in series.values()] == [[1.0], [2.0], [2.0], []]

    def test_labels_that_do_not_collide_are_what_they_always_were(self):
        panel = Panel(id=1, title="p", targets=[
            Target("cpu", "_cpu0", tag="t1"), Target("cpu", "_cpu1", tag="t1"),
            Target("m" * 50, "_v"), Target("cpu", "_cpu0", alias="named")])
        assert panel.labels() == ["cpu_cpu0", "cpu_cpu1", "m" * 38 + "_v", "named"]


class TestRenderers:
    def test_sparkline_shape(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8], width=9)
        assert len(s) == 9
        assert s[0] == " " and s[-1] == "█"

    def test_sparkline_flat(self):
        assert set(sparkline([5, 5, 5])) == {"█"}

    def test_sparkline_empty_and_bad_width(self):
        assert sparkline([]) == ""
        with pytest.raises(ValueError):
            sparkline([1], width=0)

    def test_series_text(self):
        out = render_series_text("T", {"a": ([0, 1], [1.0, 2.0])})
        assert out.startswith("T")
        assert "a" in out

    def test_series_svg_no_data(self):
        svg = render_series_svg("T", {"a": ([], [])})
        assert "no data" in svg

    def test_series_svg_lines(self):
        svg = render_series_svg("T", {"a": ([0, 1, 2], [1.0, 4.0, 2.0])})
        assert "polyline" in svg

    def test_svg_canvas_validation(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10)
        c = SvgCanvas(10, 10)
        with pytest.raises(ValueError):
            c.polyline([(0, 0)], "#fff")

    def test_svg_text_escaped(self):
        c = SvgCanvas(10, 10)
        c.text(1, 1, "<script>")
        assert "<script>" not in c.to_string()
        assert "&lt;script&gt;" in c.to_string()
