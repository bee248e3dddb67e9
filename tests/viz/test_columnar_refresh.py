"""A sliding-window refresh costs O(1) Python work per statement.

Three things hold that up, each checked here by counting or by equality,
never by wall time:

- the window goes into a copy of the target's parsed *time-free* statement,
  and that copy is the ``Query`` parsing the full text would have given;
- a miss reads ``(times, values)`` off the engine's columns: no row tuple
  is built, and the parser sees one text per target, once;
- what a refresh hands out is the caller's to edit — neither engine
  storage nor the cached copy moves.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import influxql
from repro.db.influx import ColumnRows, InfluxDB, InfluxError, Point
from repro.db.influxql import naive_execute, parse_query
from repro.serve import ServingFrontend, TenantConfig
from repro.viz.dashboard import DashboardError, Panel, Target
from repro.viz.grafana import GrafanaServer, _timefree, _windowed

HOSTILE_TAGS = [
    "", "t1", "278e26c2-3fd3-45e4-862b-5646dc9e7aa0",
    'say "hi"', "bob's", "a\"b'c",
    "x AND y", 'x" AND time >= 5', "time >= 5", "time>=5", "tag=other",
    " GROUP BY time(5s)", 'q" GROUP BY time(5s)', " LIMIT 3", "WHERE", " padded ",
]

tags = st.one_of(
    st.sampled_from(HOSTILE_TAGS),
    st.text(alphabet="ANDandtime tg=<>\"'5.e-()sLIMIT", max_size=12),
)
bounds = st.one_of(
    st.none(),
    st.integers(-(10**6), 10**12),
    st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 1e22, 1.7e308, -3.5, 300.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
targets = st.one_of(
    st.builds(Target, measurement=st.sampled_from(["cpu", "kernel.all.load"]),
              params=st.sampled_from(["_cpu0", "v"]), tag=tags),
    st.builds(Target, measurement=st.just("cpu"), params=st.just("_cpu0"), tag=tags,
              agg=st.sampled_from(["MEAN", "MAX", "COUNT"]),
              group_by_s=st.sampled_from([0.0, 7.0, 60.0])),
    st.builds(Target, measurement=st.just("cpu"), params=st.just("_cpu0"), tag=tags,
              agg=st.just("PERCENTILE"), agg_arg=st.sampled_from([50.0, 99.0, 99.9]),
              group_by_s=st.sampled_from([0.0, 60.0])),
)


def _outcome(fn):
    try:
        return fn()
    except (DashboardError, InfluxError) as exc:
        return type(exc)


class TestWindowedQueryIsTheParsedStatement:
    @given(targets, tags, bounds, bounds)
    @settings(max_examples=400, deadline=None)
    def test_template_equals_text_parse(self, target, tag, t0, t1):
        server = GrafanaServer(InfluxDB())
        via_text = _outcome(
            lambda: parse_query(server.target_statement(target, t0, t1, tag)))
        via_template = _outcome(lambda: _windowed(_timefree(target, tag)[1], t0, t1))
        assert via_template == via_text
        if not isinstance(via_text, type):
            # == on floats would let an int bound through as an int
            for bound in (via_template.t0, via_template.t1):
                assert bound is None or type(bound) is float

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", ["t0", "t1"])
    def test_non_finite_bound_is_an_influx_error_on_both_paths(self, bad, side):
        influx = InfluxDB()
        influx.create_database("pmove")
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 1.0))
        server = GrafanaServer(influx)
        target = Target("cpu", "_cpu0", tag="t1")
        with pytest.raises(InfluxError):
            parse_query(server.target_statement(target, **{side: bad}))
        with pytest.raises(InfluxError):
            server.execute_panel(Panel(id=1, title="p", targets=[target]), **{side: bad})
        with pytest.raises(InfluxError):
            server.execute_target(target, **{side: bad})


# ----------------------------------------------------------------------
N_POINTS, WINDOW, REFRESHES = 600, 300.0, 50


def _live_panel():
    influx = InfluxDB()
    influx.create_database("pmove")
    influx.write_many("pmove", [
        Point("cpu", {"tag": "t1"}, {"_cpu0": float(i)}, float(i))
        for i in range(N_POINTS)
    ])
    panel = Panel(id=1, title="cpu", targets=[Target("cpu", "_cpu0", tag="t1")])
    return influx, GrafanaServer(influx), panel


@pytest.fixture
def rows_built(monkeypatch):
    """Row tuples the engine's row view has been made to build."""
    built = []
    build = ColumnRows._build_rows

    def spy(self):
        rows = build(self)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(ColumnRows, "_build_rows", spy)
    return built


def _slide(influx, i):
    """One new sample lands; the panel shows the last WINDOW seconds."""
    now = float(N_POINTS + i)
    influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": now}, now))
    return now - WINDOW, now


def _expected(influx, t0, t1):
    rows = naive_execute(
        influx, "pmove",
        f'SELECT "_cpu0" FROM "cpu" WHERE tag="t1" AND time >= {t0} AND time <= {t1}',
    ).rows
    return [t for t, _ in rows], [r[0] for _, r in rows]


class TestRefreshCounts:
    def test_grafana_refresh_builds_no_rows_and_parses_once(self, rows_built):
        influx, server, panel = _live_panel()
        parse_misses, answers = [], []
        for i in range(REFRESHES):
            t0, t1 = _slide(influx, i)
            answers.append((t0, t1, server.execute_panel(panel, t0=t0, t1=t1)))
            parse_misses.append(influxql._parse_query_cached.cache_info().misses)
        assert server.cache_misses == REFRESHES  # every one reached the engine
        assert rows_built == []
        assert parse_misses[-1] == parse_misses[0]
        for t0, t1, series in answers:  # (the oracle does build rows)
            assert series == {"cpu_cpu0": _expected(influx, t0, t1)}
            assert len(series["cpu_cpu0"][0]) == int(WINDOW) + 1

    def test_serving_frontend_refresh_builds_no_rows_and_parses_once(self, rows_built):
        influx, server, panel = _live_panel()
        fe = ServingFrontend(server, [TenantConfig("a")], keep_results=True)
        parse_misses, asked = [], []
        for i in range(REFRESHES):
            t0, t1 = _slide(influx, i)
            asked.append((fe.submit("a", panel, at=float(i), t0=t0, t1=t1), t0, t1))
            fe.drain()
            parse_misses.append(influxql._parse_query_cached.cache_info().misses)
        assert server.cache_misses == REFRESHES
        assert rows_built == []
        assert parse_misses[-1] == parse_misses[0]
        for rid, t0, t1 in asked:
            assert fe.outcomes[rid] == "done"
            assert fe.results[rid] == {"cpu_cpu0": _expected(influx, t0, t1)}

    def test_sparse_column_drops_holes_without_building_rows(self, rows_built):
        influx, server, _ = _live_panel()
        influx.write_many("pmove", [
            Point("cpu", {"tag": "t1"}, {"_cpu1": 1.0}, float(t)) for t in (10.5, 11.5)
        ])
        panel = Panel(id=2, title="p", targets=[
            Target("cpu", "_cpu0", tag="t1"), Target("cpu", "_cpu1", tag="t1"),
            Target("cpu", "never", tag="t1"),
        ])
        got = server.execute_panel(panel, t0=10.0, t1=12.0)
        assert rows_built == []
        assert got == {
            "cpu_cpu0": ([10.0, 11.0, 12.0], [10.0, 11.0, 12.0]),
            "cpu_cpu1": ([10.5, 11.5], [1.0, 1.0]),
            "cpunever": ([], []),
        }


class TestServedSeriesAreTheCallers:
    def test_editing_a_miss_or_a_hit_moves_neither_cache_nor_storage(self):
        influx, server, panel = _live_panel()
        want = {"cpu_cpu0": _expected(influx, 100.0, 400.0)}
        stored = influx.points("pmove", "cpu")
        for expect_hits in (0, 1, 2):
            got = server.execute_panel(panel, t0=100.0, t1=400.0)
            assert server.cache_hits == expect_hits
            assert got == want
            times, values = got["cpu_cpu0"]
            times[:] = [-1.0]
            values.append(1e9)
        assert influx.points("pmove", "cpu") == stored
        assert GrafanaServer(influx).execute_panel(panel, t0=100.0, t1=400.0) == want
