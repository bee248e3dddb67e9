"""Tag-value interpolation into InfluxQL WHERE clauses.

The regression under test: a tag value containing ``"`` used to be
emitted inside double quotes, producing a malformed statement that the
parser silently truncated at the embedded quote — the query then matched
a *different* tag.  Now such values are emitted single-quoted (the
grammar's other literal form) and unrepresentable values are rejected
loudly instead of interpolated wrongly.
"""

import pytest

from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.influxql import parse_query, quote_tag_value
from repro.viz.dashboard import DashboardError, Panel, Target
from repro.viz.grafana import GrafanaServer


class TestQuoteTagValue:
    def test_plain_value_stays_double_quoted(self):
        assert quote_tag_value("t1") == '"t1"'
        assert quote_tag_value("278e26c2-3fd3") == '"278e26c2-3fd3"'

    def test_value_with_double_quote_switches_to_single(self):
        assert quote_tag_value('he said "hi"') == "'he said \"hi\"'"

    def test_value_with_single_quote_stays_double(self):
        assert quote_tag_value("bob's host") == '"bob\'s host"'

    def test_both_quote_kinds_rejected(self):
        with pytest.raises(InfluxError, match="mixes single and double"):
            quote_tag_value("a\"b'c")

    def test_and_separator_rejected(self):
        """A value the parser's AND-splitter would cut in half can never
        reach a statement — that is an injection, not a tag."""
        with pytest.raises(InfluxError, match="AND separator"):
            quote_tag_value('x AND time >= 0')
        with pytest.raises(InfluxError, match="AND separator"):
            quote_tag_value("x and y")  # splitter is case-insensitive

    def test_android_is_a_fine_tag_value(self):
        """Only a *separator* AND (whitespace on both sides) is hostile."""
        assert quote_tag_value("android") == '"android"'
        assert quote_tag_value("BANDWIDTH") == '"BANDWIDTH"'


class TestTargetStatementRegression:
    def test_plain_statement_byte_identical_to_legacy_format(self):
        stmt = GrafanaServer.target_statement(
            Target("cpu", "_cpu0", tag="t1"), t0=0.0, t1=100.0
        )
        assert stmt == (
            'SELECT "_cpu0" FROM "cpu" WHERE tag="t1"'
            " AND time >= 0.0 AND time <= 100.0"
        )

    def test_quoted_value_statement_parses_to_the_exact_tag(self):
        hostile = 'node "rack-7"'
        stmt = GrafanaServer.target_statement(Target("cpu", "_cpu0", tag=hostile))
        q = parse_query(stmt)
        assert q.tag_filters == (("tag", hostile),)

    def test_hostile_tag_round_trips_through_execution(self):
        """End to end: write under a quote-bearing tag, query it back
        through the generated statement, get exactly those rows."""
        hostile = 'gpu "a100" node'
        influx = InfluxDB()
        influx.create_database("pmove")
        influx.write_many("pmove", [
            Point("cpu", {"tag": hostile}, {"v": 1.0}, 1.0),
            Point("cpu", {"tag": hostile}, {"v": 2.0}, 2.0),
            Point("cpu", {"tag": "other"}, {"v": 99.0}, 1.5),
        ])
        server = GrafanaServer(influx)
        panel = Panel(id=1, title="p", targets=[Target("cpu", "v", tag=hostile)])
        times, values = next(iter(server.execute_panel(panel).values()))
        assert times == [1.0, 2.0] and values == [1.0, 2.0]

    def test_unrepresentable_tag_raises_before_reaching_the_engine(self):
        server = GrafanaServer(InfluxDB())
        with pytest.raises(DashboardError):
            server.target_statement(Target("cpu", "v", tag="a\"b'c"))
