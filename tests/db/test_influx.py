"""Tests for the InfluxDB substrate: line protocol, writes, retention."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import InfluxDB, InfluxError, Point, ShardedInfluxDB


def mk_db():
    db = InfluxDB()
    db.create_database("pmove")
    return db


class TestPoint:
    def test_requires_measurement(self):
        with pytest.raises(InfluxError):
            Point("", {}, {"v": 1.0}, 0.0)

    def test_requires_fields(self):
        with pytest.raises(InfluxError):
            Point("m", {}, {}, 0.0)

    def test_line_roundtrip(self):
        p = Point("cpu_idle", {"tag": "abc"}, {"_cpu0": 1.5, "_cpu1": 2.0}, 12.25)
        q = Point.from_line(p.to_line())
        assert q == p

    def test_line_roundtrip_with_escaping(self):
        p = Point("m easure,ment", {"k ey": "v,alue=x"}, {"f ield": 1.0}, 1.0)
        assert Point.from_line(p.to_line()) == p

    def test_paper_style_measurement_name(self):
        p = Point(
            "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value",
            {"tag": "278e26c2"},
            {"_cpu0": 42.0},
            3.5,
        )
        line = p.to_line()
        assert "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value" in line
        assert Point.from_line(line).fields["_cpu0"] == 42.0

    def test_malformed_line(self):
        with pytest.raises(InfluxError):
            Point.from_line("only_measurement_no_fields")

    def test_non_numeric_field(self):
        with pytest.raises(InfluxError, match="non-numeric"):
            Point.from_line("m v=abc 0")

    def test_malformed_tag(self):
        with pytest.raises(InfluxError, match="malformed tag"):
            Point.from_line("m,badtag v=1 0")

    def test_integer_typed_field_value(self):
        """Influx integer fields carry an ``i`` suffix: ``value=42i``."""
        p = Point.from_line("m value=42i 3000000000")
        assert p.fields == {"value": 42.0}
        assert p.time == 3.0

    def test_integer_field_roundtrip_emits_float(self):
        p = Point.from_line("m,tag=a value=-7i 1000000000")
        line = p.to_line()
        assert "value=-7.0" in line  # stored and re-emitted as float
        assert Point.from_line(line) == p

    def test_integer_suffix_malformed_still_rejected(self):
        with pytest.raises(InfluxError, match="non-numeric"):
            Point.from_line("m v=4.5i 0")
        with pytest.raises(InfluxError, match="non-numeric"):
            Point.from_line("m v=i 0")


class TestWriteRead:
    def test_unknown_database(self):
        db = InfluxDB()
        with pytest.raises(InfluxError, match="does not exist"):
            db.write("nope", Point("m", {}, {"v": 1.0}, 0.0))

    def test_empty_db_name(self):
        with pytest.raises(InfluxError):
            InfluxDB().create_database("")

    def test_write_and_scan(self):
        db = mk_db()
        db.write("pmove", Point("m", {"t": "a"}, {"v": 1.0}, 1.0))
        db.write("pmove", Point("m", {"t": "b"}, {"v": 2.0}, 2.0))
        assert len(db.points("pmove", "m")) == 2
        assert len(db.points("pmove", "m", tags={"t": "a"})) == 1

    def test_time_filters(self):
        db = mk_db()
        for i in range(10):
            db.write("pmove", Point("m", {}, {"v": float(i)}, float(i)))
        pts = db.points("pmove", "m", t0=3.0, t1=6.0)
        assert [p.time for p in pts] == [3.0, 4.0, 5.0, 6.0]

    def test_points_sorted_by_time(self):
        db = mk_db()
        for t in (5.0, 1.0, 3.0):
            db.write("pmove", Point("m", {}, {"v": t}, t))
        assert [p.time for p in db.points("pmove", "m")] == [1.0, 3.0, 5.0]

    def test_exclusive_time_bounds(self):
        """Boundary timestamps: strict > / < must exclude exact matches."""
        db = mk_db()
        for i in range(10):
            db.write("pmove", Point("m", {}, {"v": float(i)}, float(i)))
        pts = db.points("pmove", "m", t0=3.0, t1=6.0, t0_exclusive=True)
        assert [p.time for p in pts] == [4.0, 5.0, 6.0]
        pts = db.points("pmove", "m", t0=3.0, t1=6.0, t1_exclusive=True)
        assert [p.time for p in pts] == [3.0, 4.0, 5.0]
        pts = db.points(
            "pmove", "m", t0=3.0, t1=6.0, t0_exclusive=True, t1_exclusive=True
        )
        assert [p.time for p in pts] == [4.0, 5.0]

    def test_exclusive_bounds_with_duplicate_timestamps(self):
        db = mk_db()
        for v in (1.0, 2.0, 3.0):
            db.write("pmove", Point("m", {}, {"v": v}, 5.0))
        assert db.points("pmove", "m", t0=5.0, t0_exclusive=True) == []
        assert db.points("pmove", "m", t1=5.0, t1_exclusive=True) == []
        assert len(db.points("pmove", "m", t0=5.0, t1=5.0)) == 3

    def test_write_lines_batch(self):
        db = mk_db()
        batch = "m v=1.0 1000000000\nm v=2.0 2000000000\n# comment\n\n"
        assert db.write_lines("pmove", batch) == 2

    @pytest.mark.parametrize("make", [InfluxDB, lambda: ShardedInfluxDB(2)],
                             ids=["engine", "router"])
    def test_write_lines_rejects_batch_atomically(self, make):
        db = make()
        db.create_database("pmove")
        with pytest.raises(InfluxError):
            db.write_lines("pmove", "m v=1.0 1000000000\nm v=notanumber 0\n")
        assert db.points("pmove", "m") == []  # nothing landed

    def test_write_many_matches_sequential_writes(self):
        a, b = mk_db(), mk_db()
        pts = [
            Point("m", {"t": "x"}, {"v": float(i)}, float(9 - i)) for i in range(10)
        ]
        assert a.write_many("pmove", pts) == 10
        for p in pts:
            b.write("pmove", p)
        assert a.points("pmove", "m") == b.points("pmove", "m")
        assert a.stats("pmove") == b.stats("pmove")

    def test_out_of_order_writes_come_back_sorted(self):
        db = mk_db()
        for t in (7.0, 1.0, 4.0, 4.0, 0.5):
            db.write("pmove", Point("m", {"t": "x"}, {"v": t}, t))
        assert [p.time for p in db.points("pmove", "m")] == [0.5, 1.0, 4.0, 4.0, 7.0]

    def test_tag_index_isolates_series(self):
        db = mk_db()
        for i in range(5):
            db.write("pmove", Point("m", {"tag": "a"}, {"v": 1.0}, float(i)))
            db.write("pmove", Point("m", {"tag": "b", "host": "n1"}, {"v": 2.0}, float(i)))
        assert len(db.points("pmove", "m", tags={"tag": "a"})) == 5
        assert len(db.points("pmove", "m", tags={"tag": "b", "host": "n1"})) == 5
        assert db.points("pmove", "m", tags={"tag": "b", "host": "n2"}) == []
        assert db.stats("pmove")["series_count"] == 2

    def test_measurement_listing(self):
        db = mk_db()
        db.write("pmove", Point("b", {}, {"v": 1.0}, 0.0))
        db.write("pmove", Point("a", {}, {"v": 1.0}, 0.0))
        assert db.measurements("pmove") == ["a", "b"]

    def test_stats_counts_field_values(self):
        db = mk_db()
        db.write("pmove", Point("m", {}, {"a": 1.0, "b": 2.0}, 0.0))
        assert db.stats("pmove")["points_written"] == 2
        assert db.stats("pmove")["bytes_written"] > 0


class TestRetention:
    def test_no_policy_keeps_everything(self):
        db = mk_db()
        for t in range(100):
            db.write("pmove", Point("m", {}, {"v": 1.0}, float(t)))
        assert db.enforce_retention("pmove", now=1000.0) == 0

    def test_policy_drops_old_points(self):
        db = mk_db()
        db.set_retention_policy("pmove", duration_s=10.0)
        for t in range(100):
            db.write("pmove", Point("m", {}, {"v": 1.0}, float(t)))
        dropped = db.enforce_retention("pmove", now=99.0)
        assert dropped == 89
        remaining = db.points("pmove", "m")
        assert min(p.time for p in remaining) >= 89.0

    def test_empty_measurement_removed(self):
        db = mk_db()
        db.set_retention_policy("pmove", duration_s=1.0)
        db.write("pmove", Point("old", {}, {"v": 1.0}, 0.0))
        db.enforce_retention("pmove", now=100.0)
        assert db.measurements("pmove") == []

    def test_drop_database(self):
        db = mk_db()
        db.drop_database("pmove")
        assert db.databases() == []


field_names = st.from_regex(r"_?[a-zA-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)
tag_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_ ,="),
    min_size=1,
    max_size=12,
)


class TestLineProtocolProperties:
    @given(
        st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,12}", fullmatch=True),
        st.dictionaries(field_names, tag_values, max_size=3),
        st.dictionaries(
            field_names,
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=4,
        ),
        st.floats(0, 1e6),
    )
    @settings(max_examples=100)
    def test_roundtrip(self, meas, tags, fields, time):
        p = Point(meas, tags, fields, time)
        q = Point.from_line(p.to_line())
        assert q.measurement == p.measurement
        assert q.tags == p.tags
        assert set(q.fields) == set(p.fields)
        for k in p.fields:
            assert q.fields[k] == pytest.approx(p.fields[k], rel=1e-6, abs=1e-9)
        assert q.time == pytest.approx(p.time, abs=1e-8)
