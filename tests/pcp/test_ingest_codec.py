"""The line-protocol codec every durable record and WAL entry goes through.

Two things are pinned here.  The early-outs inside ``_split_unescaped`` /
``_unescape`` / ``_escape`` (``str.split`` or identity when a token holds
nothing to escape) answer exactly what the character walk and the regex
answer — those stay in this file as the references, and ``from_line`` is
compared with a parser built from them, exception type and message
included.  And a point either survives ``to_line`` → ``from_line``
unchanged or is refused with ``InfluxError``: never a different point.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import (
    InfluxDB,
    InfluxError,
    Point,
    _esc_len,
    _escape,
    _parse_field_value,
    _split_pair,
    _split_unescaped,
    _unescape,
)
from repro.pcp import CommitLog, LogProducer

# ----------------------------------------------------------------------
# references: a Python character walk and one regex per token
# ----------------------------------------------------------------------


def split_ref(s, sep):
    out, buf, i = [], "", 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            buf += s[i : i + 2]
            i += 2
            continue
        if ch == sep:
            out.append(buf)
            buf = ""
        else:
            buf += ch
        i += 1
    out.append(buf)
    return out


def pair_ref(kv):
    i = 0
    while i < len(kv):
        if kv[i] == "\\" and i + 1 < len(kv):
            i += 2
        elif kv[i] == "=":
            return kv[:i], kv[i + 1 :]
        else:
            i += 1
    return kv, ""


def escape_ref(s):
    return re.sub(r"([,= \\])", r"\\\1", s)


def unescape_ref(s):
    return re.sub(r"\\([,= \\])", r"\1", s)


def from_line_ref(line):
    parts = [p for p in split_ref(line.strip(), " ") if p != ""]
    if len(parts) < 2:
        raise InfluxError(f"malformed line protocol: {line!r}")
    ts = int(parts[2]) / 1e9 if len(parts) > 2 else 0.0
    key_parts = split_ref(parts[0], ",")
    tags = {}
    for kv in key_parts[1:]:
        k, v = pair_ref(kv)
        if not k or not v:
            raise InfluxError(f"malformed tag {kv!r}")
        tags[unescape_ref(k)] = unescape_ref(v)
    fields = {}
    for kv in split_ref(parts[1], ","):
        k, v = pair_ref(kv)
        if not k or v == "":
            raise InfluxError(f"malformed field {kv!r}")
        fields[unescape_ref(k)] = _parse_field_value(v)
    return Point(unescape_ref(key_parts[0]), tags, fields, ts)


def outcome(fn, *args):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(e), str(e))


#: tokens mix plain characters with every separator, the backslash (so
#: trailing and doubled ones turn up) and digits for field values
tokens = st.text(alphabet="ab,= \\1.", max_size=12)
#: whole lines: the same alphabet plus the shapes a number can take
lines = st.text(alphabet="mv,= \\01.i-e\t", max_size=24)

MALFORMED = [
    "only_measurement_no_fields",
    "m v=abc 0",
    "m,badtag v=1 0",
    "m v=4.5i 0",
    "m v=i 0",
    "m,k= v=1 0",
    "m,=v v=1 0",
    "m v= 0",
    "m =1 0",
    "m v=1 notatime",
    "m v=1,, 0",
    "",
    "   ",
    "!! not line protocol !!",
    "m,k=x\\ v=1 0",
    "m\\",
]


class TestEarlyOutsMatchTheWalk:
    @given(tokens, st.sampled_from([",", " ", "="]))
    def test_split(self, s, sep):
        assert _split_unescaped(s, sep) == split_ref(s, sep)

    @given(tokens)
    def test_pair(self, s):
        assert _split_pair(s) == pair_ref(s)

    @given(tokens)
    def test_escape_and_unescape(self, s):
        assert _escape(s) == escape_ref(s)
        assert _unescape(s) == unescape_ref(s)
        assert _unescape(_escape(s)) == s
        assert _esc_len(s) == len(escape_ref(s))

    @given(lines)
    @settings(max_examples=400)
    def test_from_line_on_arbitrary_text(self, line):
        assert outcome(Point.from_line, line) == outcome(from_line_ref, line)

    @pytest.mark.parametrize("line", MALFORMED)
    def test_from_line_on_every_malformed_shape(self, line):
        got = outcome(Point.from_line, line)
        assert got == outcome(from_line_ref, line)
        assert got[0] == "raised" and issubclass(got[1], ValueError)

    def test_plain_names_serialise_as_before(self):
        """No separator, no backslash: the bytes the goldens were cut from."""
        p = Point("kernel_all_load", {"tag": "sysstate-icl", "host": "n0"},
                  {"_1min": 0.5, "_5min": 1.25}, 12.5)
        assert p.to_line() == (
            "kernel_all_load,host=n0,tag=sysstate-icl _1min=0.5,_5min=1.25 12500000000"
        )


# ----------------------------------------------------------------------
# round trip: the same point, or a loud refusal
# ----------------------------------------------------------------------
#: names built to break a field apart: separators, backslashes (lone,
#: trailing, doubled), quotes, whitespace that is not a line break
SEPARATORS = "ab,= \\\t\xa0#\"'"
#: ... and to break a line apart: everything ``splitlines`` cuts at
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def names(alphabet):
    return st.text(alphabet=st.sampled_from(list(alphabet)), min_size=1, max_size=8)


def points(alphabet):
    values = st.floats(allow_nan=False) | st.integers(-10**6, 10**6).map(float)
    return st.builds(
        Point,
        names(alphabet),
        st.dictionaries(names(alphabet), names(alphabet), max_size=3),
        st.dictionaries(names(alphabet), values, min_size=1, max_size=3),
        st.integers(0, 10**6).map(float),
    )


def round_trip(p):
    """The parsed-back point, or None if either direction refused."""
    try:
        line = p.to_line()
        assert len(line.splitlines()) == 1
        return Point.from_line(line)
    except InfluxError:
        return None


class TestRoundTripOrRefusal:
    def test_backslash_before_a_separator_no_longer_merges_tags(self):
        p = Point("m", {"k": "x\\", "k2": "v"}, {"f": 1.0}, 1.0)
        assert p.to_line() == "m,k=x\\\\,k2=v f=1.0 1000000000"
        assert Point.from_line(p.to_line()) == p

    def test_lone_trailing_backslash_and_escaped_equals_survive(self):
        for p in (
            Point("m", {"k": "\\"}, {"f": 1.0}, 1.0),
            Point("m\\", {"a=b": "c"}, {"f=g\\": 2.0}, 0.0),
            Point(" m", {" ": " "}, {" ": 3.0}, 0.0),
        ):
            assert Point.from_line(p.to_line()) == p

    @pytest.mark.parametrize("p", [
        Point("m", {"k": "a\nb"}, {"f": 1.0}, 1.0),
        Point("m", {"k\r": "v"}, {"f": 1.0}, 1.0),
        Point("m\u2028", {}, {"f": 1.0}, 1.0),
        Point("m", {}, {"f\x85": 1.0}, 1.0),
        Point("\tm", {}, {"f": 1.0}, 1.0),
    ])
    def test_what_a_line_cannot_carry_is_refused(self, p):
        with pytest.raises(InfluxError, match="line break or leading whitespace"):
            p.to_line()

    def test_a_measurement_that_reads_as_a_comment_is_refused(self):
        """``#m,k=v f=1.0 1`` is a line ``write_lines`` skips: it used to
        be serialised, dropped on the way in and reported as 0 written."""
        p = Point("#m", {"k": "v"}, {"f": 1.0}, 1.0)
        with pytest.raises(InfluxError, match="comment"):
            p.to_line()
        influx = InfluxDB()
        influx.create_database("d")
        assert influx.write_lines("d", "#m,k=v f=1.0 1000000000") == 0
        influx.write("d", p)  # no line involved: the engine takes the name
        assert influx.measurements("d") == ["#m"]
        assert Point("m#", {"#k": "#"}, {"#f": 1.0}, 1.0).to_line()  # only leading

    @given(points(SEPARATORS))
    @settings(max_examples=300)
    def test_same_point_or_influx_error(self, p):
        back = round_trip(p)
        if p.measurement[0] in "\t\xa0#":
            assert back is None  # a parser would strip or skip it: refused instead
        else:
            assert back == p  # nothing else here is beyond escaping

    @given(points(SEPARATORS + LINE_BREAKS))
    def test_line_breaks_are_refused_never_cut(self, p):
        text = p.measurement + "".join(
            k + v for k, v in p.tags.items()) + "".join(p.fields)
        back = round_trip(p)
        if set(text) & set(LINE_BREAKS):
            assert back is None
        else:
            assert back in (None, p)

    @given(st.lists(points(SEPARATORS), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_through_a_log_record_and_the_byte_count(self, batch):
        """What the producer serialises, a consumer decodes; what the
        engine accounts as bytes written is the text's length."""
        if any(round_trip(p) is None for p in batch):
            return
        text = [p.to_line() for p in batch]
        log = CommitLog(n_partitions=1)
        records = LogProducer(log).produce(0.0, 0.0, batch, "t")
        decoded = [p for r in records for p in r.points()]
        # (repr prints tags in insertion order, which decoding does not keep)
        canonical = lambda p: repr(
            (p.measurement, sorted(p.tags.items()), sorted(p.fields.items()), p.time))
        assert sorted(decoded, key=canonical) == sorted(batch, key=canonical)
        influx = InfluxDB()
        influx.create_database("d")
        influx.write_many("d", batch)
        assert influx.stats("d")["bytes_written"] == sum(len(t) + 1 for t in text)
