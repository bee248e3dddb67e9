"""The line-protocol codec every durable record and WAL entry goes through.

Three things are pinned here.  The early-outs inside ``_split_unescaped`` /
``_unescape`` / ``_escape`` (``str.split`` or identity when a token holds
nothing to escape) answer exactly what the character walk and the regex
answer — those stay in this file as the references, and ``from_line`` is
compared with a parser built from them, exception type and message
included.  A point either survives ``to_line`` → ``from_line``
unchanged or is refused with ``InfluxError``: never a different point.
And its time travels as the nanosecond nearest it, and comes back as the
double nearest that nanosecond.  A commit-log record carries no line, but
its points are what that round trip would give, or the produce is refused.
"""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import (
    InfluxDB,
    _LINE_PARTS,
    _LINE_PARTS_CAP,
    InfluxError,
    Point,
    _escape,
    _parse_field_value,
    _split_pair,
    _split_unescaped,
    _unescape,
)
from repro.core.daemon import PMoVE
from repro.db.influxql import execute
from repro.machine import SimulatedMachine
from repro.machine.presets import get_preset
from repro.pcp import CommitLog, LogProducer
from repro.workloads.matrices import generate
from repro.workloads.spmv import spmv_descriptor

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
    ts = int(parts[2]) / 10**9 if len(parts) > 2 else 0.0
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


def _near_line(lead, measurement, tags, fields, ts, extra, seps, trail):
    sep = iter(seps * 4)
    line = lead + measurement + "".join(f",{k}={v}" for k, v in tags)
    line += next(sep) + ",".join(f"{k}={v}" for k, v in fields)
    for part in [ts, *extra]:
        line += next(sep) + part
    return line + trail


#: backslash-free lines a few characters from valid, where the decode's
#: early-out runs: empty tag values, '=' inside values, more than three
#: parts, leading / trailing / doubled spaces and tabs, 'i'-suffixed
#: integers, nan and inf
_name = st.text(alphabet="ab=", max_size=3)
_value = st.sampled_from([
    "1", "-2.5", "3e2", "42i", "-7i", "4.5i", "i", "nan", "inf", "-inf", "NaN",
    "Infinity", "", "1=2", "x", "1_0",
])
near_lines = st.builds(
    _near_line,
    st.sampled_from(["", " ", "\t", " \t "]),
    st.text(alphabet="m=", max_size=3),
    st.lists(st.tuples(_name, _name), max_size=3),
    st.lists(st.tuples(_name, _value), min_size=1, max_size=3),
    st.sampled_from(["", "0", "12500000000", "-5", "1.5", "1700000000250000000"]),
    st.lists(st.sampled_from(["", "x", "7", "="]), max_size=2),
    st.lists(st.sampled_from([" ", "  ", "\t", " \t"]), min_size=1, max_size=3),
    st.sampled_from(["", " ", "\t", " \n"]),
)


def canonical(result):
    """An outcome with a parsed point as its repr (NaN fields compare)."""
    return (result[0], repr(result[1])) if result[0] == "ok" else result


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

    @given(lines)
    @settings(max_examples=400)
    def test_from_line_on_arbitrary_text(self, line):
        assert outcome(Point.from_line, line) == outcome(from_line_ref, line)

    @given(near_lines)
    @settings(max_examples=400)
    def test_from_line_on_nearly_valid_lines(self, line):
        assert "\\" not in line
        got = outcome(Point.from_line, line)
        assert canonical(got) == canonical(outcome(from_line_ref, line))

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


def names(alphabet, min_size=1):
    return st.text(alphabet=st.sampled_from(list(alphabet)), min_size=min_size,
                   max_size=8)


def point_args(alphabet, min_size=1):
    values = st.floats(allow_nan=False) | st.integers(-10**6, 10**6).map(float)
    name = names(alphabet, min_size)
    return st.tuples(
        name,
        st.dictionaries(name, name, max_size=3),
        st.dictionaries(name, values, min_size=1, max_size=3),
        st.integers(0, 10**6).map(float),
    )


def points(alphabet):
    return point_args(alphabet).map(lambda args: Point(*args))


def round_trip(p):
    """The parsed-back point, or None if ``to_line`` refused it: a line it
    wrote that ``from_line`` refuses fails the test."""
    try:
        line = p.to_line()
    except InfluxError:
        return None
    assert len(line.splitlines()) == 1
    return Point.from_line(line)


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
        with pytest.raises(InfluxError, match="comment"):
            influx.write("d", p)  # no line involved: the engine refuses it too
        assert influx.measurements("d") == []
        assert Point("m#", {"#k": "#"}, {"#f": 1.0}, 1.0).to_line()  # only leading

    @given(point_args(SEPARATORS, min_size=0))
    @settings(max_examples=300)
    def test_same_point_or_influx_error(self, args):
        measurement, tags, fields, _ = args
        try:
            p = Point(*args)
        except InfluxError:
            assert measurement == ""  # the one name a point is built without
            return
        back = round_trip(p)
        if measurement[0] in "\t\xa0#" or "" in {*tags, *tags.values(), *fields}:
            # a parser would strip, skip or refuse it: refused before a line is
            assert back is None
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


# ----------------------------------------------------------------------
# time: the nanosecond nearest the point's time, and back to that double
# ----------------------------------------------------------------------
class TestTimeIsCarriedExactly:
    @pytest.mark.parametrize("t", [4.1, 1700000000.25])
    def test_a_line_selects_what_a_direct_write_selects(self, t):
        """Both came back moved: 4.1 as 4.099999999 (the encoder truncated
        ``t * 1e9``), 1700000000.25 as 1700000000.2499998 (the decoder
        divided by ``1e9`` in floats), and a ``time >= t`` read lost them."""
        p = Point("m", {"k": "v"}, {"v": 1.0}, t)
        assert Point.from_line(p.to_line()) == p
        statement = f'SELECT "v" FROM "m" WHERE time >= {t!r}s'
        answers = []
        for write in (lambda db: db.write("d", p),
                      lambda db: db.write_lines("d", p.to_line())):
            db = InfluxDB()
            db.create_database("d")
            write(db)
            answers.append(list(execute(db, "d", statement).rows))
        assert answers == [[(t, [1.0])]] * 2

    @given(st.integers(-(2 * 10**9), 2 * 10**9), st.integers(0, 10**9 - 1))
    @settings(max_examples=300)
    def test_every_whole_nanosecond_time_round_trips(self, s, ns):
        t = (s * 10**9 + ns) / 10**9  # the double nearest that nanosecond
        p = Point("m", {}, {"v": 0.0}, t)
        line = p.to_line()
        assert Point.from_line(line).time == t
        influx = InfluxDB()
        influx.create_database("d")
        influx.write("d", p)
        assert influx.stats("d")["bytes_written"] == len(line) + 1

    @given(st.floats(-1e12, 1e12)
           | st.integers(-(2**40), 2**40).map(lambda k: k / 1024))  # ticks
    @settings(max_examples=150)
    def test_any_other_time_is_quantised_to_the_nearest_nanosecond(self, t):
        ns = int(Point("m", {}, {"v": 0.0}, t).to_line().rsplit(" ", 1)[1])
        s = math.floor(t)  # the formula, without the whole-product shortcut
        assert ns == s * 10**9 + round((t - s) * 1e9)
        # half a nanosecond, and the one rounding of the fraction's product
        assert abs(ns - Fraction(t) * 10**9) <= Fraction(1, 2) + Fraction(1, 10**6)


def test_the_series_memo_is_bounded_and_answers_what_a_fresh_encode_does():
    """``to_line`` keeps each series' escaped head and field names; past
    the cap the memo starts over, and no line depends on what it held."""
    series = [
        Point(f"m{i % 7}", {"host": f"h{i}", "a b": "c,d"}, {"v=": 1.5, "u": -2.0},
              i + 0.25)
        for i in range(_LINE_PARTS_CAP + 10)
    ]
    first = [p.to_line() for p in series]
    assert 0 < len(_LINE_PARTS) <= _LINE_PARTS_CAP
    _LINE_PARTS.clear()
    assert [p.to_line() for p in reversed(series)] == first[::-1]
    assert Point.from_line(first[-1]) == series[-1]


def test_new_series_grow_no_module_state_past_the_memo_cap():
    """What a write learns about a series stays with the engine: no
    module-level dict or set holds more than the line memo's cap after
    5 000 series (an escaped-length memo held one entry per tag value
    ever billed, for the life of the process)."""
    import repro.db.influx as module

    influx = InfluxDB()
    influx.create_database("d")
    for i in range(5000):
        p = Point("m", {"host": f"h{i}"}, {"v": 1.0}, float(i))
        influx.write("d", p)
        p.to_line()
    influx.stats("d")  # bills every row
    held = {name: len(v) for name, v in vars(module).items()
            if isinstance(v, (dict, set)) and not name.startswith("__")}
    assert held and max(held.values()) <= _LINE_PARTS_CAP, held


def test_durable_scenario_b_over_spmv_parks_nothing():
    """An SpMV descriptor's runtime is a ``numpy.float64``.  It used to
    leak into the clock, so tick times and counter values were numpy
    doubles too, and ``to_line`` wrote ``v=np.float64(…)``: ``from_line``
    refused it: below, 96 of the 130 records were parked as parse errors,
    and 256 of the 1 040 points never landed."""
    daemon = PMoVE(seed=7)
    machine = SimulatedMachine(get_preset("icl"), seed=7)
    daemon.attach_target(machine)
    pipe = daemon.enable_durable_ingest()
    matrix = generate("adaptive", scale=0.001, seed=7)
    for k in range(3):
        desc = spmv_descriptor(matrix, machine.spec, n_threads=8, nnz_scale=9000)
        daemon.scenario_b("icl", desc, ["FLOPS_DP", "LOADS"], freq_hz=32,
                          n_threads=8, mode="durable", tag=f"spmv-{k}")
        stats = daemon.target("icl").sampler.last_stats
        assert stats.parked_records == 0
        assert stats.applied_records == stats.produced_records > 0
    pipe.drain(machine.clock.now() + 10.0)
    assert daemon.health()["ingest"]["dlq_by_reason"] == {}
    stored = [p for m in daemon.influx.measurements("pmove")
              for p in daemon.influx.points("pmove", m)]
    assert stored
    assert all(type(p.time) is float for p in stored)
    assert all(type(v) is float for p in stored for v in p.fields.values())


# ----------------------------------------------------------------------
# a commit-log record: the text round trip, without the text
# ----------------------------------------------------------------------
#: hostile values a sampler could leak: the line would write them as
#: ``np.float64(1.5)``, ``True``, ``'1.5'``, and a consumer would park it
HOSTILE = [np.float64(1.5), True, "1.5"]


def _name(rng, size):
    n = rng.randint(0 if rng.random() < 0.1 else 1, size)  # rarely empty
    return "".join(rng.choice(SEPARATORS) for _ in range(n))


def _value(rng):
    kind = rng.random()
    if kind < 0.4:
        return rng.uniform(-1e6, 1e6)
    if kind < 0.75:
        return rng.randint(-(2**60), 2**60)  # an int: carried as its float
    if kind < 0.9:
        return rng.choice([0.0, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan])
    return rng.choice(HOSTILE) if rng.random() < 0.3 else float(rng.randint(-9, 9))


def random_point(rng):
    """Names over the separators (empty ones too), fields and tags in any
    order, values of every type a sampler hands over and a time that is
    mostly not a whole nanosecond."""
    fields = {}
    for _ in range(rng.randint(1, 4)):
        fields[_name(rng, 4) or "f"] = _value(rng)
    tags = {_name(rng, 3): _name(rng, 3) for _ in range(rng.randint(0, 3))}
    t = rng.uniform(-1e9, 1e9) if rng.random() < 0.8 else float(rng.randint(0, 99))
    return Point(_name(rng, 5) or "m", tags, fields, t)


def as_read(p):
    """Everything a consumer can tell apart, in the dicts' own order."""
    return (p.measurement, list(p.tags.items()),
            [(k, type(v), repr(v)) for k, v in p.fields.items()], p.time)


class TestTypedRecord:
    @given(st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_a_record_holds_what_the_line_would_read_back(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            try:
                p = random_point(rng)
            except InfluxError:
                continue  # a value or time refused at construction
            try:
                want = Point.from_line(p.to_line())
            except InfluxError:
                want = None
            log = CommitLog(n_partitions=2)
            try:
                (rec,) = LogProducer(log).produce(0.0, 0.0, [p], "t")
            except InfluxError:
                assert want is None  # refused where the text would be lost
                assert log.appended_records == 0
                continue
            assert want is not None
            assert [as_read(q) for q in rec.points()] == [as_read(want)]
            assert rec.n_fields == len(want.fields)

    @pytest.mark.parametrize("value", [*HOSTILE, None], ids=repr)
    def test_a_value_the_line_would_lose_is_refused_at_produce(self, value):
        good = Point("m", {"tag": "t"}, {"v": 1.0}, 1.0)
        bad = Point("m2", {"tag": "t"}, {"v": 1.0}, 1.0)
        bad.fields["v"] = value  # as a sampler would leave it
        log = CommitLog(n_partitions=2)
        producer = LogProducer(log)
        with pytest.raises(InfluxError):
            producer.produce(1.0, 1.0, [good, bad], "t")
        assert log.appended_records == 0 and log.topics() == []
        assert len(producer) == 0 and producer.produced_records == 0

    def test_the_record_does_not_share_the_callers_fields(self):
        fields = {"b": 2, "a": 1.5}
        p = Point("m", {"z": "1", "k": "v"}, fields, 0.1)
        log = CommitLog(n_partitions=1)
        (rec,) = LogProducer(log).produce(0.0, 0.0, [p], "t")
        fields["a"] = -1.0
        fields["c"] = 3.0
        p.tags["k"] = "w"
        (q,) = rec.points()
        assert as_read(q) == ("m", [("k", "v"), ("z", "1")],
                              [("a", float, "1.5"), ("b", float, "2.0")], 0.1)
        assert rec.lines == "m,k=v,z=1 a=1.5,b=2.0 100000000"

    def test_a_parked_record_shows_its_payload_as_lines(self):
        """DLQ inspection (and the chaos lane's artifacts) carry what
        parked: a record's points rendered as lines, poison as it came."""
        log = CommitLog(n_partitions=1)
        p = Point("m", {"k": "v"}, {"b": 2, "a": 0.5}, 1.0)
        (rec,) = LogProducer(log).produce(0.0, 0.0, [p], "t")
        poison = log.inject_poison("m")
        log.park("g", rec, "apply-error", "down", 8)
        log.park("g", poison, "parse-error", "bad", 0)
        assert [d["lines"] for d in log.dlq.to_dicts()] == [
            "m,k=v a=0.5,b=2.0 1000000000", "!! not line protocol !!"]
