"""A ``GROUP BY time(N)`` width whose bucket key overflows is refused.

Past ``t / N`` ≈ 1.8e308 the key ``(t // N) * N`` is ``inf``: every row
after ``t = 0`` would be labelled ``inf`` and folded into one bucket, and
the engine and the reference would agree on that wrong answer.  The width
alone cannot be judged (``1e-300`` is fine over small times), so each read
checks the times it folds, once, and every path refuses with one error.
"""

import pytest

from repro.db import influx as influx_module
from repro.db.aggregates import AGGREGATES
from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.influxql import execute, naive_execute
from repro.db.naive import NaiveInfluxDB
from repro.db.sharded import ShardedInfluxDB

ENGINES = {
    "single": InfluxDB,
    "sharded": lambda: ShardedInfluxDB(3),
    "naive": NaiveInfluxDB,
}
#: (engine, aggregate) for every ``GROUP BY time`` aggregate an engine
#: reads (the reference store answers only ``scan_buckets``)
CASES = [
    (kind, name)
    for kind, make in ENGINES.items()
    for name, a in AGGREGATES.items()
    if a.grouped is not None and hasattr(make(), a.grouped)
]


def _engine(kind: str, times):
    db = ENGINES[kind]()
    db.create_database("d")
    for i, t in enumerate(times):
        db.write("d", Point("m", {"host": f"h{i % 4}"}, {"v": float(i)}, float(t)))
    return db


def _statement(agg: str, width: str) -> str:
    call = "PERCENTILE(v, 95)" if agg == "PERCENTILE" else f"{agg}(v)"
    return f"SELECT {call} FROM m GROUP BY time({width}s)"


@pytest.mark.parametrize("kind, agg", CASES)
@pytest.mark.parametrize("times", [range(5), range(-4, 1)], ids=["pos", "neg"])
def test_an_overflowing_width_is_refused_by_every_path(kind, agg, times):
    db = _engine(kind, times)
    statement = _statement(agg, "5e-324")
    errors = []
    for run in (execute, naive_execute):
        with pytest.raises(InfluxError, match="bucket keys overflow") as info:
            run(db, "d", statement)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("kind, agg", CASES)
def test_a_tiny_width_that_does_not_overflow_still_answers(kind, agg):
    db = _engine(kind, range(5))
    statement = _statement(agg, "1e-300")
    rows = execute(db, "d", statement).rows
    assert list(rows) == list(naive_execute(db, "d", statement).rows)
    assert len(rows) == 5


def test_the_check_runs_once_per_read(monkeypatch):
    calls = []
    check = influx_module.check_bucket_keys
    monkeypatch.setattr(influx_module, "check_bucket_keys",
                        lambda *a: calls.append(a) or check(*a))
    db = _engine("single", range(40))
    rows = execute(db, "d", _statement("MEAN", "2")).rows
    assert len(rows) == 20
    assert calls == [(0.0, 39.0, 2.0)]
