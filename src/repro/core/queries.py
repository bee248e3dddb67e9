"""Automatic query generation and recall (Listing 3, §III-C).

"Using the parameters in KB, queries are generated to automatically retrieve
data through these entries."  Given an ObservationInterface entry, the
generator emits one InfluxQL statement per sampled measurement, selecting
exactly the instance fields the observation touched and filtering on its
unique tag — the verbatim shape of the paper's Listing 3.  :func:`recall`
executes them against the time-series store.
"""

from __future__ import annotations

from typing import Any

from repro.db.influx import InfluxDB
from repro.db.influxql import Query, ResultSet, execute, quote_tag_value

__all__ = ["generate_queries", "recall", "query_for_component"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "core.daemon": {
        None: ("generate_queries", "recall"),
    },
}


def generate_queries(
    observation: dict[str, Any],
    agg: str | None = None,
    group_by_s: float | None = None,
) -> list[str]:
    """InfluxQL statements recalling every series of one observation.

    The default is the verbatim Listing 3 raw select.  ``agg`` (and
    optionally ``group_by_s``) generate the downsampled variant instead —
    ``SELECT AGG("f") ... GROUP BY time(Ns)`` — which the engine serves
    from its rollup tiers when the bucket width allows.  The tag is quoted
    as the grammar allows (:func:`~repro.db.influxql.quote_tag_value`); a
    tag no statement can carry raises :class:`~repro.db.influx.InfluxError`.
    """
    if observation.get("@type") != "ObservationInterface":
        raise ValueError("query generation needs an ObservationInterface entry")
    if group_by_s is not None and agg is None:
        agg = "MEAN"
    where = f"tag={quote_tag_value(observation['tag'])}"
    out: list[str] = []
    for m in observation["metrics"]:
        if agg is None:
            fields = ", ".join(f'"{f}"' for f in m["fields"])
        else:
            fields = ", ".join(f'{agg}("{f}")' for f in m["fields"])
        gb = f" GROUP BY time({group_by_s}s)" if group_by_s is not None else ""
        out.append(
            f'SELECT {fields} FROM "{m["measurement"]}" WHERE {where}{gb}'
        )
    return out


def recall(
    influx: InfluxDB,
    database: str,
    observation: dict[str, Any],
    plans: list[Query] | None = None,
) -> dict[str, ResultSet]:
    """Execute an observation's queries; returns measurement → results.

    ``plans`` are its statements already parsed, in order (the daemon
    holds them per observation); without them the texts are executed."""
    results: dict[str, ResultSet] = {}
    queries = plans or observation.get("queries") or generate_queries(observation)
    for m, q in zip(observation["metrics"], queries):
        results[m["measurement"]] = execute(influx, database, q)
    return results


def query_for_component(kb, dtmi: str, window_s: float | None = None) -> list[str]:
    """Queries for every telemetry stream of one KB component — what a
    focus-view dashboard panel executes."""
    iface = kb.get(dtmi)
    out = []
    for t in iface.telemetry():
        where = f" WHERE time >= {window_s}" if window_s is not None else ""
        out.append(f'SELECT "{t.field_name}" FROM "{t.db_name}"{where}')
    return out
