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
from repro.db.influxql import ResultSet, execute

__all__ = ["generate_queries", "recall", "query_for_component"]


def generate_queries(
    observation: dict[str, Any],
    agg: str | None = None,
    group_by_s: float | None = None,
) -> list[str]:
    """InfluxQL statements recalling every series of one observation.

    The default is the verbatim Listing 3 raw select.  ``agg`` (and
    optionally ``group_by_s``) generate the downsampled variant instead —
    ``SELECT AGG("f") ... GROUP BY time(Ns)`` — which the engine serves
    from its rollup tiers when the bucket width allows.
    """
    if observation.get("@type") != "ObservationInterface":
        raise ValueError("query generation needs an ObservationInterface entry")
    if group_by_s is not None and agg is None:
        agg = "MEAN"
    tag = observation["tag"]
    out: list[str] = []
    for m in observation["metrics"]:
        if agg is None:
            fields = ", ".join(f'"{f}"' for f in m["fields"])
        else:
            fields = ", ".join(f'{agg}("{f}")' for f in m["fields"])
        gb = f" GROUP BY time({group_by_s}s)" if group_by_s is not None else ""
        out.append(
            f'SELECT {fields} FROM "{m["measurement"]}" WHERE tag="{tag}"{gb}'
        )
    return out


def recall(
    influx: InfluxDB, database: str, observation: dict[str, Any]
) -> dict[str, ResultSet]:
    """Execute an observation's queries; returns measurement → results."""
    results: dict[str, ResultSet] = {}
    queries = observation.get("queries") or generate_queries(observation)
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
