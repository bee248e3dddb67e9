"""Continuous queries: standing dashboard targets over closed buckets.

Real InfluxDB lets operators register ``CONTINUOUS QUERY`` statements that
downsample on a schedule so dashboards read precomputed rows instead of
rescanning raw points.  :class:`ContinuousQueryRegistrar` plays that role
for :class:`~repro.viz.grafana.GrafanaServer`: a registered target (its
``agg``/``agg_arg``/``group_by_s`` describe e.g. ``PERCENTILE("lat", 99)
... GROUP BY time(60s)``) has a watermark that :meth:`refresh` advances
over the buckets closed since, and :meth:`series` is the engine's answer
over ``[start_t, watermark)``.

The precomputed rows are the engine's own: a ``PERCENTILE`` over a rollup
tier-aligned ``GROUP BY time`` window answers each bucket from its tier
t-digest, and what that digest answered is kept beside it, so a closed
bucket asked again is a slice read — no second copy of the answers lives
here.  Late data needs no replay window either: a write behind the
watermark re-folds its own bucket in the engine, and the next
:meth:`series` serves it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from repro.db.influxql import execute

from .dashboard import DashboardError, Target
from .grafana import GrafanaServer

__all__ = ["ContinuousQuery", "ContinuousQueryRegistrar"]


@dataclass
class ContinuousQuery:
    """One registered target (name + target + progress state)."""

    name: str
    target: Target
    start_t: float
    #: Exclusive upper bound of served time: every bucket whose key is
    #: below it was closed at the last refresh.
    watermark: float = 0.0
    refreshes: int = 0

    def __post_init__(self) -> None:
        """``start_t`` floors to its bucket's start."""
        g = self.target.group_by_s
        if not self.target.agg or g <= 0:
            raise DashboardError(f"continuous query {self.name!r} needs an agg "
                                 "and GROUP BY time (group_by_s > 0)")
        self.watermark = self.start_t = (self.start_t // g) * g


class ContinuousQueryRegistrar:
    """Registry + refresh loop for standing dashboard targets."""

    def __init__(self, server: GrafanaServer) -> None:
        self.server = server
        self._queries: dict[str, ContinuousQuery] = {}

    # ------------------------------------------------------------------
    def register(
        self, name: str, target: Target, start_t: float = 0.0
    ) -> ContinuousQuery:
        """Install (or replace) a continuous query; it serves nothing until
        a :meth:`refresh` closes its first bucket."""
        cq = self._queries[name] = ContinuousQuery(name, target, start_t)
        return cq

    def names(self) -> list[str]:
        return sorted(self._queries)

    def get(self, name: str) -> ContinuousQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise DashboardError(f"no continuous query {name!r}") from None

    # ------------------------------------------------------------------
    def refresh(self, now: float, name: str | None = None) -> dict[str, int]:
        """Advance the watermark over every bucket fully closed at ``now``.

        Returns {cq name: buckets closed this refresh}.  Only closed
        buckets are served — a half-open bucket would show a value that
        still changes under ingest.
        """
        out: dict[str, int] = {}
        queries = [self.get(name)] if name is not None else list(self._queries.values())
        for cq in queries:
            g = cq.target.group_by_s
            horizon = (now // g) * g  # first still-open bucket's key
            closed = max(0, round((horizon - cq.watermark) / g))
            cq.watermark = max(cq.watermark, horizon)
            cq.refreshes += 1
            out[cq.name] = closed
        return out

    # ------------------------------------------------------------------
    def series(self, name: str) -> tuple[list[float], list[float]]:
        """The engine's (times, values) over ``[start_t, watermark)`` — what
        a panel charts.  Buckets with no value stay absent (a gap, not a
        zero), as in a direct panel query over the same range."""
        cq = self.get(name)
        if cq.watermark <= cq.start_t:
            return [], []
        statement = self.server.target_statement(cq.target, t0=cq.start_t, t1=cq.watermark)
        times, values = execute(self.server.influx, self.server.database, statement).series()
        # ``time <= watermark`` may open the bucket at the watermark
        cut = bisect_left(times, cq.watermark)
        return times[:cut], values[:cut]

    def stats(self) -> dict[str, dict[str, Any]]:
        return {
            name: {
                "watermark": cq.watermark,
                "refreshes": cq.refreshes,
                "statement": self.server.target_statement(cq.target),
            }
            for name, cq in sorted(self._queries.items())
        }
