"""The Grafana server substitute.

"With a plugin, Grafana processes the file and handles the connections to
the streaming database that stores the performance data coming from P-MoVE
telemetry agents and displays them" (§III-B).  :class:`GrafanaServer` keeps
a registry of dashboards (by uid), resolves each panel target against the
Influx substrate (the plugin role), and renders panels to text or SVG.

Panel execution carries a write-invalidated result cache: each target's
(database, statement) result is stored with the measurement's freshness
stamps (:meth:`~repro.db.influx.InfluxDB.freshness`), read *before* the
query runs.  An unchanged panel refresh — the dominant dashboard workload,
since auto-generated statements are re-issued verbatim — is a dict hit.
What a mutation invalidates depends on what it can have changed.
Telemetry is appended in time order, and an append cannot touch a window
that ended before it: an entry whose ``t1`` lay below the measurement's
frontier when it was computed is *sealed*, and outlives every in-order
write; only a new epoch (an out-of-order write, a series drop or move, a
retention trim) ends it.  Every other entry is *open* and ends at the next
generation, whatever moved it.  Staleness is impossible by construction:
stamps taken before execution can only under-report freshness, never
over-report it.  Stamps never repeat, so the miss that sees a measurement
at a new one proves the entries it ends dead, and drops them there and
then (:class:`_CachePartition`): a live dashboard's superseded windows do
not ride the LRU until live entries push them out.

A miss costs O(1) Python work per statement, not per row.  The statement
text is the cache key and what a user is shown, but it is not what gets
parsed: a live panel's window slides, so its text is new on every refresh
and the parser's LRU would never hit.  The target's *time-free* statement
is parsed instead (fixed text), the window goes into a copy of that
:class:`~repro.db.influxql.Query`, and the answer is read off the
engine's columns (:meth:`~repro.db.influxql.ResultSet.series`) — of a
raw select and of a ``GROUP BY time`` alike.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from functools import lru_cache

from repro.db.influx import InfluxDB, InfluxError
from repro.db.influxql import Query, execute, parse_query

from .dashboard import Dashboard, DashboardError, Panel, Target
from .render import Series, render_series_svg, render_series_text

__all__ = ["GrafanaServer", "quote_tag_value"]

_AND_SPLIT = re.compile(r"\s+AND\s+", re.IGNORECASE)


def quote_tag_value(value: str) -> str:
    """Quote a tag value for a WHERE clause, or refuse.

    The InfluxQL grammar here has no escape sequences: a double-quoted
    value may not contain ``"`` and a single-quoted one may not contain
    ``'``.  A value containing ``"`` is emitted single-quoted; one
    containing both quote kinds, or anything the parser's ``AND``
    splitter would cut in half, cannot be represented and is rejected
    outright — a malformed (or worse, silently truncated) statement is
    never produced.
    """
    if '"' in value and "'" in value:
        raise DashboardError(
            f"tag value {value!r} mixes single and double quotes; "
            "InfluxQL here cannot escape either"
        )
    if _AND_SPLIT.search(value):
        raise DashboardError(
            f"tag value {value!r} contains an AND separator; "
            "it would split the WHERE clause"
        )
    quote = "'" if '"' in value else '"'
    return f"{quote}{value}{quote}"


@lru_cache(maxsize=512)
def _timefree_query(target: Target, tag: str | None) -> Query:
    """The parsed time-free statement of ``target``: fixed for the life of
    the (frozen) target, so it is formatted and looked up once."""
    return parse_query(GrafanaServer.target_statement(target, tag=tag))


class _Filed:
    """One measurement's keys in a partition, under the stamps they were
    computed at."""

    __slots__ = ("epoch", "generation", "sealed", "open")

    def __init__(self, epoch, generation) -> None:
        self.epoch = epoch
        self.generation = generation
        #: keys of windows that ended below the frontier: dead at a new epoch
        self.sealed: set[tuple[str, str]] = set()
        #: every other key: dead at a new generation
        self.open: set[tuple[str, str]] = set()


class _CachePartition:
    """One LRU partition of the freshness-stamped result cache.

    ``entries`` maps (database, statement) → (measurement, times, values),
    least recently used first.  ``by_measurement`` files exactly the keys
    ``entries`` holds under their measurement (:class:`_Filed`), sealed
    or open.  One pair of stamps per measurement is enough because stamps
    never repeat: the moment a lookup observes a new generation every open
    entry is unservable for good, at a new epoch every entry is, and
    :meth:`get` drops them — eviction is by proof of death, never by a
    guess.
    """

    __slots__ = ("entries", "by_measurement")

    def __init__(self) -> None:
        self.entries: OrderedDict[
            tuple[str, str], tuple[str, list[float], list[float]]
        ] = OrderedDict()
        self.by_measurement: dict[str, _Filed] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: tuple[str, str], measurement: str, epoch, generation):
        """The entry under ``key`` if it is still servable at these stamps
        (now the most recently used), else None.  If ``measurement``'s
        entries are filed under other stamps, this is the lookup that
        proves some of them dead: a new generation drops the open ones, a
        new epoch the sealed ones too."""
        filed = self.by_measurement.get(measurement)
        if filed is None:
            return None
        if filed.epoch != epoch or filed.generation != generation:
            entries = self.entries
            for dead in filed.open:
                del entries[dead]
            if filed.epoch != epoch:
                for dead in filed.sealed:
                    del entries[dead]
                filed.sealed.clear()
            if not filed.sealed:
                del self.by_measurement[measurement]
                return None
            filed.open.clear()
            filed.generation = generation
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
        return hit

    def store(self, key: tuple[str, str], measurement: str, epoch, generation,
              sealed: bool, times: list[float], values: list[float],
              capacity: int) -> None:
        """Insert as most recent, then trim to ``capacity``; the stamps are
        the ones the :meth:`get` that missed was given for ``measurement``."""
        filed = self.by_measurement.get(measurement)
        if filed is None:
            filed = self.by_measurement[measurement] = _Filed(epoch, generation)
        (filed.sealed if sealed else filed.open).add(key)
        self.entries[key] = (measurement, times, values)
        self.trim(capacity)

    def trim(self, capacity: int) -> None:
        """Evict least recently used entries down to ``capacity``."""
        while len(self.entries) > capacity:
            key, (measurement, _, _) = self.entries.popitem(last=False)
            filed = self.by_measurement[measurement]
            filed.sealed.discard(key)
            filed.open.discard(key)
            if not filed.sealed and not filed.open:
                del self.by_measurement[measurement]

    def clear(self) -> None:
        self.entries.clear()
        self.by_measurement.clear()


class GrafanaServer:
    """Dashboard registry + panel execution against InfluxDB."""

    def __init__(
        self,
        influx: InfluxDB,
        database: str = "pmove",
        api_token: str = "",
        cache_size: int = 512,
    ) -> None:
        self.influx = influx
        self.database = database
        self.api_token = api_token
        self._dashboards: dict[str, Dashboard] = {}
        #: The *default* partition of the result cache — the single-caller
        #: path every PR before the serving tier used.
        self._cache = _CachePartition()
        #: tenant → its private partition of the same freshness-stamped
        #: cache.  Partitions are evicted independently: an aggressor
        #: tenant churning its own partition cannot evict a quiet
        #: tenant's working set (or the default partition's).
        self._tenant_caches: dict[str, _CachePartition] = {}
        self._tenant_cache_sizes: dict[str, int] = {}
        self.cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        #: Renders served from a degraded (shard-down) engine state.
        self.partial_serves = 0

    # ------------------------------------------------------------------
    def register(self, dashboard: Dashboard) -> str:
        """Install (or replace) a dashboard; returns its uid."""
        uid = dashboard.uid or f"dash{dashboard.id}"
        dashboard.uid = uid
        self._dashboards[uid] = dashboard
        return uid

    def register_json(self, text: str) -> str:
        """Install a dashboard from its shared JSON file (Listing 1)."""
        return self.register(Dashboard.loads(text))

    def dashboards(self) -> list[str]:
        return sorted(self._dashboards)

    def get(self, uid: str) -> Dashboard:
        try:
            return self._dashboards[uid]
        except KeyError:
            raise DashboardError(f"no dashboard {uid!r} registered") from None

    # ------------------------------------------------------------------
    @staticmethod
    def target_statement(
        target: Target,
        t0: float | None = None,
        t1: float | None = None,
        tag: str | None = None,
    ) -> str:
        """The InfluxQL statement one target resolves to (Listing 3 shape)."""
        where = []
        effective_tag = target.tag or tag
        if effective_tag is not None and effective_tag != "":
            where.append(f"tag={quote_tag_value(effective_tag)}")
        if t0 is not None:
            where.append(f"time >= {t0}")
        if t1 is not None:
            where.append(f"time <= {t1}")
        clause = (" WHERE " + " AND ".join(where)) if where else ""
        sel = f'"{target.params}"'
        if target.agg:
            if target.agg_arg is not None:
                sel = f'{target.agg}({sel}, {target.agg_arg:g})'
            else:
                sel = f'{target.agg}({sel})'
        if target.group_by_s:
            clause += f" GROUP BY time({target.group_by_s}s)"
        return f'SELECT {sel} FROM "{target.measurement}"{clause}'

    # ------------------------------------------------------------------
    # Tenant cache partitions
    # ------------------------------------------------------------------
    def set_tenant_cache_size(self, tenant: str, entries: int) -> None:
        """Create (or resize) ``tenant``'s private cache partition."""
        if entries < 1:
            raise ValueError("tenant cache needs at least one entry")
        self._tenant_cache_sizes[tenant] = entries
        self._partition_for(tenant)[0].trim(entries)

    def tenant_cache_info(self, tenant: str) -> dict[str, int]:
        partition = self._tenant_caches.get(tenant)
        filed = () if partition is None else partition.by_measurement.values()
        sealed = sum(len(f.sealed) for f in filed)
        open_ = sum(len(f.open) for f in filed)
        return {
            "entries": sealed + open_,
            "capacity": self._tenant_cache_sizes.get(tenant, self.cache_size),
            "sealed": sealed,
            "open": open_,
        }

    def _partition_for(self, tenant: str | None) -> tuple[_CachePartition, int]:
        if tenant is None:
            return self._cache, self.cache_size
        partition = self._tenant_caches.get(tenant)
        if partition is None:
            partition = self._tenant_caches[tenant] = _CachePartition()
        return partition, self._tenant_cache_sizes.get(tenant, self.cache_size)

    def _target_query(
        self,
        target: Target,
        t0: float | None,
        t1: float | None,
        tag: str | None,
    ) -> Query:
        """What ``parse_query(target_statement(target, t0, t1, tag))``
        returns, from a parse of the time-free statement only.

        The text path rejects a non-finite bound (the grammar has no
        spelling for ``inf``/``nan``); so does this one, rather than let a
        value no statement can express into a :class:`Query`.
        """
        q = _timefree_query(target, tag)
        if t0 is None and t1 is None:
            return q
        t0 = None if t0 is None else float(t0)
        t1 = None if t1 is None else float(t1)
        if not all(b is None or math.isfinite(b) for b in (t0, t1)):
            raise InfluxError(f"non-finite time bound in ({t0}, {t1})")
        # The time-free parse (no bound, no exclusivity of its own) with
        # the window filled in.  Built field by field: every miss passes
        # here, and dataclasses.replace costs several times as much.
        return Query(q.measurement, q.columns, q.aggregate, q.tag_filters,
                     t0, t1, q.group_by_s, q.limit, agg_arg=q.agg_arg)

    def _target_series(
        self,
        target: Target,
        t0: float | None,
        t1: float | None,
        tag: str | None,
        tenant: str | None = None,
        statement: str | None = None,
    ) -> tuple[list[float], list[float], bool]:
        """One target's (times, values, served_from_cache).

        The freshness stamps are read *before* executing, so a write racing
        the query can only make the cached entry look stale (recompute),
        never fresh (stale serve).  Engines without freshness support
        bypass the cache entirely.  ``tenant`` selects a private partition;
        ``None`` is the default (single-caller) one.  ``statement`` is
        ``target_statement(target, t0, t1, tag)`` where the caller already
        has it.
        """
        cache, capacity = self._partition_for(tenant)
        if statement is None:
            statement = self.target_statement(target, t0, t1, tag)
        key = (self.database, statement)
        freshness = getattr(self.influx, "freshness", None)
        measurement = target.measurement
        stamps = freshness(self.database, measurement) if callable(freshness) else None
        if stamps is not None:
            epoch, generation, frontier = stamps
            hit = cache.get(key, measurement, epoch, generation)
            if hit is not None:
                self.cache_hits += 1
                return list(hit[1]), list(hit[2]), True
        self.cache_misses += 1
        query = self._target_query(target, t0, t1, tag)
        times, values = execute(self.influx, self.database, query).series()
        # A sharded engine flags results computed while a shard holding
        # relevant data was down.  Those are served (degraded beats blank
        # panels) but never cached: the stamps do not move when a shard
        # merely recovers, so a cached partial could outlive the outage.
        if getattr(self.influx, "last_partial", False):
            self.partial_serves += 1
        elif stamps is not None:
            cache.store(
                key, measurement, epoch, generation,
                t1 is not None and t1 < frontier,
                list(times), list(values), capacity,
            )
        return times, values, False

    def invalidate_cache(self) -> None:
        """Drop every cached panel result, in every partition."""
        self._cache.clear()
        for partition in self._tenant_caches.values():
            partition.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/partial counters (results stats, not caches).

        Counters describe the *current* engine's serving history; leaving
        them running across an engine swap blends two engines' stats into
        one meaningless series."""
        self.cache_hits = 0
        self.cache_misses = 0
        self.partial_serves = 0

    def set_engine(self, influx: InfluxDB) -> None:
        """Swap the backing engine: drop cached results AND stats.

        The cache must go because freshness stamps are per-engine (a
        fresh engine restarts its counters, so stale entries could look
        fresh); the stats must go because they described the old engine."""
        self.influx = influx
        self.invalidate_cache()
        self.reset_stats()

    def execute_target(
        self,
        target: Target,
        t0: float | None = None,
        t1: float | None = None,
        tag: str | None = None,
        tenant: str | None = None,
        statement: str | None = None,
    ) -> tuple[list[float], list[float], bool]:
        """One target's (times, values, served_from_cache) — the serving
        frontend's per-target entry point (it needs the hit flag for its
        service-cost model, and has formatted ``statement`` already)."""
        return self._target_series(target, t0, t1, tag, tenant, statement)

    def execute_panel(
        self,
        panel: Panel,
        t0: float | None = None,
        t1: float | None = None,
        tag: str | None = None,
        tenant: str | None = None,
    ) -> Series:
        """Run a panel's targets; returns label → (times, values)."""
        series: Series = {}
        for target in panel.targets:
            times, values, _ = self._target_series(target, t0, t1, tag, tenant=tenant)
            label = target.alias or f"{target.measurement}{target.params}"[-40:]
            series[label] = (times, values)
        return series

    def render_panel_text(self, uid: str, panel_id: int, **kw) -> str:
        dash = self.get(uid)
        panel = dash.panel(panel_id)
        return render_series_text(panel.title, self.execute_panel(panel, **kw))

    def render_panel_svg(self, uid: str, panel_id: int, **kw) -> str:
        dash = self.get(uid)
        panel = dash.panel(panel_id)
        return render_series_svg(panel.title, self.execute_panel(panel, **kw))

    def render_dashboard_text(self, uid: str, **kw) -> str:
        dash = self.get(uid)
        blocks = [f"== {dash.title} =="]
        for panel in dash.panels:
            blocks.append(render_series_text(panel.title, self.execute_panel(panel, **kw)))
        return "\n\n".join(blocks)
