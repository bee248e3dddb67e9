"""The Grafana server substitute.

"With a plugin, Grafana processes the file and handles the connections to
the streaming database that stores the performance data coming from P-MoVE
telemetry agents and displays them" (§III-B).  :class:`GrafanaServer` keeps
a registry of dashboards (by uid), resolves each panel target against the
Influx substrate (the plugin role), and renders panels to text or SVG.

Panel execution carries a result cache stamped with the measurement's
freshness (:meth:`~repro.db.influx.InfluxDB.freshness`), read *before* the
query runs: stamps taken early can only under-report freshness, so a stale
serve is impossible by construction.  Telemetry is appended in time order,
and the one rule everything here rests on is the engine's: **while the
epoch holds, the rows at ``time < frontier`` are exactly the rows that
were there when the frontier was read.**  It makes two kinds of entry.

A *sealed* window (``t1`` below the frontier) is out of every in-order
append's reach: its answer is kept under (database, statement) and is a
dict hit until a new epoch (an out-of-order write, a series drop or move,
a retention trim) ends it — proven at the first lookup that sees the new
epoch, which drops the measurement's sealed entries there and then.

An *open* window (no ``t1``, or one at or above the frontier) is what a
live dashboard refreshes, and it slides: its statement never repeats, so
it is not keyed by one.  Each target keeps **one held answer** — the
stamps and window it was computed at, overwritten in place by its
successor.  The same window at the same generation is a hit.  A raw
target whose window moved forward in the same epoch is a *delta*: the
held rows with ``t0 <= time < held frontier`` (two bisects; the rule says
they cannot have changed) plus one engine read from the held frontier on.
It reads the engine, so it counts as a miss (``delta_serves`` says how
many misses were deltas).  Anything else — a new epoch, a window that
moved backwards, an aggregate — is the full read.

No statement is formatted or parsed per refresh: the target's *time-free*
statement is formatted and parsed once, the window goes into a copy of
that :class:`~repro.db.influxql.Query`, and the answer is read off the
engine's columns (:meth:`~repro.db.influxql.ResultSet.series`).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
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
def _timefree(target: Target, tag: str | None) -> tuple[str, Query]:
    """The time-free statement of ``target`` and its parse: fixed for the
    life of the (frozen) target, so formatted and parsed once.  The text is
    also the key of the target's held answer — no sealed window has it,
    since a sealed window has a ``t1``."""
    statement = GrafanaServer.target_statement(target, tag=tag)
    return statement, parse_query(statement)


def _windowed(q: Query, t0: float | None, t1: float | None) -> Query:
    """The time-free parse ``q`` (no bound, no exclusivity of its own) with
    the window filled in: what ``parse_query`` makes of the target's
    statement for that window.  The text path rejects a non-finite bound
    (the grammar has no spelling for ``inf``/``nan``); so does this one,
    rather than let a value no statement can express into a :class:`Query`."""
    if t0 is None and t1 is None:
        return q
    t0 = None if t0 is None else float(t0)
    t1 = None if t1 is None else float(t1)
    if not ((t0 is None or math.isfinite(t0)) and (t1 is None or math.isfinite(t1))):
        raise InfluxError(f"non-finite time bound in ({t0}, {t1})")
    # Built field by field: every miss passes here, and
    # dataclasses.replace costs several times as much.
    return Query(q.measurement, q.columns, q.aggregate, q.tag_filters,
                 t0, t1, q.group_by_s, q.limit, agg_arg=q.agg_arg)


class _Filed:
    """One measurement's sealed keys in a partition, under the epoch they
    were computed in."""

    __slots__ = ("epoch", "sealed")

    def __init__(self, epoch) -> None:
        self.epoch = epoch
        self.sealed: set[tuple[str, str]] = set()


class _CachePartition:
    """One LRU partition of the freshness-stamped result cache.

    ``entries`` maps (database, statement) to an answer, least recently
    used first.  A sealed window's is (measurement, times, values) under
    its own statement, and ``by_measurement`` files its key
    (:class:`_Filed`): epochs never repeat, so the lookup that sees a new
    one proves those entries dead and drops them — eviction by proof of
    death, never by a guess.  A target's held answer is (measurement,
    times, values, (epoch, generation, frontier), (t0, t1)) under its
    time-free statement; it carries its own stamps and is overwritten in
    place, so nothing has to find it to end it.
    """

    __slots__ = ("entries", "by_measurement")

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple[str, str], tuple] = OrderedDict()
        self.by_measurement: dict[str, _Filed] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: tuple[str, str], measurement: str, epoch):
        """The entry under ``key`` (now the most recently used), or None.
        If ``measurement``'s sealed entries are filed under another epoch,
        this is the lookup that proves them dead."""
        filed = self.by_measurement.get(measurement)
        if filed is not None and filed.epoch != epoch:
            for dead in self.by_measurement.pop(measurement).sealed:
                del self.entries[dead]
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
        return hit

    def store(self, key: tuple[str, str], entry: tuple, seal_epoch, capacity: int):
        """Insert as most recent (a held answer over its predecessor), then
        trim to ``capacity``.  ``seal_epoch`` is None for a held answer, else
        the epoch the :meth:`get` that missed was given."""
        if seal_epoch is not None:
            filed = self.by_measurement.get(entry[0])
            if filed is None:
                filed = self.by_measurement[entry[0]] = _Filed(seal_epoch)
            filed.sealed.add(key)
        self.entries[key] = entry
        self.trim(capacity)

    def trim(self, capacity: int) -> None:
        """Evict least recently used entries down to ``capacity``."""
        while len(self.entries) > capacity:
            key, entry = self.entries.popitem(last=False)
            filed = self.by_measurement.get(entry[0])
            if filed is not None:
                filed.sealed.discard(key)
                if not filed.sealed:
                    del self.by_measurement[entry[0]]

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
        #: Misses answered by a held answer plus a read from its frontier on.
        self.delta_serves = 0
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
        """Sizes of ``tenant``'s partition; ``open`` counts held answers."""
        partition = self._tenant_caches.get(tenant) or _CachePartition()
        sealed = sum(len(f.sealed) for f in partition.by_measurement.values())
        return {
            "entries": len(partition),
            "capacity": self._tenant_cache_sizes.get(tenant, self.cache_size),
            "sealed": sealed,
            "open": len(partition) - sealed,
        }

    def _partition_for(self, tenant: str | None) -> tuple[_CachePartition, int]:
        if tenant is None:
            return self._cache, self.cache_size
        partition = self._tenant_caches.get(tenant)
        if partition is None:
            partition = self._tenant_caches[tenant] = _CachePartition()
        return partition, self._tenant_cache_sizes.get(tenant, self.cache_size)

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
        the query can only make a kept answer look stale (recompute), never
        fresh (stale serve).  Engines without freshness support bypass the
        cache entirely.  ``tenant`` selects a private partition; ``None`` is
        the default (single-caller) one.  ``statement`` is
        ``target_statement(target, t0, t1, tag)`` where the caller already
        has it.
        """
        cache, capacity = self._partition_for(tenant)
        freshness = getattr(self.influx, "freshness", None)
        measurement = target.measurement
        stamps = freshness(self.database, measurement) if callable(freshness) else None
        since, held, timefree = t0, None, None
        if stamps is not None:
            epoch, _, frontier = stamps
            sealed = t1 is not None and t1 < frontier
            if sealed:
                key = (self.database,
                       statement or self.target_statement(target, t0, t1, tag))
            else:
                text, timefree = _timefree(target, tag)
                key = (self.database, text)
            hit = cache.get(key, measurement, epoch)
            if hit is not None:
                if sealed or hit[3:] == (stamps, (t0, t1)):
                    self.cache_hits += 1
                    return hit[1][:], hit[2][:], True
                (was_epoch, _, edge), (was_t0, _) = hit[3:]
                # Same epoch: the held rows below the held frontier stand.
                # A raw window that did not move backwards needs only them
                # and what the engine has from that frontier on.
                if (was_epoch == epoch and edge > -math.inf
                        and not target.agg and not target.group_by_s
                        and (was_t0 is None if t0 is None
                             else was_t0 is not None and t0 >= was_t0)):
                    held = hit
                    since = edge if t0 is None or edge > t0 else t0
        self.cache_misses += 1
        timefree = timefree or _timefree(target, tag)[1]
        times, values = execute(
            self.influx, self.database, _windowed(timefree, since, t1)).series()
        # A sharded engine flags results computed while a shard holding
        # relevant data was down.  Those are served (degraded beats blank
        # panels) as a cold server would serve them, without held rows, and
        # never kept: the stamps do not move when a shard merely recovers,
        # so a kept partial could outlive the outage.
        partial = getattr(self.influx, "last_partial", False)
        if held is not None and partial:
            times, values = execute(
                self.influx, self.database, _windowed(timefree, t0, t1)).series()
        elif held is not None:
            # The held lists become the new answer in place (nobody else
            # has them): cut to [t0, held frontier), then the rows read.
            self.delta_serves += 1
            lo = 0 if t0 is None else bisect_left(held[1], t0)
            hi = bisect_left(held[1], edge, lo)
            for kept, read in ((held[1], times), (held[2], values)):
                del kept[hi:]
                del kept[:lo]
                kept += read
            times, values = held[1:3]
        if partial:
            self.partial_serves += 1
        elif stamps is not None:
            entry = (measurement, times, values)
            if not sealed:
                entry += (stamps, (t0, t1))
            cache.store(key, entry, epoch if sealed else None, capacity)
            times, values = times[:], values[:]  # the entry's stay its own
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
        self.delta_serves = 0
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
        for target, label in zip(panel.targets, panel.labels()):
            times, values, _ = self._target_series(target, t0, t1, tag, tenant=tenant)
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
