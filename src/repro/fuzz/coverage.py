"""The coverage signal: behaviour points harvested from counters the
system already keeps.

No instrumentation pass, no tracing — every subsystem built in PRs 1–8
already counts the interesting state transitions (breaker trips,
scheduler requeues, DLQ parks, admission rejections, rollup-planner
disqualifications, anti-entropy repairs, partial-degradations), and
``PMoVE.health()`` reports them in one document.  The harvester walks
that document after a run and flattens each *non-zero* behaviour into a
string point ``domain:detail``; the campaign's :class:`CoverageMap`
deduplicates points across runs.  It measures what a campaign reached
— the count the fuzz benchmark and the committed coverage gate read —
and steers nothing.

Points are intentionally coarse (state reached, not how many times), so
the map of a long campaign converges to a stable, comparable set.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

__all__ = ["CoverageMap", "harvest"]


class CoverageMap:
    """A deduplicated set of behaviour points with per-run novelty."""

    def __init__(self) -> None:
        self._points: dict[str, int] = {}  # point -> first run index
        self._runs = 0

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: str) -> bool:
        return point in self._points

    @property
    def points(self) -> list[str]:
        return sorted(self._points)

    def observe(self, points: Iterable[str]) -> list[str]:
        """Fold one run's points in; returns the novel ones."""
        run = self._runs
        self._runs += 1
        novel = []
        for p in points:
            if p not in self._points:
                self._points[p] = run
                novel.append(p)
        return sorted(novel)

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": self._runs,
            "distinct_points": len(self._points),
            "points": {p: self._points[p] for p in sorted(self._points)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# Harvesting
# ----------------------------------------------------------------------
def _bucket(n: float, edges: tuple[float, ...]) -> str:
    """Log-ish bucketing so counts contribute *bounded* novelty."""
    for e in edges:
        if n <= e:
            return f"<={e:g}"
    return f">{edges[-1]:g}"


def _edges(transitions: Iterable) -> Iterator[str]:
    """A breaker's ``(t, state)`` transitions as ``breaker:<from>-><to>``
    points (every breaker starts closed)."""
    prev = "closed"
    for _t, state in transitions:
        yield f"breaker:{prev}->{state}"
        prev = state


#: ``SamplingStats`` fields that are a point when non-zero.
_SAMPLER_POINTS = {
    "lost_reports": "sampler:lost-reports",
    "dropped_by_policy": "shipper:dropped-by-policy",
    "spilled_reports": "shipper:spilled",
    "recovered_reports": "shipper:wal-recovered",
    "retried_reports": "shipper:retried",
    "degraded_ticks": "shipper:degraded",
    "unshipped_reports": "shipper:unshipped-at-close",
    "breaker_open_s": "breaker:spent-time-open",
}

#: Per-group ingest counters that are a point when non-zero, as
#: ``log:<group>:<counter less _records, dashed>``.
_LOG_COUNTERS = (
    "parked_records", "replayed_parked_records", "duplicate_records",
    "filtered_records", "apply_failures", "interruptions",
)


def harvest(run: dict[str, Any]) -> set[str]:
    """Flatten one run's counter document into coverage points.

    ``run`` is the :class:`~repro.fuzz.runner.RunResult` counter doc:
    ``PMoVE.health()`` less its ``fuzz`` section, plus the runner's own
    ``sampler`` (Scenario-A ``SamplingStats``), ``cluster``,
    ``federation`` and ``violations``.  Every point reads a path of that
    document; none is re-derived from a component."""
    pts: set[str] = set()

    # --- sampler / shipper -------------------------------------------
    s = run.get("sampler", {})
    pts.add(f"sampler:mode:{s.get('mode', 'unbuffered')}")
    pts.update(p for name, p in _SAMPLER_POINTS.items() if s.get(name, 0))
    for target in run.get("targets", {}).values():
        pts.update(_edges(target.get("breaker_transitions", ())))

    # --- durable ingest ----------------------------------------------
    ing = run.get("ingest", {})
    for group, g in ing.get("groups", {}).items():
        for what in _LOG_COUNTERS:
            if g.get(what, 0):
                slug = what.replace("_records", "").replace("_", "-")
                pts.add(f"log:{group}:{slug}")
        for m in g["members"]:
            if m["breaker_state"] != "closed":
                pts.add(f"log:breaker:{m['id']}:{m['breaker_state']}")
            pts.update(_edges(m["breaker_transitions"]))
    if ing.get("producer", {}).get("resent_records", 0):
        pts.add("log:producer:resent")
    log = ing.get("log", {})
    if log.get("truncated_records", 0):
        pts.add("log:producer:truncated")
    if log.get("rebalances", 0):
        pts.add("log:rebalance")
    if log.get("requeued_records", 0):
        pts.add("dlq:requeued")
    for reason, n in ing.get("dlq_by_reason", {}).items():
        if n:
            pts.add(f"dlq:park:{reason}")
    if ing.get("max_group_lag", 0):
        pts.add(f"log:lag:{_bucket(ing['max_group_lag'], (8, 64, 512))}")

    # --- rollup planner ----------------------------------------------
    for reason, n in run.get("rollup_plan", {}).items():
        if n:
            pts.add(f"rollup-plan:{reason}")

    # --- sketch serving planner --------------------------------------
    # Keys are already one outcome per read (``served:<tier:g>`` /
    # ``hll-served`` / ``fallback:raw-scan`` / ``fallback:hll-trimmed`` …)
    # and the reasons tiers were turned down (``skip:merge-bound`` …); each
    # becomes one behaviour point.
    for reason, n in run.get("sketch_plan", {}).items():
        if n:
            pts.add(f"sketch-plan:{reason}")

    # --- shards -------------------------------------------------------
    sh = run.get("shards")
    if sh:
        pts.add(f"shards:n:{len(sh['states'])}")
        if sh["partial_queries"]:
            pts.add("shard:partial-query")
        if any(sh["dropped_points"].values()):
            pts.add("shard:dropped-writes")
        for state in sh["states"].values():
            if state != "up":
                pts.add(f"shard:state:{state}")

    # --- serving ------------------------------------------------------
    srv = run.get("serving", {})
    for doc in srv.get("tenants", {}).values():
        for reason, n in doc["rejected"].items():
            if n:
                pts.add(f"admission:rejected:{reason}")
        if doc["timeouts"]:
            pts.add("exec:timeout")
        if doc["coalesced"]:
            pts.add("exec:coalesced")
        if doc["cache_hit_targets"]:
            pts.add("serve:cache-hit")
    peak = max(srv.get("executor", {}).get("max_queue_depth", {}).values(), default=0)
    if peak:
        pts.add(f"exec:queue-depth:{_bucket(peak, (2, 8, 32))}")

    # --- db writes ----------------------------------------------------
    writes = run.get("writes", {})
    if writes.get("rejected", 0):
        pts.add("db:rejected-writes")
    if writes.get("accepted", 0):
        pts.add("db:accepted-writes")

    # --- cluster ------------------------------------------------------
    cl = run.get("cluster") or {}
    if cl:
        if cl.get("requeues", 0):
            pts.add(f"sched:requeue:{_bucket(cl['requeues'], (1, 2, 4))}")
        if cl.get("failed_attempts", 0):
            pts.add("sched:failed-attempt")
        for state in cl.get("node_states", ()):
            if state != "up":
                pts.add(f"fleet:node:{state}")
        if cl.get("degraded", False):
            pts.add("fleet:degraded")

    # --- federation ---------------------------------------------------
    fed = run.get("federation") or {}
    if fed:
        if fed.get("repaired", 0):
            pts.add("fed:anti-entropy-repaired")
        if fed.get("failed_attempts", 0):
            pts.add("fed:retried")
        if fed.get("pending", 0):
            pts.add("fed:pending-after-repair")
        if fed.get("synced", False):
            pts.add("fed:synced")

    # --- oracles (a failing oracle is itself a coverage point) -------
    for name in run.get("violations", ()):
        pts.add(f"oracle:violated:{name}")

    return pts
