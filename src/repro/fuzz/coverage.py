"""The coverage signal: behaviour points harvested from counters the
system already keeps.

No instrumentation pass, no tracing — every subsystem built in PRs 1–8
already counts the interesting state transitions (breaker trips,
scheduler requeues, DLQ parks, admission rejections, rollup-planner
disqualifications, anti-entropy repairs, partial-degradations).  The
harvester walks those counters after a run and flattens each *non-zero,
novel* behaviour into a string point ``domain:detail``; the campaign's
:class:`CoverageMap` deduplicates points across runs and the novelty
delta is what steers the mutation corpus.

Points are intentionally coarse (state reached, not how many times):
count-sensitive coverage would make every run "novel" and the corpus
would never converge.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

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


def harvest(run: dict[str, Any]) -> set[str]:
    """Flatten one run's counter document into coverage points.

    ``run`` is the :class:`~repro.fuzz.runner.RunResult` counter doc —
    stable, JSON-serializable, and assembled by the runner from
    ``SamplingStats``, ``IngestPipeline.flat_counters()``, shipper/breaker
    state, the rollup planner, shard stats, serving health, cluster docs
    and federation links."""
    pts: set[str] = set()

    # --- sampler / shipper -------------------------------------------
    s = run.get("sampler", {})
    pts.add(f"sampler:mode:{s.get('mode', 'unbuffered')}")
    if s.get("lost_reports", 0):
        pts.add("sampler:lost-reports")
    if s.get("dropped_by_policy", 0):
        pts.add("shipper:dropped-by-policy")
    if s.get("spilled_reports", 0):
        pts.add("shipper:spilled")
    if s.get("recovered_reports", 0):
        pts.add("shipper:wal-recovered")
    if s.get("retried_reports", 0):
        pts.add("shipper:retried")
    if s.get("degraded_ticks", 0):
        pts.add("shipper:degraded")
    if s.get("unshipped_reports", 0):
        pts.add("shipper:unshipped-at-close")
    if s.get("breaker_open_s", 0.0):
        pts.add("breaker:spent-time-open")
    for a, b in run.get("breaker_transitions", []):
        pts.add(f"breaker:{a}->{b}")

    # --- durable ingest ----------------------------------------------
    ing = run.get("ingest", {})
    for key, val in ing.get("counters", {}).items():
        if not val:
            continue
        # keys like "db-writer.parked_records", "producer.resent_records"
        who, _, what = key.partition(".")
        if what in (
            "parked_records",
            "replayed_parked_records",
            "duplicate_records",
            "filtered_records",
            "apply_failures",
            "interruptions",
            "resent",
            "resent_records",
            "truncated_records",
        ):
            pts.add(f"log:{who}:{what.replace('_records', '').replace('_', '-')}")
    dlq = ing.get("dlq", {})
    for reason, n in dlq.get("parked_by_reason", {}).items():
        if n:
            pts.add(f"dlq:park:{reason}")
    if dlq.get("requeued", 0):
        pts.add("dlq:requeued")
    if ing.get("rebalances", 0):
        pts.add("log:rebalance")
    for group, state in ing.get("breaker_states", {}).items():
        if state != "closed":
            pts.add(f"log:breaker:{group}:{state}")
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
    sh = run.get("shards", {})
    if sh:
        pts.add(f"shards:n:{sh.get('n', 0)}")
        if sh.get("partial_queries", 0):
            pts.add("shard:partial-query")
        if sh.get("dropped_points", 0):
            pts.add("shard:dropped-writes")
        for state in sh.get("states", ()):
            if state != "up":
                pts.add(f"shard:state:{state}")

    # --- serving ------------------------------------------------------
    srv = run.get("serving", {})
    for tenant, doc in srv.get("tenants", {}).items():
        for reason, n in doc.get("rejected", {}).items():
            if n:
                pts.add(f"admission:rejected:{reason}")
        if doc.get("timeouts", 0):
            pts.add("exec:timeout")
        if doc.get("coalesced", 0):
            pts.add("exec:coalesced")
        if doc.get("cache_hit_targets", 0):
            pts.add("serve:cache-hit")
    ex = srv.get("executor", {})
    depths = ex.get("max_queue_depth", {})  # dict tenant -> peak depth
    peak = max(depths.values(), default=0) if isinstance(depths, dict) else depths
    if peak:
        pts.add(f"exec:queue-depth:{_bucket(peak, (2, 8, 32))}")

    # --- db writes ----------------------------------------------------
    db = run.get("db", {})
    if db.get("rejected_writes", 0):
        pts.add("db:rejected-writes")
    if db.get("accepted_writes", 0):
        pts.add("db:accepted-writes")

    # --- cluster ------------------------------------------------------
    cl = run.get("cluster", {})
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
    fed = run.get("federation", {})
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
