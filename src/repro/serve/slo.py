"""Per-tenant SLO accounting for the serving frontend.

Every request outcome lands here: admit/reject (by reason), completion,
deadline timeout, coalesce, cache hits, points scanned, and the
virtual-time latency distribution split by priority class — exactly the
numbers an SLO dashboard (or the load benchmark's gates) needs.  All
latencies are virtual seconds; snapshots report them in milliseconds.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["percentile", "TenantSLO", "SloBoard"]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (0 < q <= 1).

    Returns 0.0 for an empty list — an SLO over no traffic is vacuously
    met, and snapshots stay arithmetic-safe.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[idx]


def _latency_summary(samples: list[float]) -> dict[str, float]:
    return {
        "n": len(samples),
        "p50_ms": 1e3 * percentile(samples, 0.50),
        "p95_ms": 1e3 * percentile(samples, 0.95),
        "p99_ms": 1e3 * percentile(samples, 0.99),
        "mean_ms": 1e3 * (sum(samples) / len(samples)) if samples else 0.0,
    }


class TenantSLO:
    """Counters + latency distributions for one tenant."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.submitted = 0
        self.admitted = 0
        self.rejected: dict[str, int] = defaultdict(int)
        self.completed = 0  # served requests: executed + coalesced
        self.executed = 0  # actually occupied a worker slot
        self.coalesced = 0  # rode an identical in-flight execution
        self.timeouts = 0  # cancelled past their deadline
        self.cache_hit_targets = 0
        self.cache_miss_targets = 0
        self.points_scanned = 0
        self.sketch_served_targets = 0
        #: priority name ("live"/"backfill") → virtual-second latencies.
        self.latencies: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def record_latency(self, priority: str, latency_s: float) -> None:
        self.latencies[priority].append(latency_s)

    def p99_s(self, priority: str = "live") -> float:
        return percentile(self.latencies.get(priority, []), 0.99)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        all_samples = [x for xs in self.latencies.values() for x in xs]
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": dict(self.rejected),
            "rejected_total": self.rejected_total,
            "completed": self.completed,
            "executed": self.executed,
            "coalesced": self.coalesced,
            "timeouts": self.timeouts,
            "cache_hit_targets": self.cache_hit_targets,
            "cache_miss_targets": self.cache_miss_targets,
            "points_scanned": self.points_scanned,
            "sketch_served_targets": self.sketch_served_targets,
            "latency": {
                "all": _latency_summary(all_samples),
                **{
                    prio: _latency_summary(xs)
                    for prio, xs in sorted(self.latencies.items())
                },
            },
        }


class SloBoard:
    """The tenant → :class:`TenantSLO` registry the frontend writes into."""

    def __init__(self) -> None:
        self._accounts: dict[str, TenantSLO] = {}

    def for_tenant(self, tenant: str) -> TenantSLO:
        acct = self._accounts.get(tenant)
        if acct is None:
            acct = self._accounts[tenant] = TenantSLO(tenant)
        return acct

    def tenants(self) -> list[str]:
        return sorted(self._accounts)

    def snapshot(self) -> dict[str, dict]:
        return {name: acct.snapshot() for name, acct in sorted(self._accounts.items())}
