"""Tenant identity and resource envelopes for the serving frontend.

"Millions of users" (ROADMAP north star) means the dashboard read path is
shared infrastructure: every consumer of the Grafana layer gets a *tenant*
— a named resource envelope that bounds how hard it can push the sharded
read path built in PRs 5–6.  A :class:`TenantConfig` states the envelope
(request rate, scanned-point quota, fair-share weight, cache partition
size, backlog bound); :class:`TokenBucket` is the virtual-time mechanism
both rate limits ride on.

Everything here runs in the repo's simulated clock domain: buckets refill
as a pure function of the virtual timestamps the caller passes in, so
seeded runs are bit-deterministic — there is no wall clock anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TokenBucket", "TenantConfig"]


class TokenBucket:
    """Classic token bucket on virtual time.

    ``capacity`` tokens accumulate at ``rate_per_s``; :meth:`try_take`
    either debits and admits or leaves the level untouched and refuses.
    Time may be re-observed at the same instant (refill of zero) but the
    bucket clamps backwards motion instead of erroring: schedulers replay
    ties in deterministic order, not strictly increasing order.
    """

    def __init__(self, rate_per_s: float, capacity: float, *, t0: float = 0.0) -> None:
        if rate_per_s < 0 or capacity <= 0:
            raise ValueError("rate must be >= 0 and capacity > 0")
        self.rate_per_s = rate_per_s
        self.capacity = capacity
        self._level = capacity  # buckets start full: a quiet tenant can burst
        self._last_t = t0

    def _refill(self, t: float) -> None:
        last = self._last_t
        if t > last:
            self._last_t = t
            self._level = min(self.capacity, self._level + (t - last) * self.rate_per_s)

    def level(self, t: float) -> float:
        """Tokens available at virtual time ``t`` (refills as a side effect)."""
        self._refill(t)
        return self._level

    def try_take(self, t: float, n: float = 1.0) -> bool:
        """Debit ``n`` tokens at time ``t``; False (and no debit) if short."""
        self._refill(t)
        if self._level + 1e-12 < n:  # epsilon absorbs refill float dust
            return False
        self._level -= n
        return True


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's resource envelope.

    - ``rate_per_s``/``burst`` — admission token bucket over *requests*
      (a panel refresh is one request);
    - ``point_budget_per_s``/``point_burst`` — quota over *estimated
      scanned points*, the knob that stops cheap-to-ask expensive-to-serve
      backfill scans from monopolizing the engines;
    - ``weight`` — fair-share weight in the executor's weighted-fair
      dequeue (2.0 drains twice as fast as 1.0 under contention);
    - ``max_queue_depth`` — bound on this tenant's admitted-but-unserved
      backlog; beyond it admission rejects (429), never queues unboundedly;
    - ``cache_entries`` — LRU capacity of this tenant's private partition
      of the Grafana result cache.
    """

    name: str
    rate_per_s: float = 20.0
    burst: float = 40.0
    point_budget_per_s: float = 200_000.0
    point_burst: float = 2_000_000.0
    weight: float = 1.0
    max_queue_depth: int = 64
    cache_entries: int = 128

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.rate_per_s <= 0 or self.burst <= 0:
            raise ValueError(f"{self.name}: request rate/burst must be positive")
        if self.point_budget_per_s <= 0 or self.point_burst <= 0:
            raise ValueError(f"{self.name}: point budget/burst must be positive")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")
        if self.max_queue_depth < 1 or self.cache_entries < 1:
            raise ValueError(f"{self.name}: queue depth/cache entries must be >= 1")

    def request_bucket(self) -> TokenBucket:
        return TokenBucket(self.rate_per_s, self.burst)

    def point_bucket(self) -> TokenBucket:
        return TokenBucket(self.point_budget_per_s, self.point_burst)
