"""Reference implementation of the event-rate timeline.

This is the original ``Timeline`` — per (scope, quantity) a start-sorted
list of ``(t0, t1, rate)`` segments, ``add_rate`` an O(n) ``list.insert``
and ``integrate`` an O(n) scan — kept verbatim (minus the per-query slice
copies) as the equivalence oracle for the indexed prefix-sum engine in
:mod:`repro.machine.timeline`, exactly as :class:`repro.db.naive.NaiveInfluxDB`
anchors the storage engine.  ``benchmarks/test_perf_timeline.py`` measures
the gap between the two; ``tests/machine/test_engine_equivalence.py`` proves
they agree.

Semantics notes shared by both engines:

- Segments may overlap freely; integration sums contributions.
- **Negative rates are allowed.**  They model corrections — a deposit
  retracted by a later bookkeeping pass (e.g. migrated work, cancelled
  speculation) — so ``integrate`` may legitimately return a negative total.
  Consumers that require non-negative readings (the PMU noise model)
  enforce that at their own boundary.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from collections.abc import Iterable, Mapping

from .timeline import Scope

__all__ = ["NaiveTimeline"]


class NaiveTimeline:
    """Append-mostly store of rate segments, queryable by integration."""

    def __init__(self) -> None:
        # (scope, quantity) -> sorted list of (t0, t1, rate)
        self._segs: dict[tuple[Scope, str], list[tuple[float, float, float]]] = defaultdict(list)
        self._starts: dict[tuple[Scope, str], list[float]] = defaultdict(list)

    def add_rate(self, scope: Scope, quantity: str, t0: float, t1: float, rate: float) -> None:
        """Accrue ``quantity`` on ``scope`` at ``rate`` per second over [t0, t1)."""
        inf = float("inf")
        if not (-inf < t0 <= t1 < inf and -inf < rate < inf):
            raise ValueError(f"segment [{t0}, {t1}) at {rate}/s is reversed or not finite")
        if t1 == t0 or rate == 0.0:
            return
        key = (scope, quantity)
        idx = bisect.bisect_left(self._starts[key], t0)
        self._starts[key].insert(idx, t0)
        self._segs[key].insert(idx, (t0, t1, rate))

    def add_total(self, scope: Scope, quantity: str, t0: float, t1: float, total: float) -> None:
        """Accrue ``total`` units of ``quantity`` uniformly over [t0, t1)."""
        if t1 <= t0:
            if total:
                raise ValueError("cannot deposit a nonzero total on an empty interval")
            return
        self.add_rate(scope, quantity, t0, t1, total / (t1 - t0))

    def integrate(self, scope: Scope, quantity: str, t0: float, t1: float) -> float:
        """Total amount of ``quantity`` accrued on ``scope`` during [t0, t1)."""
        if t1 < t0:
            raise ValueError("integration window reversed")
        key = (scope, quantity)
        segs = self._segs.get(key)
        if not segs:
            return 0.0
        total = 0.0
        # Segments are sorted by start; any overlapping segment starts
        # before t1.  Index iteration, not a segs[:hi] slice copy.
        hi = bisect.bisect_right(self._starts[key], t1)
        for i in range(hi):
            s0, s1, rate = segs[i]
            lo_clip = max(s0, t0)
            hi_clip = min(s1, t1)
            if hi_clip > lo_clip:
                total += rate * (hi_clip - lo_clip)
        return total

    def integrate_batch(
        self, pairs: Iterable[tuple[Scope, str]], t0: float, t1: float
    ) -> list[float]:
        """Integrate many (scope, quantity) pairs over one shared window."""
        if t1 < t0:
            raise ValueError("integration window reversed")
        return [self.integrate(scope, quantity, t0, t1) for scope, quantity in pairs]

    def integrate_many(
        self, scopes: Iterable[Scope], quantity: str, t0: float, t1: float
    ) -> float:
        return sum(self.integrate(s, quantity, t0, t1) for s in scopes)

    def rate_at(self, scope: Scope, quantity: str, t: float) -> float:
        """Instantaneous accrual rate at time ``t``."""
        key = (scope, quantity)
        segs = self._segs.get(key)
        if not segs:
            return 0.0
        hi = bisect.bisect_right(self._starts[key], t)
        total = 0.0
        for i in range(hi):
            s0, s1, rate = segs[i]
            if s0 <= t < s1:
                total += rate
        return total

    def quantities(self, scope: Scope) -> set[str]:
        """All quantity names that ever accrued on ``scope``."""
        return {q for (s, q) in self._segs if s == scope}

    def bulk_add(
        self,
        scope: Scope,
        totals: Mapping[str, float],
        t0: float,
        t1: float,
    ) -> None:
        """Deposit several quantities uniformly over the same interval."""
        for quantity, total in totals.items():
            if total:
                self.add_total(scope, quantity, t0, t1, total)
