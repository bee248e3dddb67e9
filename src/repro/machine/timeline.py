"""Piecewise-constant event-rate timelines — the indexed prefix-sum engine.

Every simulated execution lays down *segments*: on a scope (a hardware
thread, a socket, or the whole node), over an interval ``[t0, t1)``, a set of
generic quantities accrues at a constant rate.  PMU counters and PCP
samplers then *integrate* these rates over their own sampling windows —
which is precisely how a real counter behaves (it accumulates continuously;
software observes differences between reads).

Scopes are ``("cpu", id)`` for hardware threads, ``("socket", id)`` for
package-level quantities (RAPL energy), and ``("node", 0)`` for system-wide
software state.

Engine layout (per (scope, quantity) series)
--------------------------------------------

Overlapping segments sum, so the accrual rate of a series is a step
function.  The engine stores that step function *compacted*:

- ``times``   — sorted breakpoint times ``t[0..m]``;
- ``rates``   — summed rate on each interval ``[t[i], t[i+1])``;
- ``prefix``  — cumulative integral from ``t[0]`` to each breakpoint,
  so the accumulation up to any instant is one bisect plus one
  multiply-add.

Writes never touch the compacted arrays directly: ``add_rate`` appends to a
per-series **staging buffer** (the simulator deposits in near-monotone
time, so this is an O(1) list append), and the first read after a write
merges the buffer — staged segments become ``+rate`` / ``-rate`` boundary
deltas, combined with the compacted function's own deltas, and one sorted
running sum rebuilds ``times`` / ``rates`` / ``prefix``.

A sampler's merge is an append.  When every staged segment starts at or
after the last breakpoint and the stored rates are a *fixpoint* of the
sweep (each differs from the one before it, 0.0 before the first, and
``prev + (r - prev) == r``), re-sweeping the earlier breakpoints would
rebuild them bit for bit.  So the same sweep starts at the last breakpoint:
it re-encodes only that breakpoint's ``0.0 - rates[-1]`` step, adds the
staged deltas, continues the running sum from ``rates[-1]`` and extends
``prefix`` from its last kept entry.  A merge therefore costs the staged
segments, not the series' history.  The fixpoint is checked once per new
rate and kept as a per-series count.  Any other merge (an out-of-order
write, or a rate that absorbed a much smaller one, such as ``1e20 + 1``)
sweeps from the first breakpoint, as every merge once did.  ``integrate``
is then two bisects and a prefix difference, ``rate_at`` one bisect, and
``integrate_batch`` answers many series over one shared window in a single
pass — the shape a sampler tick needs.  An integration over an empty window
(``t0 == t1``) short-circuits without triggering a merge.

**Negative rates are allowed** (corrections: retracted deposits, migrated
work); see :mod:`repro.machine.naive_timeline` for the shared contract.
``NaiveTimeline`` there is the O(n)-scan reference this engine is proven
equivalent to.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Mapping

__all__ = ["Scope", "Timeline"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "machine": {
        "Timeline": (
            "integrate", "integrate_batch", "integrate_many", "add_rate",
            "add_total", "bulk_add"),
    },
}

Scope = tuple[str, int]

_INF = float("inf")

class _Series:
    """One (scope, quantity) series: compacted step function + staging."""

    __slots__ = ("staged", "times", "rates", "prefix", "verified")

    def __init__(self) -> None:
        self.staged: list[tuple[float, float, float]] = []  # (t0, t1, rate)
        self.times: list[float] = []  # breakpoints, len m+1 (or empty)
        self.rates: list[float] = []  # per-interval summed rate, len m
        self.prefix: list[float] = []  # integral from times[0], len m+1
        # rates[:verified] are known to be a fixpoint of the sweep: each
        # differs from its predecessor (0.0 before rates[0]) and is rebuilt
        # exactly from it by one running-sum step.
        self.verified = 0

    def merge(self) -> int:
        """Fold the staging buffer into the compacted representation.

        One sorted running-sum sweep over boundary deltas.  It starts at the
        old last breakpoint when every staged segment starts at or after it
        and the stored rates are a verified fixpoint — re-sweeping the
        earlier breakpoints would rebuild them bit for bit — and at the
        first breakpoint otherwise.  Returns the number of leading
        breakpoints kept (0 for a full sweep).
        """
        times, rates, prefix, staged = self.times, self.rates, self.prefix, self.staged
        start = 0
        if times and self.verified == len(rates):
            last = times[-1]
            if all(s0 >= last for s0, _, _ in staged):
                start = len(rates)
        base = rates[start - 1] if start else 0.0

        deltas: dict[float, float] = defaultdict(float)
        prev = base
        for i in range(start, len(times)):
            r = rates[i] if i < len(rates) else 0.0
            if r != prev:
                deltas[times[i]] = r - prev
            prev = r
        for s0, s1, rate in staged:
            deltas[s0] += rate
            deltas[s1] -= rate
        staged.clear()

        del times[start:], rates[start:], prefix[start:]
        rate = base
        for t in sorted(deltas):
            d = deltas[t]
            if d == 0.0 and times:
                continue  # cancelled boundary: step height unchanged
            rate += d
            times.append(t)
            rates.append(rate)
        # The step function is zero after the last breakpoint; drop the
        # trailing rate (exactly zero up to float dust from the sweep).
        if times:
            rates.pop()
        if not prefix:
            prefix.append(0.0)
        acc = prefix[-1]
        for i in range(len(prefix) - 1, len(rates)):
            acc += rates[i] * (times[i + 1] - times[i])
            prefix.append(acc)

        ok = min(self.verified, len(rates)) if start else 0
        prev = rates[ok - 1] if ok else 0.0
        while ok < len(rates):
            r = rates[ok]
            if r == prev or prev + (r - prev) != r:
                break
            prev = r
            ok += 1
        self.verified = ok
        return start


class Timeline:
    """Append-mostly store of rate segments, queryable by integration.

    Segments may overlap freely (e.g. background OS activity plus a kernel
    run on the same cpu); integration sums contributions.  ``add_rate`` is
    an amortized O(1) staging append, ``integrate`` two bisects plus a
    prefix-sum difference, ``rate_at`` one bisect.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[Scope, str], _Series] = {}
        # Per-scope quantity index, maintained on insert so quantities()
        # never scans the whole store.
        self._scope_quantities: dict[Scope, set[str]] = {}
        self.writes = 0  # segments staged so far: a kept answer's stamp

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_rate(self, scope: Scope, quantity: str, t0: float, t1: float, rate: float) -> None:
        """Accrue ``quantity`` on ``scope`` at ``rate`` per second over [t0, t1).

        ``rate`` may be negative: a correction that retracts previously
        deposited accrual (the integral over any window may then be
        negative).  Zero-width or zero-rate segments are dropped; a reversed
        one, or one with a bound or rate that is not finite, is refused (a
        NaN would make every later integral of the series NaN).
        """
        if not (-_INF < t0 <= t1 < _INF and -_INF < rate < _INF):
            raise ValueError(f"segment [{t0}, {t1}) at {rate}/s is reversed or not finite")
        if t1 == t0 or rate == 0.0:
            return
        key = (scope, quantity)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series()
            self._scope_quantities.setdefault(scope, set()).add(quantity)
        series.staged.append((float(t0), float(t1), float(rate)))
        self.writes += 1

    def add_total(self, scope: Scope, quantity: str, t0: float, t1: float, total: float) -> None:
        """Accrue ``total`` units of ``quantity`` uniformly over [t0, t1)."""
        if t1 <= t0:
            if total:
                raise ValueError("cannot deposit a nonzero total on an empty interval")
            return
        self.add_rate(scope, quantity, t0, t1, total / (t1 - t0))

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

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _compacted(self, key: tuple[Scope, str]) -> _Series | None:
        series = self._series.get(key)
        if series is None:
            return None
        if series.staged:
            series.merge()
        if not series.times:
            return None
        return series

    def integrate(self, scope: Scope, quantity: str, t0: float, t1: float) -> float:
        """Total amount of ``quantity`` accrued on ``scope`` during [t0, t1)
        — :meth:`integrate_batch` of one pair."""
        return self.integrate_batch(((scope, quantity),), t0, t1)[0]

    def integrate_batch(
        self, pairs: Iterable[tuple[Scope, str]], t0: float, t1: float
    ) -> list[float]:
        """Integrate many (scope, quantity) pairs over one shared window.

        One validation, then per series a lookup, the staged-merge check and
        two bisects, all in this loop — the only definition of the window
        arithmetic.  This is the read shape of a sampler tick (all programmed
        events × all cpus, or every cpu's cycle counter, over the same
        window) — see :meth:`repro.pmu.counters.PMU.read_events_all_cpus`
        and :meth:`repro.machine.activity.SoftwareState.snapshot`.
        """
        if t1 < t0:
            raise ValueError("integration window reversed")
        if t1 == t0:
            # empty window: answer without merging staged writes
            return [0.0 for _ in pairs]
        get = self._series.get
        out: list[float] = []
        append = out.append
        for key in pairs:
            series = get(key)
            if series is None:
                append(0.0)
                continue
            if series.staged:
                series.merge()
            times = series.times
            if not times or t1 <= times[0] or t0 >= times[-1]:
                append(0.0)
                continue
            i = bisect_right(times, t0) - 1
            j = bisect_right(times, t1) - 1
            rates = series.rates
            if i == j:
                # Window inside one interval: one multiply, and bit-identical
                # to the reference engine's rate * (clip width) for the
                # single-overlap case.
                append(rates[i] * (t1 - t0))
                continue
            # Integral from times[0] up to each end, on the interval the
            # bisects above already found (clamped outside the support).
            prefix = series.prefix
            upto_t1 = prefix[-1] if t1 >= times[-1] else prefix[j] + rates[j] * (t1 - times[j])
            upto_t0 = 0.0 if t0 <= times[0] else prefix[i] + rates[i] * (t0 - times[i])
            append(upto_t1 - upto_t0)
        return out

    def integrate_many(
        self, scopes: Iterable[Scope], quantity: str, t0: float, t1: float
    ) -> float:
        return sum(self.integrate_batch([(s, quantity) for s in scopes], t0, t1))

    def rate_at(self, scope: Scope, quantity: str, t: float) -> float:
        """Instantaneous accrual rate at time ``t``."""
        series = self._compacted((scope, quantity))
        if series is None:
            return 0.0
        times = series.times
        if t < times[0] or t >= times[-1]:
            return 0.0
        return series.rates[bisect_right(times, t) - 1]

    def quantities(self, scope: Scope) -> set[str]:
        """All quantity names that ever accrued on ``scope`` (O(1) via the
        per-scope index; the result is a copy)."""
        return set(self._scope_quantities.get(scope, ()))

    # ------------------------------------------------------------------
    # Introspection (tests, benchmarks)
    # ------------------------------------------------------------------
    def pending(self, scope: Scope, quantity: str) -> int:
        """Staged segments not yet merged for one series."""
        series = self._series.get((scope, quantity))
        return len(series.staged) if series is not None else 0

    def breakpoints(self, scope: Scope, quantity: str) -> list[float]:
        """Compacted breakpoint times (merges staged writes first)."""
        series = self._compacted((scope, quantity))
        return list(series.times) if series is not None else []
