"""Reusable retry/breaker core of the resilient transport paths.

PR 2's shipper grew a decorrelated-jitter backoff and a circuit breaker for
the local host link; the SUPERDB federation link needs the identical
machinery against WAN faults.  Both now share this module: a
:class:`RetryPolicy` that prices successive sleeps, and the
:class:`CircuitBreaker` closed/open/half-open state machine over virtual
time.  Everything is driven by the caller's virtual clock and an explicit
RNG, so chaos runs replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy", "CircuitBreaker"]


@dataclass
class RetryPolicy:
    """Exponential backoff with decorrelated jitter.

    A failed attempt sleeps ``min(cap, uniform(base, 3 * previous_sleep))``
    — the AWS-style decorrelated jitter that spreads retry storms without a
    coordination channel.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    #: Per-item attempt cap; None = bounded only by the caller's budget.
    max_attempts: int | None = None
    #: Total virtual time the caller may keep retrying one item.
    budget_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0 < self.base_s <= self.cap_s < math.inf:
            raise ValueError("need 0 < base_s <= cap_s, both finite")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        if self.budget_s < 0:
            raise ValueError("retry budget must be >= 0")

    def next_sleep(self, prev_sleep: float, rng: np.random.Generator) -> float:
        hi = max(self.base_s, 3.0 * prev_sleep)
        return min(self.cap_s, float(rng.uniform(self.base_s, hi)))

    def exhausted(self, attempts: int) -> bool:
        return self.max_attempts is not None and attempts >= self.max_attempts


class CircuitBreaker:
    """Closed → open → half-open state machine over virtual time."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, open_s: float) -> None:
        if not (threshold >= 1 and 0 < open_s < math.inf):
            raise ValueError("breaker needs a threshold >= 1 and a finite open_s > 0")
        self.threshold = threshold
        self.open_s = open_s
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._open_accum_s = 0.0
        #: (virtual time, new state) — the observable state machine trace.
        self.transitions: list[tuple[float, str]] = []
        #: Half-open admits exactly one unresolved probe at a time; a second
        #: caller is deferred a full open window past the probe's start.
        self._probe_inflight = False
        self._probe_started = 0.0
        #: Total probes admitted while half-open (one per half-open window).
        self.half_open_probes = 0
        #: Closed with no failure streak (so no probe either): an attempt
        #: may start at once, and its success changes nothing.
        self.quiet = True

    def _set(self, t: float, state: str) -> None:
        if state != self.OPEN and self.state == self.OPEN:
            self._open_accum_s += t - self.opened_at
        if state == self.OPEN:
            self.opened_at = t
        self.state = state
        self.transitions.append((t, state))

    # ------------------------------------------------------------------
    def earliest_attempt(self, t: float) -> float:
        """Soonest virtual time ≥ ``t`` an attempt may start."""
        if self.state == self.OPEN:
            return max(t, self.opened_at + self.open_s)
        if self.state == self.HALF_OPEN and self._probe_inflight:
            # One probe per half-open window: anyone else waits a full open
            # window past the probe's start (by then the probe has resolved
            # and moved the state to closed or back to open).
            return max(t, self._probe_started + self.open_s)
        return t

    def on_attempt(self, t: float) -> None:
        """An attempt is starting at ``t`` (open → half-open when due)."""
        if self.state == self.OPEN and t >= self.opened_at + self.open_s:
            self._set(t, self.HALF_OPEN)
        if self.state == self.HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            self._probe_started = t
            self.half_open_probes += 1

    def record_success(self, t: float) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        if self.state != self.CLOSED:
            self._set(t, self.CLOSED)
        self.quiet = True

    def record_failure(self, t: float) -> None:
        self.quiet = False
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED and self.consecutive_failures >= self.threshold
        ):
            self._set(t, self.OPEN)

    def open_seconds(self, until: float) -> float:
        """Total virtual time spent open, up to ``until``."""
        extra = max(0.0, until - self.opened_at) if self.state == self.OPEN else 0.0
        return self._open_accum_s + extra
