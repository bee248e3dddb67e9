"""Node-lifecycle faults: whole machines going away, in virtual time.

:mod:`repro.machine.faults` degrades a node's *performance* and
:mod:`repro.faults.services` breaks the *host-side services*; this module
covers the remaining failure domain of §VI's cluster design — the node
itself.  Production fleets (DCDB's independently-degrading collector units,
the MIT twin's node churn) treat node loss as the normal case, so the
simulated cluster needs the same vocabulary:

- :class:`NodeCrash` — the node is down for the whole window; a job using
  it fails at the instant the window opens;
- :class:`NodeHang` — the node is alive but unresponsive-slow (a straggler
  stuck in swap, a dying fan throttling everything); it paces every
  bulk-synchronous step it participates in;
- :class:`NodeFlap` — the node bounces with a deterministic duty cycle
  (a flaky PSU, an unstable link), the pathology quarantine exists for.

All windows are ``[t0, t1)`` virtual time, like every other fault set in
the substrate, and all state queries are pure functions of ``t`` so chaos
schedules replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .window import Schedule, Window

__all__ = ["NodeFault", "NodeCrash", "NodeHang", "NodeFlap", "NodeFaultSet",
           "NodeFailure"]


class NodeFailure(RuntimeError):
    """A job execution was killed by a node going down."""

    def __init__(self, node: str, t: float) -> None:
        super().__init__(f"node {node!r} went down at t={t:.6f}s")
        self.node = node
        self.t = t


@dataclass(frozen=True)
class NodeFault(Window):
    """Base node fault: a lifecycle disruption active on [t0, t1)."""

    def down_at(self, t: float) -> bool:
        """Whether this fault has the node down at ``t``."""
        return False

    def next_down(self, t: float) -> float | None:
        """Earliest instant >= ``t`` this fault takes the node down."""
        return None

    def next_up(self, t: float) -> float:
        """Earliest instant >= ``t`` this fault has the node up again."""
        return t

    def hang_factor(self, t: float) -> float:
        """Pacing multiplier (>= 1) on bulk-synchronous compute at ``t``."""
        return 1.0

    def down_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Down sub-intervals of this fault clipped to ``[t0, t1)``."""
        return []


@dataclass(frozen=True)
class NodeCrash(NodeFault):
    """The node is hard-down on the whole window (kernel panic, power
    loss); ``t1=inf`` models a node that never comes back."""

    def down_at(self, t: float) -> bool:
        return self.active(t)

    def next_down(self, t: float) -> float | None:
        if t >= self.t1:
            return None
        return max(t, self.t0)

    def next_up(self, t: float) -> float:
        return self.t1 if self.active(t) else t

    def down_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo, hi = max(t0, self.t0), min(t1, self.t1)
        return [(lo, hi)] if lo < hi else []


@dataclass(frozen=True)
class NodeHang(NodeFault):
    """The node stays up but crawls: every bulk-synchronous step it joins
    is paced by ``factor`` while the window is active (the straggler §I's
    load-imbalance pathology escalates into)."""

    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("hang factor must be >= 1")

    def hang_factor(self, t: float) -> float:
        return self.factor if self.active(t) else 1.0


@dataclass(frozen=True)
class NodeFlap(NodeFault):
    """The node bounces on a deterministic duty cycle inside the window:
    each ``period_s`` starts with ``down_fraction`` of downtime.

    Cycle ``k`` starts at ``t0 + k * period_s``; every answer below comes
    from one cycle index, so they agree with each other at cycle edges.
    """

    period_s: float = 2.0
    down_fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.period_s > 0:
            raise ValueError("flap period must be positive")
        if not 0.0 < self.down_fraction < 1.0:
            raise ValueError("down_fraction must be in (0, 1)")

    def _start(self, k: int) -> float:
        return self.t0 + k * self.period_s

    def _down_end(self, k: int) -> float:
        return self._start(k) + self.down_fraction * self.period_s

    def _cycle(self, t: float) -> int:
        """The cycle holding ``t >= t0``: the ``k`` with ``_start(k) <= t <
        _start(k + 1)`` as computed in floats, which the quotient's floor
        alone misses by one near an edge."""
        k = math.floor((t - self.t0) / self.period_s)
        while self._start(k) > t:
            k -= 1
        while self._start(k + 1) <= t:
            k += 1
        return k

    def down_at(self, t: float) -> bool:
        return self.active(t) and t < self._down_end(self._cycle(t))

    def next_down(self, t: float) -> float | None:
        if t >= self.t1:
            return None
        t = max(t, self.t0)
        k = self._cycle(t)
        cand = t if t < self._down_end(k) else self._start(k + 1)
        return cand if cand < self.t1 else None

    def next_up(self, t: float) -> float:
        if not self.down_at(t):
            return t
        return min(self._down_end(self._cycle(t)), self.t1)

    def down_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo, hi = max(t0, self.t0), min(t1, self.t1)
        if lo >= hi:
            return []
        out = []
        k = self._cycle(lo)
        while (start := self._start(k)) < hi:
            a, b = max(lo, start), min(hi, self._down_end(k))
            if a < b:
                out.append((a, b))
            k += 1
        return out


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of half-open intervals."""
    if not intervals:
        return []
    intervals.sort()
    out = [intervals[0]]
    for a, b in intervals[1:]:
        if a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


class NodeFaultSet(Schedule):
    """The cluster's installed node faults, scoped by node name."""

    def __init__(self, by_node: dict[str, list[NodeFault]] | None = None) -> None:
        super().__init__()
        for node, faults in (by_node or {}).items():
            for f in faults:
                super().inject(node, f)

    def _locate(self, node: str, fault: NodeFault) -> tuple[str, NodeFault]:
        return node, fault

    def inject(
        self, node: str, fault: NodeFault, *, allow_overlap: bool = False
    ) -> NodeFault:
        """Install one fault on ``node``, refusing a same-kind window that
        overlaps one already there unless ``allow_overlap=True`` (the
        deliberate cases: compounding hang factors, chaos soak layering)."""
        if not allow_overlap:
            self.refuse_overlap(node, fault)
        return super().inject(node, fault)

    def faults_for(self, node: str) -> list[NodeFault]:
        return list(self.by_scope.get(node, ()))

    # ------------------------------------------------------------------
    is_down = Schedule.down_at
    next_up = Schedule.up_at

    def hang_factor(self, node: str, t: float) -> float:
        return self.product(node, t, "hang_factor", t)

    def next_down(self, node: str, t: float) -> float | None:
        """Earliest instant >= ``t`` the node goes (or already is) down."""
        cands = [c for f in self.by_scope.get(node, ())
                 if (c := f.next_down(t)) is not None]
        return min(cands) if cands else None

    def down_intervals(self, node: str, t0: float, t1: float) -> list[tuple[float, float]]:
        """Merged downtime intervals of one node clipped to [t0, t1)."""
        raw: list[tuple[float, float]] = []
        for f in self.by_scope.get(node, ()):
            raw.extend(f.down_intervals(t0, t1))
        return _merge(raw)

    def down_seconds(self, node: str, t0: float, t1: float) -> float:
        """Total downtime of one node on [t0, t1) — what utilization
        accounting excludes from the denominator."""
        return sum(b - a for a, b in self.down_intervals(node, t0, t1))

    def first_failure(
        self, nodes: list[str], t0: float, t1: float
    ) -> tuple[str, float] | None:
        """The earliest (node, instant) in ``[t0, t1)`` at which any of
        ``nodes`` is down — the crash that kills a job on that window."""
        best: tuple[str, float] | None = None
        for n in nodes:
            c = self.next_down(n, t0)
            if c is not None and c < t1 and (best is None or c < best[1]):
                best = (n, c)
        return best
