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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["NodeFault", "NodeCrash", "NodeHang", "NodeFlap", "NodeFaultSet",
           "NodeFailure"]


class NodeFailure(RuntimeError):
    """A job execution was killed by a node going down."""

    def __init__(self, node: str, t: float) -> None:
        super().__init__(f"node {node!r} went down at t={t:.6f}s")
        self.node = node
        self.t = t


@dataclass(frozen=True)
class NodeFault:
    """Base node fault: a lifecycle disruption active on [t0, t1)."""

    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise ValueError("fault window must have positive length")

    def active(self, t: float) -> bool:
        return self.t0 <= t < self.t1

    # ------------------------------------------------------------------
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
    each ``period_s`` starts with ``down_fraction`` of downtime."""

    period_s: float = 2.0
    down_fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s <= 0:
            raise ValueError("flap period must be positive")
        if not 0.0 < self.down_fraction < 1.0:
            raise ValueError("down_fraction must be in (0, 1)")

    def _down_len(self) -> float:
        return self.down_fraction * self.period_s

    def down_at(self, t: float) -> bool:
        if not self.active(t):
            return False
        return (t - self.t0) % self.period_s < self._down_len()

    def next_down(self, t: float) -> float | None:
        if t >= self.t1:
            return None
        t = max(t, self.t0)
        phase = (t - self.t0) % self.period_s
        if phase < self._down_len():
            cand = t
        else:
            cand = t + (self.period_s - phase)
        return cand if cand < self.t1 else None

    def next_up(self, t: float) -> float:
        if not self.down_at(t):
            return t
        phase = (t - self.t0) % self.period_s
        return min(t + (self._down_len() - phase), self.t1)

    def down_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo, hi = max(t0, self.t0), min(t1, self.t1)
        if lo >= hi:
            return []
        out = []
        k = math.floor((lo - self.t0) / self.period_s)
        while True:
            cycle = self.t0 + k * self.period_s
            if cycle >= hi:
                break
            a, b = max(lo, cycle), min(hi, cycle + self._down_len())
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


@dataclass
class NodeFaultSet:
    """The cluster's installed node faults, keyed by node name."""

    by_node: dict[str, list[NodeFault]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return any(self.by_node.values())

    def inject(
        self, node: str, fault: NodeFault, *, allow_overlap: bool = False
    ) -> NodeFault:
        """Install one fault on ``node``.

        Two same-kind faults whose windows overlap on one node are almost
        always a schedule bug (the writer meant back-to-back windows, or
        injected twice) — silently merging them hides it, so injection
        rejects the overlap loudly.  Pass ``allow_overlap=True`` for the
        deliberate cases (compounding hang factors, chaos soak layering).
        Zero-length windows are already rejected by the fault constructor.
        """
        if fault.t1 <= fault.t0:  # defensive: constructors enforce this
            raise ValueError(f"zero-length fault window on {node}: {fault}")
        if not allow_overlap:
            for f in self.by_node.get(node, []):
                if type(f) is type(fault) and f.t0 < fault.t1 and fault.t0 < f.t1:
                    raise ValueError(
                        f"overlapping {type(fault).__name__} windows on "
                        f"{node}: [{f.t0}, {f.t1}) vs [{fault.t0}, {fault.t1}) "
                        "— pass allow_overlap=True if layering is intended"
                    )
        self.by_node.setdefault(node, []).append(fault)
        return fault

    def remove(self, node: str, fault: NodeFault) -> bool:
        """Remove one installed fault; returns whether it was present."""
        try:
            self.by_node.get(node, []).remove(fault)
            return True
        except ValueError:
            return False

    @contextmanager
    def scoped(self, node: str, fault: NodeFault) -> Iterator[NodeFault]:
        """Inject on enter, remove on exit — chaos tests leak no state."""
        self.inject(node, fault)
        try:
            yield fault
        finally:
            self.remove(node, fault)

    def clear(self) -> None:
        self.by_node.clear()

    def faults_for(self, node: str) -> list[NodeFault]:
        return list(self.by_node.get(node, []))

    # ------------------------------------------------------------------
    def is_down(self, node: str, t: float) -> bool:
        faults = self.by_node.get(node)
        return bool(faults) and any(f.down_at(t) for f in faults)

    def hang_factor(self, node: str, t: float) -> float:
        factor = 1.0
        for f in self.by_node.get(node, []):
            factor *= f.hang_factor(t)
        return factor

    def next_down(self, node: str, t: float) -> float | None:
        """Earliest instant >= ``t`` the node goes (or already is) down."""
        cands = [c for f in self.by_node.get(node, [])
                 if (c := f.next_down(t)) is not None]
        return min(cands) if cands else None

    def next_up(self, node: str, t: float) -> float:
        """Earliest instant >= ``t`` with the node up (fixpoint over all
        faults, since windows may chain back-to-back)."""
        faults = self.by_node.get(node, [])
        while True:
            t2 = t
            for f in faults:
                t2 = max(t2, f.next_up(t2))
            if t2 == t:
                return t
            t = t2

    def down_intervals(self, node: str, t0: float, t1: float) -> list[tuple[float, float]]:
        """Merged downtime intervals of one node clipped to [t0, t1)."""
        raw: list[tuple[float, float]] = []
        for f in self.by_node.get(node, []):
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
