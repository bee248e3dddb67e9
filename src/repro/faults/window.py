"""One fault window and one schedule: what every fault family shares.

A throttled CPU (:mod:`repro.machine.faults`), a DB outage
(:mod:`.services`), a crashed node (:mod:`.nodes`) and a dead log consumer
(:mod:`.log`) are all active on a half-open virtual-time :class:`Window`
``[t0, t1)``, and once installed they live in a :class:`Schedule`: faults
kept by scope (a node, a ``(group, consumer)`` pair; ``None`` is the
unscoped bucket) plus the few answers every family composes from them.
A family is a configuration of the two — which scope a fault lives in,
whether same-kind windows overlapping on one scope are refused, and which
per-fault query the composed product multiplies.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

__all__ = ["Window", "Schedule"]


@dataclass(frozen=True)
class Window:
    """Active on ``[t0, t1)`` of virtual time; ``t1=inf`` never closes."""

    t0: float
    t1: float

    def __post_init__(self) -> None:
        if not self.t0 < self.t1:  # so spelled, a NaN bound is refused too
            raise ValueError(
                f"fault window [{self.t0}, {self.t1}) must have positive length"
            )

    def active(self, t: float) -> bool:
        return self.t0 <= t < self.t1


class Schedule:
    """Installed faults kept by scope; ``None`` is the unscoped bucket.

    ``inject`` / ``remove`` / ``scoped`` take what the family's
    :meth:`_locate` turns into ``(scope, fault)`` — the fault alone here,
    ``(node, fault)`` on a node set.  A bucket that empties is dropped, so
    an empty schedule is falsy and each query on it is one dict probe.
    """

    def __init__(self) -> None:
        self.by_scope: dict[Hashable, list[Any]] = {}

    def __bool__(self) -> bool:
        return bool(self.by_scope)

    def _locate(self, fault: Any) -> tuple[Hashable, Any]:
        return None, fault

    def inject(self, *key: Any) -> Any:
        """Install one fault; overlapping windows compose."""
        scope, fault = self._locate(*key)
        self.by_scope.setdefault(scope, []).append(fault)
        return fault

    def remove(self, *key: Any) -> bool:
        """Remove one installed fault; returns whether it was present."""
        scope, fault = self._locate(*key)
        faults = self.by_scope.get(scope, [])
        try:
            faults.remove(fault)
        except ValueError:
            return False
        if not faults:
            del self.by_scope[scope]
        return True

    @contextmanager
    def scoped(self, *key: Any) -> Iterator[Any]:
        """Inject on enter, remove on exit — chaos tests leak no state."""
        fault = self.inject(*key)
        try:
            yield fault
        finally:
            self.remove(*key)

    def clear(self) -> None:
        self.by_scope.clear()

    @property
    def faults(self) -> list[Any]:
        """Every installed fault, bucket by bucket in install order."""
        return [f for faults in self.by_scope.values() for f in faults]

    def active_at(self, t: float) -> list[Any]:
        return [f for f in self.faults if f.active(t)]

    # ------------------------------------------------------------------
    def refuse_overlap(self, scope: Hashable, fault: Window) -> None:
        """Raise if a same-kind window on ``scope`` overlaps ``fault``'s.

        Two such windows are almost always a schedule bug (the writer meant
        back-to-back windows, or injected twice); merging them silently
        hides it.  Families that layer on purpose never call this.
        """
        for f in self.by_scope.get(scope, ()):
            if type(f) is type(fault) and f.t0 < fault.t1 and fault.t0 < f.t1:
                raise ValueError(
                    f"overlapping {type(fault).__name__} windows on {scope}: "
                    f"[{f.t0}, {f.t1}) vs [{fault.t0}, {fault.t1}) "
                    "— pass allow_overlap=True if layering is intended"
                )

    def product(self, scope: Hashable, t: float, query: str, *args: Any) -> float:
        """Product of ``fault.<query>(*args)`` over the faults of ``scope``
        active at ``t`` — the one composed multiplier."""
        factor = 1.0
        for f in self.by_scope.get(scope, ()):
            if f.active(t):
                factor *= getattr(f, query)(*args)
        return factor

    def down_at(self, scope: Hashable, t: float) -> bool:
        """Whether any fault of ``scope`` holds it down at ``t``."""
        faults = self.by_scope.get(scope)
        return faults is not None and any(f.down_at(t) for f in faults)

    def up_at(self, scope: Hashable, t: float) -> float:
        """Earliest instant >= ``t`` no fault of ``scope`` holds it down — a
        fixpoint over all of them, since windows may chain back-to-back."""
        faults = self.by_scope.get(scope, ())
        while True:
            t2 = t
            for f in faults:
                t2 = max(t2, f.next_up(t2))
            if t2 == t:
                return t
            t = t2
