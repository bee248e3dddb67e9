"""Bounded concurrent query executor on virtual time.

The scheduler is an event loop in the style of the PR 7
``IngestPipeline`` pump: two event sources — request *arrivals* (pushed
by the frontend with their virtual timestamps) and *worker slots* coming
free — are merged in time order, ties broken by submission sequence, so
every seeded run is bit-deterministic.

Scheduling policy, in the order it is applied when a slot frees:

- **weighted-fair dequeue** (stride scheduling): each tenant carries a
  virtual ``pass``; dispatching charges ``service_s / weight`` to it, and
  the runnable tenant with the smallest pass goes next.  A tenant waking
  from idle inherits the global virtual time so it cannot replay its idle
  period as a burst.
- **priority** : live candidates dispatch before backfill candidates
  regardless of pass — but with **aging**: a backfill request that has
  waited ``aging_s`` is promoted into the live class, so a steady live
  flood cannot starve backfill forever.
- **deadlines**: a request whose start would already be past
  ``submit_t + deadline_s`` is cancelled (counted, never executed) —
  overdue dashboard refreshes are worthless, don't burn a slot on them.
- **single-flight coalescing**: a request whose statement key matches an
  execution still in flight completes when that execution does, at zero
  slot cost.  A popular dashboard refreshed by Q tenants in the same tick
  costs one scatter-gather, not Q.

The executor never runs a query itself: the frontend supplies
``execute(request, t) -> (result, points, service_s)`` where
``service_s`` is the modeled virtual service time.  Real result
computation (through the Grafana cache partitions) happens inside that
callback; the executor only decides *who runs when*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable

from .admission import Priority, QueryRequest

__all__ = ["ExecutionRecord", "ServiceCostModel", "BoundedExecutor"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "serve": {
        "BoundedExecutor": ("schedule_arrival", "enqueue", "run", "drain"),
    },
}

STATUS_DONE = "done"
STATUS_COALESCED = "coalesced"
STATUS_TIMEOUT = "timeout"
_INF = float("inf")
_LIVE = Priority.LIVE


@dataclass(frozen=True)
class ServiceCostModel:
    """Virtual service time of one panel-refresh execution.

    ``base_s`` is the per-request floor (parse, plan, render); each
    cache-hit target adds ``hit_s``; each missed target adds its scanned
    points at ``per_point_s``.  A missed target the engine answered from
    rollup-tier sketches scanned no raw points at all — it costs the flat
    ``sketch_s`` (a few merged digests, O(tiers)) instead of a per-point
    term.  Purely deterministic — the model is the clock, exactly like
    the transport/apply cost models elsewhere in the repo.
    """

    base_s: float = 0.002
    hit_s: float = 0.0005
    per_point_s: float = 5e-6
    sketch_s: float = 0.0008

    def service_s(
        self, hit_targets: int, missed_points: float, sketch_targets: int = 0
    ) -> float:
        return (
            self.base_s
            + self.hit_s * hit_targets
            + self.sketch_s * sketch_targets
            + self.per_point_s * missed_points
        )


@dataclass(slots=True)
class ExecutionRecord:
    """Terminal outcome of one admitted request."""

    rid: int
    tenant: str
    priority: Priority
    status: str  # done | coalesced | timeout
    submit_t: float
    start_t: float
    finish_t: float
    points: int = 0


class _TenantQueue:
    """Two FIFO lanes (live/backfill) plus the tenant's stride pass."""

    __slots__ = ("live", "backfill", "vpass", "weight")

    def __init__(self, weight: float) -> None:
        self.live: deque[QueryRequest] = deque()
        self.backfill: deque[QueryRequest] = deque()
        self.vpass = 0.0
        self.weight = weight

    def __len__(self) -> int:
        return len(self.live) + len(self.backfill)


class BoundedExecutor:
    """N worker slots, weighted-fair across tenants, on virtual time."""

    def __init__(
        self,
        n_workers: int = 8,
        *,
        execute: Callable[[QueryRequest, float], tuple[Any, int, float]],
        on_complete: Callable[[QueryRequest, ExecutionRecord, Any], None] | None = None,
        aging_s: float = 5.0,
        coalesce: bool = True,
        weights: dict[str, float] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker slot")
        if aging_s <= 0:
            raise ValueError("aging_s must be positive")
        self.n_workers = n_workers
        self.execute = execute
        self.on_complete = on_complete
        self.aging_s = aging_s
        self.coalesce = coalesce
        self._weights = dict(weights or {})
        #: (free_t, slot) per worker slot, a heap: its top is the slot the
        #: next dispatch takes, the lowest index among the soonest free.
        self._free = [(0.0, slot) for slot in range(n_workers)]
        self.now = 0.0
        self._queues: dict[str, _TenantQueue] = {}
        #: the same queues in tenant-name order, the order _pick walks
        self._order: list[_TenantQueue] = []
        self._vtime = 0.0  # global stride clock: pass of the last dispatch
        #: (submit_t, seq, request, admit) arrival events not yet admitted.
        self._arrivals: list[tuple[float, int, QueryRequest, Callable]] = []
        self._seq = 0
        #: statement key → (finish_t, result, record) of in-flight runs.
        self._inflight: dict[tuple[str, ...], tuple[float, Any, ExecutionRecord]] = {}
        #: (finish_t, rid, key) of the same runs, soonest to finish first.
        self._finishing: list[tuple[float, int, tuple[str, ...]]] = []
        self._queued = 0
        self.records: list[ExecutionRecord] = []
        self.executed = 0
        self.coalesced = 0
        self.timeouts = 0
        self.max_queue_depth: dict[str, int] = {}

    @property
    def slots(self) -> list[float]:
        """Virtual time each worker slot comes free, by slot index."""
        free = [0.0] * self.n_workers
        for free_t, slot in self._free:
            free[slot] = free_t
        return free

    def set_weight(self, tenant: str, weight: float) -> None:
        """``tenant``'s fair-share weight from the next dispatch on,
        including for a queue that already exists."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._weights[tenant] = weight
        q = self._queues.get(tenant)
        if q is not None:
            q.weight = weight

    # ------------------------------------------------------------------
    # Feeding the loop
    # ------------------------------------------------------------------
    def schedule_arrival(
        self,
        request: QueryRequest,
        admit: Callable[[QueryRequest, float], bool],
    ) -> None:
        """Register an arrival event; ``admit`` runs at the arrival instant
        and returns True to enqueue (False = rejected, never queued)."""
        heappush(
            self._arrivals, (request.submit_t, self._seq, request, admit)
        )
        self._seq += 1

    def enqueue(self, request: QueryRequest) -> None:
        tenant = request.tenant
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = _TenantQueue(self._weights.get(tenant, 1.0))
            self._order = [self._queues[name] for name in sorted(self._queues)]
        live, backfill = q.live, q.backfill
        if not (live or backfill):
            # Waking from idle: inherit the stride clock, don't replay it.
            q.vpass = max(q.vpass, self._vtime)
        (live if request.priority is _LIVE else backfill).append(request)
        self._queued += 1
        depth = len(live) + len(backfill)
        if depth > self.max_queue_depth.get(tenant, 0):
            self.max_queue_depth[tenant] = depth

    def queue_depth(self, tenant: str) -> int:
        q = self._queues.get(tenant)
        return 0 if q is None else len(q.live) + len(q.backfill)

    def total_queued(self) -> int:
        return self._queued

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        """Process every event strictly before ``until``; returns now."""
        step = self._step
        while step(until):
            pass
        return self.now

    def drain(self) -> float:
        """Run until arrivals and queues are empty; returns the makespan
        (virtual completion time of the last served request)."""
        self.run(_INF)
        return self.makespan()

    def makespan(self) -> float:
        served = [r.finish_t for r in self.records if r.status != STATUS_TIMEOUT]
        return max(served) if served else self.now

    def _step(self, until: float) -> bool:
        """Process the next event before ``until``; False when there is none."""
        # max(a, b) spelled out as ``b if b > a else a``: the same float,
        # signed zeros and NaNs included, without the builtin call
        arrivals, now = self._arrivals, self.now
        t_arrival = arrivals[0][0] if arrivals else _INF
        if self._queued:
            free_t = self._free[0][0]
            t_dispatch = now if now > free_t else free_t
        else:
            t_dispatch = _INF
        t_next = t_arrival if t_arrival <= t_dispatch else t_dispatch
        if t_next == _INF or t_next >= until:
            return False
        if t_arrival <= t_dispatch:
            _, _, request, admit = heappop(arrivals)
            if t_arrival > now:
                self.now = now = t_arrival
            if admit(request, now):
                self.enqueue(request)
        else:
            self.now = t_dispatch
            self._dispatch(t_dispatch)
        return True

    # ------------------------------------------------------------------
    def _pick(self, t: float) -> tuple[QueryRequest, _TenantQueue]:
        """Weighted-fair choice among queue heads, live class first.

        Within a tenant the candidate is its live head, else its backfill
        head; a backfill head that has waited past ``aging_s`` competes in
        the live class.  Across tenants: (class, pass, name) — the walk is
        in name order, so only a strictly smaller (class, pass) displaces
        the best so far.  Called only while something is queued.
        """
        aging_s = self.aging_s
        best, best_class, best_pass = None, 2, 0.0
        for q in self._order:
            if q.live:
                klass = 0
            elif q.backfill:
                klass = 0 if t - q.backfill[0].submit_t >= aging_s else 1
            else:
                continue
            if klass < best_class or (klass == best_class and q.vpass < best_pass):
                best, best_class, best_pass = q, klass, q.vpass
        self._queued -= 1
        live, backfill = best.live, best.backfill
        if live and backfill:
            # An aged backfill head that predates the live head wins even
            # inside its own tenant — otherwise a tenant's live stream
            # starves its own backfill forever.
            head = backfill[0]
            if t - head.submit_t >= aging_s and head.submit_t < live[0].submit_t:
                return backfill.popleft(), best
        return (live or backfill).popleft(), best

    def _dispatch(self, t: float) -> None:
        finishing, inflight = self._finishing, self._inflight
        while finishing and finishing[0][0] <= t:
            finish_t, _, key = heappop(finishing)
            # (without coalescing a key can be running twice: the later
            # run owns the entry until its own finish time)
            running = inflight.get(key)
            if running is not None and running[0] == finish_t:
                del inflight[key]
        request, q = self._pick(t)
        key, deadline_s = request.statements, request.deadline_s
        running = inflight.get(key) if self.coalesce else None
        if deadline_s is not None and t - request.submit_t > deadline_s:
            self.timeouts += 1
            status, finish_t, points, result = STATUS_TIMEOUT, t, 0, None
        elif running is not None:
            self.coalesced += 1
            finish_t, result, lead = running
            status, points = STATUS_COALESCED, lead.points
        else:
            result, points, service_s = self.execute(request, t)
            if service_s < 0:
                raise ValueError("modeled service time must be >= 0")
            finish_t = t + service_s
            heapreplace(self._free, (finish_t, self._free[0][1]))
            q.vpass += service_s / q.weight
            self._vtime = q.vpass
            self.executed += 1
            status = STATUS_DONE
        record = ExecutionRecord(request.rid, request.tenant, request.priority,
                                 status, request.submit_t, t, finish_t, points)
        if status is STATUS_DONE:
            inflight[key] = (finish_t, result, record)
            heappush(finishing, (finish_t, request.rid, key))
        self.records.append(record)
        if self.on_complete is not None:
            self.on_complete(request, record, result)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "executed": self.executed,
            "coalesced": self.coalesced,
            "timeouts": self.timeouts,
            "queued": self.total_queued(),
            "pending_arrivals": len(self._arrivals),
            "inflight": len(self._inflight),
            "max_queue_depth": dict(sorted(self.max_queue_depth.items())),
        }
