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

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .admission import Priority, QueryRequest

__all__ = ["ExecutionRecord", "ServiceCostModel", "BoundedExecutor"]

STATUS_DONE = "done"
STATUS_COALESCED = "coalesced"
STATUS_TIMEOUT = "timeout"


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


@dataclass
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

    @property
    def latency_s(self) -> float:
        return self.finish_t - self.submit_t


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
        self.slots = [0.0] * n_workers
        self.now = 0.0
        self._queues: dict[str, _TenantQueue] = {}
        self._vtime = 0.0  # global stride clock: pass of the last dispatch
        #: (submit_t, seq, request) arrival events not yet admitted.
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
        heapq.heappush(
            self._arrivals, (request.submit_t, self._seq, request, admit)
        )
        self._seq += 1

    def enqueue(self, request: QueryRequest) -> None:
        q = self._queue_for(request.tenant)
        if len(q) == 0:
            # Waking from idle: inherit the stride clock, don't replay it.
            q.vpass = max(q.vpass, self._vtime)
        (q.live if request.priority is Priority.LIVE else q.backfill).append(request)
        self._queued += 1
        depth = len(q)
        if depth > self.max_queue_depth.get(request.tenant, 0):
            self.max_queue_depth[request.tenant] = depth

    def _queue_for(self, tenant: str) -> _TenantQueue:
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = _TenantQueue(self._weights.get(tenant, 1.0))
        return q

    def queue_depth(self, tenant: str) -> int:
        q = self._queues.get(tenant)
        return len(q) if q is not None else 0

    def total_queued(self) -> int:
        return self._queued

    def pending_arrivals(self) -> int:
        return len(self._arrivals)

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        """Process every event strictly before ``until``; returns now."""
        while self._step(until):
            pass
        return self.now

    def drain(self) -> float:
        """Run until arrivals and queues are empty; returns the makespan
        (virtual completion time of the last served request)."""
        self.run(float("inf"))
        return self.makespan()

    def makespan(self) -> float:
        served = [r.finish_t for r in self.records if r.status != STATUS_TIMEOUT]
        return max(served) if served else self.now

    def _step(self, until: float) -> bool:
        t_arrival = self._arrivals[0][0] if self._arrivals else float("inf")
        if self._queued:
            t_dispatch = max(min(self.slots), self.now)
        else:
            t_dispatch = float("inf")
        t_next = min(t_arrival, t_dispatch)
        if t_next == float("inf") or t_next >= until:
            return False
        if t_arrival <= t_dispatch:
            _, _, request, admit = heapq.heappop(self._arrivals)
            self.now = max(self.now, t_arrival)
            if admit(request, self.now):
                self.enqueue(request)
        else:
            self.now = t_dispatch
            self._dispatch(t_dispatch)
        return True

    # ------------------------------------------------------------------
    def _pick(self, t: float) -> QueryRequest | None:
        """Weighted-fair choice among queue heads, live class first.

        Within a tenant the candidate is its live head, else its backfill
        head; a backfill head that has waited past ``aging_s`` competes in
        the live class.  Across tenants: (class, pass, name) — all
        deterministic orderings.
        """
        best_key: tuple[int, float, str] | None = None
        best_tenant: str | None = None
        for name in sorted(self._queues):
            q = self._queues[name]
            if len(q) == 0:
                continue
            aged = bool(q.backfill) and t - q.backfill[0].submit_t >= self.aging_s
            klass = 0 if (q.live or aged) else 1
            key = (klass, q.vpass, name)
            if best_key is None or key < best_key:
                best_key, best_tenant = key, name
        if best_tenant is None:
            return None
        self._queued -= 1
        q = self._queues[best_tenant]
        if q.live and q.backfill:
            # An aged backfill head that predates the live head wins even
            # inside its own tenant — otherwise a tenant's live stream
            # starves its own backfill forever.
            aged = t - q.backfill[0].submit_t >= self.aging_s
            if aged and q.backfill[0].submit_t < q.live[0].submit_t:
                return q.backfill.popleft()
        lane = q.live if q.live else q.backfill
        return lane.popleft()

    def _finish(self, request: QueryRequest, record: ExecutionRecord, result: Any) -> None:
        self.records.append(record)
        if self.on_complete is not None:
            self.on_complete(request, record, result)

    def _dispatch(self, t: float) -> None:
        finishing, inflight = self._finishing, self._inflight
        while finishing and finishing[0][0] <= t:
            finish_t, _, key = heapq.heappop(finishing)
            # (without coalescing a key can be running twice: the later
            # run owns the entry until its own finish time)
            running = inflight.get(key)
            if running is not None and running[0] == finish_t:
                del inflight[key]
        request = self._pick(t)
        if request is None:  # pragma: no cover — guarded by total_queued()
            return

        if (
            request.deadline_s is not None
            and t - request.submit_t > request.deadline_s
        ):
            self.timeouts += 1
            record = ExecutionRecord(
                request.rid, request.tenant, request.priority, STATUS_TIMEOUT,
                request.submit_t, t, t,
            )
            self._finish(request, record, None)
            return

        if self.coalesce:
            inflight = self._inflight.get(request.key)
            if inflight is not None:
                finish_t, result, lead = inflight
                self.coalesced += 1
                record = ExecutionRecord(
                    request.rid, request.tenant, request.priority,
                    STATUS_COALESCED, request.submit_t, t, finish_t,
                    points=lead.points,
                )
                self._finish(request, record, result)
                return

        result, points, service_s = self.execute(request, t)
        if service_s < 0:
            raise ValueError("modeled service time must be >= 0")
        slot = min(range(self.n_workers), key=lambda i: self.slots[i])
        finish_t = t + service_s
        self.slots[slot] = finish_t
        q = self._queue_for(request.tenant)
        q.vpass += service_s / q.weight
        self._vtime = q.vpass
        self.executed += 1
        record = ExecutionRecord(
            request.rid, request.tenant, request.priority, STATUS_DONE,
            request.submit_t, t, finish_t, points=points,
        )
        self._inflight[request.key] = (finish_t, result, record)
        heapq.heappush(self._finishing, (finish_t, request.rid, request.key))
        self._finish(request, record, result)

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
