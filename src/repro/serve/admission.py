"""Admission control: decide at arrival, reject explicitly, never queue
unboundedly.

Each tenant's envelope (:class:`~repro.serve.tenants.TenantConfig`) is
enforced the moment a request arrives, in cheapest-first order:

1. **unknown tenant** — no envelope, no service;
2. **queue_full** — the tenant's admitted-but-unserved backlog is at its
   bound.  Checked before any bucket is debited so a rejected request
   costs the tenant nothing;
3. **rate_limited** — the per-tenant request token bucket is dry (the
   429 everyone knows);
4. **point_quota** — the request's *estimated scanned points* exceed the
   tenant's remaining point budget.  This is the asymmetric-cost guard:
   a backfill scan estimated at 1e6 points is charged 1e6 tokens, a live
   panel refresh a few hundred.

A rejection is terminal and explicit — the caller gets the reason string
and the request never touches the executor.  Priorities
(:class:`Priority`) distinguish live panel refreshes from backfill/export
scans; admission records them on the request and the executor's
weighted-fair dequeue consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

from .tenants import TenantConfig, TokenBucket

__all__ = [
    "Priority",
    "QueryRequest",
    "AdmissionDecision",
    "AdmissionController",
    "REJECT_UNKNOWN_TENANT",
    "REJECT_QUEUE_FULL",
    "REJECT_RATE_LIMITED",
    "REJECT_POINT_QUOTA",
]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "serve": {
        "AdmissionController": ("admit",),
    },
}

REJECT_UNKNOWN_TENANT = "unknown_tenant"
REJECT_QUEUE_FULL = "queue_full"
REJECT_RATE_LIMITED = "rate_limited"
REJECT_POINT_QUOTA = "point_quota"
#: ``Priority.label`` by value: the SLO board's latency class names.
PRIORITY_LABELS = ("live", "backfill")


class Priority(IntEnum):
    """Request class: live panel refresh outranks backfill/export scans."""

    LIVE = 0
    BACKFILL = 1

    @property
    def label(self) -> str:
        return PRIORITY_LABELS[self]

    @classmethod
    def parse(cls, value: "Priority | str") -> "Priority":
        if isinstance(value, Priority):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise ValueError(
                f"unknown priority {value!r}; use 'live' or 'backfill'"
            ) from None


@dataclass(slots=True)
class QueryRequest:
    """One admitted unit of work: a panel refresh for a tenant.

    ``statements`` (the resolved InfluxQL, one per target) double as the
    single-flight coalescing key: two requests with identical statements
    would compute identical results, so only one needs a worker slot.
    """

    rid: int
    tenant: str
    panel: Any  # viz.dashboard.Panel; Any avoids a hard viz import here
    statements: tuple[str, ...]
    submit_t: float
    priority: Priority = Priority.LIVE
    t0: float | None = None
    t1: float | None = None
    tag: str | None = None
    deadline_s: float | None = None
    est_points: float = 0.0


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    reason: str | None = None  # one of the REJECT_* constants when refused


#: A decision is a value: one shared instance per outcome.
_ADMITTED = AdmissionDecision(True)
_UNKNOWN_TENANT, _QUEUE_FULL, _RATE_LIMITED, _POINT_QUOTA = (
    AdmissionDecision(False, reason) for reason in (
        REJECT_UNKNOWN_TENANT, REJECT_QUEUE_FULL, REJECT_RATE_LIMITED,
        REJECT_POINT_QUOTA))


@dataclass
class _TenantGate:
    config: TenantConfig
    requests: TokenBucket = field(init=False)
    points: TokenBucket = field(init=False)

    def __post_init__(self) -> None:
        self.requests = self.config.request_bucket()
        self.points = self.config.point_bucket()


class AdmissionController:
    """Per-tenant token buckets + quotas + backlog bounds."""

    def __init__(self, tenants: list[TenantConfig] | None = None) -> None:
        self._gates: dict[str, _TenantGate] = {}
        for config in tenants or []:
            self.register(config)

    def register(self, config: TenantConfig) -> TenantConfig:
        if config.name in self._gates:
            raise ValueError(f"tenant {config.name!r} already registered")
        self._gates[config.name] = _TenantGate(config)
        return config

    def tenants(self) -> list[str]:
        return sorted(self._gates)

    def config(self, tenant: str) -> TenantConfig:
        return self._gates[tenant].config

    # ------------------------------------------------------------------
    def admit(
        self, request: QueryRequest, queue_depth: int, t: float | None = None
    ) -> AdmissionDecision:
        """Admit or reject ``request`` given the tenant's current backlog.

        ``t`` defaults to the request's submit time; buckets refill to
        that instant before being consulted.
        """
        gate = self._gates.get(request.tenant)
        if gate is None:
            return _UNKNOWN_TENANT
        at = request.submit_t if t is None else t
        if queue_depth >= gate.config.max_queue_depth:
            return _QUEUE_FULL
        if not gate.requests.try_take(at, 1.0):
            return _RATE_LIMITED
        if not gate.points.try_take(at, max(0.0, request.est_points)):
            return _POINT_QUOTA
        return _ADMITTED
