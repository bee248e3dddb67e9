"""The multi-tenant serving frontend above :class:`GrafanaServer`.

Request lifecycle (all on virtual time, fully deterministic):

1. :meth:`ServingFrontend.submit` resolves the panel's InfluxQL
   statements (the single-flight key), estimates its scanned-point cost,
   and schedules an *arrival event* in the executor;
2. at the arrival instant the :class:`AdmissionController` runs — a
   refusal is terminal and explicit (recorded per reason, 429-style),
   an admit enqueues into the tenant's bounded lane;
3. the :class:`BoundedExecutor` dispatches with weighted-fair dequeue,
   live-before-backfill priority with aging, per-query deadlines, and
   single-flight coalescing;
4. execution resolves each target through the tenant's *private
   partition* of the Grafana freshness-stamped result cache, and the
   modeled service time (:class:`ServiceCostModel`) charges cache hits
   and missed points differently;
5. the outcome lands in the per-tenant :class:`SloBoard` —
   p50/p95/p99 by priority class, admit/reject/timeout/coalesce
   counters — surfaced via :meth:`health` and ``PMoVE.health()``.

The plain single-caller ``GrafanaServer`` path does not go through any
of this: it stays byte-identical to every PR before the serving tier.
"""

from __future__ import annotations

from typing import Any

from repro.viz.dashboard import Panel
from repro.viz.grafana import GrafanaServer

from .admission import AdmissionController, Priority, QueryRequest
from .executor import (
    STATUS_COALESCED,
    STATUS_DONE,
    STATUS_TIMEOUT,
    BoundedExecutor,
    ExecutionRecord,
    ServiceCostModel,
)
from .slo import SloBoard
from .tenants import TenantConfig

__all__ = ["ServingFrontend"]


class ServingFrontend:
    """Admission + bounded execution + per-tenant caches + SLO accounting."""

    def __init__(
        self,
        grafana: GrafanaServer,
        tenants: list[TenantConfig],
        *,
        n_workers: int = 8,
        aging_s: float = 5.0,
        cost_model: ServiceCostModel | None = None,
        coalesce: bool = True,
        admission_enabled: bool = True,
        default_est_points: float = 300.0,
        keep_results: bool = False,
    ) -> None:
        if not tenants:
            raise ValueError("the serving frontend needs at least one tenant")
        self.grafana = grafana
        self.admission = AdmissionController(tenants)
        self.cost_model = cost_model or ServiceCostModel()
        self.admission_enabled = admission_enabled
        self.default_est_points = default_est_points
        self.keep_results = keep_results
        for config in tenants:
            grafana.set_tenant_cache_size(config.name, config.cache_entries)
        self.executor = BoundedExecutor(
            n_workers,
            execute=self._execute,
            on_complete=self._complete,
            aging_s=aging_s,
            coalesce=coalesce,
            weights={c.name: c.weight for c in tenants},
        )
        self.board = SloBoard()
        #: rid → terminal outcome ("done"/"coalesced"/"timeout"/"rejected:<reason>").
        self.outcomes: dict[int, str] = {}
        #: rid → served series, only when ``keep_results`` (tests want the
        #: payloads; load benchmarks would just hoard memory).
        self.results: dict[int, Any] = {}
        self._next_rid = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def register_tenant(self, config: TenantConfig) -> TenantConfig:
        self.admission.register(config)
        self.grafana.set_tenant_cache_size(config.name, config.cache_entries)
        self.executor._weights[config.name] = config.weight
        return config

    def _estimate_points(self, panel: Panel, t0: float | None, t1: float | None) -> float:
        """Scanned-point estimate charged against the tenant's quota.

        The sampler cadence is ~1 Hz per series, so "window seconds ×
        targets" is the right order of magnitude; unbounded windows get a
        flat default so they are neither free nor prohibitive."""
        if t0 is not None and t1 is not None and t1 > t0:
            return (t1 - t0) * len(panel.targets)
        return self.default_est_points * len(panel.targets)

    def submit(
        self,
        tenant: str,
        panel: Panel,
        *,
        at: float,
        priority: Priority | str = Priority.LIVE,
        t0: float | None = None,
        t1: float | None = None,
        tag: str | None = None,
        deadline_s: float | None = None,
        est_points: float | None = None,
    ) -> int:
        """Schedule one panel-refresh request; returns its rid.

        Admission happens at the arrival instant (not here): the decision
        needs the executor's queue state *at that virtual time*."""
        rid = self._next_rid
        self._next_rid += 1
        prio = Priority.parse(priority)
        statements = tuple(
            self.grafana.target_statement(target, t0, t1, tag)
            for target in panel.targets
        )
        request = QueryRequest(
            rid=rid,
            tenant=tenant,
            panel=panel,
            statements=statements,
            submit_t=max(at, self.executor.now),
            priority=prio,
            t0=t0,
            t1=t1,
            tag=tag,
            deadline_s=deadline_s,
            est_points=(
                est_points if est_points is not None
                else self._estimate_points(panel, t0, t1)
            ),
        )
        self.outcomes[rid] = "pending"
        self.executor.schedule_arrival(request, self._admit)
        return rid

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------
    def _admit(self, request: QueryRequest, t: float) -> bool:
        slo = self.board.for_tenant(request.tenant)
        slo.submitted += 1
        if self.admission_enabled:
            decision = self.admission.admit(
                request, self.executor.queue_depth(request.tenant), t
            )
            if not decision.admitted:
                slo.rejected[decision.reason] += 1
                self.outcomes[request.rid] = f"rejected:{decision.reason}"
                return False
        slo.admitted += 1
        return True

    def _execute(self, request: QueryRequest, t: float) -> tuple[Any, int, float]:
        """Resolve the panel through the tenant's cache partition and
        model the service time from what actually happened."""
        series: dict[str, tuple[list[float], list[float]]] = {}
        hit_targets = 0
        missed_points = 0
        sketch_targets = 0
        total_points = 0
        influx = self.grafana.influx
        targets, labels = request.panel.targets, request.panel.labels()
        for target, statement, label in zip(targets, request.statements, labels):
            # sketch-served answers the engine has recorded so far (an
            # engine without sketches records none)
            serves_before = getattr(influx, "sketch_served", 0)
            times, values, hit = self.grafana.execute_target(
                target, request.t0, request.t1, request.tag,
                tenant=request.tenant, statement=statement,
            )
            series[label] = (times, values)
            total_points += len(times)
            if hit:
                hit_targets += 1
            elif getattr(influx, "sketch_served", 0) > serves_before:
                # The engine answered from tier sketches: no raw points
                # were scanned, so the per-point term would overcharge.
                sketch_targets += 1
            else:
                missed_points += len(times)
        slo = self.board.for_tenant(request.tenant)
        slo.cache_hit_targets += hit_targets
        slo.cache_miss_targets += len(request.panel.targets) - hit_targets
        slo.points_scanned += missed_points
        slo.sketch_served_targets += sketch_targets
        service_s = self.cost_model.service_s(
            hit_targets, missed_points, sketch_targets
        )
        return series, total_points, service_s

    def _complete(
        self, request: QueryRequest, record: ExecutionRecord, result: Any
    ) -> None:
        slo = self.board.for_tenant(request.tenant)
        self.outcomes[request.rid] = record.status
        if record.status == STATUS_TIMEOUT:
            slo.timeouts += 1
            return
        slo.completed += 1
        if record.status == STATUS_DONE:
            slo.executed += 1
        elif record.status == STATUS_COALESCED:
            slo.coalesced += 1
        slo.record_latency(record.priority.label, record.latency_s)
        if self.keep_results:
            self.results[request.rid] = result

    # ------------------------------------------------------------------
    # Driving & introspection
    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        """Process every arrival/dispatch event before ``until``."""
        return self.executor.run(until)

    def drain(self) -> float:
        """Serve everything scheduled; returns the virtual makespan."""
        return self.executor.drain()

    def health(self) -> dict[str, Any]:
        """Per-tenant SLO snapshot + executor/admission gauges (a tenant's
        peak queue depth is the executor's, under ``max_queue_depth``).

        Every registered tenant appears, including all-quiet ones — an
        SLO dashboard with silently missing rows reads as an outage."""
        for tenant in self.admission.tenants():
            self.board.for_tenant(tenant)
        return {
            "executor": self.executor.stats(),
            "tenants": self.board.snapshot(),
            "cache_partitions": {
                tenant: self.grafana.tenant_cache_info(tenant)
                for tenant in self.admission.tenants()
            },
        }
