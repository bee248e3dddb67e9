"""Execute one :class:`~repro.fuzz.scenario.Scenario` end to end and
harvest everything the campaign needs: counters, coverage, oracle
verdicts, and a bit-stable fingerprint.

One run drives the *whole* twin, in phases:

1. build a :class:`~repro.core.daemon.PMoVE` (single or sharded engine)
   with the scenario's service faults and a hiccup-free transport (so
   the only loss channels are the injected faults);
2. Scenario-A sampling in the scenario's ingest mode, with log faults
   installed when durable and shard crashes injected when sharded;
3. optional Scenario-B observation (feeds the KB → federation);
4. durable settle: drain past every fault window, requeue healed DLQ
   entries, drain again;
5. optional multi-tenant query stream through the serving frontend
   (plus a GROUP BY twin of every panel when the stream asks for an
   aggregate — that is what walks the rollup planner);
6. optional cluster job under node faults (scheduler requeue coverage);
7. optional SUPERDB federation push + anti-entropy over a faulted WAN;
8. oracles + coverage harvest + fingerprint.

The counter document is ``PMoVE.health()`` — the twin's one self-report —
less its process-global ``fuzz`` section, plus what only the runner knows:
the Scenario-A ``SamplingStats`` and the cluster, federation and oracle
results.

Everything is virtual-time deterministic: ``execute(sc)`` twice returns
bit-identical fingerprints, which is itself one of the oracles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.core.daemon import PMoVE
from repro.core.superdb import SuperDB
from repro.db.faulty import stamp
from repro.faults.services import DbOutage, ServiceFaultSet
from repro.machine.presets import PRESETS, get_preset
from repro.machine.simulator import SimulatedMachine
from repro.pcp.shipper import ShipperConfig
from repro.serve import TenantConfig, mixed_load, replay
from repro.viz.dashboard import Panel

from .coverage import harvest
from .oracles import (
    check_buffered_no_loss,
    check_durable_settled,
    check_rollup_exactly_once,
    check_shard_partial_never_error,
    check_slo_isolation,
)
from .scenario import Scenario

__all__ = ["RunResult", "execute"]


@dataclass
class RunResult:
    """Everything one scenario execution produced."""

    scenario: Scenario
    counters: dict[str, Any]
    coverage: set[str]
    violations: list[str]
    db_hash: str
    fingerprint: str
    stats: Any = None  # SamplingStats of the Scenario-A run
    error: str | None = None  # unhandled exception => always a violation

    @property
    def failed(self) -> bool:
        return bool(self.violations) or self.error is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "violations": list(self.violations),
            "error": self.error,
            "db_hash": self.db_hash,
            "fingerprint": self.fingerprint,
            "coverage": sorted(self.coverage),
        }


# ----------------------------------------------------------------------
# Phase drivers
# ----------------------------------------------------------------------
def _settle_durable(sc: Scenario, pipe) -> None:
    """Drain past every fault window, requeue healed parks, drain again."""
    finite = [
        f.t1 for f in sc.log_faults if f.t1 != float("inf")
    ] + [f.t1 for f in sc.service_faults if f.t1 != float("inf")]
    if sc.wan_outage is not None:
        finite.append(sc.wan_outage[1])
    deadline = max([sc.horizon, pipe.log.now, *finite]) + 60.0
    pipe.drain(deadline)
    for _ in range(3):
        if not pipe.log.dlq.entries and pipe.backlog_records() == 0:
            break
        pipe.log.requeue()
        pipe.drain(max(deadline, pipe.log.now + 60.0))


def _serving_phase(
    sc: Scenario, daemon: PMoVE, uid: str, *, with_aggressor: bool
) -> dict[str, Any] | None:
    """Build tenants, replay the mixed load, return ``frontend.health()``.

    ``with_aggressor=False`` reruns the identical schedule minus the
    aggressor flag — the baseline O5 compares against."""
    if sc.stream is None or not sc.tenants:
        return None
    stream = sc.stream
    panels = list(daemon.grafana.get(uid).panels[:3])
    if stream.agg:
        # A GROUP BY twin per panel: same measurements, downsampled — the
        # requests that exercise the rollup serving planner.
        twins = []
        for i, p in enumerate(panels):
            targets = [
                dataclasses.replace(
                    t, agg=stream.agg, group_by_s=stream.group_by_s,
                    agg_arg=(stream.agg_arg if stream.agg == "PERCENTILE"
                             else None),
                )
                for t in p.targets
            ]
            twins.append(Panel(id=900 + i, title=f"{p.title} [rollup]",
                               targets=targets, panel_type=p.panel_type))
        panels = panels + twins
    names = [t.name for t in sc.tenants]
    aggressor = next((t.name for t in sc.tenants if t.aggressor), None)
    configs = [
        TenantConfig(
            t.name, rate_per_s=10.0, burst=15.0,
            point_budget_per_s=5_000.0, point_burst=20_000.0,
            weight=t.weight, max_queue_depth=16, cache_entries=64,
        )
        for t in sc.tenants
    ]
    frontend = daemon.enable_serving(configs, n_workers=stream.n_workers)
    specs = mixed_load(
        names, panels,
        duration_s=stream.duration_s,
        span_s=sc.duration_s,
        live_period_s=stream.live_period_s,
        backfill_period_s=stream.backfill_period_s,
        window_s=min(stream.window_s, sc.duration_s),
        seed=stream.order_seed,
        aggressor=aggressor if with_aggressor else None,
    )
    replay(frontend, specs)
    frontend.drain()
    return frontend.health()


def _cluster_phase(sc: Scenario) -> dict[str, Any] | None:
    if sc.cluster is None:
        return None
    from repro.cluster import ClusterMonitor, JobSpec, SimulatedCluster
    from repro.workloads import build_kernel

    cs = sc.cluster
    cluster = SimulatedCluster(PRESETS[sc.preset], n_nodes=cs.n_nodes,
                               seed=sc.seed)
    monitor = ClusterMonitor(cluster)
    for f in cs.node_faults:
        cluster.inject_node_fault(cluster.node_names[f.node], f.build())
    spec = get_preset(sc.preset)
    job = JobSpec(
        name="fuzz_job", n_nodes=cs.job_nodes,
        ranks_per_node=spec.n_cores,
        rank_kernel=build_kernel("triad", 50_000, iterations=1),
        iterations=cs.iterations,
        halo_bytes_per_neighbor=1e5, halo_neighbors=2, allreduce_bytes=8e3,
    )
    out: dict[str, Any] = {"gave_up": False, "requeues": 0, "failed_attempts": 0}
    try:
        doc, _execution, _stats = monitor.run_job(job, freq_hz=2.0)
        out["requeues"] = doc["requeues"]
        out["failed_attempts"] = len(doc["failed_attempts"])
    except RuntimeError:
        out["gave_up"] = True
    health = monitor.fleet_health()
    out["degraded"] = health["degraded"]
    out["node_states"] = sorted(
        {h["state"] for h in health["nodes"].values()}
    )
    return out


def _federation_phase(
    sc: Scenario, daemon: PMoVE, superdb: SuperDB, hostname: str
) -> dict[str, Any] | None:
    if not sc.federate:
        return None
    if sc.wan_outage is not None:
        t0, t1 = sc.wan_outage
        t_report = (t0 + t1) / 2.0  # mid-outage: force retries/pending
        t_repair = t1 + 1.0
    else:
        t_report = sc.duration_s + 1.0
        t_repair = t_report + 1.0
    daemon.push_to_superdb(superdb, hostname, mode="agg", at=t_report)
    repair = superdb.anti_entropy(
        daemon.target(hostname).kb, daemon.influx, daemon.database,
        mode="agg", at=t_repair,
    )
    status = superdb.sync_status(hostname) or {}
    return {
        "repaired": repair["repaired"],
        "pending": repair["pending"],
        "checked": repair["checked"],
        "failed_attempts": superdb.link.failed_attempts,
        "synced": bool(status.get("complete", not repair["pending"])),
    }


def _db_hash(influx, db: str, at: float) -> str:
    stamp(influx, at)
    h = hashlib.sha256()
    for m in sorted(influx.measurements(db)):
        for line in sorted(p.to_line() for p in influx.points(db, m)):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def execute(
    sc: Scenario,
    *,
    check_oracles: bool = True,
    _nested: bool = False,
) -> RunResult:
    """Run one scenario end to end; never raises for in-scenario faults
    (an unhandled exception becomes ``result.error`` + a violation)."""
    sc.validate()
    try:
        return _execute(sc, check_oracles=check_oracles, _nested=_nested)
    except Exception as e:  # noqa: BLE001 — a crash IS a finding
        fp = hashlib.sha256(
            f"crash:{type(e).__name__}:{e}".encode()
        ).hexdigest()
        return RunResult(
            scenario=sc,
            counters={},
            coverage={f"crash:{type(e).__name__}"},
            violations=[f"no-crash: {type(e).__name__}: {e}"],
            db_hash="",
            fingerprint=fp,
            error=f"{type(e).__name__}: {e}",
        )


def _execute(sc: Scenario, *, check_oracles: bool, _nested: bool) -> RunResult:
    from repro.pcp.transport import TransportModel

    daemon = PMoVE(
        env={"PMOVE_SHARDS": str(sc.shards)},
        seed=sc.seed,
        service_faults=sc.service_fault_set(),
    )
    machine = SimulatedMachine(get_preset(sc.preset), seed=sc.seed)
    hostname = machine.spec.hostname
    daemon.attach_target(machine, transport=TransportModel(hiccup_rate_max=0.0))

    for c in sc.shard_crashes:
        daemon.influx.inject_shard_fault(f"shard-{c.shard}", c.build())

    superdb: SuperDB | None = None
    if sc.federate:
        wan = ServiceFaultSet()
        if sc.wan_outage is not None:
            wan.inject(DbOutage(t0=sc.wan_outage[0], t1=sc.wan_outage[1]))
        superdb = SuperDB(faults=wan, seed=sc.seed)

    shipper_config = None
    if sc.mode == "buffered":
        shipper_config = ShipperConfig(
            capacity=sc.queue_capacity, policy=sc.queue_policy,
            drain_grace_s=120.0,
        )
    elif sc.mode == "durable":
        daemon.enable_durable_ingest(
            n_partitions=sc.n_partitions,
            db_writers=sc.db_writers,
            fsync_every_reports=sc.fsync_every,
            log_faults=sc.log_fault_set(),
            superdb=superdb if sc.federate else None,
            max_apply_attempts=sc.max_apply_attempts,
        )
        shipper_config = ShipperConfig(drain_grace_s=120.0)

    stats, uid = daemon.scenario_a(
        hostname, duration_s=sc.duration_s, freq_hz=sc.freq_hz,
        mode=sc.mode, shipper_config=shipper_config,
    )

    if sc.observe:
        from repro.workloads import build_kernel

        daemon.scenario_b(
            hostname, build_kernel("triad", 100_000),
            ["TOTAL_MEMORY_INSTRUCTIONS"], freq_hz=4.0, n_threads=2,
            mode=sc.mode, shipper_config=shipper_config,
            # pin the series tag: shard placement hashes it, and reruns
            # must be bit-identical (oracle O6)
            tag=f"fuzz-obs-{sc.seed}",
        )

    if sc.mode == "durable" and daemon.ingest is not None:
        _settle_durable(sc, daemon.ingest)

    violations: list[str] = []
    serving = None
    try:
        serving = _serving_phase(sc, daemon, uid, with_aggressor=True)
    except Exception as e:  # noqa: BLE001
        if sc.shard_crashes:
            violations.append(
                "shard-partial-never-error: serving raised "
                f"{type(e).__name__}: {e}"
            )
        else:
            raise

    cluster = _cluster_phase(sc)
    federation = (
        _federation_phase(sc, daemon, superdb, hostname) if superdb else None
    )

    if check_oracles:
        violations += check_buffered_no_loss(sc, stats)
        violations += check_durable_settled(sc, daemon, daemon.ingest)
        violations += check_rollup_exactly_once(sc, daemon.ingest)
        violations += check_shard_partial_never_error(sc, daemon)
        if (
            serving is not None
            and any(t.aggressor for t in sc.tenants)
            and not _nested
        ):
            base = execute(
                sc.with_(tenants=tuple(
                    dataclasses.replace(t, aggressor=False) for t in sc.tenants
                )),
                check_oracles=False, _nested=True,
            )
            baseline = base.counters.get("serving")
            violations += check_slo_isolation(sc, serving, baseline)
        if (
            sc.shards >= 2
            and not _nested
            and not sc.service_faults
            and not sc.log_faults
            and not sc.shard_crashes
            and sc.wan_outage is None
        ):
            golden = execute(
                sc.with_(shards=0), check_oracles=False, _nested=True
            )
            mine = _db_hash(daemon.influx, daemon.database, sc.horizon + 1e6)
            if golden.db_hash != mine:
                violations.append(
                    "golden-byte-identity: sharded fault-free DB diverges "
                    f"from the single-engine golden path ({mine[:12]} != "
                    f"{golden.db_hash[:12]})"
                )

    # ``fuzz`` is process-global: two campaigns in one process differ there.
    counters = {k: v for k, v in daemon.health().items() if k != "fuzz"}
    counters.update(sampler=dataclasses.asdict(stats), cluster=cluster,
                    federation=federation, violations=violations)
    db_hash = _db_hash(daemon.influx, daemon.database, sc.horizon + 1e6)
    coverage = harvest(counters)

    fp = hashlib.sha256()
    fp.update(db_hash.encode())
    for p in sorted(coverage):
        fp.update(p.encode())
    fp.update(json.dumps(counters, sort_keys=True).encode())
    return RunResult(
        scenario=sc,
        counters=counters,
        coverage=coverage,
        violations=violations,
        db_hash=db_hash,
        fingerprint=fp.hexdigest(),
        stats=stats,
    )
