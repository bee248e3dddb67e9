"""The P-MoVE daemon: Fig 3's host-side orchestrator.

Step ⓪ reads the environment (database endpoints, Grafana token); step ①
ships the probing module to the target; step ② parses the returned system
JSON into the KB; step ③ inserts the KB into MongoDB (re-run whenever the
KB changes).  After that the framework is "fully functional using only this
data structure".

Two scenarios (Fig 3):

- **Scenario A** — always-on software telemetry: PCP collectors configured
  from the KB, dashboards generated *before* the target starts reporting
  (steps A1/A2 are concurrent because the query parameters already live in
  the KB).
- **Scenario B** — HW events around a kernel execution: generic events are
  resolved through the Abstraction Layer, the PMU is programmed, a pinning
  script is generated from the probed topology, the kernel runs under
  sampling, and an ObservationInterface (with auto-generated recall
  queries) is appended to the KB.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.db.faulty import FaultyInfluxDB
from repro.db.influx import InfluxDB
from repro.db.influxql import ResultSet
from repro.db.sharded import ShardedInfluxDB
from repro.db.mongo import MongoDB
from repro.faults.log import LogFaultSet
from repro.faults.services import ServiceFault, ServiceFaultSet
from repro.gpu.device import SimulatedGpu
from repro.gpu.nvml import NvmlSampler
from repro.machine.activity import SoftwareState
from repro.machine.kernel import KernelDescriptor
from repro.machine.simulator import KernelRun, SimulatedMachine
from repro.pcp.agents import PmdaLinux, PmdaNvidia, PmdaPerfevent, PmdaProc
from repro.pcp.commitlog import CommitLog
from repro.pcp.consumers import (
    AnomalyScannerConsumer,
    DbWriterConsumer,
    FederatorConsumer,
    IngestPipeline,
    ReportTracker,
    RollupMaintainerConsumer,
)
from repro.pcp.pmcd import Pmcd
from repro.pcp.pmns import instance_field, metric_to_measurement, perfevent_metric
from repro.pcp.sampler import Sampler, SamplingStats
from repro.pcp.shipper import ShipperConfig
from repro.pcp.transport import TransportModel
from repro.pmu.abstraction import AbstractionLayer, UnsupportedEventError, pmu_utils
from repro.pmu.counters import PMU
from repro.probing.prober import collect_raw_probe, parse_probe
from repro.serve import ServingFrontend, TenantConfig
from repro.viz.generator import generate_dashboard
from repro.viz.grafana import GrafanaServer
from repro.workloads.pinning import pin_threads, pinning_script

from .kb import KnowledgeBase
from .observation import make_observation, make_process, new_tag, observation_fields
from .queries import generate_queries, recall
from .views import ViewSpec, level_view, subtree_view

__all__ = ["Target", "PMoVE", "DEFAULT_ENV"]

DEFAULT_ENV = {
    "INFLUX_HOST": "127.0.0.1:8086",
    "MONGO_HOST": "127.0.0.1:27017",
    "GRAFANA_HOST": "127.0.0.1:3000",
    "GRAFANA_TOKEN": "pmove-token",
    "PMOVE_DB": "pmove",
    # "0"/"1" → one in-process engine (the default, byte-identical to every
    # prior PR); "N" ≥ 2 → a ShardedInfluxDB router over N shard engines.
    "PMOVE_SHARDS": "0",
}

#: Default SWTelemetry set for Scenario A — "approximately 20 pmdalinux
#: metrics ... at 1-second intervals" (§V-B); these are the core ones.
_SCENARIO_A_METRICS = (
    "kernel.percpu.cpu.idle",
    "kernel.percpu.cpu.user",
    "kernel.all.load",
    "kernel.all.pswitch",
    "mem.util.used",
    "mem.numa.alloc.hit",
)


@dataclass
class Target:
    """Everything the daemon holds per attached target system."""

    machine: SimulatedMachine
    kb: KnowledgeBase
    pmu: PMU
    pmcd: Pmcd
    sampler: Sampler
    perfevent: PmdaPerfevent
    observation_count: int = 0
    gpus: list[SimulatedGpu] = field(default_factory=list)


class PMoVE:
    """The daemon: owns host-side services and attached targets."""

    def __init__(
        self,
        env: dict[str, str] | None = None,
        seed: int = 0,
        service_faults: ServiceFaultSet | None = None,
    ) -> None:
        self.env = {**DEFAULT_ENV, **(env or {})}
        self.database = self.env["PMOVE_DB"]
        # Storage backend is a config switch: the single engine stays the
        # default; PMOVE_SHARDS >= 2 swaps in the consistent-hash router
        # (same surface, byte-identical query results).
        n_shards = int(self.env.get("PMOVE_SHARDS", "0") or 0)
        self.influx: InfluxDB | ShardedInfluxDB = (
            ShardedInfluxDB(n_shards) if n_shards >= 2 else InfluxDB()
        )
        self.influx.create_database(self.database)
        # Samplers write through a failure-injectable proxy so chaos (DB
        # outages, partitions, flaky writes) can be scripted against a live
        # daemon; reads and dashboards keep using the raw engine.
        self.service_faults = (
            service_faults if service_faults is not None else ServiceFaultSet()
        )
        self._write_influx = FaultyInfluxDB(self.influx, self.service_faults)
        self.mongo = MongoDB()
        self.grafana = GrafanaServer(
            self.influx, database=self.database, api_token=self.env["GRAFANA_TOKEN"]
        )
        self.layer: AbstractionLayer = pmu_utils
        self.targets: dict[str, Target] = {}
        self._seed = seed
        #: Durable-ingest pipeline (commit log + consumer groups), created
        #: lazily by :meth:`enable_durable_ingest` / ``mode="durable"``.
        self.ingest: IngestPipeline | None = None
        #: Alert sink of the anomaly-scanner group (keyed upserts; survives
        #: consumer crashes because the daemon owns it, not the consumer).
        self.anomaly_alerts: dict = {}
        #: Multi-tenant serving frontend (admission + bounded executor +
        #: per-tenant SLOs), created by :meth:`enable_serving`.  ``None``
        #: keeps the single-caller synchronous path untouched.
        self.serving: ServingFrontend | None = None

    # ==================================================================
    # Attachment (Fig 3 steps 1-3)
    # ==================================================================
    def attach_target(
        self, machine: SimulatedMachine, transport: TransportModel | None = None
    ) -> KnowledgeBase:
        """Probe the target, build its KB, persist it, wire up its PCP."""
        spec = machine.spec
        if spec.hostname in self.targets:
            raise ValueError(f"target {spec.hostname!r} already attached")
        raw = collect_raw_probe(spec)  # step 1 (runs on the target)
        parsed = parse_probe(raw)  # step 2 (host side)
        kb = KnowledgeBase.from_probe(parsed, config=dict(self.env))
        kb.save(self.mongo, self.database)  # step 3

        state = SoftwareState(machine)
        pmu = PMU(machine, seed=self._seed)
        perfevent = PmdaPerfevent(pmu)
        agents = [PmdaLinux(state), perfevent, PmdaProc(state)]
        gpus = [SimulatedGpu(g, machine.clock) for g in spec.gpus]
        for g in gpus:
            agents.append(PmdaNvidia(NvmlSampler(g)))
        pmcd = Pmcd(agents)
        sampler = Sampler(
            pmcd, self._write_influx, transport=transport, database=self.database,
            seed=self._seed, host=spec.hostname,
        )
        self.targets[spec.hostname] = Target(
            machine=machine, kb=kb, pmu=pmu, pmcd=pmcd, sampler=sampler,
            perfevent=perfevent, gpus=gpus,
        )
        return kb

    def target(self, hostname: str) -> Target:
        try:
            return self.targets[hostname]
        except KeyError:
            raise KeyError(
                f"target {hostname!r} not attached; attached: {sorted(self.targets)}"
            ) from None

    # ==================================================================
    # Scenario A: software telemetry monitoring
    # ==================================================================
    def scenario_a(
        self,
        hostname: str,
        duration_s: float,
        freq_hz: float = 1.0,
        metrics: list[str] | None = None,
        mode: str = "unbuffered",
        shipper_config: ShipperConfig | None = None,
    ) -> tuple[SamplingStats, str]:
        """Monitor system state; returns (sampling stats, dashboard uid).

        The dashboard is generated and registered *before* sampling starts
        — the paper's point that A1 and A2 can happen at the same time
        because everything needed is already in the KB.
        """
        t = self.target(hostname)
        metrics = list(metrics or _SCENARIO_A_METRICS)
        available = set(t.pmcd.available_metrics())
        unknown = [m for m in metrics if m not in available]
        if unknown:
            raise ValueError(f"metrics not available on {hostname}: {unknown}")

        # A2: dashboard exists before the target reports anything.
        view = subtree_view(t.kb, t.kb.root_id, hw=False)
        wanted = {metric_to_measurement(m) for m in metrics}
        panels = tuple(
            p for p in view.panels if any(meas in wanted for meas, _ in p.targets)
        )
        dash = generate_dashboard(
            ViewSpec(name=f"systemstate:{hostname}", kind="subtree", panels=panels)
        )
        uid = self.grafana.register(dash)

        # A1/A3: configure collectors and sample.
        t0 = t.machine.clock.now()
        t.machine.advance(duration_s)
        stats = t.sampler.run(
            metrics, freq_hz, t0, t0 + duration_s, tag=f"sysstate-{hostname}",
            mode=mode, shipper_config=shipper_config,
            pipeline=self._pipeline_for(mode),
        )
        return stats, uid

    # ==================================================================
    # Scenario B: HW events around a kernel execution
    # ==================================================================
    def resolve_events(self, hostname: str, generic_events: list[str]) -> tuple[list[str], list[str]]:
        """Abstraction-layer resolution: (hw events needed, unsupported
        generic events skipped)."""
        t = self.target(hostname)
        pmu_name = t.kb.probe["pmu"]["uarch"]
        hw: list[str] = []
        skipped: list[str] = []
        for g in generic_events:
            try:
                for e in self.layer.formula(pmu_name, g).events:
                    if e not in hw:
                        hw.append(e)
            except UnsupportedEventError:
                skipped.append(g)
        if not hw:
            raise UnsupportedEventError(
                f"none of {generic_events} are supported on {hostname}"
            )
        return hw, skipped

    def scenario_b(
        self,
        hostname: str,
        descriptor: KernelDescriptor,
        generic_events: list[str],
        freq_hz: float = 8.0,
        n_threads: int | None = None,
        pinning: str = "balanced",
        command: str | None = None,
        mode: str = "unbuffered",
        shipper_config: ShipperConfig | None = None,
        tag: str | None = None,
    ) -> tuple[dict[str, Any], KernelRun]:
        """Profile one kernel execution; returns (observation entry, run).

        Steps B1-B8: program PMUs via the Abstraction Layer, generate the
        pinning script, run the kernel under sampling, record the
        time-series under a fresh tag, and append the ObservationInterface
        (with auto-generated queries) to the KB.

        ``tag`` pins the observation's series tag; the default draws a
        fresh UUID.  Seed-deterministic harnesses (the scenario fuzzer)
        pass an explicit tag so shard placement — a hash over the series
        key including this tag — is identical across reruns.
        """
        t = self.target(hostname)
        spec = t.machine.spec
        n_threads = n_threads or spec.n_cores
        cpu_ids = pin_threads(spec, n_threads, pinning)
        hw_events, skipped = self.resolve_events(hostname, generic_events)

        # B1: configure the sampler (PMU counter programming).
        t.perfevent.configure(hw_events, cpus=cpu_ids)
        # The launch script P-MoVE would copy to the target.
        command = command or f"./{descriptor.name}"
        script = pinning_script(spec, command, [], n_threads, pinning)

        # Run the kernel under sampling; sampling dilates the runtime.
        overhead = t.sampler.sampling_overhead(freq_hz)
        t0 = t.machine.clock.now()
        run = t.machine.run_kernel(descriptor, cpu_ids, sampling_overhead=overhead)

        # Sample the execution window and stop as the kernel halts.
        tag = tag or new_tag()
        metrics = [perfevent_metric(e) for e in hw_events]
        stats = t.sampler.run(metrics, freq_hz, t0, run.t_end, tag=tag, final_fetch=True,
                              mode=mode, shipper_config=shipper_config,
                              pipeline=self._pipeline_for(mode))

        fields = observation_fields(cpu_ids)
        metric_entries = [
            {
                "metric": perfevent_metric(e),
                "measurement": metric_to_measurement(perfevent_metric(e)),
                "fields": fields,
                "event": e,
            }
            for e in hw_events
        ]
        report = {
            "runtime_s": run.runtime_s,
            "sampling": {
                "freq_hz": freq_hz,
                "expected_points": stats.expected_points,
                "inserted_points": stats.inserted_points,
                "loss_pct": stats.loss_pct,
            },
            "skipped_events": skipped,
            "pinning_script": script,
        }
        t.observation_count += 1
        obs = make_observation(
            host_seg=hostname,
            index=t.observation_count,
            tag=tag,
            command=command,
            cpu_ids=cpu_ids,
            pinning=pinning,
            metrics=metric_entries,
            t_start=t0,
            t_end=run.t_end,
            report=report,
        )
        obs["queries"] = generate_queries(obs)
        t.kb.append_entry(obs)
        t.kb.append_entry(
            make_process(hostname, pid=10_000 + t.observation_count, command=command,
                         start_time=t0)
        )
        t.kb.save(self.mongo, self.database)  # step 3 re-occurs on KB change
        return obs, run

    # ==================================================================
    # Durable ingest (commit log + consumer groups)
    # ==================================================================
    def enable_durable_ingest(
        self,
        *,
        n_partitions: int = 4,
        db_writers: int = 1,
        fsync_every_reports: int = 1,
        log_faults: LogFaultSet | None = None,
        superdb=None,
        anomaly_bounds: dict | None = None,
        max_apply_attempts: int = 8,
    ) -> IngestPipeline:
        """Stand up the checkpointed commit log and its consumer groups.

        The db-writer group writes through the same fault-injectable proxy
        as the unbuffered/buffered samplers (so PR 2's service faults bite
        the durable apply path too); the federator, if a ``superdb`` is
        given, applies into the cloud engine behind the WAN fault set of
        its federation link.  Idempotent config errors fail loudly: the
        pipeline is a singleton per daemon.
        """
        if self.ingest is not None:
            raise RuntimeError("durable ingest already enabled")
        log = CommitLog(n_partitions=n_partitions, faults=log_faults)
        pipe = IngestPipeline(log, fsync_every_reports=fsync_every_reports)
        tracker = ReportTracker()
        for i in range(db_writers):
            pipe.add(
                DbWriterConsumer(
                    log,
                    self._write_influx,
                    self.database,
                    transport=TransportModel(),
                    service_faults=self.service_faults,
                    tracker=tracker,
                    cid=f"db-writer-{i}",
                    seed=self._seed * 7919 + i,
                    max_apply_attempts=max_apply_attempts,
                )
            )
        pipe.add(RollupMaintainerConsumer(log, cid="rollup-0", seed=self._seed + 101,
                                          max_apply_attempts=max_apply_attempts))
        pipe.add(
            AnomalyScannerConsumer(
                log,
                sink=self.anomaly_alerts,
                bounds=anomaly_bounds,
                cid="anomaly-0",
                seed=self._seed + 202,
                max_apply_attempts=max_apply_attempts,
            )
        )
        if superdb is not None:
            pipe.add(
                FederatorConsumer(
                    log,
                    FaultyInfluxDB(superdb.influx, superdb.link.faults),
                    "superdb",
                    cid="federator-0",
                    seed=self._seed + 303,
                    max_apply_attempts=max_apply_attempts,
                )
            )
        self.ingest = pipe
        return pipe

    def _pipeline_for(self, mode: str) -> IngestPipeline | None:
        """Pipeline to hand the sampler — auto-enabled on first durable run."""
        if mode != "durable":
            return None
        if self.ingest is None:
            self.enable_durable_ingest()
        return self.ingest

    # ==================================================================
    # Multi-tenant serving (admission + bounded executor + SLOs)
    # ==================================================================
    def enable_serving(
        self,
        tenants: list[TenantConfig] | list[str] | None = None,
        **kwargs,
    ) -> ServingFrontend:
        """Stand up the multi-tenant frontend above this daemon's Grafana.

        ``tenants`` takes full :class:`TenantConfig` envelopes or plain
        names (default envelopes).  Like durable ingest, the frontend is
        a singleton per daemon, and purely opt-in: nothing about the
        synchronous single-caller dashboard path changes until a caller
        routes requests through ``self.serving``.
        """
        if self.serving is not None:
            raise RuntimeError("serving frontend already enabled")
        configs: list[TenantConfig] = []
        for entry in tenants or [TenantConfig("default")]:
            configs.append(
                entry if isinstance(entry, TenantConfig) else TenantConfig(str(entry))
            )
        self.serving = ServingFrontend(self.grafana, configs, **kwargs)
        return self.serving

    # ==================================================================
    # Resilience: chaos injection & health surface
    # ==================================================================
    def inject_service_fault(self, fault: ServiceFault) -> ServiceFault:
        """Install a host-side fault (DB outage, partition, …) that the
        samplers' write path will hit in virtual time."""
        return self.service_faults.inject(fault)

    def health(self) -> dict[str, Any]:
        """The twin's one self-report — what a liveness probe against the
        daemon would see, and what the scenario fuzzer harvests coverage
        from: per target its last sampling run and shipper breaker, the
        write proxy's counts, the engine's planner decisions, and the
        shard, durable-ingest and serving sections of what is enabled."""
        targets: dict[str, Any] = {}
        for name, t in self.targets.items():
            stats = t.sampler.last_stats
            shipper = t.sampler.last_shipper
            entry: dict[str, Any] = {
                "observations": t.observation_count,
                "last_run": None if stats is None else asdict(stats),
            }
            if shipper is not None:
                entry["breaker_state"] = shipper.breaker.state
                entry["breaker_transitions"] = list(shipper.breaker.transitions)
                entry["queue_depth"] = len(shipper)
                entry["wal_entries"] = len(shipper.wal)
            targets[name] = entry
        out: dict[str, Any] = {
            "active_faults": [repr(f) for f in self.service_faults.faults],
            "writes": {
                "accepted": self._write_influx.accepted_writes,
                "rejected": self._write_influx.rejected_writes,
            },
            "targets": targets,
            "rollup_plan": dict(self.influx.rollup_plan),
            "sketch_plan": dict(self.influx.sketch_plan),
        }
        if isinstance(self.influx, ShardedInfluxDB):
            out["shards"] = {
                "states": self.influx.shard_states(),
                "partial_queries": self.influx.partial_queries,
                "dropped_points": dict(self.influx.dropped_points),
            }
        if self.ingest is not None:
            out["ingest"] = self.ingest.health()
        if self.serving is not None:
            out["serving"] = self.serving.health()
        # Last fuzz campaign run in this process (repro.fuzz.status) —
        # the liveness probe is where operators look for everything else,
        # so the fuzzer's verdict on the twin belongs there too.
        from repro.fuzz.status import snapshot as _fuzz_snapshot

        out["fuzz"] = _fuzz_snapshot()
        return out

    # ==================================================================
    # SUPERDB federation (§III-E, user opt-in)
    # ==================================================================
    def push_to_superdb(
        self,
        superdb,
        hostname: str,
        mode: str = "agg",
        at: float | None = None,
    ) -> dict[str, int]:
        """Report one target's KB + telemetry to a SUPERDB instance over
        its federation link (retried under WAN faults; see SuperDB)."""
        t = self.target(hostname)
        return superdb.report(t.kb, self.influx, self.database, mode=mode, at=at)

    # ==================================================================
    # Recall & dashboards
    # ==================================================================
    def recall_observation(self, hostname: str, observation: dict[str, Any]) -> dict[str, ResultSet]:
        """Execute an observation's auto-generated queries (Listing 3)."""
        self.target(hostname)
        return recall(self.influx, self.database, observation)

    def dashboard_for_view(self, view: ViewSpec) -> str:
        """Generate and register a dashboard for any KB view."""
        return self.grafana.register(generate_dashboard(view))

    def compare_targets(self, kind: str, metric: str | None = None) -> str:
        """Cross-machine level-view dashboard (Fig 2 c/d)."""
        kbs = [t.kb for t in self.targets.values()]
        return self.dashboard_for_view(level_view(kbs, kind, metric=metric))
