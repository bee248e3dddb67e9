"""Cluster-level P-MoVE (§VI): one daemon, many node KBs, job-linked
observations.

"Based on the proposed design in this paper, we are on the verge of
developing a cluster-level P-MoVE that encapsulates meticulous performance
analysis and monitoring capabilities, in conjunction with communication
telemetry and job-specific metadata emitted from HPC clusters."

:class:`ClusterMonitor` attaches every cluster node as a daemon target
(full probe → KB per node), maintains a *cluster KB document* — a twin whose
Relationships link to each node's KB root, stored alongside them in the
document store — and records scheduler-run jobs as ``JobInterface`` entries
with per-node telemetry sampled over the job window.

It also supervises the fleet: :meth:`fleet_health` aggregates the daemon's
telemetry-path health with per-node liveness (lifecycle state + staleness
of the last successful sample), :meth:`supervise` quarantines flapping
nodes (drains them) and reattaches them once they hold steady, and the
cluster KB document degrades gracefully — down nodes are *marked* down in
the twin instead of breaking it, so dashboards stay truthful under partial
failure.
"""

from __future__ import annotations

from typing import Any

from repro.core.daemon import PMoVE
from repro.core.dtmi import make_dtmi
from repro.core.views import level_view
from repro.db.sketch import DEFAULT_SKETCH, TDigest
from repro.pcp.sampler import SamplingStats

from .cluster import SimulatedCluster
from .job import JobExecution, JobSpec, make_job_entry
from .scheduler import FifoScheduler

__all__ = ["ClusterMonitor"]

#: Node telemetry sampled over each job window (SW side; §VI's
#: "communication telemetry" rides on network.interface.out.bytes).
_JOB_METRICS = (
    "kernel.percpu.cpu.user",
    "kernel.all.load",
    "network.interface.out.bytes",
    "mem.util.used",
)


class ClusterMonitor:
    """Monitoring facade over a simulated cluster."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        daemon: PMoVE | None = None,
        backfill: bool = False,
        flap_threshold: int = 3,
        reattach_clear_s: float = 5.0,
    ) -> None:
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        self.cluster = cluster
        self.daemon = daemon or PMoVE()
        self.scheduler = FifoScheduler(cluster, backfill=backfill)
        self.job_entries: list[dict[str, Any]] = []
        #: Down events needed inside one supervision history to quarantine.
        self.flap_threshold = flap_threshold
        #: How long a quarantined node must look stable before reattach.
        self.reattach_clear_s = reattach_clear_s
        self.quarantined: set[str] = set()
        self._down_events: dict[str, int] = {n: 0 for n in cluster.node_names}
        self._last_supervise_t = 0.0
        # Job-history lookups filter by user and by participating node
        # (array containment); cluster_kb is fetched by name.
        jobs = self.daemon.mongo.collection(self.daemon.database, "jobs")
        jobs.create_index("user")
        jobs.create_index("nodes")
        self.daemon.mongo.collection(
            self.daemon.database, "cluster_kb"
        ).create_index("name")
        self._last_sample_t: dict[str, float] = {}
        #: Per-node sample-latency t-digests (mergeable, O(compression)
        #: memory each); fed by :meth:`record_sample_latency` and by every
        #: monitored job run, read back as p95/p99 in :meth:`fleet_health`.
        self._latency: dict[str, TDigest] = {}
        for machine in cluster.nodes.values():
            self.daemon.attach_target(machine)
        self._save_cluster_kb()

    # ------------------------------------------------------------------
    # The cluster KB document
    # ------------------------------------------------------------------
    def cluster_kb_document(self) -> dict[str, Any]:
        """The cluster twin: linked-data references to every node KB.

        Degraded mode: a node being down does not break the twin — its
        Relationship stays (the KB root is still known) and a per-node
        status Property marks it down/drained/quarantined, so a dashboard
        built from this document renders the partial fleet truthfully.
        """
        cname = self.cluster.name
        now = self.cluster.time()
        states = {n: self.node_state(n, now) for n in self.cluster.node_names}
        return {
            "@type": "Interface",
            "@id": make_dtmi(cname),
            "@context": "dtmi:dtdl:context;2",
            "kind": "system",
            "name": cname,
            "degraded": any(s != "up" for s in states.values()),
            "contents": [
                {
                    "@id": make_dtmi(cname, f"rel_{node}"),
                    "@type": "Relationship",
                    "name": "has_node",
                    "target": self.daemon.target(node).kb.root_id,
                }
                for node in self.cluster.node_names
            ]
            + [
                {
                    "@id": make_dtmi(cname, f"status_{node}"),
                    "@type": "Property",
                    "name": "node_status",
                    "node": node,
                    "description": states[node],
                }
                for node in self.cluster.node_names
            ]
            + [
                {
                    "@id": make_dtmi(cname, "interconnect"),
                    "@type": "Property",
                    "name": "interconnect",
                    "description": self.cluster.interconnect.name,
                }
            ],
            "jobs": [e["@id"] for e in self.job_entries],
        }

    def _save_cluster_kb(self) -> None:
        col = self.daemon.mongo.collection(self.daemon.database, "cluster_kb")
        col.replace_one({"name": self.cluster.name}, self.cluster_kb_document(),
                        upsert=True)

    # ------------------------------------------------------------------
    # Supervision: liveness, quarantine, fleet health
    # ------------------------------------------------------------------
    def node_state(self, node: str, t: float | None = None) -> str:
        """Lifecycle state as the monitor reports it (adds "quarantined")."""
        state = self.cluster.node_state(node, t)
        if state == "drained" and node in self.quarantined:
            return "quarantined"
        return state

    def supervise(self, t: float | None = None) -> dict[str, list[str]]:
        """One supervision pass over ``(last pass, t]``.

        Counts per-node down events in the window; a node crossing
        ``flap_threshold`` is quarantined (drained — the scheduler stops
        placing work on it).  A quarantined node that is up and has no
        scheduled down window within ``reattach_clear_s`` is reattached.
        The cluster KB document is re-saved so the twin reflects the pass.
        """
        t = self.cluster.time() if t is None else t
        events: dict[str, list[str]] = {"quarantined": [], "reattached": []}
        faults = self.cluster.node_faults
        for node in self.cluster.node_names:
            self._down_events[node] += len(
                faults.down_intervals(node, self._last_supervise_t, t)
            )
            if node not in self.quarantined:
                if self._down_events[node] >= self.flap_threshold:
                    self.cluster.drain(node)
                    self.quarantined.add(node)
                    events["quarantined"].append(node)
            else:
                nxt = faults.next_down(node, t)
                stable = not faults.is_down(node, t) and (
                    nxt is None or nxt > t + self.reattach_clear_s
                )
                if stable:
                    self.cluster.undrain(node)
                    self.quarantined.discard(node)
                    self._down_events[node] = 0
                    events["reattached"].append(node)
        self._last_supervise_t = t
        self._save_cluster_kb()
        return events

    def record_sample_latency(self, node: str, seconds: float) -> None:
        """Feed one observed sample latency into ``node``'s t-digest."""
        d = self._latency.get(node)
        if d is None:
            d = self._latency[node] = TDigest(DEFAULT_SKETCH.compression)
        d.add(seconds)

    def _active_series_estimates(self) -> dict[str, float]:
        """HLL-approximate active-series count per measurement, summed over
        shard engines when the daemon's store is sharded."""
        st = self.daemon.influx.stats(self.daemon.database)
        per_shard = (
            st["shards"].values() if "shards" in st else (st,)
        )
        out: dict[str, float] = {}
        for shard_st in per_shard:
            for meas, mstat in shard_st.get("measurements", {}).items():
                est = mstat.get("sketch", {}).get("active_series_estimate")
                if est is not None:
                    out[meas] = out.get(meas, 0.0) + est
        return out

    def fleet_health(self) -> dict[str, Any]:
        """Cluster-wide health: the daemon's telemetry-path snapshot plus
        per-node liveness derived from lifecycle state and the virtual time
        of each node's last successful sample.

        Per-node ``sample_latency_p95``/``p99`` come from mergeable
        t-digests (O(compression) memory per node, never a raw latency
        log); ``active_series`` totals ride the storage engine's
        HyperLogLogs, so the fleet view stays O(tiers) no matter how much
        telemetry is stored."""
        now = self.cluster.time()
        nodes: dict[str, Any] = {}
        for name in self.cluster.node_names:
            state = self.node_state(name, now)
            sampler = self.daemon.target(name).sampler
            last_t = sampler.last_success_t
            if last_t is None:
                last_t = self._last_sample_t.get(name)
            lat = self._latency.get(name)
            nodes[name] = {
                "state": state,
                "live": state == "up",
                "last_sample_t": last_t,
                "staleness_s": (now - last_t) if last_t is not None else None,
                "down_events": self._down_events[name],
                "jobs_failed_here": sum(
                    1 for e in self.cluster.executions
                    if e.status == "failed" and e.failed_node == name
                ),
                "sample_latency_p95": lat.quantile(0.95) if lat else None,
                "sample_latency_p99": lat.quantile(0.99) if lat else None,
            }
        down = [n for n, h in nodes.items() if not h["live"]]
        by_meas = self._active_series_estimates()
        return {
            "time": now,
            "degraded": bool(down),
            "nodes_down": down,
            "nodes": nodes,
            "daemon": self.daemon.health(),
            "active_series_estimate": sum(by_meas.values()),
            "active_series_by_measurement": by_meas,
        }

    # ------------------------------------------------------------------
    # Monitored job execution
    # ------------------------------------------------------------------
    def run_job(
        self, spec: JobSpec, freq_hz: float = 1.0
    ) -> tuple[dict[str, Any], JobExecution, dict[str, SamplingStats]]:
        """Submit, run and monitor one job.

        Returns (JobInterface entry, execution record, per-node sampling
        stats).  Telemetry for the job window is recorded per node under
        the job id as the observation tag, so job-centric queries work the
        same way observation recall does.  Attempts killed by node faults
        are requeued by the scheduler; the sampled window is the final
        successful execution's.
        """
        entry = self.scheduler.submit(spec)
        executions = self.scheduler.run_all()
        if entry.execution is None:
            self._save_cluster_kb()  # record the degraded fleet state
            raise RuntimeError(
                f"job {spec.name!r} failed after {entry.requeues} requeue(s); "
                f"failed nodes: {[e.failed_node for e in entry.failures]}"
            )
        execution = entry.execution
        del executions  # entry.execution is the final successful attempt

        stats: dict[str, SamplingStats] = {}
        for node in execution.nodes:
            target = self.daemon.target(node)
            stats[node] = target.sampler.run(
                list(_JOB_METRICS),
                freq_hz,
                execution.t_start,
                execution.t_end,
                tag=execution.job_id,
                final_fetch=True,
            )
            if stats[node].inserted_reports > 0:
                self._last_sample_t[node] = execution.t_end
                # Worst insert-time lag of this run is the node's observed
                # sample latency; the digest keeps the full distribution
                # across runs without retaining per-run stats.
                self.record_sample_latency(node, stats[node].max_staleness_s)

        job_doc = make_job_entry(self.cluster.name, entry.job_index, execution)
        job_doc["requeues"] = entry.requeues
        job_doc["failed_attempts"] = [
            {"job_id": e.job_id, "nodes": list(e.nodes), "t_failed": e.t_end,
             "failed_node": e.failed_node}
            for e in entry.failures
        ]
        self.job_entries.append(job_doc)
        self.daemon.mongo.collection(self.daemon.database, "jobs").insert_one(job_doc)
        # Attach the job to each participating node's KB history too.
        for node in execution.nodes:
            kb = self.daemon.target(node).kb
            kb.append_entry(dict(job_doc))
            kb.save(self.daemon.mongo, self.daemon.database)
        self._save_cluster_kb()
        return job_doc, execution, stats

    # ------------------------------------------------------------------
    # Cluster-wide queries
    # ------------------------------------------------------------------
    def jobs(self, user: str | None = None) -> list[dict[str, Any]]:
        flt: dict[str, Any] = {"user": user} if user else {}
        return self.daemon.mongo.collection(self.daemon.database, "jobs").find(flt)

    def job_history(self, node: str) -> list[dict[str, Any]]:
        """Jobs that touched one node (dashboard job-history view)."""
        return self.daemon.mongo.collection(self.daemon.database, "jobs").find(
            {"nodes": node}
        )

    def fleet_dashboard(self, kind: str = "node", metric: str | None = None) -> str:
        """Level view over every node's KB, registered in Grafana."""
        kbs = [self.daemon.target(n).kb for n in self.cluster.node_names]
        view = level_view(kbs, kind, metric=metric)
        return self.daemon.dashboard_for_view(view)

    def comm_telemetry(self, execution: JobExecution) -> dict[str, float]:
        """Bytes each node shipped during a job window, from the recorded
        network.interface.out.bytes series."""
        out: dict[str, float] = {}
        for node in execution.nodes:
            nic = self.cluster.node(node).spec.nics[0].name
            _, rows = self.daemon.influx.scan_columns(
                self.daemon.database,
                "network_interface_out_bytes",
                [f"_{nic}"],
                tags={"tag": execution.job_id, "host": node},
            )
            col = rows.cols[0] or [None] * len(rows)  # never written: all holes
            out[node] = sum(0.0 if v is None else v for v in col)
        return out
