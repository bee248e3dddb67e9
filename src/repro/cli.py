"""``pmove`` — command-line front end for the P-MoVE reproduction.

Usage (also available as ``python -m repro.cli``)::

    pmove probe skx                  # probe a preset, print the summary
    pmove kb csl --depth 2           # build + render the Knowledge Base
    pmove monitor icl --duration 10  # Scenario A with a rendered dashboard
    pmove sketch icl --duration 8    # per-measurement tier sketch footprint
    pmove chaos icl --outage 5 10    # Scenario A surviving a scripted DB outage
    pmove chaos csl --node-crash 1 40  # node crash: requeue + fleet recovery
    pmove chaos icl --durable --log-truncate 8  # commit-log ingest under a log crash
    pmove chaos dlq                  # dead-letter lifecycle: park, inspect, requeue
    pmove superdb anti-entropy --wan-outage 0 2  # heal a partitioned report
    pmove observe csl --kernel triad # Scenario B + auto-generated queries
    pmove carm csl --threads 28      # CARM roofs (optionally --svg out.svg)
    pmove bench icl stream           # BenchmarkInterface runners
    pmove cluster --nodes 4          # cluster demo job with comm telemetry
    pmove shard --shards 4 --kill-shard 1  # sharded storage + degraded serving
    pmove fuzz all --budget 50 --seed 3 --minimize  # coverage-guided fuzzing
    pmove fuzz all --replay tests/fuzz/corpus       # replay minimized seeds
    pmove presets                    # list the Table II platforms

Every subcommand runs against the simulated substrate, entirely offline.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.machine import PRESETS, SimulatedMachine, get_preset

__all__ = ["main", "build_parser"]

_KERNELS = ("sum", "stream", "triad", "peakflops", "ddot", "daxpy")
_DEFAULT_EVENTS = [
    "SCALAR_DOUBLE_INSTRUCTIONS",
    "AVX512_DOUBLE_INSTRUCTIONS",
    "TOTAL_MEMORY_INSTRUCTIONS",
    "RAPL_POWER_PACKAGE",
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pmove",
        description="P-MoVE: performance monitoring and visualization with encoded knowledge",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list the available target platforms")

    s = sub.add_parser("probe", help="probe a target and print the parsed system JSON")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--raw", action="store_true", help="dump the raw tool outputs instead")

    s = sub.add_parser("kb", help="build the Knowledge Base and render the twin tree")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--depth", type=int, default=2, help="tree depth to render")

    s = sub.add_parser("monitor", help="Scenario A: software telemetry + dashboard")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--duration", type=float, default=10.0)
    s.add_argument("--freq", type=float, default=1.0)
    s.add_argument("--buffered", action="store_true",
                   help="ship through the resilient queue/retry/breaker layer")
    s.add_argument("--durable", action="store_true",
                   help="ship through the checkpointed commit log (consumer groups)")
    s.add_argument("--capacity", type=int, default=64, help="report queue capacity")
    s.add_argument("--policy", default="drop_oldest",
                   choices=("drop_oldest", "drop_newest", "spill"))

    s = sub.add_parser(
        "sketch",
        help="run Scenario A briefly, then print the per-measurement tier "
             "sketch state (t-digest buckets/centroids, HLL fields, memory)",
    )
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--duration", type=float, default=8.0)
    s.add_argument("--freq", type=float, default=2.0)

    s = sub.add_parser(
        "chaos",
        help="Scenario A under scripted service faults: prove the shipper survives "
             "(target 'dlq' runs the dead-letter-queue lifecycle story)",
    )
    s.add_argument("preset", choices=sorted(PRESETS) + ["dlq"])
    s.add_argument("--duration", type=float, default=20.0)
    s.add_argument("--freq", type=float, default=2.0)
    s.add_argument("--capacity", type=int, default=64)
    s.add_argument("--policy", default="drop_oldest",
                   choices=("drop_oldest", "drop_newest", "spill"))
    s.add_argument("--outage", nargs=2, type=float, metavar=("T0", "T1"),
                   help="DB outage window (virtual seconds)")
    s.add_argument("--partition", nargs=2, type=float, metavar=("T0", "T1"),
                   help="network partition window")
    s.add_argument("--latency-spike", nargs=3, type=float, metavar=("T0", "T1", "FACTOR"),
                   help="insert latency multiplied by FACTOR during the window")
    s.add_argument("--flaky", nargs=3, type=float, metavar=("T0", "T1", "P"),
                   help="each insert in the window fails with probability P")
    s.add_argument("--unbuffered", action="store_true",
                   help="run the paper's unbuffered pipeline instead (shows the damage)")
    s.add_argument("--nodes", type=int, default=4,
                   help="cluster size for node-fault chaos")
    s.add_argument("--node-crash", nargs=2, type=float, metavar=("T0", "T1"),
                   help="crash one node for the window: job fails, is requeued, "
                        "recovers (switches to the cluster chaos story)")
    s.add_argument("--node-hang", nargs=3, type=float, metavar=("T0", "T1", "FACTOR"),
                   help="one node straggles by FACTOR during the window "
                        "(switches to the cluster chaos story)")
    s.add_argument("--durable", action="store_true",
                   help="ingest through the checkpointed commit log instead of "
                        "the in-memory shipper queue")
    s.add_argument("--log-truncate", type=float, metavar="T",
                   help="durable: crash the log at T, wiping its unflushed tail "
                        "(the producer detects and resends)")
    s.add_argument("--consumer-crash", nargs=3, metavar=("GROUP", "T0", "T1"),
                   help="durable: crash consumer GROUP-0 for the window; its "
                        "partitions rebalance to survivors and replay from the "
                        "committed checkpoint on rejoin")
    s.add_argument("--poison", type=int, default=0, metavar="N",
                   help="durable: inject N unparseable records (they park in "
                        "the dead-letter queue instead of wedging consumers)")
    s.add_argument("--max-apply-attempts", type=int, default=8,
                   help="durable: per-record retry budget before parking")
    s.add_argument("--requeue", action="store_true",
                   help="durable: after the run, requeue the DLQ and drain again")

    s = sub.add_parser(
        "superdb",
        help="SUPERDB federation: report over a faulty WAN, inspect sync "
             "state, repair with anti-entropy",
    )
    s.add_argument("action", choices=("report", "sync-status", "anti-entropy"))
    s.add_argument("--preset", choices=sorted(PRESETS), default="icl")
    s.add_argument("--mode", choices=("agg", "ts"), default="agg")
    s.add_argument("--wan-outage", nargs=2, type=float, metavar=("T0", "T1"),
                   help="WAN partition window on the federation link")
    s.add_argument("--retry-budget", type=float, default=5.0,
                   help="virtual seconds the link retries each push")

    s = sub.add_parser("observe", help="Scenario B: profile a kernel execution")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--kernel", choices=_KERNELS, default="triad")
    s.add_argument("--elements", type=int, default=4_000_000)
    s.add_argument("--iterations", type=int, default=500)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--freq", type=float, default=8.0)
    s.add_argument("--pinning", default="balanced",
                   choices=("balanced", "compact", "numa_balanced", "numa_compact"))
    s.add_argument("--events", nargs="+", default=_DEFAULT_EVENTS,
                   help="generic (vendor-neutral) event names")

    s = sub.add_parser("carm", help="construct the Cache-Aware Roofline Model")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--svg", default=None, help="write the roofline plot here")

    s = sub.add_parser("bench", help="run a BenchmarkInterface benchmark")
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("name", choices=("carm", "stream", "hpcg"))

    s = sub.add_parser("cluster", help="cluster-level demo: schedule a monitored job")
    s.add_argument("--preset", choices=sorted(PRESETS), default="csl")
    s.add_argument("--nodes", type=int, default=4)
    s.add_argument("--job-nodes", type=int, default=2)
    s.add_argument("--iterations", type=int, default=300)

    s = sub.add_parser(
        "serve",
        help="multi-tenant serving frontend: admission control, bounded "
             "fair executor, per-tenant SLO accounting",
    )
    s.add_argument("preset", choices=sorted(PRESETS))
    s.add_argument("--duration", type=float, default=8.0,
                   help="telemetry fill window before serving starts")
    s.add_argument("--load-duration", type=float, default=10.0,
                   help="virtual seconds of dashboard load to serve")
    s.add_argument("--tenants", type=int, default=4)
    s.add_argument("--workers", type=int, default=8, help="executor slots")
    s.add_argument("--panels", type=int, default=6,
                   help="dashboard width (panels in the shared refresh set)")
    s.add_argument("--live-period", type=float, default=1.0,
                   help="seconds between live refreshes per tenant")
    s.add_argument("--backfill-period", type=float, default=4.0,
                   help="seconds between backfill scans per tenant")
    s.add_argument("--aggressor", action="store_true",
                   help="turn the last tenant into a cache-busting flooder "
                        "(admission keeps the rest unharmed)")
    s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser(
        "shard",
        help="sharded storage demo: ingest into N shards, print per-shard "
             "stats, optionally kill a shard or rebalance",
    )
    s.add_argument("--shards", type=int, default=4, help="shard count")
    s.add_argument("--series", type=int, default=32, help="synthetic series to ingest")
    s.add_argument("--points", type=int, default=200, help="points per series")
    s.add_argument("--kill-shard", metavar="NAME",
                   help="crash this shard (name or index) and show degraded serving")
    s.add_argument("--add-shard", action="store_true",
                   help="attach one more shard and rebalance after ingest")

    s = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing: evolve whole-twin scenarios "
             "against the invariant oracles",
    )
    s.add_argument("preset", choices=sorted(PRESETS) + ["all"],
                   help="restrict scenarios to one platform, or 'all'")
    s.add_argument("--budget", type=int, default=50,
                   help="scenarios to execute (default 50)")
    s.add_argument("--seed", type=int, default=0, help="campaign seed")
    s.add_argument("--minimize", action="store_true",
                   help="ddmin-shrink each failure family to a minimal seed")
    s.add_argument("--baseline", action="store_true",
                   help="mutation-free control arm (fresh grammar draws only)")
    s.add_argument("--coverage-out", metavar="PATH",
                   help="write the coverage-map JSON artifact to PATH")
    s.add_argument("--corpus", metavar="DIR",
                   help="write minimized failing scenarios into DIR as "
                        "replayable JSON seeds")
    s.add_argument("--replay", metavar="PATH",
                   help="replay one scenario JSON seed (or every *.json in "
                        "a directory) instead of running a campaign")
    return p


# ----------------------------------------------------------------------
def _cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        spec = get_preset(name)
        print(f"{name:<5} {spec.cpu_model:<45} {spec.memory_bytes // 2**30} GB "
              f"{spec.mem_type}@{spec.mem_freq_mhz}")
    return 0


def _cmd_probe(args) -> int:
    from repro.probing import collect_raw_probe, probe

    spec = get_preset(args.preset)
    doc = collect_raw_probe(spec) if args.raw else probe(spec)
    print(json.dumps(doc, indent=1, default=str))
    return 0


def _cmd_kb(args) -> int:
    from repro.core import KnowledgeBase
    from repro.probing import probe

    kb = KnowledgeBase.from_probe(probe(get_preset(args.preset)))
    print(f"Knowledge Base for {kb.hostname}: {len(kb)} twins")
    print(kb.render_tree(max_depth=args.depth))
    return 0


def _cmd_monitor(args) -> int:
    from repro.core import PMoVE
    from repro.pcp import ShipperConfig

    daemon = PMoVE()
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    mode = "durable" if args.durable else ("buffered" if args.buffered else "unbuffered")
    config = ShipperConfig(capacity=args.capacity, policy=args.policy)
    stats, uid = daemon.scenario_a(args.preset, duration_s=args.duration,
                                   freq_hz=args.freq, mode=mode,
                                   shipper_config=config)
    print(f"sampled {stats.inserted_points} points "
          f"({stats.loss_pct:.1f}% lost, {stats.zero_points} zeros)")
    if args.buffered:
        print(f"buffered: max queue depth {stats.max_queue_depth}, "
              f"{stats.retried_reports} retried, {stats.recovered_reports} recovered")
    if args.durable:
        print(f"durable: {stats.produced_records} records through the log, "
              f"max group lag {stats.max_group_lag}, "
              f"backlog {stats.backlog_records}, parked {stats.parked_records}")
    print(daemon.grafana.render_dashboard_text(uid))
    return 0


def _cmd_sketch(args) -> int:
    """Sketch observability: the tier digests and HLLs that serve
    PERCENTILE / COUNT DISTINCT without rescanning raw points.  Digests
    are built by the first read that asks for them, so the command makes
    the read a p95 panel would — one grouped percentile per measurement."""
    from repro.core import PMoVE
    from repro.db.influx import DEFAULT_ROLLUP_TIERS

    daemon = PMoVE()
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    daemon.scenario_a(args.preset, duration_s=args.duration, freq_hz=args.freq)

    tier = DEFAULT_ROLLUP_TIERS[0]
    for name in daemon.influx.measurements(daemon.database):
        daemon.influx.quantile_buckets(daemon.database, name, 95.0, tier)
    st = daemon.influx.stats(daemon.database)
    print(f"sketch state on {args.preset} after {args.duration:g}s sampling "
          f"and one p95 read per measurement "
          f"({st['points_written']} points, {st['series_count']} series):")
    hdr = (f"{'measurement':<40} {'series':>6} {'est':>6} {'digests':>8} "
           f"{'centroids':>10} {'hll':>4} {'kB':>8}")
    print(hdr)
    print("-" * len(hdr))
    total_bytes = 0
    for name, m in st["measurements"].items():
        sk = m["sketch"]
        nbytes = sk["digest_memory_bytes"] + sk["hll_memory_bytes"]
        total_bytes += nbytes
        print(f"{name:<40} {m['series']:>6} {sk['active_series_estimate']:>6.0f} "
              f"{sk['digest_buckets']:>8} {sk['digest_centroids']:>10} "
              f"{sk['hll_fields']:>4} {nbytes / 1024.0:>8.1f}")
    print(f"total sketch memory: {total_bytes / 1024.0:.1f} kB across "
          f"{len(st['measurements'])} measurements "
          f"({1 << daemon.influx.sketch.hll_p} HLL registers, "
          f"compression {daemon.influx.sketch.compression})")
    return 0


def _print_dlq(pipe, header: str) -> None:
    dlq = pipe.log.dlq
    print(f"{header}: {dlq.parked_total} parked total, "
          f"{dlq.requeued_total} requeued, now {dlq.summary() or '{}'}")
    for d in pipe.log.dlq.to_dicts():
        print(f"  [{d['group']}] {d['topic']}/p{d['partition']} seq={d['seq']} "
              f"{d['reason']} after {d['attempts']} attempt(s): {d['error'][:60]}")


def _cmd_durable_chaos(args, faults) -> int:
    """Durable-ingest chaos: the commit-log pipeline under service faults
    plus log-level faults (truncation, consumer crash, poison records)."""
    from repro.core import PMoVE
    from repro.faults import ConsumerCrash, LogFaultSet, LogTruncation

    log_faults = LogFaultSet()
    if args.log_truncate is not None:
        log_faults.inject(LogTruncation(at=args.log_truncate))
    if args.consumer_crash:
        group, t0, t1 = args.consumer_crash
        log_faults.inject(ConsumerCrash(group=group, consumer=f"{group}-0",
                                        t0=float(t0), t1=float(t1)))

    daemon = PMoVE(service_faults=faults)
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    pipe = daemon.enable_durable_ingest(
        log_faults=log_faults, max_apply_attempts=args.max_apply_attempts
    )
    for i in range(args.poison):
        pipe.log.inject_poison("kernel_percpu_cpu_idle", time=float(i),
                               tag=f"poison-{i}")
    stats, _ = daemon.scenario_a(args.preset, duration_s=args.duration,
                                 freq_hz=args.freq, mode="durable")

    print(f"durable chaos run on {args.preset}: "
          f"{len(faults.faults)} service fault(s), "
          f"{len(log_faults.faults)} log fault(s), {args.poison} poison record(s)")
    for f in list(faults.faults) + list(log_faults.faults):
        print(f"  {f!r}")
    print(f"expected {stats.expected_points} points, inserted {stats.inserted_points} "
          f"({stats.loss_pct:.1f}% lost)")
    log_stats = pipe.log.stats()
    print(f"log: {log_stats['appended_records']} appended, "
          f"{log_stats['truncated_records']} truncated, "
          f"{stats.resent_records} resent by producer, "
          f"{log_stats['rebalances']} rebalance(s), "
          f"{log_stats['checkpoint_commits']} checkpoint commits")
    health = pipe.health()
    for group, g in sorted(health["groups"].items()):
        print(f"  {group}: applied {g['applied_records']}, "
              f"dup-skipped {g['duplicate_records']}, parked {g['parked_records']}, "
              f"lag {g['lag']}")
    _print_dlq(pipe, "DLQ")
    if args.requeue and pipe.log.dlq.summary():
        n = pipe.log.requeue()
        end = pipe.drain(pipe.log.now + 120.0)
        print(f"requeued {n} record(s), drained to t={end:.3f}s")
        _print_dlq(pipe, "DLQ after requeue")
    return 0


def _cmd_dlq(args) -> int:
    """Dead-letter lifecycle story: a DB outage outlasts the per-record
    retry budget so records park; we inspect the queue, heal the fault,
    requeue, and watch everything (except the poison) land."""
    from repro.core import PMoVE
    from repro.faults import DbOutage, ServiceFaultSet

    preset = "icl"
    faults = ServiceFaultSet()
    if args.outage:
        outage = faults.inject(DbOutage(t0=args.outage[0], t1=args.outage[1]))
    else:
        outage = faults.inject(DbOutage(t0=args.duration / 4, t1=args.duration * 4))

    daemon = PMoVE(service_faults=faults)
    daemon.attach_target(SimulatedMachine(get_preset(preset)))
    pipe = daemon.enable_durable_ingest(
        max_apply_attempts=min(args.max_apply_attempts, 3)
    )
    pipe.log.inject_poison("kernel_percpu_cpu_idle", time=1.0)
    stats, _ = daemon.scenario_a(preset, duration_s=args.duration,
                                 freq_hz=args.freq, mode="durable")
    print(f"durable run on {preset} with {outage!r}:")
    print(f"expected {stats.expected_points} points, inserted {stats.inserted_points}, "
          f"parked {stats.parked_records} record(s)")
    _print_dlq(pipe, "DLQ")

    faults.clear()  # the endpoint comes back
    n = pipe.log.requeue()
    end = pipe.drain(pipe.log.now + 120.0)
    print(f"fault cleared; requeued {n} record(s), drained to t={end:.3f}s")
    _print_dlq(pipe, "DLQ after requeue")
    counters = pipe.flat_counters()
    print(f"db-writer applied {counters['db-writer.applied_points']:.0f} points "
          f"total; poison stays parked (parse errors never heal)")
    return 0


def _cmd_node_chaos(args) -> int:
    """Cluster chaos story: a node fault kills/paces a job; the scheduler
    requeues and the fleet recovers."""
    from repro.cluster import ClusterMonitor, JobSpec, SimulatedCluster
    from repro.faults import NodeCrash, NodeHang
    from repro.workloads import build_kernel

    cluster = SimulatedCluster(PRESETS[args.preset], n_nodes=args.nodes)
    monitor = ClusterMonitor(cluster)
    victim = cluster.node_names[0]
    if args.node_crash:
        cluster.inject_node_fault(victim, NodeCrash(t0=args.node_crash[0],
                                                    t1=args.node_crash[1]))
    if args.node_hang:
        t0, t1, factor = args.node_hang
        cluster.inject_node_fault(victim, NodeHang(t0=t0, t1=t1, factor=factor))
    print(f"node chaos on {args.preset} x{args.nodes}, victim {victim}:")
    for f in cluster.node_faults.faults_for(victim):
        print(f"  {f!r}")

    spec = get_preset(args.preset)
    job = JobSpec(
        name="chaos_job", n_nodes=min(2, args.nodes),
        ranks_per_node=spec.n_cores,
        rank_kernel=build_kernel("triad", 400_000, iterations=1),
        iterations=200,
        halo_bytes_per_neighbor=1e6, halo_neighbors=2, allreduce_bytes=8e3,
    )
    try:
        doc, execution, _ = monitor.run_job(job, freq_hz=2.0)
    except RuntimeError as e:
        print(f"job gave up: {e}")
        return 1
    print(f"job {doc['job_id']} completed on {execution.nodes} "
          f"after {doc['requeues']} requeue(s): {execution.runtime_s:.3f}s")
    for att in doc["failed_attempts"]:
        print(f"  attempt on {att['nodes']} killed by {att['failed_node']} "
              f"at t={att['t_failed']:.3f}s")
    health = monitor.fleet_health()
    print(f"fleet degraded={health['degraded']}, down={health['nodes_down']}")
    for name, h in health["nodes"].items():
        stale = ("-" if h["staleness_s"] is None else f"{h['staleness_s']:.2f}s")
        print(f"  {name}: {h['state']:<7} staleness={stale} "
              f"failed_jobs={h['jobs_failed_here']}")
    print("utilization (downtime excluded from denominator):")
    for name, u in monitor.scheduler.utilization().items():
        print(f"  {name}: {u:.3f}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.core import PMoVE
    from repro.faults import (
        DbOutage,
        FlakyWrites,
        InsertLatencySpike,
        NetworkPartition,
        ServiceFaultSet,
    )
    from repro.pcp import ShipperConfig

    if args.preset == "dlq":
        return _cmd_dlq(args)
    if args.node_crash or args.node_hang:
        return _cmd_node_chaos(args)

    faults = ServiceFaultSet()
    if args.outage:
        faults.inject(DbOutage(t0=args.outage[0], t1=args.outage[1]))
    if args.partition:
        faults.inject(NetworkPartition(t0=args.partition[0], t1=args.partition[1]))
    if args.latency_spike:
        t0, t1, factor = args.latency_spike
        faults.inject(InsertLatencySpike(t0=t0, t1=t1, factor=factor))
    if args.flaky:
        t0, t1, p = args.flaky
        faults.inject(FlakyWrites(t0=t0, t1=t1, p_fail=p))
    if not faults.faults:
        faults.inject(DbOutage(t0=args.duration / 4, t1=args.duration / 2))

    if args.durable:
        return _cmd_durable_chaos(args, faults)

    daemon = PMoVE(service_faults=faults)
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    mode = "unbuffered" if args.unbuffered else "buffered"
    config = ShipperConfig(capacity=args.capacity, policy=args.policy)
    stats, _ = daemon.scenario_a(args.preset, duration_s=args.duration,
                                 freq_hz=args.freq, mode=mode,
                                 shipper_config=config)

    print(f"chaos run ({mode}) on {args.preset}: "
          f"{len(faults.faults)} fault(s) installed")
    for f in faults.faults:
        print(f"  {f!r}")
    print(f"expected {stats.expected_points} points, inserted {stats.inserted_points} "
          f"({stats.loss_pct:.1f}% lost)")
    if mode == "buffered":
        print(f"retried {stats.retried_reports}, recovered {stats.recovered_reports}, "
              f"dropped by policy {stats.dropped_by_policy}, "
              f"spilled {stats.spilled_reports}")
        print(f"breaker open {stats.breaker_open_s:.2f}s, "
              f"max queue depth {stats.max_queue_depth}, "
              f"max staleness {stats.max_staleness_s:.2f}s")
        sampler = daemon.target(args.preset).sampler
        if sampler.last_shipper is not None:
            for t, state in sampler.last_shipper.breaker.transitions:
                print(f"  breaker -> {state:<9} at t={t:.3f}s")
    health = daemon.health()
    print(f"writes: {health['writes']['accepted']} accepted, "
          f"{health['writes']['rejected']} rejected")
    return 0


def _cmd_superdb(args) -> int:
    from repro.core import PMoVE, SuperDB
    from repro.faults import NetworkPartition, ServiceFaultSet
    from repro.pcp import RetryPolicy
    from repro.workloads import build_kernel

    wan = ServiceFaultSet()
    if args.wan_outage:
        wan.inject(NetworkPartition(t0=args.wan_outage[0], t1=args.wan_outage[1]))
    sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=args.retry_budget))

    daemon = PMoVE()
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    desc = build_kernel("triad", 2_000_000, iterations=200)
    daemon.scenario_b(args.preset, desc, ["RAPL_POWER_PACKAGE"], freq_hz=4)

    summary = daemon.push_to_superdb(sdb, args.preset, mode=args.mode)
    print(f"report ({args.mode}): {summary['observations']} observation(s), "
          f"{summary['points']} points, {summary['pending']} pending "
          f"(link t={summary['t']:.3f}s, "
          f"{sdb.link.failed_attempts}/{sdb.link.attempts} attempts failed)")

    if args.action == "anti-entropy":
        kb = daemon.target(args.preset).kb
        for i in (1, 2):
            rep = sdb.anti_entropy(kb, daemon.influx, daemon.database,
                                   mode=args.mode)
            print(f"anti-entropy pass {i}: checked {rep['checked']}, "
                  f"repaired {rep['repaired']}, pending {rep['pending']}")
    state = sdb.sync_status(args.preset)
    if state is None:
        print("sync state: none recorded")
    else:
        print(f"sync state: complete={state['complete']} "
              f"synced={len(state['synced'])} pending={len(state['pending'])} "
              f"last_sync_t={state['last_sync_t']:.3f}s")
    return 0


def _cmd_observe(args) -> int:
    from repro.core import PMoVE
    from repro.workloads import build_kernel

    daemon = PMoVE()
    machine = SimulatedMachine(get_preset(args.preset))
    daemon.attach_target(machine)
    desc = build_kernel(args.kernel, args.elements, iterations=args.iterations)
    obs, run = daemon.scenario_b(
        args.preset, desc, args.events, freq_hz=args.freq,
        n_threads=args.threads, pinning=args.pinning,
    )
    print(f"{args.kernel} ran {run.runtime_s:.4f}s on cpus {obs['affinity']}")
    if obs["report"]["skipped_events"]:
        print(f"skipped (unsupported here): {obs['report']['skipped_events']}")
    print("\nauto-generated queries:")
    for q in obs["queries"]:
        print(f"  {q[:110]}{'...' if len(q) > 110 else ''}")
    print("\nrecalled series totals:")
    for measurement, rs in daemon.recall_observation(args.preset, obs).items():
        total = sum(v for _, row in rs.rows for v in row if v)
        print(f"  {measurement:<62} {total:.4g}")
    return 0


def _cmd_carm(args) -> int:
    from repro.carm import load_from_kb, render_carm_svg
    from repro.core import PMoVE, run_benchmark

    daemon = PMoVE()
    machine = SimulatedMachine(get_preset(args.preset))
    kb = daemon.attach_target(machine)
    threads = args.threads or machine.spec.n_cores
    run_benchmark(kb, machine, "carm", thread_counts=[threads])
    model = load_from_kb(kb, threads)
    print(f"CARM for {model.hostname} @ {threads} threads")
    for level in model.levels:
        print(f"  {level:<5} {model.bandwidth_gbs[level]:9.1f} GB/s")
    for isa, gf in sorted(model.peak_gflops.items(), key=lambda kv: kv[1]):
        print(f"  {isa:<7} {gf:9.1f} GFLOP/s")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_carm_svg(model))
        print(f"roofline written to {args.svg}")
    return 0


def _cmd_bench(args) -> int:
    from repro.core import PMoVE, run_benchmark

    daemon = PMoVE()
    machine = SimulatedMachine(get_preset(args.preset))
    kb = daemon.attach_target(machine)
    entries = run_benchmark(kb, machine, args.name)
    for entry in entries:
        print(f"{entry['name']} ({entry['compiler']}): {entry['command']}")
        for r in entry["results"]:
            print(f"  {r['metric']:<24} {r['value']:12.2f} {r['units']}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import ClusterMonitor, JobSpec, SimulatedCluster
    from repro.workloads import build_kernel

    preset = PRESETS[args.preset]
    cluster = SimulatedCluster(preset, n_nodes=args.nodes)
    monitor = ClusterMonitor(cluster)
    spec = get_preset(args.preset)
    job = JobSpec(
        name="cli_job", n_nodes=min(args.job_nodes, args.nodes),
        ranks_per_node=spec.n_cores,
        rank_kernel=build_kernel("triad", 400_000, iterations=1),
        iterations=args.iterations,
        halo_bytes_per_neighbor=1e6, halo_neighbors=2, allreduce_bytes=8e3,
    )
    doc, execution, _ = monitor.run_job(job, freq_hz=4.0)
    print(f"job {doc['job_id']} on {execution.nodes}: "
          f"{execution.runtime_s:.3f}s ({100 * execution.comm_fraction:.1f}% comm)")
    for node, byts in monitor.comm_telemetry(execution).items():
        print(f"  {node}: {byts / 1e9:.2f} GB shipped")
    return 0


def _cmd_serve(args) -> int:
    """Multi-tenant serving story: N tenants refresh the Scenario-A
    dashboard concurrently; admission + the bounded fair executor keep
    per-tenant SLOs honest, optionally while one tenant floods."""
    from repro.core import PMoVE
    from repro.serve import TenantConfig, mixed_load, replay

    daemon = PMoVE()
    daemon.attach_target(SimulatedMachine(get_preset(args.preset)))
    _, uid = daemon.scenario_a(args.preset, duration_s=args.duration, freq_hz=2.0)
    panels = daemon.grafana.get(uid).panels[: max(1, args.panels)]

    names = [f"tenant-{i}" for i in range(args.tenants)]
    aggressor = names[-1] if args.aggressor and args.tenants > 1 else None
    configs = [
        TenantConfig(name, rate_per_s=10.0, burst=15.0,
                     point_budget_per_s=5_000.0, point_burst=20_000.0,
                     max_queue_depth=32, cache_entries=64)
        for name in names
    ]
    frontend = daemon.enable_serving(configs, n_workers=args.workers)

    specs = mixed_load(
        names, panels,
        duration_s=args.load_duration,
        span_s=args.duration,
        window_s=min(60.0, args.duration / 2),
        live_period_s=args.live_period,
        backfill_period_s=args.backfill_period,
        seed=args.seed,
        aggressor=aggressor,
    )
    replay(frontend, specs)
    makespan = frontend.drain()
    health = frontend.health()

    print(f"served {len(specs)} requests for {args.tenants} tenant(s) on "
          f"{args.preset} through {args.workers} worker slot(s); "
          f"virtual makespan {makespan:.3f}s"
          + (f" (aggressor: {aggressor})" if aggressor else ""))
    ex = health["executor"]
    print(f"executor: {ex['executed']} executed, {ex['coalesced']} coalesced "
          f"(single-flight), {ex['timeouts']} past-deadline cancels")
    header = (f"  {'tenant':<10} {'sub':>5} {'adm':>5} {'rej':>5} {'done':>5} "
              f"{'coal':>5} {'t/o':>4} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8}")
    print(header + "  (live-class latency)")
    for name in names:
        s = health["tenants"].get(name)
        if s is None:
            continue
        live = s["latency"].get("live", s["latency"]["all"])
        print(f"  {name:<10} {s['submitted']:>5} {s['admitted']:>5} "
              f"{s['rejected_total']:>5} {s['completed']:>5} "
              f"{s['coalesced']:>5} {s['timeouts']:>4} "
              f"{live['p50_ms']:>8.2f} {live['p95_ms']:>8.2f} {live['p99_ms']:>8.2f}")
    reasons: dict[str, int] = {}
    for s in health["tenants"].values():
        for reason, n in s["rejected"].items():
            reasons[reason] = reasons.get(reason, 0) + n
    if reasons:
        pretty = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items()))
        print(f"rejections (429-style, explicit): {pretty}")
    parts = health["cache_partitions"]
    used = sum(1 for p in parts.values() if p["entries"])
    print(f"cache partitions: {used}/{len(parts)} tenants warm, "
          f"entries " +
          ", ".join(f"{n}={parts[n]['entries']}/{parts[n]['capacity']}"
                    for n in names))
    return 0


def _cmd_shard(args) -> int:
    from repro.db import InfluxError, Point, ShardedInfluxDB
    from repro.faults import NodeCrash

    db = ShardedInfluxDB(args.shards)
    db.create_database("pmove")
    pts = []
    for s in range(args.series):
        tags = {"obs": f"obs-{s:04d}"}
        for i in range(args.points):
            t = i * 1.0
            pts.append(Point("kernel_percpu_cpu_idle", tags,
                             {"v": (s * 37 + i) % 100 / 100.0}, t))
    db.write_many("pmove", pts)

    def show(title: str) -> None:
        stats = db.stats("pmove")
        states = db.shard_states()
        print(title)
        print(f"  {'shard':<10} {'state':<9} {'series':>6} {'points':>8} {'dropped':>8}")
        for name, s in stats["shards"].items():
            # Stored points, not the cumulative points_written counter —
            # migration moves rows without touching ingest counters, so the
            # counter misreports freshly rebalanced shards.
            stored = sum(m["points"] for m in s["measurements"].values())
            print(f"  {name:<10} {states[name]:<9} {s['series_count']:>6} "
                  f"{stored:>8} {stats['dropped_points'][name]:>8}")
        cols, _, vals = db.aggregate_columns("pmove", "kernel_percpu_cpu_idle", "COUNT")
        print(f"  scatter COUNT(v) = {vals[cols.index('v')]} "
              f"(partial={db.last_partial})")

    show(f"ingested {len(pts)} points across {len(db.shards)} shard(s):")

    if args.add_shard:
        summary = db.add_shard()
        print(f"added {summary['shards'][-1]}: moved {summary['moved_series']} "
              f"series / {summary['moved_points']} points "
              f"({summary['moved_series'] / max(1, args.series):.0%} of series)")
        show("after rebalance:")

    if args.kill_shard is not None:
        victim = args.kill_shard
        if victim.isdigit():
            victim = f"shard-{victim}"
        try:
            db.inject_shard_fault(victim, NodeCrash(t0=0.0, t1=float("inf")))
        except InfluxError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        db.at(1.0)
        # Writes routed to the dead shard drop (and are counted) instead
        # of erroring; queries touching its series degrade to partial.
        db.write_many("pmove", pts[: args.points])
        show(f"after killing {victim}:")
        print(f"  partial queries so far: {db.partial_queries}")
    return 0


def _cmd_fuzz(args) -> int:
    import os

    from repro.fuzz import PRESET_POOL, Scenario, execute, run_campaign

    if args.replay:
        paths = (
            sorted(
                os.path.join(args.replay, n)
                for n in os.listdir(args.replay)
                if n.endswith(".json")
            )
            if os.path.isdir(args.replay)
            else [args.replay]
        )
        if not paths:
            print(f"error: no seeds under {args.replay}", file=sys.stderr)
            return 1
        failed = 0
        for path in paths:
            with open(path) as fh:
                sc = Scenario.from_json(fh.read())
            run = execute(sc)
            verdict = "FAIL" if run.failed else "ok"
            print(f"{verdict:<4} {os.path.basename(path)} "
                  f"coverage={len(run.coverage)}")
            for v in run.violations:
                print(f"     violation: {v}")
            failed += bool(run.failed)
        print(f"replayed {len(paths)} seed(s), {failed} failing")
        return 1 if failed else 0

    presets = PRESET_POOL if args.preset == "all" else (args.preset,)

    def progress(i, run, novel):
        if novel:
            print(f"  run {i:>4}: +{len(novel)} coverage "
                  f"({', '.join(novel[:4])}{'…' if len(novel) > 4 else ''})")

    result = run_campaign(
        args.budget,
        args.seed,
        presets=presets,
        mutate_corpus=not args.baseline,
        do_minimize=args.minimize,
        keep_run_docs=False,
        on_run=progress,
    )
    arm = "baseline (mutation-free)" if args.baseline else "guided"
    print(f"\n{arm} campaign: budget={result.budget} seed={result.seed}")
    print(f"  distinct coverage: {result.distinct_coverage}")
    print(f"  corpus size:       {len(result.corpus)}")
    print(f"  failures:          {len(result.failures)}")
    print(f"  rerun checks:      {result.rerun_checks} "
          f"({len(result.rerun_mismatches)} mismatched)")
    print(f"  fingerprint:       {result.fingerprint()[:16]}")

    if args.coverage_out:
        with open(args.coverage_out, "w") as fh:
            fh.write(result.coverage.to_json())
        print(f"coverage map -> {args.coverage_out}")

    if args.corpus:
        os.makedirs(args.corpus, exist_ok=True)
        written = 0
        for fail in result.failures:
            doc = fail.get("minimized")
            if doc is None:
                continue
            sc = Scenario.from_dict(doc)
            name = f"seed-{sc.seed}-run-{fail['i']}.json"
            with open(os.path.join(args.corpus, name), "w") as fh:
                fh.write(sc.to_json())
            written += 1
        print(f"{written} minimized seed(s) -> {args.corpus}")

    for fail in result.failures:
        print(f"FAIL run {fail['i']}:")
        for v in fail["violations"]:
            print(f"  {v}")
    return 1 if result.failures else 0


_COMMANDS = {
    "presets": _cmd_presets,
    "probe": _cmd_probe,
    "kb": _cmd_kb,
    "monitor": _cmd_monitor,
    "sketch": _cmd_sketch,
    "chaos": _cmd_chaos,
    "superdb": _cmd_superdb,
    "observe": _cmd_observe,
    "carm": _cmd_carm,
    "bench": _cmd_bench,
    "cluster": _cmd_cluster,
    "serve": _cmd_serve,
    "shard": _cmd_shard,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
