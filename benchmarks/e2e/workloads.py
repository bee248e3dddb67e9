"""The four end-to-end workloads.

Each workload drives the real stack through its public API, one closed-loop
caller in one thread.  A *round* is ``ingest()`` (new simulated points land
in the host DB), ``refresh()`` (every caller gets its panels answered over
data that includes them) and ``after()`` (periodic work outside both).
``verify()`` is the cheap per-refresh validity check, ``oracle()`` the full
re-answer through ``influxql.naive_execute``; both run with the clock
stopped.  Everything a workload builds hangs off ``setup()``, which the
runner calls several times per run to take a median ``setup_s``.

Series tags are explicit and derived from the seed: ``Sampler.run`` and
``scenario_b`` would otherwise draw a ``uuid4``, and shard placement (a hash
over the series key) would differ between two runs of one seed.
"""

from __future__ import annotations

import bisect
import math
import random

from repro.core.daemon import PMoVE
from repro.core.superdb import SuperDB
from repro.db.influx import Point
from repro.db.influxql import execute, naive_execute
from repro.machine import SimulatedMachine, get_preset
from repro.serve import TenantConfig
from repro.viz.dashboard import Panel, Target
from repro.workloads import build_kernel, generate, spmv_descriptor

__all__ = ["WORKLOADS", "Workload"]

DB = "pmove"

#: The daemon's default Scenario-A SWTelemetry set (§V-B), spelled out so
#: the benchmark's traffic does not move if that private default does.
SCENARIO_A_METRICS = (
    "kernel.percpu.cpu.idle",
    "kernel.percpu.cpu.user",
    "kernel.all.load",
    "kernel.all.pswitch",
    "mem.util.used",
    "mem.numa.alloc.hit",
)


def _sum_served(plan: dict[str, int]) -> tuple[int, int]:
    """(served, fell back) totals of a rollup/sketch planner counter dict."""
    served = sum(v for k, v in plan.items() if "served" in k)
    fallback = sum(
        v for k, v in plan.items()
        if k in ("raw-fallback", "multi-series-raw") or k.startswith("fallback:")
    )
    return served, fallback


def _rows_as_series(rs) -> tuple[list[float], list[float]]:
    """A ResultSet's first column the way ``GrafanaServer`` serves it."""
    times, values = [], []
    for t, row in rs.rows:
        if row[0] is not None:
            times.append(t)
            values.append(row[0])
    return times, values


class Workload:
    """Common state and the counters every workload reports."""

    name = ""
    #: rounds of the fixed-work traced run (counters are seed-exact over it)
    trace_rounds = 0
    #: round after which ``peak_rss_mb`` is read, so a faster build that
    #: completes more rounds in the same seconds is not charged for them
    rss_round = 0
    #: the timed section ends after this many rounds even if ``--seconds``
    #: are not up: for a workload whose rounds get dearer as state piles
    #: up, a mean over "as many rounds as fitted" would move with the
    #: machine's speed.  None = run for the full time.
    timed_rounds: int | None = None
    setup_repeats = 9
    #: how a round's wall time moves with the runner's reference when the
    #: sandbox changes speed: time ∝ reference ** sensitivity.  The
    #: reference is allocation-heavy and slows down most; numeric code
    #: (bisect, slices, float sums — the read paths) slows down less.
    #: Fitted over 50 runs per workload that saw the machine at 0.4–0.85
    #: of its full speed (README "Calibration"); set-up tracks the
    #: reference one to one on every workload.
    sensitivity = 0.85

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.daemon: PMoVE | None = None

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def ingest(self) -> tuple[int, int]:
        """One round's ingest; (field-values inserted, expected)."""
        raise NotImplementedError

    def refresh(self):
        raise NotImplementedError

    def after(self) -> None:
        """Periodic in-round work that is neither ingest nor refresh."""

    def lap(self) -> None:
        """Called now and then inside a long ``setup()``; the runner hangs
        its stopwatch here so every stretch is calibrated on its own."""

    def verify(self, answer) -> bool:
        raise NotImplementedError

    def oracle(self, answer, corrupt: bool = False) -> bool:
        raise NotImplementedError

    # -- accounting ----------------------------------------------------
    def _reset_accounting(self) -> None:
        self.rng = random.Random(self.seed)
        self.round = 0
        self.inserted = 0
        self.expected = 0
        self.ingest_faults = 0
        self.sampling = {
            "ticks": 0, "ticks_lost": 0, "zero_reports": 0, "retried": 0,
            "dropped": 0, "queue_peak": 0,
        }

    def _account(self, stats) -> tuple[int, int]:
        """Fold one ``SamplingStats`` into the run totals; returns the run's
        (inserted, expected) field-values.  Expected is inserted plus what
        the lost, dropped and unshipped reports would have carried, not
        ``stats.expected_points``: Scenario B's closing fetch inserts one
        report more than the tick count expects."""
        per_report = stats.expected_points // stats.expected_reports
        expected = stats.inserted_points + per_report * (
            stats.lost_reports + stats.dropped_by_policy + stats.unshipped_reports)
        self.inserted += stats.inserted_points
        self.expected += expected
        s = self.sampling
        s["ticks"] += stats.expected_reports
        s["ticks_lost"] += stats.lost_reports
        s["zero_reports"] += stats.zero_reports
        s["retried"] += stats.retried_reports
        s["dropped"] += stats.dropped_by_policy + stats.unshipped_reports
        s["queue_peak"] = max(s["queue_peak"], stats.max_queue_depth)
        return stats.inserted_points, expected

    def conserved(self) -> bool:
        """What ingest reported as inserted is what the host DB holds."""
        return self.daemon.influx.stats(DB)["points_written"] == self.inserted

    def checksum(self) -> dict[str, float]:
        """Seed-determined fingerprint of the host DB (equal between two
        runs of one seed and one round count)."""
        influx = self.daemon.influx
        stats = influx.stats(DB)
        measurement = influx.measurements(DB)[0]
        rs = naive_execute(influx, DB, f'SELECT * FROM "{measurement}"')
        return {
            "points_inserted": stats["points_written"],
            "series_count": stats["series_count"],
            "field_sum": math.fsum(
                v for _, row in rs.rows for v in row if v is not None
            ),
        }

    def counters(self) -> dict[str, float]:
        """Monotonic public counters; the runner reports their deltas."""
        d = self.daemon
        stats = d.influx.stats(DB)
        rollup_served, rollup_fallback = _sum_served(d.influx.rollup_plan)
        sketch_served, sketch_fallback = _sum_served(d.influx.sketch_plan)
        out = {
            "expected_points": self.expected,
            "inserted_points": self.inserted,
            "db.influx.points_written": stats["points_written"],
            "db.influx.bytes_written": stats["bytes_written"],
            "db.influx.rollup_served": rollup_served,
            "db.influx.rollup_fallback": rollup_fallback,
            "db.influx.sketch_served": sketch_served,
            "db.influx.sketch_fallback": sketch_fallback,
            "viz.grafana.cache_hits": d.grafana.cache_hits,
            "viz.grafana.cache_misses": d.grafana.cache_misses,
            "viz.grafana.partial_serves": d.grafana.partial_serves,
            "pcp.sampler.ticks": self.sampling["ticks"],
            "pcp.sampler.ticks_lost": self.sampling["ticks_lost"],
            "pcp.sampler.zero_reports": self.sampling["zero_reports"],
            "pcp.shipper.retried": self.sampling["retried"],
            "pcp.shipper.dropped": self.sampling["dropped"],
        }
        if d.ingest is not None:
            flat = d.ingest.flat_counters()
            log = d.ingest.log.stats()
            out["pcp.commitlog.records_appended"] = log["appended_records"]
            out["pcp.consumers.records_applied"] = flat["db-writer.applied_records"]
            out["pcp.consumers.apply_retries"] = sum(
                v for k, v in flat.items() if k.endswith(".apply_failures"))
            out["pcp.consumers.dlq_parked"] = sum(
                v for k, v in flat.items() if k.endswith(".parked_records"))
        if d.serving is not None:
            ex = d.serving.executor.stats()
            tenants = d.serving.health()["tenants"].values()
            out["serve.submitted"] = sum(t["submitted"] for t in tenants)
            out["serve.rejected"] = sum(t["rejected_total"] for t in tenants)
            out["serve.executed"] = ex["executed"]
            out["serve.coalesced"] = ex["coalesced"]
            out["serve.timeouts"] = ex["timeouts"]
        return out

    def gauges(self) -> dict[str, float]:
        """Level/peak readings taken once, after the measured rounds."""
        d = self.daemon
        stats = d.influx.stats(DB)
        per_engine = list(stats.get("shards", {"": stats}).values())
        sketch = [m["sketch"] for e in per_engine for m in e["measurements"].values()]
        out = {
            "db.influx.points_stored": stats["series_stored"],
            "db.influx.series_count": stats["series_count"],
            "db.sketch.memory_bytes": sum(
                s["digest_memory_bytes"] + s["hll_memory_bytes"] for s in sketch),
            "db.sketch.digest_centroids": sum(s["digest_centroids"] for s in sketch),
            "db.sharded.shard_points_max_over_mean": 0.0,
            "pcp.shipper.queue_peak": self.sampling["queue_peak"],
        }
        if "shards" in stats:
            held = [e["series_stored"] for e in per_engine]
            out["db.sharded.shard_points_max_over_mean"] = (
                max(held) / (sum(held) / len(held)))
        if d.ingest is not None:
            out["pcp.consumers.backlog_peak"] = d.ingest.max_group_lag
            out["pcp.consumers.visibility_lag_virtual_s"] = max(
                c.max_staleness_s for c in d.ingest.group_members("db-writer"))
        if d.serving is not None:
            health = d.serving.health()
            out["serve.queue_depth_peak"] = max(
                health["executor"]["max_queue_depth"].values(), default=0)
            out["serve.virtual_p99_ms"] = max(
                t["latency"]["all"]["p99_ms"] for t in health["tenants"].values())
        return out


# ======================================================================
# live_unbuffered / live_durable_sharded
# ======================================================================
class LiveDashboard(Workload):
    """Scenario A: sample a window, then refresh the generated dashboard
    over the sliding last-300 s."""

    host = "icl"
    freq_hz = 2.0
    window_s = 300.0

    def __init__(self, seed: int, *, name: str, mode: str,
                 shards: int, round_s: float, trace_rounds: int,
                 rss_round: int, sensitivity: float) -> None:
        super().__init__(seed)
        self.name = name
        self.mode, self.shards, self.round_s = mode, shards, round_s
        self.trace_rounds, self.rss_round = trace_rounds, rss_round
        self.sensitivity = sensitivity

    def setup(self) -> None:
        self._reset_accounting()
        env = {"PMOVE_SHARDS": str(self.shards)} if self.shards else None
        self.daemon = d = PMoVE(env=env, seed=self.seed)
        self.machine = SimulatedMachine(get_preset(self.host), seed=self.seed)
        d.attach_target(self.machine)
        if self.mode == "durable":
            d.enable_durable_ingest()
        # One scenario_a call generates and registers the dashboard (and
        # samples the first window); later windows drive the sampler
        # directly, because every scenario_a call registers another one.
        stats, uid = d.scenario_a(
            self.host, self.round_s, self.freq_hz,
            metrics=list(SCENARIO_A_METRICS), mode=self.mode,
        )
        self._account(stats)
        self.tag = stats.tag
        self.sampler = d.target(self.host).sampler
        self.panels = d.grafana.get(uid).panels

    def ingest(self) -> tuple[int, int]:
        t0 = self.machine.clock.now()
        self.machine.advance(self.round_s)
        stats = self.sampler.run(
            list(SCENARIO_A_METRICS), self.freq_hz, t0, t0 + self.round_s,
            tag=self.tag, mode=self.mode, pipeline=self.daemon.ingest,
        )
        counted = self._account(stats)
        if self.mode == "durable" and (
            stats.duplicate_records or stats.parked_records
            or stats.backlog_records
            or stats.applied_records != stats.produced_records
        ):
            self.ingest_faults += 1  # a seq was applied twice or not at all
        self.round += 1
        self.round_t0 = t0
        return counted

    def refresh(self):
        now = self.machine.clock.now()
        g = self.daemon.grafana
        t0 = now - self.window_s
        return now, [g.execute_panel(p, t0=t0, t1=now) for p in self.panels]

    def verify(self, answer) -> bool:
        _, served = answer
        newest = -math.inf
        for series in served:
            for times, _ in series.values():
                if not times:
                    return False
                newest = max(newest, times[-1])
        return (
            newest > self.round_t0
            and self.daemon.grafana.partial_serves == 0
            and not getattr(self.daemon.influx, "last_partial", False)
        )

    def oracle(self, answer, corrupt: bool = False) -> bool:
        now, served = answer
        g, ok = self.daemon.grafana, True
        for panel, series in zip(self.panels, served):
            for target, got in zip(panel.targets, series.values()):
                stmt = g.target_statement(target, now - self.window_s, now)
                want = _rows_as_series(naive_execute(self.daemon.influx, DB, stmt))
                if corrupt:
                    want[1][0] += 1.0
                    corrupt = False
                ok &= (list(got[0]), list(got[1])) == want
        return ok


# ======================================================================
# profile_buffered
# ======================================================================
class ProfileKernels(Workload):
    """Scenario B: profile a kernel under 32 Hz HW-event sampling through
    the buffered shipper, then recall it and three earlier observations."""

    name = "profile_buffered"
    sensitivity = 0.95
    trace_rounds = 120
    # every observation re-saves the whole KB, and a sync walks every
    # observation SUPERDB already holds: a round's cost grows with its number
    timed_rounds = rss_round = 240
    hosts = ("icl", "zen3")
    events = ("FLOPS_DP", "LOADS", "STORES", "INSTRUCTIONS", "CYCLES")
    freq_hz = 32.0
    n_threads = 8
    sync_every = 60
    #: (elements, iterations) / nnz scale giving ≈ 0.25 virtual s per
    #: kernel on 8 threads of each host (8 ticks at 32 Hz) — the issue's
    #: 1.5 s kernels would leave under 200 refreshes in a 20 s run
    triad_shape = {"icl": (4_000_000, 84), "zen3": (4_000_000, 445)}
    spmv_scale = {"icl": 9_000.0, "zen3": 48_000.0}

    def setup(self) -> None:
        self._reset_accounting()
        self.daemon = d = PMoVE(seed=self.seed)
        self.superdb = SuperDB(seed=self.seed)
        self.kernels: list[tuple[str, object]] = []
        matrix = generate("adaptive", scale=0.001, seed=self.seed)
        for host in self.hosts:
            machine = SimulatedMachine(get_preset(host), seed=self.seed)
            d.attach_target(machine)
            n, it = self.triad_shape[host]
            self.kernels.append((host, build_kernel("triad", n, iterations=it)))
            self.kernels.append((host, spmv_descriptor(
                matrix, machine.spec, "mkl", n_threads=self.n_threads,
                nnz_scale=self.spmv_scale[host], name="spmv")))
        self.observations: list[tuple[str, dict]] = []
        self.order: list[int] = []
        self.synced = False
        self.compare_ok = True

    def ingest(self) -> tuple[int, int]:
        if not self.order:
            # every block of four rounds runs each (host, kernel) once, in
            # seed order: the mix is seed-chosen but always balanced
            self.order = self.rng.sample(range(len(self.kernels)), len(self.kernels))
        host, desc = self.kernels[self.order.pop()]
        obs, _ = self.daemon.scenario_b(
            host, desc, list(self.events), freq_hz=self.freq_hz,
            n_threads=self.n_threads, mode="buffered",
            tag=f"bench-{self.seed}-{self.round}",
        )
        self.observations.append((host, obs))
        self.round += 1
        return self._account(self.daemon.target(host).sampler.last_stats)

    def refresh(self):
        recall = self.daemon.recall_observation
        picks = [self.observations[-1]] + [
            self.rng.choice(self.observations) for _ in range(3)]
        return [(obs, recall(host, obs)) for host, obs in picks]

    def after(self) -> None:
        if self.round % self.sync_every:
            return
        d, sdb = self.daemon, self.superdb
        for host in self.hosts:
            if self.synced:
                # report() re-pushes every observation of the KB; the
                # incremental repair pushes only the ones SUPERDB lacks
                # (it still looks each one up, and re-sends the KB)
                sdb.anti_entropy(d.target(host).kb, d.influx, DB, mode="agg")
            else:
                d.push_to_superdb(sdb, host, mode="agg")
        self.synced = True
        # HW-event measurements are vendor-specific, so the comparison row
        # is the one of the host that sampled this event
        host, obs = self.observations[-1]
        metric = obs["metrics"][-1]
        row = sdb.compare_metric(
            metric["measurement"], metric["fields"][0]).get(host)
        self.compare_ok &= bool(row and row["count"] > 0 and not row["partial"])

    def verify(self, answer) -> bool:
        return self.compare_ok and all(
            len(rs) > 0 for _, results in answer for rs in results.values())

    def oracle(self, answer, corrupt: bool = False) -> bool:
        ok = True
        for obs, results in answer:
            for metric, stmt in zip(obs["metrics"], obs["queries"]):
                want = naive_execute(self.daemon.influx, DB, stmt)
                rows = [(t, list(r)) for t, r in want.rows]
                if corrupt:
                    rows[0][1][0] += 1.0
                    corrupt = False
                got = results[metric["measurement"]]
                ok &= got.columns == want.columns and got.rows == rows
        return ok

    def counters(self) -> dict[str, float]:
        out = super().counters()
        link = self.superdb.link
        out["core.superdb.docs_pushed"] = (
            link.synced_observations + link.repaired_observations)
        return out


# ======================================================================
# serve_read_heavy
# ======================================================================
class ServeDashboards(Workload):
    """Three tenants refresh their dashboards through the serving frontend
    beside a one-measurement trickle of writes."""

    name = "serve_read_heavy"
    sensitivity = 0.65
    trace_rounds = 240
    rss_round = 400
    setup_repeats = 2
    n_measurements = 4
    series_per_measurement = 8
    fields = ("_f0", "_f1", "_f2", "_f3")
    preload_s = 6000
    tenants = ("ops", "perf", "adhoc")
    quantum_s = 10  # panel windows move every 10 virtual s (40 rounds)

    def setup(self) -> None:
        self._reset_accounting()
        self.daemon = d = PMoVE(seed=self.seed)
        # limits far above the offered load: the baseline rejects nothing
        self.frontend = d.enable_serving(
            [TenantConfig(t, rate_per_s=1e4, burst=1e4, point_budget_per_s=1e9,
                          point_burst=1e9, max_queue_depth=4096,
                          cache_entries=256) for t in self.tenants],
            keep_results=True,
        )
        self.dashboard = self._dashboard()
        #: reports written so far per measurement = its next 1 Hz timestamp
        self.reports = [0] * self.n_measurements
        for t in range(self.preload_s):
            self._write(range(self.n_measurements))
            if t % 100 == 99:
                self.lap()

    def _write(self, measurements) -> int:
        """One report per given measurement, each at its own next second."""
        rnd = self.rng.random
        batch = []
        for m in measurements:
            t = self.reports[m]
            self.reports[m] += 1
            batch += [
                Point(f"bench_m{m}", {"tag": f"s{s}"},
                      {f: 50.0 + 10.0 * math.sin(t / 97.0 + s + i) + rnd()
                       for i, f in enumerate(self.fields)}, float(t))
                for s in range(self.series_per_measurement)
            ]
        self.daemon.influx.write_many(DB, batch)
        n = len(batch) * len(self.fields)
        self.inserted += n
        self.expected += n
        return n

    def _dashboard(self) -> list[tuple[float, Panel]]:
        """(window seconds, panel) — per measurement and two of its series:
        a raw select, a tier-served MEAN, a tier-digest PERCENTILE, and a
        MEAN no tier divides (raw bucket walk)."""
        f = self.fields
        out: list[tuple[float, Panel]] = []
        for m in range(self.n_measurements):
            for s in range(2):
                meas, tag = f"bench_m{m}", f"s{s}"
                for window, title, targets in (
                    (300.0, "raw", [Target(meas, f[0], tag=tag),
                                    Target(meas, f[1], tag=tag)]),
                    (3600.0, "mean60", [Target(meas, f[0], tag=tag, agg="MEAN",
                                               group_by_s=60.0)]),
                    (3600.0, "p95", [Target(meas, f[1], tag=tag, agg="PERCENTILE",
                                            agg_arg=95.0, group_by_s=60.0)]),
                    (600.0, "mean7", [Target(meas, f[2], tag=tag, agg="MEAN",
                                             group_by_s=7.0)]),
                ):
                    out.append((window, Panel(len(out) + 1, f"{title} {meas} {tag}",
                                              targets)))
        return out

    def ingest(self) -> tuple[int, int]:
        # one measurement per round, in turn: panels on the other three
        # stay cache-fresh, and every measurement keeps its 1 Hz density
        # (virtual time advances a second every four rounds)
        n = self._write((self.round % self.n_measurements,))
        self.round += 1
        return n, n

    def refresh(self):
        fe, now = self.frontend, float(min(self.reports))
        edge = now // self.quantum_s * self.quantum_s
        requests = []
        for tenant in self.tenants:
            for window, panel in self.dashboard:
                if tenant == "adhoc":  # never the same window twice
                    t0 = self.rng.uniform(0.0, now - 400.0)
                    t1 = t0 + self.rng.uniform(100.0, 300.0)
                else:
                    t0, t1 = edge - window, edge
                rid = fe.submit(tenant, panel, at=now, t0=t0, t1=t1)
                requests.append((rid, panel, t0, t1))
        fe.drain()
        outcomes, results = dict(fe.outcomes), dict(fe.results)
        # the frontend keeps every outcome, payload and execution record
        # for its caller; one that never collects them pays for a growing
        # heap, and drain() for a scan of all records ever made
        fe.outcomes.clear()
        fe.results.clear()
        fe.executor.records.clear()
        return requests, outcomes, results

    def verify(self, answer) -> bool:
        requests, outcomes, results = answer
        return all(
            outcomes[rid] in ("done", "coalesced")
            and all(times for times, _ in results[rid].values())
            for rid, _, _, _ in requests
        )

    def oracle(self, answer, corrupt: bool = False) -> bool:
        requests, _, results = answer
        influx, g = self.daemon.influx, self.daemon.grafana
        eps, ok = influx.sketch.digest_bound(merged=True), True
        for rid, panel, t0, t1 in requests:
            for target, got in zip(panel.targets, results[rid].values()):
                stmt = g.target_statement(target, t0, t1)
                if target.agg == "PERCENTILE":
                    raw = naive_execute(influx, DB, g.target_statement(
                        Target(target.measurement, target.params, tag=target.tag),
                        t0, t1))
                    ok &= _percentiles_within(
                        got, raw.rows, target.group_by_s,
                        target.agg_arg / 100.0, eps)
                    continue
                want = _rows_as_series(naive_execute(influx, DB, stmt))
                if corrupt:
                    want[1][0] += 1.0
                    corrupt = False
                ok &= (list(got[0]), list(got[1])) == want
        return ok

    def conserved(self) -> bool:
        influx = self.daemon.influx
        return super().conserved() and all(
            execute(influx, DB, f'SELECT COUNT("_f0") FROM "bench_m{m}"')
            .rows[0][1][0] == n * self.series_per_measurement
            for m, n in enumerate(self.reports))


def _percentiles_within(got, raw_rows, bucket_s: float, q: float, eps: float) -> bool:
    """Each served bucket percentile sits within ``eps`` of rank ``q`` among
    the bucket's raw values (the planner's declared digest bound)."""
    buckets: dict[float, list[float]] = {}
    for t, row in raw_rows:
        if row[0] is not None:
            buckets.setdefault(t // bucket_s * bucket_s, []).append(row[0])
    times, values = got
    if list(times) != sorted(buckets):
        return False
    for t, v in zip(times, values):
        vals = sorted(buckets[t])
        lo = bisect.bisect_left(vals, v) / len(vals)
        hi = bisect.bisect_right(vals, v) / len(vals)
        # the rank of v is anywhere in [lo, hi]; one sample of slack for
        # the nearest-rank vs interpolated conventions
        slack = eps + 1.0 / len(vals)
        if hi < q - slack or lo > q + slack:
            return False
    return True


#: why each workload exists is in ``BENCHMARK.json`` and the README
WORKLOADS = {
    "live_unbuffered": lambda seed: LiveDashboard(
        seed, name="live_unbuffered", mode="unbuffered", shards=0, round_s=5.0,
        trace_rounds=300, rss_round=500, sensitivity=0.85),
    "live_durable_sharded": lambda seed: LiveDashboard(
        seed, name="live_durable_sharded", mode="durable", shards=4, round_s=2.0,
        trace_rounds=200, rss_round=300, sensitivity=0.9),
    "profile_buffered": ProfileKernels,
    "serve_read_heavy": ServeDashboards,
}
