"""Chaos suite for the SUPERDB federation link: partitions, partial syncs,
idempotent re-reports, anti-entropy convergence."""

import math

import pytest

from repro.core import PMoVE, SuperDB
from repro.faults import FlakyWrites, NetworkPartition, ServiceFaultSet
from repro.machine import SimulatedMachine, icl
from repro.pcp import RetryPolicy
from repro.workloads import build_kernel

pytestmark = pytest.mark.chaos


def daemon_with_observations(seed=40, n_obs=2):
    d = PMoVE(seed=seed)
    m = SimulatedMachine(icl(), seed=seed)
    kb = d.attach_target(m)
    for _ in range(n_obs):
        desc = build_kernel("triad", 2_000_000, iterations=200)
        d.scenario_b("icl", desc, ["RAPL_POWER_PACKAGE"], freq_hz=8,
                     n_threads=8)
    return d, kb


def superdb_state(sdb):
    """Canonical upstream state: observation docs (sans storage ids) plus
    every raw point behind them, sorted for comparison."""
    docs = sorted(sdb.observations(), key=lambda d: d["@id"])
    clean = [{k: v for k, v in d.items() if k != "_id"} for d in docs]
    points = []
    for meas in sdb.influx.measurements("superdb"):
        pts = sdb.influx.points("superdb", meas)
        points.extend((meas, p.time, tuple(sorted(p.tags.items())),
                       tuple(sorted(p.fields.items())))
                      for p in pts)
    return clean, sorted(points)


class TestResilientReport:
    def test_fault_free_link_is_a_pass_through(self):
        d, kb = daemon_with_observations()
        sdb = SuperDB()
        summary = sdb.report(kb, d.influx, mode="ts")
        assert summary["observations"] == 2
        assert summary["pending"] == 0
        assert sdb.link.failed_attempts == 0
        state = sdb.sync_status("icl")
        assert state["complete"] and state["kb_synced"]
        assert state["staleness_s"] == pytest.approx(0.0)

    def test_partition_shorter_than_budget_loses_nothing(self):
        d, kb = daemon_with_observations(seed=41)
        wan = ServiceFaultSet()
        wan.inject(NetworkPartition(t0=0.0, t1=3.0))
        sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=10.0))
        summary = sdb.report(kb, d.influx, mode="ts")
        assert summary["observations"] == 2
        assert summary["pending"] == 0
        assert sdb.link.failed_attempts > 0  # it did hit the partition
        assert sdb.sync_status("icl")["complete"]
        reference = SuperDB()
        reference.report(kb, d.influx, mode="ts")
        assert superdb_state(sdb) == superdb_state(reference)

    def test_partition_longer_than_budget_leaves_pending(self):
        d, kb = daemon_with_observations(seed=42)
        wan = ServiceFaultSet()
        wan.inject(NetworkPartition(t0=0.0, t1=100.0))
        sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=1.0))
        summary = sdb.report(kb, d.influx, mode="ts")
        assert summary["observations"] == 0
        assert summary["pending"] == 2
        state = sdb.sync_status("icl")
        assert not state["complete"]
        assert not state["kb_synced"]

    def test_seeded_determinism(self):
        def run():
            d, kb = daemon_with_observations(seed=43)
            wan = ServiceFaultSet()
            wan.inject(FlakyWrites(t0=0.0, t1=5.0, p_fail=0.7, seed=3))
            sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=20.0), seed=9)
            summary = sdb.report(kb, d.influx, mode="ts")
            # Observation tags are fresh uuids each run; scrub them so the
            # comparison sees only the seeded dynamics.
            docs, points = superdb_state(sdb)
            docs = [{k: v for k, v in doc.items() if k != "tag"}
                    for doc in docs]
            points = sorted((m, t, tuple(kv for kv in tags if kv[0] != "tag"), f)
                            for m, t, tags, f in points)
            return summary, sdb.link.attempts, sdb.link.failed_attempts, \
                docs, points

        assert run() == run()


class TestIdempotency:
    def test_ts_re_report_does_not_duplicate_points(self):
        d, kb = daemon_with_observations(seed=44)
        sdb = SuperDB()
        first = sdb.report(kb, d.influx, mode="ts")
        _, points_once = superdb_state(sdb)
        second = sdb.report(kb, d.influx, mode="ts")
        _, points_twice = superdb_state(sdb)
        assert first["points"] == second["points"] > 0
        assert points_once == points_twice
        assert len(sdb.observations("icl")) == 2

    def test_partial_sync_then_resync_converges(self):
        """An interrupted ts report re-synced later never double-counts the
        observations that made it through the first time."""
        d, kb = daemon_with_observations(seed=45)
        wan = ServiceFaultSet()
        fault = wan.inject(NetworkPartition(t0=0.2, t1=1e9))
        sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=0.5),
                      attempt_cost_s=0.15)
        sdb.report(kb, d.influx, mode="ts")
        assert not sdb.sync_status("icl")["complete"]
        wan.remove(fault)
        sdb.report(kb, d.influx, mode="ts")
        assert sdb.sync_status("icl")["complete"]
        reference = SuperDB()
        reference.report(kb, d.influx, mode="ts")
        assert superdb_state(sdb) == superdb_state(reference)


class TestAntiEntropy:
    def test_two_passes_converge_to_fault_free_state(self):
        d, kb = daemon_with_observations(seed=46)
        wan = ServiceFaultSet()
        wan.inject(NetworkPartition(t0=0.0, t1=2.0))
        sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=1.5))
        sdb.report(kb, d.influx, mode="ts")  # dies inside the partition
        assert not sdb.sync_status("icl")["complete"]
        rep1 = sdb.anti_entropy(kb, d.influx, mode="ts")
        rep2 = sdb.anti_entropy(kb, d.influx, mode="ts")
        assert rep1["pending"] == 0 or rep2["pending"] == 0
        assert rep2["repaired"] == 0 or rep1["repaired"] > 0
        # A third pass repairs nothing: converged.
        rep3 = sdb.anti_entropy(kb, d.influx, mode="ts")
        assert rep3["repaired"] == 0 and rep3["pending"] == 0
        reference = SuperDB()
        reference.report(kb, d.influx, mode="ts")
        assert superdb_state(sdb) == superdb_state(reference)

    def test_anti_entropy_repairs_upstream_gap(self):
        """Raw points lost upstream (simulated retention mishap) are found
        by the point-count comparison and re-copied."""
        d, kb = daemon_with_observations(seed=47, n_obs=1)
        sdb = SuperDB()
        sdb.report(kb, d.influx, mode="ts")
        obs = kb.entries_of_type("ObservationInterface")[0]
        meas = obs["metrics"][0]["measurement"]
        removed = sdb.influx.delete_series("superdb", meas,
                                           tags={"tag": obs["tag"]})
        assert removed > 0
        rep = sdb.anti_entropy(kb, d.influx, mode="ts")
        assert rep["repaired"] == 1
        reference = SuperDB()
        reference.report(kb, d.influx, mode="ts")
        assert superdb_state(sdb) == superdb_state(reference)

    def test_agg_mode_anti_entropy_checks_doc_presence(self):
        d, kb = daemon_with_observations(seed=48, n_obs=1)
        sdb = SuperDB()
        sdb.report(kb, d.influx, mode="agg")
        rep = sdb.anti_entropy(kb, d.influx, mode="agg")
        assert rep["checked"] == 1 and rep["repaired"] == 0

    def test_bad_mode_rejected(self):
        d, kb = daemon_with_observations(seed=49, n_obs=1)
        with pytest.raises(ValueError):
            SuperDB().anti_entropy(kb, d.influx, mode="raw")


class TestCompareMetricGuards:
    def _inject_agg_doc(self, sdb, host, agg, n=1):
        col = sdb.mongo.collection("superdb", "observations")
        for i in range(n):
            col.insert_one({
                "@type": "AGGObservationInterface",
                "@id": f"dtmi:repro:{host}:obs_{i};1:agg",
                "hostname": host,
                "aggregates": {"meas": {"_f": dict(agg)}},
            })

    def test_nonfinite_aggregates_do_not_poison_hosts(self):
        sdb = SuperDB()
        self._inject_agg_doc(sdb, "good",
                             {"min": 1.0, "max": 3.0, "mean": 2.0, "count": 4.0})
        # All-NaN series: count is nonzero but the stats are NaN.
        self._inject_agg_doc(sdb, "good",
                             {"min": math.nan, "max": math.nan,
                              "mean": math.nan, "count": 2.0})
        self._inject_agg_doc(sdb, "bad",
                             {"min": -math.inf, "max": math.inf,
                              "mean": math.nan, "count": 2.0})
        cmp = sdb.compare_metric("meas", "_f")
        assert set(cmp) == {"good"}  # only-bad host contributes nothing
        agg = cmp["good"]
        assert agg["count"] == 4.0
        assert all(math.isfinite(agg[k]) for k in ("min", "max", "mean"))

    def test_dotted_measurement_name_reads_its_own_aggregate(self):
        """compare_metric projects one field out of each doc; a measurement
        whose name contains "." must not resolve as a nested path."""
        sdb = SuperDB()
        col = sdb.mongo.collection("superdb", "observations")
        agg = {"min": 1.0, "max": 1.0, "mean": 1.0, "count": 1.0}
        col.insert_one({
            "@type": "AGGObservationInterface", "@id": "o1:agg", "hostname": "h",
            "aggregates": {"a.b": {"_f": dict(agg)},
                           "a": {"b": {"_f": dict(agg, mean=5.0, max=5.0)}}},
        })
        assert sdb.compare_metric("a.b", "_f")["h"]["mean"] == 1.0
        assert sdb.compare_metric("a", "b") == {}  # {"_f": ...} is no aggregate

    def test_partial_flag_tracks_sync_state(self):
        d, kb = daemon_with_observations(seed=50, n_obs=2)
        wan = ServiceFaultSet()
        # KB + first observation land before the partition (0.15 s per
        # round trip); the second observation dies inside it.
        fault = wan.inject(NetworkPartition(t0=0.2, t1=1e9))
        sdb = SuperDB(faults=wan, retry=RetryPolicy(budget_s=0.5),
                      attempt_cost_s=0.15)
        summary = sdb.report(kb, d.influx, mode="agg")
        assert summary["observations"] == 1 and summary["pending"] == 1
        obs = kb.entries_of_type("ObservationInterface")[0]
        meas = obs["metrics"][0]["measurement"]
        field = obs["metrics"][0]["fields"][0]
        cmp = sdb.compare_metric(meas, field)
        assert cmp["icl"]["partial"]  # synced numbers, incomplete coverage
        wan.remove(fault)
        sdb.anti_entropy(kb, d.influx, mode="agg")
        cmp = sdb.compare_metric(meas, field)
        assert not cmp["icl"]["partial"]  # flag drops once sync completes


class TestSyncStateBookkeeping:
    """A long WAN outage leaves thousands of observations pending; recording
    that must stay linear in their number."""

    class CountingList(list):
        """A list that counts how often it is walked."""

        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    def _observations(self, n):
        return [{"@id": f"dtmi:dt:icl:observation{i};1", "time": {"end": float(i)}}
                for i in range(n)]

    def test_all_pending_is_recorded_in_linear_time(self):
        sdb = SuperDB()
        observations = self._observations(2500)
        pending = self.CountingList(o["@id"] for o in observations)
        sdb.link._save_sync_state("icl", 7.0, "agg", observations, pending,
                                  kb_ok=False)
        # One walk builds the membership set, one copies the list into the
        # document; a set rebuilt per observation would walk it 5000 times.
        assert pending.walks <= 2
        state = sdb.sync_status("icl")
        assert state["synced"] == [] and state["pending"] == list(pending)
        assert not state["kb_synced"] and not state["complete"]
        assert state["last_sync_t"] == 7.0
        assert state["last_synced_obs_end"] is None and state["staleness_s"] is None

    def test_partially_pending_state(self):
        sdb = SuperDB()
        observations = self._observations(2500)
        pending = self.CountingList(o["@id"] for o in observations[1::2])
        sdb.link._save_sync_state("icl", 7.0, "agg", observations, pending,
                                  kb_ok=True)
        assert pending.walks <= 2
        state = sdb.sync_status("icl")
        assert state["synced"] == [o["@id"] for o in observations[0::2]]
        assert state["pending"] == list(pending)
        assert state["kb_synced"] and not state["complete"]
        assert state["last_synced_obs_end"] == 2498.0 and state["staleness_s"] == 1.0
