"""Sketch consumers: the percentile anomaly detector and SUPERDB's
serialized-sketch federation (cross-host percentiles + cardinality)."""

import json
import math
import random

from repro.core import PMoVE
from repro.core.anomaly import percentile_exceed, scan_observation, scan_series
from repro.core.superdb import SuperDB
from repro.db.influx import InfluxDB, Point
from repro.db.sketch import nearest_rank
from repro.machine import SimulatedMachine, get_preset
from repro.workloads import build_kernel


def obs_db(n=2000, seed=3):
    db = InfluxDB(rollup_tiers=(10.0, 60.0))
    db.create_database("pmove")
    rnd = random.Random(seed)
    vals = [rnd.gauss(100.0, 10.0) for _ in range(n)]
    pts = [Point("lat", {"tag": "obs1"}, {"ms": v}, float(i) * 0.1)
           for i, v in enumerate(vals)]
    db.write_many("pmove", pts)
    obs = {
        "@type": "ObservationInterface",
        "@id": "dtmi:pmove:obs1",
        "tag": "obs1",
        "command": "triad",
        "affinity": "0-3",
        "time": 0.0,
        "metrics": [{"measurement": "lat", "fields": ["ms"]}],
    }
    return db, obs, vals


class TestPercentileDetector:
    def test_flags_exactly_the_tail(self):
        times = [float(i) for i in range(100)]
        values = [float(i) for i in range(100)]
        out = percentile_exceed(times, values, pct=95.0)
        cutoff = nearest_rank(values, 95.0)
        assert [a.value for a in out] == [v for v in values if v >= cutoff]
        assert all(a.detector == "percentile" for a in out)
        assert min(a.score for a in out) >= 1.0

    def test_nan_cutoff_yields_nothing(self):
        assert percentile_exceed([1.0], [math.nan]) == []

    def test_registered_in_scan_series(self):
        out = scan_series([0.0, 1.0], [1.0, 100.0], detector="percentile",
                          pct=50.0)
        assert out and out[-1].value == 100.0

    def test_scan_observation_sketch_cutoff_close_to_exact(self):
        db, obs, vals = obs_db()
        flagged = scan_observation(db, "pmove", obs, detector="percentile",
                                   as_rates=False, pct=99.0)
        # The engine served the cutoff from tier digests...
        assert any(k.startswith("served:") or k == "fallback:raw-scan"
                   for k in db.sketch_plan)
        # ...and the flagged fraction is within rank tolerance of 1%.
        frac = len(flagged) / len(vals)
        assert abs(frac - 0.01) <= db.sketch.epsilon + 1.0 / len(vals)

    def test_explicit_cutoff_wins(self):
        db, obs, vals = obs_db()
        flagged = scan_observation(db, "pmove", obs, detector="percentile",
                                   as_rates=False, cutoff=max(vals) + 1.0)
        assert flagged == []


class TestSuperDBSketches:
    def _push(self, sdb, host, seed, mu):
        db, obs, vals = obs_db(n=1000, seed=seed)
        obs["@id"] = f"dtmi:pmove:obs1:{host}"  # upserts key on @id
        # Shift the series so hosts differ.
        db2 = InfluxDB()
        db2.create_database("pmove")
        db2.write_many("pmove", [
            Point("lat", {"tag": "obs1"}, {"ms": v + mu}, float(i) * 0.1)
            for i, v in enumerate(vals)
        ])
        sdb._push_observation(obs, db2, "pmove", "agg", host)
        return [v + mu for v in vals]

    def test_agg_docs_carry_serialized_sketches(self):
        sdb = SuperDB()
        self._push(sdb, "hostA", seed=1, mu=0.0)
        doc = sdb.observations("hostA")[0]
        sk = doc["sketches"]["lat"]["ms"]
        assert set(sk) == {"digest", "hll"}
        assert sk["digest"]["count"] == 1000
        # Aggregates keep the paper's exact key set (no sketch leakage).
        assert set(doc["aggregates"]["lat"]["ms"]) == {"min", "max", "mean",
                                                       "count"}

    def test_compare_metric_merges_digests_per_host(self):
        sdb = SuperDB()
        va = self._push(sdb, "hostA", seed=1, mu=0.0)
        vb = self._push(sdb, "hostB", seed=2, mu=500.0)
        out = sdb.compare_metric("lat", "ms")
        assert set(out) == {"hostA", "hostB"}
        for host, vals in (("hostA", va), ("hostB", vb)):
            row = out[host]
            svals = sorted(vals)
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                assert svals[0] <= row[label] <= svals[-1]
            assert row["p50"] <= row["p95"] <= row["p99"]
        assert out["hostB"]["p50"] > out["hostA"]["p99"]  # shifted by 500

    def test_distinct_estimate_tracks_cardinality(self):
        sdb = SuperDB()
        vals = self._push(sdb, "hostA", seed=1, mu=0.0)
        est = sdb.compare_metric("lat", "ms")["hostA"]["distinct_estimate"]
        true = len(set(vals))
        assert abs(est - true) / true <= 0.1

    def test_sketchless_docs_lack_the_keys(self):
        sdb = SuperDB()
        sdb.mongo.collection("superdb", "observations").insert_one({
            "@type": "AGGObservationInterface",
            "@id": "legacy:agg",
            "hostname": "old-host",
            "aggregates": {"lat": {"ms": {"min": 1.0, "max": 2.0,
                                          "mean": 1.5, "count": 2.0}}},
        })
        row = sdb.compare_metric("lat", "ms")["old-host"]
        assert "p99" not in row and "distinct_estimate" not in row
        assert row["count"] == 2.0

    def test_two_hosts_report_and_repair_with_small_payloads(self):
        """Scenario B on two hosts, an ``agg`` report, two more observations
        each, an ``anti_entropy`` pass: the comparison rows are the ones
        captured while every HLL shipped as 8 236 bytes of dense hex, and
        what is stored now is the handful of registers nine values set."""
        d, sdb, hosts = PMoVE(seed=24), SuperDB(seed=24), ("icl", "zen3")
        for host in hosts:
            d.attach_target(SimulatedMachine(get_preset(host), seed=24))

        def observe(k):
            return {host: d.scenario_b(
                host, build_kernel("triad", 2_000_000, iterations=60 + 20 * k),
                ["INSTRUCTIONS"], freq_hz=16, n_threads=2,
                tag=f"pr24-{host}-{k}")[0] for host in hosts}

        observe(0)
        for host in hosts:
            assert sdb.report(d.target(host).kb, d.influx, d.database,
                              mode="agg")["observations"] == 1
        observe(1)
        last = observe(2)
        for host in hosts:
            assert sdb.anti_entropy(d.target(host).kb, d.influx, d.database,
                                    mode="agg")["repaired"] == 2
        want = {
            "icl": {"min": 4406218.096922978, "max": 13657728.462706178,
                    "mean": 11818578.09172452, "count": 12.0,
                    "p50": 13609328.512332194, "p95": 13657679.245766114,
                    "p99": 13657728.462706178, "distinct_estimate": 12.0,
                    "partial": False},
            "zen3": {"min": 6933653.331269413, "max": 39618750.37640449,
                     "mean": 27831373.008330356, "count": 5.0,
                     "p50": 34825670.77422689, "p95": 39618750.37640449,
                     "p99": 39618750.37640449, "distinct_estimate": 5.0,
                     "partial": False},
        }
        for host in hosts:  # HW-event measurements are vendor-specific
            metric = last[host]["metrics"][-1]
            assert sdb.compare_metric(
                metric["measurement"], metric["fields"][0]) == {host: want[host]}
            docs = sdb.observations(host)
            assert len(docs) == 3
            for doc in docs:
                for fields in doc["sketches"].values():
                    for sk in fields.values():
                        assert "sparse" in sk["hll"]
                        assert len(json.dumps(sk["hll"])) < 300
