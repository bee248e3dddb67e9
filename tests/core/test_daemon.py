"""Tests for the P-MoVE daemon: attachment, scenarios A and B, recall."""

import pytest

from repro.core import PMoVE
from repro.machine import SimulatedMachine, csl, icl, zen3
from repro.pmu import UnsupportedEventError
from repro.workloads import build_kernel

EVENTS_INTEL = [
    "SCALAR_DOUBLE_INSTRUCTIONS",
    "AVX512_DOUBLE_INSTRUCTIONS",
    "TOTAL_MEMORY_INSTRUCTIONS",
    "RAPL_POWER_PACKAGE",
]


@pytest.fixture()
def daemon():
    d = PMoVE(seed=5)
    d.attach_target(SimulatedMachine(icl(), seed=5))
    return d


class TestAttachment:
    def test_env_step0(self):
        d = PMoVE(env={"GRAFANA_TOKEN": "secret"})
        assert d.env["GRAFANA_TOKEN"] == "secret"
        assert d.grafana.api_token == "secret"
        assert d.env["INFLUX_HOST"]  # defaults preserved

    def test_kb_persisted_on_attach(self, daemon):
        assert daemon.mongo.collection("pmove", "kb").count_documents({"hostname": "icl"}) == 1
        assert daemon.target("icl").kb.config["PMOVE_DB"] == "pmove"

    def test_double_attach_rejected(self, daemon):
        with pytest.raises(ValueError, match="already attached"):
            daemon.attach_target(SimulatedMachine(icl()))

    def test_unknown_target(self, daemon):
        with pytest.raises(KeyError, match="not attached"):
            daemon.target("skx")

    def test_gpu_target_gets_nvidia_agent(self):
        from repro.machine import gpu_node

        d = PMoVE()
        d.attach_target(SimulatedMachine(gpu_node()))
        t = d.target("cn1")
        assert any(a.name == "pmdanvidia" for a in t.pmcd.agents)
        assert len(t.gpus) == 1


class TestHealth:
    def test_health_before_any_run(self, daemon):
        h = daemon.health()
        assert h["active_faults"] == []
        assert h["writes"] == {"accepted": 0, "rejected": 0}
        assert h["targets"]["icl"]["last_run"] is None
        assert h["targets"]["icl"]["observations"] == 0

    def test_health_after_scenario_a(self, daemon):
        daemon.scenario_a("icl", duration_s=5.0, freq_hz=1.0)
        h = daemon.health()
        assert h["writes"]["accepted"] > 0
        assert h["writes"]["rejected"] == 0
        last = h["targets"]["icl"]["last_run"]
        assert last["mode"] == "unbuffered"
        assert last["inserted_points"] > 0

    def test_inject_service_fault_surfaces(self, daemon):
        from repro.faults import DbOutage

        daemon.inject_service_fault(DbOutage(t0=1e6, t1=2e6))  # far future
        h = daemon.health()
        assert len(h["active_faults"]) == 1
        assert "DbOutage" in h["active_faults"][0]
        # Outage window not reached: sampling is unaffected.
        stats, _ = daemon.scenario_a("icl", duration_s=5.0, freq_hz=1.0)
        assert stats.inserted_points > 0

    def test_an_empty_fault_set_handed_in_is_the_one_consulted(self):
        from repro.faults import DbOutage, ServiceFaultSet

        faults = ServiceFaultSet()
        d = PMoVE(seed=5, service_faults=faults)
        assert d.service_faults is faults
        d.attach_target(SimulatedMachine(icl(), seed=5))
        faults.inject(DbOutage(t0=0.0, t1=1e6))
        d.scenario_a("icl", duration_s=3.0, freq_hz=1.0)
        assert d.health()["writes"]["accepted"] == 0
        assert d.health()["writes"]["rejected"] > 0


class TestScenarioA:
    def test_dashboard_before_data(self, daemon):
        stats, uid = daemon.scenario_a("icl", duration_s=5.0, freq_hz=1.0)
        assert uid in daemon.grafana.dashboards()
        assert stats.inserted_points > 0

    def test_data_lands_in_influx(self, daemon):
        daemon.scenario_a("icl", duration_s=4.0, freq_hz=2.0)
        pts = daemon.influx.points("pmove", "kernel_all_load", tags={"tag": "sysstate-icl"})
        assert len(pts) >= 6

    def test_panel_renders(self, daemon):
        _, uid = daemon.scenario_a("icl", duration_s=3.0)
        text = daemon.grafana.render_panel_text(uid, 1)
        assert ":" in text

    def test_unknown_metric_rejected(self, daemon):
        with pytest.raises(ValueError, match="not available"):
            daemon.scenario_a("icl", 1.0, metrics=["nvidia.power"])


class TestScenarioB:
    def test_full_flow(self, daemon):
        desc = build_kernel("triad", 4_000_000, iterations=400)
        obs, run = daemon.scenario_b("icl", desc, EVENTS_INTEL, freq_hz=8, n_threads=8)
        assert obs["@type"] == "ObservationInterface"
        assert obs["pinning"] == "balanced"
        assert len(obs["affinity"]) == 8
        assert obs["queries"]
        assert "taskset" in obs["report"]["pinning_script"]
        # Observation appended to the KB and persisted.
        kb = daemon.target("icl").kb
        assert obs in kb.entries_of_type("ObservationInterface")
        assert kb.entries_of_type("ProcessInterface")

    def test_recall_roundtrip(self, daemon):
        desc = build_kernel("ddot", 2048, iterations=3_000_000)
        obs, run = daemon.scenario_b("icl", desc, EVENTS_INTEL, freq_hz=16, n_threads=4)
        res = daemon.recall_observation("icl", obs)
        meas = "perfevent_hwcounters_FP_ARITH_512B_PACKED_DOUBLE_value"
        assert meas in res
        # The ddot kernel is AVX512 FMA: its event series must be nonzero.
        vals = [v for v in res[meas].column("_cpu0") if v]
        assert vals

    def test_sampled_counts_match_ground_truth(self, daemon):
        desc = build_kernel("triad", 4_000_000, iterations=800)
        obs, run = daemon.scenario_b(
            "icl", desc, ["TOTAL_MEMORY_INSTRUCTIONS"], freq_hz=8, n_threads=8
        )
        res = daemon.recall_observation("icl", obs)
        total = 0.0
        for m in ("perfevent_hwcounters_MEM_INST_RETIRED_ALL_LOADS_value",
                  "perfevent_hwcounters_MEM_INST_RETIRED_ALL_STORES_value"):
            rs = res[m]
            for _, row in rs.rows:
                total += sum(v for v in row if v)
        truth = run.ground_truth("loads") + run.ground_truth("stores")
        # Sampling truncates the tail window; within ~20 %.
        assert total == pytest.approx(truth, rel=0.2)

    def test_zen3_unsupported_events_skipped(self):
        d = PMoVE(seed=2)
        d.attach_target(SimulatedMachine(zen3(), seed=2))
        desc = build_kernel("triad", 2_000_000, iterations=400, isa=__import__("repro.machine", fromlist=["ISA"]).ISA.AVX2)
        obs, _ = d.scenario_b("zen3", desc, EVENTS_INTEL, freq_hz=8, n_threads=16)
        assert "AVX512_DOUBLE_INSTRUCTIONS" in obs["report"]["skipped_events"]
        assert "SCALAR_DOUBLE_INSTRUCTIONS" in obs["report"]["skipped_events"]

    def test_all_events_unsupported_raises(self, daemon):
        with pytest.raises(UnsupportedEventError):
            daemon.resolve_events("icl", ["L3_HIT"])  # Intel: Not Supported

    def test_pinning_strategy_respected(self, daemon):
        desc = build_kernel("sum", 1_000_000, iterations=100)
        obs, run = daemon.scenario_b(
            "icl", desc, ["TOTAL_MEMORY_INSTRUCTIONS"], n_threads=4, pinning="compact"
        )
        assert obs["pinning"] == "compact"
        assert obs["affinity"] == [0, 1, 8, 9]


class TestRecallPlans:
    @staticmethod
    def _count_parses(monkeypatch):
        """Every statement parse, cached or not, as it happens."""
        from repro.db import influxql

        parsed = []
        real = influxql._parse_query_cached
        monkeypatch.setattr(influxql, "_parse_query_cached",
                            lambda text: parsed.append(text) or real(text))
        return parsed

    def test_a_second_recall_parses_nothing(self, daemon, monkeypatch):
        desc = build_kernel("triad", 2_000_000, iterations=200)
        obs, _ = daemon.scenario_b("icl", desc, EVENTS_INTEL, freq_hz=8, n_threads=4)
        parsed = self._count_parses(monkeypatch)
        first = daemon.recall_observation("icl", obs)
        assert parsed == obs["queries"]
        del parsed[:]
        again = daemon.recall_observation("icl", obs)
        assert parsed == []
        assert {m: (rs.columns, list(rs.rows)) for m, rs in again.items()} == {
            m: (rs.columns, list(rs.rows)) for m, rs in first.items()}

    def test_changed_statement_texts_are_parsed_again(self, daemon, monkeypatch):
        desc = build_kernel("triad", 2_000_000, iterations=200)
        obs, _ = daemon.scenario_b("icl", desc, EVENTS_INTEL, freq_hz=8, n_threads=4)
        daemon.recall_observation("icl", obs)
        parsed = self._count_parses(monkeypatch)
        obs["queries"][0] += " LIMIT 2"
        res = daemon.recall_observation("icl", obs)
        assert parsed == obs["queries"]
        assert len(res[obs["metrics"][0]["measurement"]]) == 2


class TestHostileTags:
    def test_a_tag_with_a_double_quote_is_recalled(self, daemon):
        """It used to be sampled and stored under a statement the parser
        refused, so its recall raised."""
        desc = build_kernel("triad", 2_000_000, iterations=200)
        obs, _ = daemon.scenario_b("icl", desc, ["TOTAL_MEMORY_INSTRUCTIONS"],
                                   freq_hz=8, n_threads=4, tag='a"b')
        assert all(q.endswith("""WHERE tag='a"b'""") for q in obs["queries"])
        res = daemon.recall_observation("icl", obs)
        assert res and all(len(rs) > 0 for rs in res.values())

    @pytest.mark.parametrize("tag", ["x AND y", "a\"b'c"])
    def test_a_tag_no_statement_carries_is_refused_before_sampling(self, daemon, tag):
        from repro.db.influx import InfluxError

        t = daemon.target("icl")
        before = (t.machine.clock.now(), len(t.kb.entries), t.observation_count,
                  daemon.influx.measurements(daemon.database))
        desc = build_kernel("triad", 2_000_000, iterations=200)
        with pytest.raises(InfluxError):
            daemon.scenario_b("icl", desc, ["TOTAL_MEMORY_INSTRUCTIONS"],
                              freq_hz=8, n_threads=4, tag=tag)
        assert (t.machine.clock.now(), len(t.kb.entries), t.observation_count,
                daemon.influx.measurements(daemon.database)) == before


class TestCompareTargets:
    def test_cross_machine_dashboard(self):
        d = PMoVE(seed=1)
        d.attach_target(SimulatedMachine(icl(), seed=1))
        d.attach_target(SimulatedMachine(csl(), seed=1))
        uid = d.compare_targets("socket", metric="RAPL_ENERGY_PKG")
        dash = d.grafana.get(uid)
        assert len(dash.panels[0].targets) == 2  # one socket per machine


class TestShardedBackend:
    """PMOVE_SHARDS config switch: same daemon, sharded storage."""

    def test_default_is_single_engine(self):
        from repro.db.influx import InfluxDB

        assert isinstance(PMoVE().influx, InfluxDB)

    def test_scenario_a_matches_single_engine(self):
        from repro.db.sharded import ShardedInfluxDB

        results = {}
        for env in (None, {"PMOVE_SHARDS": "3"}):
            d = PMoVE(env=env, seed=5)
            d.attach_target(SimulatedMachine(icl(), seed=5))
            stats, uid = d.scenario_a("icl", duration_s=4.0, freq_hz=2.0)
            key = "sharded" if env else "single"
            results[key] = (
                stats.inserted_points,
                d.influx.points(d.database, "kernel_percpu_cpu_idle"),
                d.grafana.render_dashboard_text(uid),
            )
            if env:
                assert isinstance(d.influx, ShardedInfluxDB)
                assert "shards" in d.health()
        assert results["sharded"] == results["single"]

    def test_superdb_shards_param(self):
        from repro.core import SuperDB
        from repro.db.sharded import ShardedInfluxDB

        assert isinstance(SuperDB(shards=3).influx, ShardedInfluxDB)
        sdb = SuperDB(shards=3)
        assert sdb.influx.databases() == ["superdb"]
