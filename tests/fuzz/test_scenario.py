"""The scenario grammar: validation, serialization, generation."""

import pytest

from repro.fuzz import (
    FaultSpec,
    LogFaultSpec,
    NodeFaultSpec,
    Scenario,
    ScenarioError,
    ShardCrashSpec,
    StreamSpec,
    TenantSpec,
    generate,
)
from repro.fuzz.scenario import AGGS, MODES, ClusterSpec


class TestValidation:
    def test_defaults_are_valid(self):
        Scenario().validate()

    @pytest.mark.parametrize("kw", [
        {"preset": "nope"},
        {"duration_s": 1.0},
        {"freq_hz": 0.1},
        {"mode": "telepathic"},
        {"shards": 1},
        {"queue_capacity": 1},
        {"queue_policy": "yolo"},
        {"db_writers": 9},
    ])
    def test_bad_scalars_rejected(self, kw):
        with pytest.raises(ScenarioError):
            Scenario(**kw).validate()

    def test_log_faults_require_durable(self):
        lf = LogFaultSpec("truncate", 2.0)
        with pytest.raises(ScenarioError, match="durable"):
            Scenario(mode="buffered", log_faults=(lf,)).validate()
        Scenario(mode="durable", log_faults=(lf,)).validate()

    def test_consumer_index_bounded_by_writer_count(self):
        lf = LogFaultSpec("consumer-crash", 1.0, 3.0, "db-writer", 2)
        with pytest.raises(ScenarioError, match="out of range"):
            Scenario(mode="durable", db_writers=2, log_faults=(lf,)).validate()
        Scenario(mode="durable", db_writers=3, log_faults=(lf,)).validate()

    def test_tenants_and_stream_are_coupled(self):
        with pytest.raises(ScenarioError, match="dead weight"):
            Scenario(tenants=(TenantSpec("a"),)).validate()
        with pytest.raises(ScenarioError, match="needs at least one tenant"):
            Scenario(stream=StreamSpec()).validate()

    def test_federation_needs_observation(self):
        with pytest.raises(ScenarioError, match="observation"):
            Scenario(federate=True).validate()
        with pytest.raises(ScenarioError, match="federate"):
            Scenario(observe=True, wan_outage=(0.0, 2.0)).validate()


class TestOverlapValidation:
    """The fault sets' loud inject-time checks, run at the grammar level
    on throwaway schedules, so a bad window is a grammar error instead of
    a crash of the runner."""

    def test_overlapping_consumer_crashes_rejected(self):
        a = LogFaultSpec("consumer-crash", 1.0, 4.0, "db-writer", 0)
        b = LogFaultSpec("consumer-crash", 3.0, 6.0, "db-writer", 0)
        with pytest.raises(ScenarioError, match="overlapping ConsumerCrash"):
            Scenario(mode="durable", log_faults=(a, b)).validate()
        # Different consumer of the same group is a different schedule.
        c = LogFaultSpec("consumer-crash", 3.0, 6.0, "db-writer", 1)
        Scenario(mode="durable", db_writers=2, log_faults=(a, c)).validate()
        # Back-to-back ([1,4) then [4,6)) is not an overlap.
        d = LogFaultSpec("consumer-crash", 4.0, 6.0, "db-writer", 0)
        Scenario(mode="durable", log_faults=(a, d)).validate()

    def test_duplicate_truncations_rejected(self):
        t = LogFaultSpec("truncate", 2.0)
        with pytest.raises(ScenarioError, match="duplicate truncation"):
            Scenario(mode="durable", log_faults=(t, t)).validate()
        Scenario(
            mode="durable",
            log_faults=(t, LogFaultSpec("truncate", 2.5)),
        ).validate()

    def test_overlapping_shard_crashes_rejected(self):
        a = ShardCrashSpec(0, 1.0, float("inf"))
        b = ShardCrashSpec(0, 5.0, 9.0)
        with pytest.raises(ScenarioError, match="overlapping NodeCrash"):
            Scenario(shards=2, shard_crashes=(a, b)).validate()
        Scenario(
            shards=2, shard_crashes=(a, ShardCrashSpec(1, 5.0, 9.0))
        ).validate()

    def test_overlapping_same_kind_node_faults_rejected(self):
        a = NodeFaultSpec("crash", 0, 1.0, 5.0)
        b = NodeFaultSpec("crash", 0, 4.0, 8.0)
        with pytest.raises(ScenarioError, match="overlapping NodeCrash"):
            ClusterSpec(node_faults=(a, b)).validate()
        # Different kind may layer (hang during crash recovery etc).
        ClusterSpec(
            node_faults=(a, NodeFaultSpec("hang", 0, 4.0, 8.0, 2.0))
        ).validate()
        ClusterSpec(
            node_faults=(a, NodeFaultSpec("crash", 1, 4.0, 8.0))
        ).validate()


class TestSerialization:
    @pytest.mark.parametrize("seed", [0, 3, 17, 91])
    def test_json_round_trip_is_lossless(self, seed):
        sc = generate(seed)
        again = Scenario.from_json(sc.to_json())
        assert again == sc
        assert again.to_json() == sc.to_json()

    def test_infinite_windows_survive_json(self):
        sc = Scenario(
            shards=2, shard_crashes=(ShardCrashSpec(1, 2.0, float("inf")),)
        ).validate()
        again = Scenario.from_json(sc.to_json())
        assert again.shard_crashes[0].t1 == float("inf")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            Scenario.from_dict({"seed": 1, "warp_drive": True})


class TestGeneration:
    def test_pure_function_of_seed(self):
        assert generate(123) == generate(123)
        assert generate(123) != generate(124)

    def test_generated_scenarios_always_validate(self):
        for seed in range(80):
            generate(seed).validate()

    def test_preset_restriction(self):
        for seed in range(20):
            assert generate(seed, presets=("skx",)).preset == "skx"

    def test_draws_reach_every_state_the_grammar_offers(self):
        """A campaign's only scenarios are these draws, so a shard count,
        an ingest mode or an aggregate no draw has is never run — nor is a
        percentile other than 95, nor a consumer that crashes again while
        it replays from its checkpoint (a second crash of the same member
        within 0.5 s of the first one's end)."""
        draws = [generate(seed) for seed in range(300)]
        assert {sc.shards for sc in draws} == {0, 2, 3, 4}
        assert {sc.mode for sc in draws} == set(MODES)
        streams = [sc.stream for sc in draws if sc.stream is not None]
        assert {st.agg for st in streams} == set(AGGS)
        assert any(st.agg == "PERCENTILE" and st.agg_arg != 95.0 for st in streams)

        def crashed_mid_replay(sc):
            crashes = [f for f in sc.log_faults if f.kind == "consumer-crash"]
            return any(
                (a.group, a.consumer) == (b.group, b.consumer)
                and 0.0 <= b.t0 - a.t1 <= 0.5
                for a in crashes for b in crashes)

        assert any(crashed_mid_replay(sc) for sc in draws)

