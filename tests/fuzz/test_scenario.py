"""The scenario grammar: validation, serialization, generation, mutation."""

import pytest

from repro.fuzz import (
    MUTATORS,
    FaultSpec,
    LogFaultSpec,
    NodeFaultSpec,
    Scenario,
    ScenarioError,
    ShardCrashSpec,
    StreamSpec,
    TenantSpec,
    generate,
    mutate,
    spawn,
)
from repro.fuzz.scenario import ClusterSpec


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
    on throwaway schedules, so mutation chains re-draw instead of
    crashing the runner."""

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
        assert again.key() == sc.key()

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


class TestMutation:
    def test_chain_is_deterministic_under_label(self):
        parent = generate(7)
        a = mutate(parent, spawn(5, "m"), n=3)
        b = mutate(parent, spawn(5, "m"), n=3)
        assert a == b

    def test_children_always_validate(self):
        rng = spawn(11, "test-mutation")
        parents = [generate(s) for s in range(8)]
        for i in range(200):
            child, applied = mutate(parents[i % 8], rng, n=int(rng.integers(1, 4)))
            child.validate()

    def test_operator_names_are_stable(self):
        names = {f.__name__ for f in MUTATORS}
        assert "crash_consumer_mid_replay" in names
        assert "make_durable" in names
        assert len(MUTATORS) >= 12
