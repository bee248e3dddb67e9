"""The counter document the fuzzer harvests is ``PMoVE.health()``: plain
JSON, without the process-global ``fuzz`` section, and every counter name
``harvest`` maps to a point is one a component produces (a name nobody
produces is a point that can never fire, silently)."""

import dataclasses
import json

import pytest

from repro.fuzz import Scenario, execute
from repro.fuzz.coverage import _LOG_COUNTERS, _SAMPLER_POINTS
from repro.fuzz.scenario import LogFaultSpec
from repro.pcp.sampler import SamplingStats


@pytest.fixture(scope="module")
def run():
    return execute(
        Scenario(seed=1, mode="durable", duration_s=3.0, freq_hz=1.0),
        check_oracles=False,
    )


def test_every_counter_harvest_maps_is_produced(run):
    assert set(_SAMPLER_POINTS) <= {f.name for f in dataclasses.fields(SamplingStats)}
    groups = run.counters["ingest"]["groups"]
    assert set(groups) == {"db-writer", "rollup", "anomaly"}
    for name, counters in groups.items():
        assert set(_LOG_COUNTERS) <= set(counters), name


def test_the_document_is_plain_json_without_the_fuzz_section(run):
    assert run.error is None
    assert "fuzz" not in run.counters
    assert json.loads(json.dumps(run.counters))["ingest"]["groups"]


def test_a_mid_batch_consumer_crash_is_a_coverage_point():
    """The db-writer dies between two records of a polled batch: the run
    counts the interruption and its coverage shows it."""
    sc = Scenario(seed=1, mode="durable", duration_s=6.0, freq_hz=2.0,
                  log_faults=(LogFaultSpec("consumer-crash", 0.525, 1.525),))
    run = execute(sc)
    assert run.violations == []
    assert "log:db-writer:interruptions" in run.coverage
    assert run.counters["ingest"]["groups"]["db-writer"]["interruptions"] >= 1
