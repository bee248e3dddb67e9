"""Self-check of the benchmark's own claims.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_smoke.py -q

Every workload is run the way the driver runs it, only shorter (about 50
rounds), once untraced and once traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
QUICK = ["--warmup", "10", "--setup-repeats", "1", "--trace-rounds", "50"]

#: per-layer metrics that must read exactly 0 where the layer is bypassed
IDLE = {
    "live_unbuffered": [
        "pcp.commitlog.self_s", "pcp.commitlog.flushes", "pcp.consumers.self_s",
        "db.sharded.route_self_s", "db.sharded.gather_self_s", "serve.self_s",
        "serve.submitted", "pmu.read_calls", "pcp.shipper.offered",
        "core.superdb.report_self_s", "db.mongo.ops"],
    "live_durable_sharded": [
        "serve.self_s", "pmu.read_calls", "pcp.shipper.offered",
        "core.superdb.report_self_s", "db.mongo.ops"],
    "profile_buffered": [
        "viz.grafana.self_s", "serve.self_s", "pcp.commitlog.self_s",
        "pcp.consumers.self_s", "db.sharded.route_self_s"],
    "serve_read_heavy": [
        "pmu.read_calls", "pmu.read_self_s", "machine.self_s",
        "pcp.pmcd.fetch_calls", "pcp.sampler.self_s", "pcp.shipper.self_s",
        "pcp.commitlog.self_s", "core.superdb.report_self_s"],
}
#: ... and the ones that must not, or the workload isolates nothing
BUSY = {
    "live_unbuffered": ["db.influx.write_self_s", "viz.grafana.self_s",
                        "machine.self_s", "pcp.pmcd.fetch_calls"],
    "live_durable_sharded": ["pcp.commitlog.self_s", "pcp.consumers.self_s",
                             "db.sharded.route_self_s", "db.sharded.gather_self_s",
                             "pcp.consumers.records_applied"],
    # (no SUPERDB sync falls inside 50 traced rounds; the untraced run's
    # verify() covers that path)
    "profile_buffered": ["pmu.read_calls", "pcp.shipper.offered", "core.kb.saves",
                         "db.mongo.ops", "db.sketch.add_calls"],
    "serve_read_heavy": ["serve.submitted", "serve.coalesced",
                         "viz.grafana.cache_hits", "db.influx.rollup_served",
                         "db.influx.sketch_served", "db.influx.rollup_fallback"],
}


def run(workload: str, trace: int, *extra: str, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", workload,
         "--seed", str(seed), "--trace", str(trace),
         # untraced: one timed second; traced: 50 rounds, however long
         "--seconds", "60" if trace else "1", *QUICK, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def traced_checksum(workload: str) -> dict:
    trace = json.loads((HERE / "results" / f"trace_{workload}.json").read_text())
    assert trace["rounds"] == 50 and trace["spans"]
    return trace["checksum"]


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    plain, traced = run(name, 0), run(name, 1)
    return name, plain, traced, traced_checksum(name)


def test_emits_exactly_the_manifest_metrics(runs):
    _, (code0, plain), (code1, traced), _ = runs
    assert code0 == 0 and code1 == 0
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_trace_covers_the_wall_and_isolates_the_layers(runs):
    name, _, (_, traced), _ = runs
    value = {k: v["value"] for k, v in traced["metrics"].items()}
    assert value["trace.rounds"] == 50
    assert value["trace.coverage_ratio"] >= 0.95
    assert value["refresh_failed_share"] == 0
    assert [m for m in IDLE[name] if value[m] != 0] == []
    assert [m for m in BUSY[name] if value[m] <= 0] == []


def test_counters_repeat_exactly_for_one_seed(runs):
    name, _, (_, first), checksum = runs
    _, second = run(name, 1)
    exact = [m["name"] for m in MANIFEST["per_layer"]
             if m["unit"] in ("count", "bytes") or m["name"].endswith("_share")]
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact}
    assert traced_checksum(name) == checksum


def test_a_wrong_answer_fails_the_command():
    code, result = run("live_unbuffered", 0, "--inject-wrong-answer")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_front_end_quick_run():
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--quick",
         "--workloads", "live_unbuffered"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert "refresh_p95_ms" in proc.stdout and "db.influx.read" in proc.stdout
