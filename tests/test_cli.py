"""Tests for the pmove command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe", "power9"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_presets(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("skx", "icl", "csl", "zen3"):
            assert name in out

    def test_probe_json(self, capsys):
        code, out, _ = run(capsys, "probe", "icl")
        assert code == 0
        doc = json.loads(out)
        assert doc["hostname"] == "icl"
        assert doc["topology"]["cores_per_socket"] == 8

    def test_probe_raw(self, capsys):
        code, out, _ = run(capsys, "probe", "icl", "--raw")
        assert code == 0
        doc = json.loads(out)
        assert "likwid_topology" in doc

    def test_kb_tree(self, capsys):
        code, out, _ = run(capsys, "kb", "icl", "--depth", "1")
        assert code == 0
        assert "twins" in out
        assert "socket0" in out

    def test_monitor(self, capsys):
        code, out, _ = run(capsys, "monitor", "icl", "--duration", "4", "--freq", "2")
        assert code == 0
        assert "sampled" in out
        assert "kernel_all_load" in out

    def test_sketch_stats(self, capsys):
        code, out, _ = run(capsys, "sketch", "icl", "--duration", "4",
                           "--freq", "2")
        assert code == 0
        assert "sketch state on icl" in out
        assert "kernel_all_load" in out
        assert "total sketch memory" in out
        # Per-measurement rows carry non-trivial digest state.
        row = next(line for line in out.splitlines()
                   if line.startswith("kernel_all_load"))
        assert int(row.split()[3]) > 0  # digest buckets materialized
        # the command's one grouped percentile read per measurement comes
        # back as columns now; the table it prints is the one it printed
        table = {line.split()[0]: line.split()[1:6] for line in out.splitlines()
                 if line.startswith(("kernel_", "mem_"))}
        assert table == {
            "kernel_all_load": ["1", "1", "1", "8", "1"],
            "kernel_all_pswitch": ["1", "1", "1", "8", "1"],
            "kernel_percpu_cpu_idle": ["1", "1", "16", "128", "16"],
            "kernel_percpu_cpu_user": ["1", "1", "16", "128", "16"],
            "mem_numa_alloc_hit": ["1", "1", "1", "8", "1"],
            "mem_util_used": ["1", "1", "1", "8", "1"],
        }
        # 178.5 kB while every HLL was 4 096 dense registers; the ones of this
        # run hold 1–8 occupied registers each, and the footprint says so
        assert "total sketch memory: 14.6 kB across 6 measurements" in out

    def test_monitor_buffered(self, capsys):
        code, out, _ = run(capsys, "monitor", "icl", "--duration", "4",
                           "--freq", "2", "--buffered")
        assert code == 0
        assert "buffered: max queue depth" in out

    def test_chaos_buffered_survives_outage(self, capsys):
        code, out, _ = run(capsys, "chaos", "icl", "--duration", "20",
                           "--freq", "2", "--outage", "5", "9")
        assert code == 0
        assert "DbOutage" in out
        assert "breaker -> closed" in out
        assert "recovered" in out
        assert "rejected" in out

    def test_chaos_unbuffered_shows_damage(self, capsys):
        code, out, _ = run(capsys, "chaos", "icl", "--duration", "20",
                           "--freq", "2", "--outage", "5", "9", "--unbuffered")
        assert code == 0
        assert "(unbuffered)" in out
        # The outage window is gone: loss is well above the healthy ~0%.
        loss = float(out.split("% lost")[0].rsplit("(", 1)[1])
        assert loss > 10.0

    def test_chaos_nan_window_is_an_error(self, capsys):
        """A NaN bound used to install an outage that never fires and
        report a clean run."""
        code, out, err = run(capsys, "chaos", "icl", "--outage", "nan", "4")
        assert code == 1
        assert "error:" in err
        assert "fault(s) installed" not in out

    def test_chaos_default_fault_injected(self, capsys):
        code, out, _ = run(capsys, "chaos", "icl", "--duration", "12")
        assert code == 0
        assert "1 fault(s) installed" in out

    def test_chaos_flaky_and_spike(self, capsys):
        code, out, _ = run(capsys, "chaos", "icl", "--duration", "16",
                           "--flaky", "2", "10", "0.5",
                           "--latency-spike", "4", "8", "10",
                           "--policy", "spill")
        assert code == 0
        assert "FlakyWrites" in out
        assert "InsertLatencySpike" in out

    def test_observe(self, capsys):
        code, out, _ = run(capsys, "observe", "icl", "--kernel", "triad",
                           "--elements", "1000000", "--iterations", "100",
                           "--threads", "4")
        assert code == 0
        assert "auto-generated queries" in out
        assert 'WHERE tag=' in out
        assert "recalled series totals" in out

    def test_observe_zen3_skips_avx512(self, capsys):
        code, out, _ = run(capsys, "observe", "zen3", "--kernel", "sum",
                           "--elements", "100000", "--iterations", "50",
                           "--threads", "4")
        assert code == 0
        assert "skipped" in out

    def test_carm_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "roofs.svg"
        code, out, _ = run(capsys, "carm", "icl", "--threads", "4",
                           "--svg", str(svg))
        assert code == 0
        assert "GFLOP/s" in out
        assert svg.read_text().startswith("<svg")

    def test_bench_stream(self, capsys):
        code, out, _ = run(capsys, "bench", "icl", "stream")
        assert code == 0
        assert "Triad_bandwidth" in out

    def test_cluster(self, capsys):
        code, out, _ = run(capsys, "cluster", "--nodes", "2", "--job-nodes", "2",
                           "--iterations", "30")
        assert code == 0
        assert "GB shipped" in out

    def test_chaos_node_crash_requeues(self, capsys):
        code, out, _ = run(capsys, "chaos", "csl", "--nodes", "3",
                           "--node-crash", "0.5", "40")
        assert code == 0
        assert "NodeCrash" in out
        assert "after 1 requeue(s)" in out
        assert "killed by csln00" in out
        assert "fleet degraded=True" in out
        assert "utilization" in out

    def test_chaos_node_hang_paces(self, capsys):
        code, out, _ = run(capsys, "chaos", "csl", "--nodes", "3",
                           "--node-hang", "0", "1e9", "3")
        assert code == 0
        assert "NodeHang" in out
        assert "after 0 requeue(s)" in out
        assert "fleet degraded=False" in out

    def test_superdb_report(self, capsys):
        code, out, _ = run(capsys, "superdb", "report", "--mode", "agg")
        assert code == 0
        assert "report (agg): 1 observation(s)" in out
        assert "complete=True" in out

    def test_superdb_anti_entropy_heals_partition(self, capsys):
        code, out, _ = run(capsys, "superdb", "anti-entropy", "--mode", "ts",
                           "--wan-outage", "0", "2", "--retry-budget", "1")
        assert code == 0
        assert "1 pending" in out
        assert "anti-entropy pass 2" in out
        assert "complete=True" in out

    def test_shard_stats(self, capsys):
        code, out, _ = run(capsys, "shard", "--shards", "3",
                           "--series", "12", "--points", "20")
        assert code == 0
        assert "ingested 240 points across 3 shard(s)" in out
        assert "shard-0" in out and "shard-2" in out
        assert "scatter COUNT(v) = 240.0 (partial=False)" in out

    def test_shard_kill_degrades_to_partial(self, capsys):
        code, out, _ = run(capsys, "shard", "--shards", "4",
                           "--series", "16", "--points", "10",
                           "--kill-shard", "1")
        assert code == 0
        assert "after killing shard-1:" in out
        assert "down" in out
        assert "partial=True" in out
        assert "partial queries so far: 1" in out

    def test_shard_add_rebalances(self, capsys):
        code, out, _ = run(capsys, "shard", "--shards", "2",
                           "--series", "20", "--points", "5", "--add-shard")
        assert code == 0
        assert "added shard-2" in out
        assert "after rebalance:" in out

    def test_shard_kill_unknown_shard_errors(self, capsys):
        code, _, err = run(capsys, "shard", "--shards", "2",
                           "--kill-shard", "9")
        assert code == 1
        assert "unknown shard" in err

    def test_monitor_durable(self, capsys):
        code, out, _ = run(capsys, "monitor", "icl", "--duration", "4",
                           "--freq", "2", "--durable")
        assert code == 0
        assert "records through the log" in out
        assert "backlog 0" in out

    def test_chaos_durable_full_mix(self, capsys):
        code, out, _ = run(capsys, "chaos", "icl", "--duration", "20",
                           "--freq", "2", "--durable",
                           "--outage", "5", "9",
                           "--log-truncate", "8",
                           "--consumer-crash", "db-writer", "6", "12",
                           "--poison", "1", "--requeue")
        assert code == 0
        assert "durable chaos run on icl" in out
        assert "LogTruncation" in out
        assert "ConsumerCrash" in out
        assert "rebalance(s)" in out
        assert "parse-error" in out  # the poison parked, visibly
        assert "DLQ after requeue" in out

    def test_chaos_dlq_lifecycle(self, capsys):
        code, out, _ = run(capsys, "chaos", "dlq", "--duration", "16")
        assert code == 0
        assert "apply-error" in out
        assert "fault cleared; requeued" in out
        assert "poison stays parked" in out

    def test_serve_multi_tenant(self, capsys):
        code, out, _ = run(capsys, "serve", "icl", "--duration", "6",
                           "--load-duration", "8", "--tenants", "3",
                           "--workers", "4")
        assert code == 0
        assert "3 tenant(s)" in out
        assert "virtual makespan" in out
        assert "single-flight" in out
        assert "tenant-0" in out and "tenant-2" in out
        assert "p99ms" in out
        assert "cache partitions" in out

    def test_serve_aggressor_gets_rejected_not_served(self, capsys):
        code, out, _ = run(capsys, "serve", "icl", "--duration", "6",
                           "--load-duration", "8", "--tenants", "3",
                           "--workers", "4", "--aggressor")
        assert code == 0
        assert "aggressor: tenant-2" in out
        assert "rejections (429-style, explicit):" in out
        assert "rate_limited" in out or "point_quota" in out or "queue_full" in out
