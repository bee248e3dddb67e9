"""Ingest perf: what each sampling mode costs on identical traffic.

ROADMAP item 1 asks for a like-for-like comparison of the three ingest
modes with the write path as it really runs — ``BENCH_db.json``'s ingest
figure is a bare ``write_many`` with no rollup tiers and no sketches.  Here
the same seeded Scenario-A windows (the daemon's six SWTelemetry metrics,
2 Hz, 2 s windows, the ``icl`` preset) go through ``unbuffered``,
``buffered`` and ``durable`` sampling on a plain engine and on a 4-shard
router, all at engine defaults: rollup tiers and sketches **on**.

Two passes per configuration.  The timed pass reports points/s and, for
durable, wall µs per record applied; it is repeated, the least disturbed
repeat of each mode is reported and the ratio is the median over repeats
of modes run back to back.  The counted pass runs the durable path under
spies and reports what it did per record: payload decodes, polls that
returned nothing, and rollup cells copied per commit against cells the
commit's applies touched.  The gates are the three counts (= 1, = 0,
≤ touched) and one ratio, ``durable ≥ 0.3 × unbuffered`` points/s on the
same windows — no gate on an absolute time.  Results land in
``benchmarks/results/BENCH_ingest.json``.
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

from _helpers import emit_json, run_metadata

from repro.core.daemon import PMoVE
from repro.db.influx import Point
from repro.machine import SimulatedMachine, get_preset
from repro.pcp import CommitLog, RollupMaintainerConsumer

WINDOWS = 150
COUNTED_WINDOWS = 40
REPEATS = 3
SEED = 11
HOST = "icl"
FREQ_HZ = 2.0
WINDOW_S = 2.0
DURABLE_FLOOR = 0.3  # × unbuffered points/s; parent 0.14

SCENARIO_A_METRICS = [
    "kernel.percpu.cpu.idle", "kernel.percpu.cpu.user", "kernel.all.load",
    "kernel.all.pswitch", "mem.util.used", "mem.numa.alloc.hit",
]


def _drive(mode: str, shards: int, windows: int) -> dict:
    """``windows`` sampling windows through one fresh daemon; the wall time
    is the sampler's alone (the machine advances off the clock)."""
    daemon = PMoVE(env={"PMOVE_SHARDS": str(shards)} if shards else None, seed=SEED)
    machine = SimulatedMachine(get_preset(HOST), seed=SEED)
    daemon.attach_target(machine)
    pipeline = daemon.enable_durable_ingest() if mode == "durable" else None
    sampler = daemon.target(HOST).sampler
    wall = 0.0
    inserted = expected = 0
    for _ in range(windows):
        t0 = machine.clock.now()
        machine.advance(WINDOW_S)
        start = time.perf_counter()
        stats = sampler.run(SCENARIO_A_METRICS, FREQ_HZ, t0, t0 + WINDOW_S,
                            tag=f"bench-{SEED}", mode=mode, pipeline=pipeline)
        wall += time.perf_counter() - start
        inserted += stats.inserted_points
        expected += stats.expected_points
        if mode == "durable":
            assert stats.backlog_records == 0 and stats.parked_records == 0
            assert stats.applied_records == stats.produced_records
    assert daemon.influx.stats("pmove")["points_written"] == inserted
    out = {"wall_s": wall, "inserted_points": inserted,
           "expected_points": expected, "points_per_s": inserted / wall}
    if pipeline is not None:
        applied = pipeline.flat_counters()["db-writer.applied_records"]
        out["records_applied"] = applied
        out["wall_us_per_record_applied"] = 1e6 * wall / applied
    return out


def _count(shards: int) -> dict:
    """The durable path under spies: seed-exact counts, no timing."""
    decodes: list[str] = []
    polls: list[int] = []
    commits: list[tuple[int, int, int]] = []  # (copied, touched, held)
    touched: dict[int, set[float]] = {}
    appended: list[int] = []  # lines per record
    real_from_line = Point.from_line.__func__
    real_append = CommitLog.append
    real_poll = CommitLog.poll
    real_load = RollupMaintainerConsumer._load_state
    real_applied = RollupMaintainerConsumer._on_applied
    real_commit = RollupMaintainerConsumer._commit_state

    def from_line(cls, line):
        decodes.append(line)
        return real_from_line(cls, line)

    def append(self, topic, partition, **kw):
        appended.append(len(kw["lines"].splitlines()))
        return real_append(self, topic, partition, **kw)

    def poll(self, group, consumer, tp, max_records):
        records = real_poll(self, group, consumer, tp, max_records)
        polls.append(len(records))
        return records

    def load_state(self, tp, cp):
        touched[id(self)] = set()
        return real_load(self, tp, cp)

    def on_applied(self, rec, pts, t):
        touched[id(self)].update((p.time // self.tier_s) * self.tier_s for p in pts)
        return real_applied(self, rec, pts, t)

    def commit_state(self, tp):
        # cells by identity: one the commit did not rebuild is the same object
        before = dict(self.log.committed(self.group, tp).state or {})
        state = real_commit(self, tp)
        copied = sum(1 for b, cell in state.items() if before.get(b) is not cell)
        commits.append((copied, len(touched[id(self)]), len(state)))
        touched[id(self)] = set()
        return state

    with mock.patch.object(Point, "from_line", classmethod(from_line)), \
            mock.patch.object(CommitLog, "append", append), \
            mock.patch.object(CommitLog, "poll", poll), \
            mock.patch.object(RollupMaintainerConsumer, "_load_state", load_state), \
            mock.patch.object(RollupMaintainerConsumer, "_on_applied", on_applied), \
            mock.patch.object(RollupMaintainerConsumer, "_commit_state", commit_state):
        run = _drive("durable", shards, COUNTED_WINDOWS)
    assert len(appended) == run["records_applied"]
    return {
        "windows": COUNTED_WINDOWS,
        "records": len(appended),
        "decodes_per_record": len(decodes) / sum(appended),
        "polls": len(polls),
        "empty_partition_polls": polls.count(0),
        "rollup_commits": len(commits),
        "cells_copied_per_commit": sum(c for c, _, _ in commits) / len(commits),
        "cells_touched_per_commit": sum(t for _, t, _ in commits) / len(commits),
        "cells_held_at_last_commit": commits[-1][2],
        "commits_copying_more_than_touched": sum(c > t for c, t, _ in commits),
    }


def test_ingest_modes_like_for_like():
    modes: dict[str, dict] = {}
    ratios: dict[str, float] = {}
    for shards in (0, 4):
        # one repeat = the three modes back to back, so the ratio compares
        # runs that saw the machine in the same state
        repeats = [
            {mode: _drive(mode, shards, WINDOWS)
             for mode in ("unbuffered", "buffered", "durable")}
            for _ in range(REPEATS)
        ]
        n = shards or 1
        for mode in ("unbuffered", "buffered", "durable"):
            best = max((r[mode] for r in repeats), key=lambda r: r["points_per_s"])
            best["points_per_s_repeats"] = [r[mode]["points_per_s"] for r in repeats]
            modes[f"{mode}_{n}_shard"] = best
        ratios[f"{n}_shard"] = statistics.median(
            r["durable"]["points_per_s"] / r["unbuffered"]["points_per_s"]
            for r in repeats
        )
    counts = {f"{shards or 1}_shard": _count(shards) for shards in (0, 4)}
    count_gates = all(
        c["decodes_per_record"] == 1.0
        and c["empty_partition_polls"] == 0
        and c["commits_copying_more_than_touched"] == 0
        for c in counts.values()
    )
    payload = {
        "workload": {
            "host": HOST, "metrics": SCENARIO_A_METRICS, "freq_hz": FREQ_HZ,
            "window_s": WINDOW_S, "windows": WINDOWS, "repeats": REPEATS,
            "engine": "defaults (rollup tiers and sketches on)",
        },
        "modes": modes,
        "durable_counts": counts,
        "durable_over_unbuffered": ratios,
        "gate": {
            "durable_floor": DURABLE_FLOOR,
            "passed": count_gates and min(ratios.values()) >= DURABLE_FLOOR,
        },
        "run": run_metadata(WINDOWS, SEED),
    }
    emit_json("BENCH_ingest.json", payload)

    for name, c in counts.items():
        assert c["decodes_per_record"] == 1.0, (name, c)
        assert c["empty_partition_polls"] == 0, (name, c)
        assert c["commits_copying_more_than_touched"] == 0, (name, c)
    for name, ratio in ratios.items():
        assert ratio >= DURABLE_FLOOR, (
            f"durable ingest at {ratio:.2f}x unbuffered points/s on {name} "
            f"(floor {DURABLE_FLOOR}x)"
        )
