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
commit's applies touched; and the unbuffered path, for what a tick reads
off the machine's timeline (since PR 20 one /proc snapshot per instant: no
scalar ``integrate``, at most five batched reads per ``Pmcd.fetch``).

Gates: the counts (= 1, = 0, ≤ touched; = 0, ≤ 5) and two absolute figures,
*calibrated*: durable points/s, and what durable adds over unbuffered per
record applied, ``(durable − unbuffered wall) / records``.  The ratio
``durable ÷ unbuffered`` points/s is still reported beside its 0.3 floor,
but no longer asserted: a ratio moves when the term both modes share
shrinks (the engine write did: 0.43 → 0.36 here with nothing
durable-specific changed, one run in six under the floor; PR 20 shrank the
fetch both modes share, and the calibrated unbuffered points/s is recorded
beside ``PARENT_UNBUFFERED`` so the fall reads as what it is).  This sandbox runs the same
code 1.2–1.8× slower for minutes at a time (the parent's own tree misses
its own committed raw figures by that much on a rerun), so each stretch of
wall time is scaled by ``benchmarks/e2e/run.py``'s in-run ``reference()``
— what it would have taken with the reference at its nominal speed —
and the budgets are the parent commit's figures measured that way by
this file (``PARENT``), each allowed to worsen by ``BOUND``, the bound
``BENCHMARK.json`` puts on ``ingest_points_per_s``.  Results land in
``benchmarks/results/BENCH_ingest.json``.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path
from unittest import mock

from _helpers import emit_json, run_metadata

from repro.core.daemon import PMoVE
from repro.db.influx import Point
from repro.machine import SimulatedMachine, Timeline, get_preset
from repro.pcp import CommitLog, Pmcd, RollupMaintainerConsumer

WINDOWS = 150
COUNTED_WINDOWS = 40
REPEATS = 3
SEED = 11
HOST = "icl"
FREQ_HZ = 2.0
WINDOW_S = 2.0
DURABLE_FLOOR = 0.3  # × unbuffered points/s: reported, not asserted
CALIBRATE_EVERY = 10  # windows between two reference() readings
#: The parent commit (PR 15) under this file, calibrated, best of REPEATS,
#: median of three runs: durable points/s and durable-minus-unbuffered µs
#: per record applied, per shard count.
PARENT = {
    "1_shard": {"durable_points_per_s": 49_900.0, "durable_extra_us_per_record": 65.0},
    "4_shard": {"durable_points_per_s": 49_300.0, "durable_extra_us_per_record": 63.9},
}
BOUND = 0.25
#: Unbuffered points/s of PR 20's parent under this file, measured the same
#: way.  Recorded beside this run's figure, not gated: ``BENCHMARK.json``'s
#: ``live_unbuffered`` is where an ingest regression is refused.
PARENT_UNBUFFERED = {"1_shard": 144_300.0, "4_shard": 141_600.0}
RATIO_NOTE = (
    "durable_over_unbuffered falls when the term both modes share shrinks "
    "(PR 20: the fetch); reported beside its floor, not asserted -- the "
    "gates are the counts and the calibrated absolute figures")
MAX_BATCHED_READS_PER_TICK = 5

_spec = importlib.util.spec_from_file_location(
    "pmove_e2e_run", Path(__file__).parent / "e2e" / "run.py")
_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_e2e)

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
    wall = calibrated = stretch = 0.0
    inserted = expected = 0
    ref = _e2e.reference()
    for w in range(windows):
        t0 = machine.clock.now()
        machine.advance(WINDOW_S)
        start = time.perf_counter()
        stats = sampler.run(SCENARIO_A_METRICS, FREQ_HZ, t0, t0 + WINDOW_S,
                            tag=f"bench-{SEED}", mode=mode, pipeline=pipeline)
        stretch += time.perf_counter() - start
        if w % CALIBRATE_EVERY == CALIBRATE_EVERY - 1 or w == windows - 1:
            ref, before = _e2e.reference(), ref
            wall += stretch
            calibrated += stretch * _e2e.calibration(before, ref)
            stretch = 0.0
        inserted += stats.inserted_points
        expected += stats.expected_points
        if mode == "durable":
            assert stats.backlog_records == 0 and stats.parked_records == 0
            assert stats.applied_records == stats.produced_records
    assert daemon.influx.stats("pmove")["points_written"] == inserted
    out = {"wall_s": wall, "calibrated_wall_s": calibrated,
           "inserted_points": inserted, "expected_points": expected,
           "points_per_s": inserted / wall,
           "calibrated_points_per_s": inserted / calibrated}
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


def _count_tick_reads() -> dict:
    """The unbuffered path under spies: what one ``Pmcd.fetch`` reads off
    the machine's timeline.  Seed-exact counts, no timing."""
    calls = {"integrate": 0, "integrate_batch": 0, "fetch": 0}

    def spy(cls, name):
        real = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)

        return mock.patch.object(cls, name, counting)

    with spy(Timeline, "integrate"), spy(Timeline, "integrate_batch"), spy(Pmcd, "fetch"):
        _drive("unbuffered", 0, COUNTED_WINDOWS)
    return {
        "windows": COUNTED_WINDOWS,
        "ticks_fetched": calls["fetch"],
        "scalar_reads": calls["integrate"],
        "batched_reads": calls["integrate_batch"],
        "batched_reads_per_tick": calls["integrate_batch"] / calls["fetch"],
    }


def _within_budget(got: dict, parent: dict) -> bool:
    return (
        got["durable_points_per_s"] >= (1 - BOUND) * parent["durable_points_per_s"]
        and got["durable_extra_us_per_record"]
        <= (1 + BOUND) * parent["durable_extra_us_per_record"]
    )


def test_ingest_modes_like_for_like():
    modes: dict[str, dict] = {}
    ratios: dict[str, float] = {}
    absolute: dict[str, dict] = {}
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
        # least disturbed repeat of each mode, at the reference's nominal speed
        cal = {mode: min(r[mode]["calibrated_wall_s"] for r in repeats)
               for mode in ("unbuffered", "durable")}
        durable = modes[f"durable_{n}_shard"]
        absolute[f"{n}_shard"] = {
            "unbuffered_points_per_s":
                modes[f"unbuffered_{n}_shard"]["inserted_points"] / cal["unbuffered"],
            "durable_points_per_s": durable["inserted_points"] / cal["durable"],
            "durable_extra_us_per_record": 1e6 * (
                cal["durable"] - cal["unbuffered"]) / durable["records_applied"],
        }
    counts = {f"{shards or 1}_shard": _count(shards) for shards in (0, 4)}
    tick = _count_tick_reads()
    count_gates = all(
        c["decodes_per_record"] == 1.0
        and c["empty_partition_polls"] == 0
        and c["commits_copying_more_than_touched"] == 0
        for c in counts.values()
    ) and tick["scalar_reads"] == 0 and (
        tick["batched_reads"] <= MAX_BATCHED_READS_PER_TICK * tick["ticks_fetched"])
    payload = {
        "workload": {
            "host": HOST, "metrics": SCENARIO_A_METRICS, "freq_hz": FREQ_HZ,
            "window_s": WINDOW_S, "windows": WINDOWS, "repeats": REPEATS,
            "engine": "defaults (rollup tiers and sketches on)",
        },
        "modes": modes,
        "durable_counts": counts,
        "unbuffered_tick_reads": tick,
        "durable_over_unbuffered": ratios,
        "durable_over_unbuffered_note": RATIO_NOTE,
        "calibrated": absolute,
        "gate": {
            "durable_floor": DURABLE_FLOOR,
            "ratio_above_floor": min(ratios.values()) >= DURABLE_FLOOR,
            "parent_calibrated": PARENT,
            "parent_unbuffered_points_per_s": PARENT_UNBUFFERED,
            "max_batched_reads_per_tick": MAX_BATCHED_READS_PER_TICK,
            "bound": BOUND,
            "passed": count_gates
            and all(_within_budget(absolute[n], PARENT[n]) for n in PARENT),
        },
        "run": run_metadata(WINDOWS, SEED),
    }
    emit_json("BENCH_ingest.json", payload)

    for name, c in counts.items():
        assert c["decodes_per_record"] == 1.0, (name, c)
        assert c["empty_partition_polls"] == 0, (name, c)
        assert c["commits_copying_more_than_touched"] == 0, (name, c)
    assert tick["scalar_reads"] == 0, tick
    assert tick["batched_reads"] <= MAX_BATCHED_READS_PER_TICK * tick["ticks_fetched"], tick
    for name, parent in PARENT.items():
        assert _within_budget(absolute[name], parent), (name, absolute[name], parent)
