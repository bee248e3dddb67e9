#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the whole twin.

One measured run (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/run.py --workload live_unbuffered --seed 1 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics for ``--seconds`` of timed rounds with no
instrumentation; ``--trace 1`` runs a fixed number of rounds under the
span recorder of ``tracing.py`` and reports the per-layer metrics.

Without ``--workload`` the script is the operator's front end: it runs every
workload ``--repeats`` times in fresh subprocesses plus one traced run,
prints median/min/max, writes ``results/BENCH_e2e.json`` and appends one row
per run to ``results/BENCH_history.jsonl``.

The twin is a single-threaded simulator on virtual time, so load is one
closed-loop caller in one thread: wall time measures what the code costs
per simulated point and per panel, not a scheduler.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

WARMUP_ROUNDS = 50
ORACLE_EVERY = 100
#: untraced rounds timed ahead of the traced ones, for trace.overhead_ratio
OVERHEAD_ROUNDS = 100
#: full span records are kept for every Nth traced round
KEEP_SPANS_EVERY = 50

#: ``BENCHMARK.json`` is the one table of workloads, metrics, units and
#: bounds; what a run emits must match it name for name (checked in
#: :func:`measure`).  The timing bounds there are as tight as this sandbox
#: resolves, not as tight as one would like: ten calibrated runs of one
#: commit still spread 2-9 % between their quartiles (README "Calibration").
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}


#: what :func:`reference` takes on the seed commit's sandbox when nothing
#: disturbs it; calibrated times are "at the speed where it takes this long"
REF_NOMINAL_S = 0.58e-3


class _Cell:
    __slots__ = ("first", "meta", "seen")

    def __init__(self, first: int) -> None:
        self.first, self.meta, self.seen = first, {"x": first * 0.5}, [first]


def reference() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The sandbox alternates, for seconds to minutes at a time, between a
    fast state and one in which the same code runs 1.6–1.8× slower (a busy
    sibling hyperthread by the look of it: CPU time moves with wall time).
    Raw wall times of two runs of one commit therefore differ by far more
    than any regression bound.  Every timed sample is instead divided by
    the reference measured just before and after it, which no change under
    ``src/`` can move.  It allocates, hashes, sorts and formats like the
    twin does, because a pure arithmetic loop slows down only 1.4× in the
    slow state and would under-correct.  The cyclic collector is held off
    meanwhile: the containers allocated here would trigger it, and a
    collection costs in proportion to the workload's heap, not to the
    machine's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    cells: dict[int, _Cell] = {}
    for i in range(1500):
        key = i * 7919 % 1009
        cell = cells.get(key)
        if cell is None:
            cells[key] = _Cell(i)
        else:
            cell.seen.append(i)
            cell.meta["x"] += 1.0
    ordered = sorted(cells.values(), key=lambda c: c.first)
    " ".join(f"{c.first}={c.meta['x']!r}" for c in ordered[:100])
    elapsed = time.perf_counter() - t0
    del cells, ordered
    if collecting:
        gc.enable()
    return elapsed


def calibration(ref_before: float, ref_after: float, sensitivity: float = 1.0) -> float:
    """Factor taking a wall time measured between two references to what
    it would have been with the reference at its nominal speed, for code
    whose time moves as reference ** sensitivity."""
    return (REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)) ** sensitivity


class Stopwatch:
    """Calibrated seconds over one or more laps (a long operation calls
    ``lap`` as it goes, so each stretch is scaled by the reference measured
    beside it; the reference's own time is not counted)."""

    def __init__(self) -> None:
        self.calibrated = self.raw = 0.0
        self._ref = reference()
        self._t = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self._t
        ref = reference()
        self.calibrated += dt * calibration(self._ref, ref)
        self.raw += dt
        self._ref = ref
        self._t = time.perf_counter()

    def stop(self) -> float:
        self.lap()
        return self.calibrated


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rounds:
    """Per-round times of one measured section, calibrated (see
    :func:`reference`); ``raw_wall_s`` keeps the plain wall time."""

    def __init__(self) -> None:
        self.ingest_s: list[float] = []
        self.refresh_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.reference_s: list[float] = []
        self.inserted = 0
        self.expected = 0
        self.failed = 0
        self._ref = reference()

    def run(self, workload, *, oracle: bool, corrupt: bool = False,
            tracer=None) -> float:
        clock = time.perf_counter
        t0 = clock()
        inserted, expected = workload.ingest()
        t1 = clock()
        answer = workload.refresh()
        t2 = clock()
        workload.after()
        t3 = clock()
        if tracer is not None:
            tracer.set_phase("oracle")
        ref = reference()
        scale = calibration(self._ref, ref, workload.sensitivity)
        self._ref = ref
        ok = workload.verify(answer)
        if oracle:
            ok = workload.oracle(answer, corrupt) and ok
        if tracer is not None:
            tracer.set_phase("timed")
        if oracle:
            self._ref = reference()  # the oracle took a while: measure anew
        self.ingest_s.append((t1 - t0) * scale)
        self.refresh_s.append((t2 - t1) * scale)
        self.wall_s.append((t3 - t0) * scale)
        self.raw_wall_s.append(t3 - t0)
        self.reference_s.append(ref)
        self.inserted += inserted
        self.expected += expected
        self.failed += not ok
        return t3 - t0

    def __len__(self) -> int:
        return len(self.wall_s)


def warm_up(workload, rounds: int) -> int:
    """Discarded rounds; returns how many of their refreshes failed."""
    warm = Rounds()
    for _ in range(rounds):
        warm.run(workload, oracle=False)
    return warm.failed


# ======================================================================
# one measured run
# ======================================================================
def run_end_to_end(workload, args) -> dict:
    setup_s, setup_raw_s = [], []
    for _ in range(args.setup_repeats or workload.setup_repeats):
        workload.daemon = None
        gc.collect()
        watch = Stopwatch()
        workload.lap = watch.lap
        workload.setup()
        setup_s.append(watch.stop())
        setup_raw_s.append(watch.raw)
    failed = warm_up(workload, args.warmup)
    gc.collect()

    rounds, timed, rss = Rounds(), 0.0, None
    while timed < args.seconds and len(rounds) != workload.timed_rounds:
        i = len(rounds)
        timed += rounds.run(
            workload, oracle=i % ORACLE_EVERY == 0,
            corrupt=args.inject_wrong_answer and i == 0)
        if len(rounds) == workload.rss_round:
            rss = peak_rss_mb()
    refresh = sorted(rounds.refresh_s)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "round_wall_ms": 1e3 * sum(rounds.wall_s) / len(rounds),
        "ingest_points_per_s": rounds.inserted / sum(rounds.ingest_s),
        "refresh_p50_ms": 1e3 * percentile(refresh, 0.50),
        "refresh_p95_ms": 1e3 * percentile(refresh, 0.95),
        "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "attempted": len(rounds),
        "failed": rounds.failed + failed,
        "correct": workload.conserved() and not workload.ingest_faults,
        "info": {
            "rounds": len(rounds),
            "refresh_p99_ms": 1e3 * percentile(refresh, 0.99),
            "points_lost_share":
                (rounds.expected - rounds.inserted) / rounds.expected,
            "raw": {
                "setup_s": statistics.median(setup_raw_s),
                "round_wall_ms": 1e3 * statistics.fmean(rounds.raw_wall_s),
                "reference_ms": 1e3 * statistics.median(rounds.reference_s),
            },
        },
    }


def run_traced(workload, args) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(workload)
    tracer.set_phase("setup")
    ref, t0 = reference(), time.perf_counter()
    workload.setup()
    setup_wall = time.perf_counter() - t0
    setup_scale = calibration(ref, reference())
    tracer.set_phase("idle")
    tracer.uninstall()

    failed = warm_up(workload, args.warmup)
    plain = Rounds()
    for _ in range(min(OVERHEAD_ROUNDS, args.trace_rounds or OVERHEAD_ROUNDS)):
        plain.run(workload, oracle=False)
    gc.collect()

    tracer.install(workload)
    before = workload.counters()
    tracer.set_phase("timed")
    rounds, timed = Rounds(), 0.0
    n = args.trace_rounds or workload.trace_rounds
    while len(rounds) < n and timed < args.seconds:
        i = len(rounds)
        tracer.round = i
        tracer.keep = i % KEEP_SPANS_EVERY == 0
        timed += rounds.run(workload, oracle=i % ORACLE_EVERY == 0, tracer=tracer)
    tracer.keep = False
    tracer.set_phase("idle")
    tracer.uninstall()
    after = workload.counters()
    delta = {k: after[k] - before[k] for k in after}

    metrics, tables = layer_metrics(
        tracer, delta, workload.gauges(), rounds, plain, setup_wall, setup_scale)
    metrics["refresh_failed_share"] = (rounds.failed + failed + plain.failed) / (
        len(rounds) + len(plain) + args.warmup)
    checksum = workload.checksum()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed, "rounds": len(rounds),
        "per_layer": metrics, **tables, "checksum": checksum,
        "spans_kept_every": KEEP_SPANS_EVERY,
        "spans": tracer.kept_spans(),
    }, indent=1) + "\n")
    return {
        "metrics": metrics,
        "attempted": len(rounds),
        "failed": rounds.failed + failed + plain.failed,
        "correct": workload.conserved() and not workload.ingest_faults,
        "info": {"rounds": len(rounds), "checksum": checksum,
                 "breakdown": tables["breakdown"],
                 "unit_costs": tables["unit_costs"]},
    }


def layer_metrics(tracer, delta, gauges, rounds, plain, setup_wall, setup_scale):
    """The PER_LAYER metrics plus the breakdown / unit-cost tables.

    Span times are raw; each phase is calibrated as a whole, by the
    wall-weighted mean of its rounds' calibrations (which leaves every
    share of the wall as measured)."""
    wall = sum(rounds.wall_s)
    scales = {"timed": wall / sum(rounds.raw_wall_s), "setup": setup_scale}
    rows = tracer.phase_rows("timed", scales["timed"])
    setup = tracer.phase_rows("setup", setup_scale)

    def self_s(group, phase_rows=rows):
        return phase_rows.get(group, {}).get("self_s", 0.0)

    def calls(group):
        return rows.get(group, {}).get("calls", 0)

    def stat(*prefixes, phase="timed"):
        return tracer.span_stat(phase, *prefixes, scale=scales[phase])

    layers_s = sum(r["self_s"] for g, r in rows.items() if g != "bench")
    refresh = sorted(rounds.refresh_s)
    hits = delta["viz.grafana.cache_hits"]
    misses = delta["viz.grafana.cache_misses"]
    adds = stat("TDigest.add", "TDigest.merge", "HyperLogLog.add",
                "HyperLogLog.merge_from")
    superdb_sync = stat("SuperDB.report", "SuperDB.anti_entropy",
                        "SuperDB.sync_status", "FederationLink.")
    m = {
        "machine.self_s": self_s("machine"),
        "machine.timeline_integrate_calls": stat("Timeline.integrate")[0],
        "pmu.read_self_s": stat("PMU.read")[1],
        "pmu.read_calls": stat("PMU.read")[0],
        "pcp.pmcd.fetch_self_s": stat("Pmcd.fetch")[1],
        "pcp.pmcd.fetch_calls": stat("Pmcd.fetch")[0],
        "pcp.pmcd.points_fetched": stat("Pmcd.fetch")[2],
        "pcp.sampler.self_s": self_s("pcp.sampler"),
        "pcp.transport.self_s": self_s("pcp.transport"),
        "pcp.transport.ship_calls": stat("TransportModel.ship_time")[0],
        "pcp.shipper.self_s": self_s("pcp.shipper"),
        "pcp.shipper.offered": stat("Shipper.offer")[0],
        "pcp.commitlog.self_s": self_s("pcp.commitlog"),
        "pcp.commitlog.flushes": stat("CommitLog.flush")[0],
        "pcp.consumers.self_s": self_s("pcp.consumers"),
        "db.influx.write_self_s": self_s("db.influx.write"),
        "db.influx.write_calls": calls("db.influx.write"),
        "db.influx.read_self_s": self_s("db.influx.read"),
        "db.influx.read_calls": calls("db.influx.read"),
        "db.sketch.self_s": self_s("db.sketch"),
        "db.sketch.add_self_s": adds[1],
        "db.sketch.add_calls": adds[0],
        "db.sharded.route_self_s": self_s("db.sharded.route"),
        "db.sharded.gather_self_s": self_s("db.sharded.gather"),
        "db.influxql.parse_self_s": self_s("db.influxql.parse"),
        "db.influxql.execute_self_s": self_s("db.influxql.execute"),
        "db.influxql.statements": stat("influxql.execute")[0],
        "db.mongo.self_s": self_s("db.mongo"),
        "db.mongo.ops": calls("db.mongo"),
        "core.kb.self_s": self_s("core.kb"),
        "core.kb.save_self_s": stat("KnowledgeBase.save")[1],
        "core.kb.saves": stat("KnowledgeBase.save")[0],
        "viz.grafana.self_s": self_s("viz.grafana"),
        "viz.grafana.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.self_s": self_s("serve"),
        "core.superdb.report_self_s": superdb_sync[1],
        "core.superdb.compare_self_s": stat("SuperDB.compare_metric")[1],
        "core.daemon.self_s": self_s("core.daemon"),
        "bench.self_s": self_s("bench"),
        "setup.traced_s": setup_wall * setup_scale,
        "setup.core.daemon.self_s": self_s("core.daemon", setup),
        "setup.core.kb.build_self_s":
            stat("KnowledgeBase.from_probe", phase="setup")[1],
        "setup.db.mongo.self_s": self_s("db.mongo", setup),
        "setup.viz.generator.self_s": self_s("viz.generator", setup),
        "setup.viz.generator.panels_generated":
            stat("generator.generate_dashboard", phase="setup")[2],
        "setup.db.influx.write_self_s": self_s("db.influx.write", setup),
        "trace.rounds": len(rounds),
        "trace.wall_s": wall,
        "trace.coverage_ratio": layers_s / wall,
        "trace.overhead_ratio":
            statistics.median(rounds.wall_s) / statistics.median(plain.wall_s),
        "refresh_p99_ms": 1e3 * percentile(refresh, 0.99),
        "points_lost_share": (
            (delta["expected_points"] - delta["inserted_points"])
            / delta["expected_points"]),
    }
    for name in PER_LAYER:  # counters and gauges read at the same boundaries
        if name not in m:
            m[name] = delta.get(name, gauges.get(name, 0))
    written = delta["db.influx.points_written"]
    m["db.influx.write_us_per_point"] = (
        1e6 * m["db.influx.write_self_s"] / written if written else 0.0)

    def per(seconds: float, units: float) -> float:
        return 1e6 * seconds / units if units else 0.0

    unit_costs = {
        "db.influx.write_us_per_point": m["db.influx.write_us_per_point"],
        "pcp.pmcd.fetch_us_per_tick":
            per(m["pcp.pmcd.fetch_self_s"], m["pcp.pmcd.fetch_calls"]),
        "pcp.consumers.us_per_record_applied":
            per(m["pcp.consumers.self_s"] + m["pcp.commitlog.self_s"],
                m["pcp.consumers.records_applied"]),
        "db.influxql.us_per_statement":
            per(m["db.influxql.parse_self_s"] + m["db.influxql.execute_self_s"],
                m["db.influxql.statements"]),
        "db.influx.read_us_per_statement":
            per(m["db.influx.read_self_s"], m["db.influxql.statements"]),
        "viz.grafana.us_per_target_served":
            per(m["viz.grafana.self_s"], hits + misses),
        "serve.us_per_request": per(m["serve.self_s"], m["serve.submitted"]),
    }
    breakdown = {
        group: {"self_s": r["self_s"], "calls": r["calls"],
                "share_of_wall": r["self_s"] / wall}
        for group, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
    }
    setup_breakdown = {
        group: {"self_s": r["self_s"], "calls": r["calls"]}
        for group, r in sorted(setup.items(), key=lambda kv: -kv[1]["self_s"])
    }
    return m, {"breakdown": breakdown, "setup_breakdown": setup_breakdown,
               "unit_costs": unit_costs}


def measure(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    for _ in range(20):
        reference()  # the first calls are cold and would skew the first lap
    table = PER_LAYER if args.trace else END_TO_END
    out = (run_traced if args.trace else run_end_to_end)(workload, args)
    if set(out["metrics"]) != set(table):
        raise AssertionError(
            f"metrics drifted from the table: {set(out['metrics']) ^ set(table)}")
    correct = out["correct"] and out["failed"] == 0
    print(f"# {workload.name} seed={args.seed} rounds={out['info']['rounds']} "
          f"failed={out['failed']} correct={correct}")
    for name, value in out["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {table[name]['unit']}")
    print("# info " + json.dumps(out["info"]))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in out["metrics"].items()},
    }))
    return 0 if correct else 1


# ======================================================================
# the operator's front end: repeats, spread, history
# ======================================================================
def child(workload: str, seed: int, trace: int, args) -> dict:
    # a quick traced run is its 50 rounds, not what fits in a second
    seconds = 60 if args.quick and trace else args.seconds
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--warmup", str(args.warmup)]
    if args.trace_rounds:
        cmd += ["--trace-rounds", str(args.trace_rounds)]
    if args.setup_repeats:
        cmd += ["--setup-repeats", str(args.setup_repeats)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run failed with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("# info "))
    return result


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def front_end(args) -> int:
    names = args.workloads or [w["name"] for w in MANIFEST["workloads"]]
    run_meta = {"git_sha": git_sha(), "python": platform.python_version(),
                "nproc": os.cpu_count(), "seed": args.seed,
                "seconds": args.seconds}
    RESULTS.mkdir(exist_ok=True)
    summary: dict = {"meta": {**run_meta, "repeats": args.repeats}, "workloads": {}}
    for name in names:
        # one seed for every repeat, so the spread is the machine's and the
        # seed-determined numbers can be required to repeat exactly
        runs = [child(name, args.seed, 0, args) for _ in range(args.repeats)]
        if not args.quick:  # a quick run is a smoke test, not a measurement
            with open(RESULTS / "BENCH_history.jsonl", "a") as history:
                for run in runs:
                    history.write(json.dumps({
                        **run_meta, "workload": name, "n": run["attempted"],
                        "failed": run["failed"],
                        **{k: v["value"] for k, v in run["metrics"].items()},
                        "refresh_p99_ms": run["info"]["refresh_p99_ms"],
                        "points_lost_share": run["info"]["points_lost_share"],
                    }) + "\n")
        traced = child(name, args.seed, 1, args)
        e2e = {}
        print(f"\n== {name} ({args.repeats} runs, seed {args.seed}) ==")
        for metric, spec in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            e2e[metric] = {"median": statistics.median(values), "min": min(values),
                           "max": max(values), "unit": spec["unit"],
                           "bound": spec["bound"]}
            print(f"{metric:<24} {e2e[metric]['median']:>12.5g} {spec['unit']:<9}"
                  f" [{min(values):.5g} .. {max(values):.5g}]")
        print(f"{'refreshes per run':<24} {[r['attempted'] for r in runs]}")
        print("-- traced run: share of wall per layer --")
        for group, row in traced["info"]["breakdown"].items():
            print(f"{group:<24} {row['self_s']:>10.4f} s {100 * row['share_of_wall']:>6.2f} %")
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "refreshes": [r["attempted"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "breakdown": traced["info"]["breakdown"],
            "unit_costs": traced["info"]["unit_costs"],
            "checksum": traced["info"]["checksum"],
        }
    if not args.quick:
        (RESULTS / "BENCH_e2e.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {RESULTS / 'BENCH_e2e.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="measure this one workload (driver mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--warmup", type=int, default=WARMUP_ROUNDS,
                   help="discarded rounds ahead of the timed ones")
    p.add_argument("--trace-rounds", type=int, default=0,
                   help="traced rounds (default: the workload's own)")
    p.add_argument("--setup-repeats", type=int, default=0,
                   help="set-ups per run (default: the workload's own)")
    p.add_argument("--inject-wrong-answer", action="store_true",
                   help="self-test: corrupt one expected value of the oracle")
    p.add_argument("--repeats", type=int, default=3,
                   help="front end: runs per workload")
    p.add_argument("--workloads", nargs="+", help="front end: only these")
    p.add_argument("--quick", action="store_true",
                   help="front end: ~50 rounds per run, for the smoke test")
    args = p.parse_args(argv)
    if args.quick:
        args.seconds, args.warmup = args.seconds or 1.0, 10
        args.trace_rounds, args.setup_repeats, args.repeats = 50, 1, 1
    if args.seconds is None:
        args.seconds = MANIFEST["run_seconds"]
    return measure(args) if args.workload else front_end(args)


if __name__ == "__main__":
    sys.exit(main())
