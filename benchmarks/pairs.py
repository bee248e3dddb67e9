"""Alternating pairs: the end-to-end benchmark on two trees, run by turns.

A claimed gain is judged on pairs of runs of ``BENCHMARK.json``'s command:
one in a parent tree, one in a change tree, same workload and seed, one
process at a time.  The parent goes first on odd pairs and second on even
ones, so a drift in the box's speed falls on both sides alike.  Every run
becomes one JSON line; the summary gives, per workload and metric, the
parent's median and IQR, the change's median, the relative change of the
medians and how many pairs the change won.

    python3 benchmarks/pairs.py --parent ../parent --pr N \\
        --workloads live_unbuffered --pairs 10 --seed-base 100
    python3 benchmarks/pairs.py --summarize benchmarks/results/PRN_pairs.jsonl

The parent tree is any checkout of the parent commit (``git archive`` into
a directory works); the change tree is the one this file is in.  Every run
lasts ``BENCHMARK.json``'s ``run_seconds``.  Rows are appended to
``benchmarks/results/PR{n}_pairs.jsonl``, so several invocations build one
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``--workload`` run in ``tree``: its last stdout line, flattened."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", f"{SPEC['run_seconds']:g}", "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result (rc {proc.returncode})")
    return {
        "rc": proc.returncode, "wall_s": round(wall, 1),
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rows: list[dict]) -> str:
    """Per workload and metric: parent median (IQR), change median, Δ of
    the medians and the pairs the change won."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    out = []
    for workload in dict.fromkeys(r["workload"] for r in rows):
        sides: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
        for r in rows:
            if r["workload"] == workload:
                sides[r["side"]][r["pair"]] = r
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        runs = [sides[s][p] for p in pairs for s in sides]
        out.append(f"== {workload}: {len(pairs)} pairs, correct on "
                   f"{sum(r['correct'] for r in runs)}/{len(runs)} runs, "
                   f"{sum(r['failed'] for r in runs)} failed rounds")
        out.append(f"{'metric':<22} {'parent':>12} {'(IQR)':>11} {'change':>12} "
                   f"{'delta':>8} {'won':>6}")
        for metric, direction in (better.items() if pairs else ()):
            par = [sides["parent"][p]["metrics"][metric] for p in pairs]
            chg = [sides["change"][p]["metrics"][metric] for p in pairs]
            q1, med, q3 = quartiles(par)
            cmed = statistics.median(chg)
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            delta = (cmed - med) / med * 100 if med else float("nan")
            out.append(f"{metric:<22} {med:>12.5g} {q3 - q1:>11.4g} {cmed:>12.5g} "
                       f"{delta:>+7.1f}% {won:>3}/{len(pairs)}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="tree of the parent commit")
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0,
                   help="pair k (from 1) runs seed base + k, counted across workloads")
    p.add_argument("--pr", type=int, help="write benchmarks/results/PR{n}_pairs.jsonl")
    p.add_argument("--summarize", type=Path, help="only print the summary of this file")
    args = p.parse_args(argv)

    if args.summarize:
        rows = [json.loads(line) for line in args.summarize.read_text().splitlines() if line]
        print(summarize(rows))
        return 0
    if args.parent is None or args.pr is None:
        p.error("--parent and --pr are needed to run pairs")
    out = HERE / "results" / f"PR{args.pr}_pairs.jsonl"
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    rows = []
    seed = args.seed_base
    for workload in args.workloads:
        for pair in range(1, args.pairs + 1):
            seed += 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                row = {"workload": workload, "side": side, "pair": pair, "seed": seed,
                       "seconds": SPEC["run_seconds"], "first": order[0],
                       **run_once(trees[side], workload, seed)}
                rows.append(row)
                with out.open("a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{workload} pair {pair} {side}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in row["metrics"].items()), flush=True)
    print(summarize(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
