"""Shared plumbing for the experiment-reproduction benchmarks.

Every ``test_table*`` / ``test_fig*`` module regenerates one table or figure
of the paper: it computes the same rows/series the paper reports, prints
them, and writes them under ``benchmarks/results/`` so the artifacts survive
the pytest run.  Absolute numbers come from the simulated substrate; the
*shape* (who wins, by what factor, where crossovers sit) is what EXPERIMENTS.md
compares against the paper.
"""

from __future__ import annotations

import json
import platform
import statistics
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Leading share of a latency sample set that is warm-up (see
#: :func:`latency_stats`).
WARMUP_SHARE = 0.1


def emit(name: str, text: str) -> Path:
    """Print a result block and persist it to benchmarks/results/<name>."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    print(f"\n===== {name} =====")
    print(text)
    return path


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result (perf trajectories, CI gates).

    Written with sorted keys and a trailing newline so successive PRs diff
    cleanly under version control."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    print(f"\n===== {name} =====")
    print(text)
    return path


def latency_stats(samples_s: list[float]) -> dict[str, float]:
    """p50/p95/mean of a latency sample set, in milliseconds.

    ``samples_s`` is in arrival order.  Its first tenth, rounded down, is
    warm-up (first-call allocation, cold caches, a heap that has not grown
    yet) and is discarded before any statistic is taken: with 20 samples
    the first call alone used to be the p95, 20× the median.  A set of
    fewer than ten samples — the slow seed sides — keeps every one.  ``n``
    counts the samples kept, ``warmup`` those dropped.
    """
    warmup = int(WARMUP_SHARE * len(samples_s))
    ordered = sorted(samples_s[warmup:])
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "p95_ms": 1e3 * ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))],
        "mean_ms": 1e3 * statistics.fmean(ordered),
        "n": len(ordered),
        "warmup": warmup,
    }


def run_metadata(n: int, seed: int | None) -> dict:
    """What a result file needs for two runs of it to be comparable."""
    return {"python": platform.python_version(), "n": n, "seed": seed}


def fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"
