"""Fuzzing campaign quality gates: determinism and coverage steering.

Two properties make a coverage-guided fuzzer trustworthy enough to gate a
CI lane on:

1. **bit-identity** — a campaign is a pure function of its seed.  The
   same 200-scenario campaign executed twice must produce an identical
   campaign fingerprint (the ordered per-run fingerprints, which
   themselves hash the final DB state, the coverage set, and every
   counter document).  Any nondeterminism here would make minimized
   corpus seeds unreplayable.
2. **steering beats sampling** — with the same budget, the
   mutation-corpus arm must reach *strictly more* distinct coverage
   points than the mutation-free baseline that draws every scenario
   fresh from the grammar.  That is the whole argument for carrying a
   corpus: compounded mutations reach composite states (durable mode +
   log fault + shard crash + aggressor stream) the shallow generator
   practically never assembles in one draw.

The guided campaign's coverage points must also equal the committed
``coverage_points``: a change to what the twin reports about itself, or
to how ``harvest`` reads it, shows up here, and is accepted by committing
the regenerated file.

Everything runs in virtual time, so the numbers are exact and stable;
results land in ``benchmarks/results/BENCH_fuzz.json``.
"""

from __future__ import annotations

import json
import os
import time

from _helpers import RESULTS_DIR, emit_json

from repro.fuzz import run_campaign

BUDGET = int(float(os.environ.get("PMOVE_BENCH_FUZZ_BUDGET", "200")))
CAMPAIGN_SEED = 3


def test_fuzz_campaign_gates():
    committed = json.loads((RESULTS_DIR / "BENCH_fuzz.json").read_text())
    t0 = time.perf_counter()
    guided = run_campaign(BUDGET, CAMPAIGN_SEED, keep_run_docs=False)
    t_guided = time.perf_counter() - t0

    again = run_campaign(BUDGET, CAMPAIGN_SEED, keep_run_docs=False)

    t0 = time.perf_counter()
    baseline = run_campaign(
        BUDGET, CAMPAIGN_SEED, mutate_corpus=False, keep_run_docs=False
    )
    t_baseline = time.perf_counter() - t0

    payload = {
        "budget": BUDGET,
        "campaign_seed": CAMPAIGN_SEED,
        "guided": {
            "distinct_coverage": guided.distinct_coverage,
            "corpus_size": len(guided.corpus),
            "failures": len(guided.failures),
            "rerun_checks": guided.rerun_checks,
            "rerun_mismatches": guided.rerun_mismatches,
            "fingerprint": guided.fingerprint(),
            "wall_s": round(t_guided, 2),
            "scenarios_per_s": round(BUDGET / t_guided, 2),
        },
        "baseline": {
            "distinct_coverage": baseline.distinct_coverage,
            "failures": len(baseline.failures),
            "fingerprint": baseline.fingerprint(),
            "wall_s": round(t_baseline, 2),
        },
        "bit_identical_across_two_runs": guided.fingerprint() == again.fingerprint(),
        "coverage_points": guided.coverage.points,
    }
    emit_json("BENCH_fuzz.json", payload)

    # Gate 1: the campaign is a pure function of its seed.
    assert guided.fingerprint() == again.fingerprint()
    assert guided.rerun_mismatches == []
    # Gate 2: the committed coverage (at the committed budget) is what the
    # twin reports.
    if BUDGET == committed["budget"]:
        assert guided.coverage.points == committed["coverage_points"]
    # Gate 3: corpus steering strictly beats budget-matched random draws.
    assert guided.distinct_coverage > baseline.distinct_coverage
    # Gate 4: the twin holds its invariants over the whole campaign.
    assert not guided.failures and not baseline.failures
