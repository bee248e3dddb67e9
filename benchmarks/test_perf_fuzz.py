"""Fuzzing campaign quality gates: determinism, pinned reach, no failures.

Three properties make a seeded fuzzer trustworthy enough to gate a CI lane
on:

1. **bit-identity** — a campaign is a pure function of its seed.  The
   same 200-scenario campaign executed twice must produce an identical
   campaign fingerprint (the ordered per-run fingerprints, which
   themselves hash the final DB state, the coverage set, and every
   counter document).  Any nondeterminism here would make minimized
   corpus seeds unreplayable.
2. **pinned reach** — the campaign's coverage points must equal the
   committed ``coverage_points``: a change to what the twin reports about
   itself, to how ``harvest`` reads it, or to what the generator draws
   shows up here, and is accepted by committing the regenerated file.
3. **no failures** — the twin holds every oracle over the whole campaign.

The campaign draws every scenario fresh from the grammar.  A
coverage-guided corpus arm was measured against these draws at equal
budget and reached no more points (EXPERIMENTS.md, "Scenario fuzzing"),
so it was deleted and there is no arm to compare.

Everything runs in virtual time, so the coverage and fingerprints are exact
and stable (``wall_s`` is not); results land in
``benchmarks/results/BENCH_fuzz.json``.
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
    campaign = run_campaign(BUDGET, CAMPAIGN_SEED, keep_run_docs=False)
    wall_s = time.perf_counter() - t0

    again = run_campaign(BUDGET, CAMPAIGN_SEED, keep_run_docs=False)

    payload = {
        "budget": BUDGET,
        "campaign_seed": CAMPAIGN_SEED,
        "distinct_coverage": campaign.distinct_coverage,
        "corpus_size": len(campaign.corpus),
        "failures": len(campaign.failures),
        "rerun_checks": campaign.rerun_checks,
        "rerun_mismatches": campaign.rerun_mismatches,
        "fingerprint": campaign.fingerprint(),
        "wall_s": round(wall_s, 2),
        "scenarios_per_s": round(BUDGET / wall_s, 2),
        "bit_identical_across_two_runs": campaign.fingerprint() == again.fingerprint(),
        "coverage_points": campaign.coverage.points,
    }
    emit_json("BENCH_fuzz.json", payload)

    # Gate 1: the campaign is a pure function of its seed.
    assert campaign.fingerprint() == again.fingerprint()
    assert campaign.rerun_mismatches == []
    # Gate 2: the committed coverage (at the committed budget) is what the
    # twin reports.
    if BUDGET == committed["budget"]:
        assert campaign.coverage.points == committed["coverage_points"]
    # Gate 3: the twin holds its invariants over the whole campaign.
    assert not campaign.failures
