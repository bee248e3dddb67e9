"""The fuzz campaign is pinned: the campaign fingerprints of both arms at
seed 3, budget 200 are compared with ``campaign_golden.json``.

A campaign fingerprint hashes every run's fingerprint in order, and a run's
fingerprint hashes the final DB state, the coverage set and every counter
document (:func:`repro.fuzz.execute`).  A change to what the twin reports
about itself — a counter added, a cache that decides differently — moves
them, and so does one to the generator or the mutators.  Two runs of one
tree always agree (``benchmarks/test_perf_fuzz.py`` checks that), so only a
committed pair shows when a tree moved them.  A change that means to move
them re-records the file and says why::

    PYTHONPATH=src python tests/fuzz/test_campaign_golden.py > tests/fuzz/campaign_golden.json

Each arm is one 200-scenario campaign (≈ 10 s), so the file is ``slow``:
it runs in the fuzz lane, not the tier-1 one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz import run_campaign

GOLDEN = Path(__file__).with_name("campaign_golden.json")
BUDGET = 200
SEED = 3
#: arm → whether the campaign mutates its corpus
ARMS = {"guided": True, "baseline": False}


def campaign(arm: str) -> dict:
    """The pinned facts of one arm's campaign."""
    c = run_campaign(BUDGET, SEED, mutate_corpus=ARMS[arm], keep_run_docs=False)
    return {"fingerprint": c.fingerprint(), "distinct_coverage": c.distinct_coverage}


@pytest.mark.slow
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_campaign_matches_the_golden(arm):
    golden = json.loads(GOLDEN.read_text())
    assert (golden["budget"], golden["seed"]) == (BUDGET, SEED)
    assert campaign(arm) == golden[arm]


if __name__ == "__main__":
    print(json.dumps(
        {"budget": BUDGET, "seed": SEED} | {arm: campaign(arm) for arm in sorted(ARMS)},
        indent=1, sort_keys=True))
