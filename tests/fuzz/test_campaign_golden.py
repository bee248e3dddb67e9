"""The fuzz campaign is pinned: the campaign fingerprint and distinct
coverage at seed 3, budget 200 are compared with ``campaign_golden.json``.

A campaign fingerprint hashes every run's fingerprint in order, and a run's
fingerprint hashes the final DB state, the coverage set and every counter
document (:func:`repro.fuzz.execute`).  A change to what the twin reports
about itself — a counter added, a cache that decides differently — moves
it, and so does one to the generator.  Two runs of one tree always agree
(``benchmarks/test_perf_fuzz.py`` checks that), so only a committed value
shows when a tree moved it.  A change that means to move it re-records the
file and says why::

    PYTHONPATH=src python tests/fuzz/test_campaign_golden.py > tests/fuzz/campaign_golden.json

The campaign is 200 scenarios (≈ 10 s), so the file is ``slow``: it runs
in the fuzz lane, not the tier-1 one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz import run_campaign

GOLDEN = Path(__file__).with_name("campaign_golden.json")
BUDGET = 200
SEED = 3


def campaign() -> dict:
    """The pinned facts of the campaign."""
    c = run_campaign(BUDGET, SEED, keep_run_docs=False)
    return {"budget": BUDGET, "seed": SEED, "fingerprint": c.fingerprint(),
            "distinct_coverage": c.distinct_coverage}


@pytest.mark.slow
def test_campaign_matches_the_golden():
    assert campaign() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(campaign(), indent=1, sort_keys=True))
