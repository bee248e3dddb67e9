"""Campaign loop: determinism, the novelty corpus, rerun checks, health."""

import pytest

from repro.fuzz import run_campaign
from repro.fuzz.status import reset, snapshot

# ≈ 10 s: the CI fuzz-smoke lane runs it; the tier-1 lane skips it.
pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _fresh_status():
    reset()
    yield
    reset()


class TestDeterminism:
    def test_campaign_is_bit_identical_for_one_seed(self):
        a = run_campaign(20, 13, keep_run_docs=False)
        b = run_campaign(20, 13, keep_run_docs=False)
        assert a.fingerprint() == b.fingerprint()
        assert a.coverage.points == b.coverage.points
        assert a.corpus == b.corpus

    def test_different_seeds_diverge(self):
        a = run_campaign(10, 1, keep_run_docs=False)
        b = run_campaign(10, 2, keep_run_docs=False)
        assert a.fingerprint() != b.fingerprint()

    def test_rerun_identity_spot_checks_pass(self):
        # budget 32 -> two O6 rerun checks, which must both match.
        r = run_campaign(32, 4, keep_run_docs=False)
        assert r.rerun_checks == 2
        assert r.rerun_mismatches == []

    def test_fingerprint_ignores_run_doc_retention(self):
        slim = run_campaign(12, 6, keep_run_docs=False)
        full = run_campaign(12, 6, keep_run_docs=True)
        assert slim.fingerprint() == full.fingerprint()
        assert slim.runs == [] and len(full.runs) == 12


class TestCorpus:
    def test_corpus_admission_requires_novelty(self):
        r = run_campaign(30, 9)
        # Every corpus entry discovered something; the map can't hold
        # fewer points than the corpus has entries.
        assert 0 < len(r.corpus) <= r.distinct_coverage
        # Later runs mostly rediscover: corpus is much smaller than budget.
        assert len(r.corpus) < r.budget

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            run_campaign(0, 1)


class TestHealthStamp:
    def test_campaign_lands_in_daemon_health(self):
        from repro.core import PMoVE
        from repro.machine import SimulatedMachine, get_preset

        assert snapshot() == {"campaigns": 0, "last_campaign": None}
        r = run_campaign(6, 21, keep_run_docs=False)
        daemon = PMoVE()
        daemon.attach_target(SimulatedMachine(get_preset("icl")))
        doc = daemon.health()["fuzz"]
        assert doc["campaigns"] == 1
        last = doc["last_campaign"]
        assert last["seed"] == 21 and last["budget"] == 6
        assert last["campaign_fingerprint"] == r.fingerprint()
        assert last["distinct_coverage"] == r.distinct_coverage
