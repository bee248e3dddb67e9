"""Replay every minimized seed in tests/fuzz/corpus/ — the regression
lane the fuzzer feeds.

Each JSON file here is a ddmin-minimized scenario that once violated an
invariant; the bug it exposed was fixed in the same PR that committed the
seed.  The contract is simple and permanent: every seed replays green,
deterministically, forever."""

from pathlib import Path

import pytest

from repro.fuzz import Scenario, execute

CORPUS = Path(__file__).parent / "corpus"
SEEDS = sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert SEEDS, "tests/fuzz/corpus/ must hold at least one minimized seed"


@pytest.mark.parametrize("path", SEEDS, ids=lambda p: p.stem)
def test_seed_replays_green(path):
    sc = Scenario.from_json(path.read_text())
    run = execute(sc)
    assert run.error is None
    assert run.violations == []


@pytest.mark.parametrize("path", SEEDS, ids=lambda p: p.stem)
def test_seed_replay_is_bit_identical(path):
    sc = Scenario.from_json(path.read_text())
    assert execute(sc).fingerprint == execute(sc).fingerprint


def test_parked_replay_seed_exercises_the_fixed_gate():
    """The seed that found the exactly-once hole: a record parked during
    an outage, its consumer crashed before commit, and the crash-replay
    redelivered it while its DLQ copy waited for requeue.  Before the fix
    the record applied twice (stored = produced + 1); the replay-skip
    gate in LogConsumer now refuses the replayed copy, and this asserts
    the seed still drives that exact path."""
    sc = Scenario.from_json((CORPUS / "parked-replay-duplicate.json").read_text())
    run = execute(sc)
    assert run.violations == []
    assert "log:db-writer:replayed-parked" in run.coverage
    writers = run.counters["ingest"]["groups"]["db-writer"]
    assert writers["replayed_parked_records"] >= 1
