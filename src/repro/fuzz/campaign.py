"""The campaign loop: seeded random scenarios against the oracles.

Each of ``budget`` iterations draws a fresh scenario from the grammar
(:func:`~repro.fuzz.scenario.generate`), executes it, folds its coverage
points into the campaign's :class:`~repro.fuzz.coverage.CoverageMap`,
checks the oracles, and — when asked — ddmin-minimizes the first failure
of each oracle family into a replayable JSON seed.  The scenarios that
first reached a point are kept as the campaign's ``corpus``.

There is no corpus steering: measured at budget 200 over six seeds, a
mutation-and-energy corpus reached no more distinct points than
budget-matched random draws (EXPERIMENTS.md, "Scenario fuzzing"), so the
few states only mutation reached are plain draws of the generator now.

Everything is seed-deterministic: same ``(budget, seed, presets)`` →
bit-identical campaign report, enforced by a periodic rerun-identity
check (oracle O6) inside the campaign itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from .coverage import CoverageMap
from .minimize import minimize, violation_family
from .rng import spawn
from .runner import RunResult, execute
from .scenario import PRESET_POOL, Scenario, generate
from .status import record_campaign

__all__ = ["CampaignResult", "run_campaign"]

#: Re-execute every Nth run and require a bit-identical fingerprint
#: (oracle O6: seeded rerun determinism of the twin itself).
RERUN_CHECK_EVERY = 16


@dataclass
class CampaignResult:
    """Everything a campaign produced, JSON-ready."""

    budget: int
    seed: int
    coverage: CoverageMap
    #: the scenarios that first reached a coverage point, in run order
    corpus: list[Scenario] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    runs: list[dict[str, Any]] = field(default_factory=list)
    run_fingerprints: list[str] = field(default_factory=list)
    rerun_checks: int = 0
    rerun_mismatches: list[int] = field(default_factory=list)

    @property
    def distinct_coverage(self) -> int:
        return len(self.coverage)

    def fingerprint(self) -> str:
        """Campaign-level identity: the ordered run fingerprints."""
        h = hashlib.sha256()
        for fp in self.run_fingerprints:
            h.update(fp.encode())
        return h.hexdigest()

    def summary(self) -> dict[str, Any]:
        """The compact facts ``PMoVE.health()["fuzz"]`` reports."""
        return {
            "budget": self.budget,
            "seed": self.seed,
            "distinct_coverage": self.distinct_coverage,
            "corpus_size": len(self.corpus),
            "failures": len(self.failures),
            "rerun_mismatches": list(self.rerun_mismatches),
            "campaign_fingerprint": self.fingerprint(),
        }

    def to_dict(self) -> dict[str, Any]:
        return self.summary() | {
            "failures": self.failures,
            "rerun_checks": self.rerun_checks,
            "coverage": self.coverage.to_dict(),
            "runs": self.runs,
        }


def run_campaign(
    budget: int,
    seed: int,
    *,
    presets: tuple[str, ...] = PRESET_POOL,
    do_minimize: bool = False,
    max_minimize_steps: int = 48,
    keep_run_docs: bool = True,
    on_run: Callable[[int, RunResult, list[str]], None] | None = None,
) -> CampaignResult:
    """Run a ``budget``-scenario campaign from ``seed``.

    ``do_minimize=True`` ddmin-shrinks each distinct failure family once
    and records the minimal scenario in the failure doc (``minimized``
    key) ready for ``tests/fuzz/corpus/``."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = spawn(seed, "campaign")
    result = CampaignResult(budget=budget, seed=seed, coverage=CoverageMap())
    minimized_families: set[frozenset[str]] = set()

    for i in range(budget):
        sc = generate(int(rng.integers(0, 2**31)), presets=presets)
        run = execute(sc)
        novel = result.coverage.observe(run.coverage)
        if novel:
            result.corpus.append(sc)
        if on_run is not None:
            on_run(i, run, novel)

        result.run_fingerprints.append(run.fingerprint)
        if keep_run_docs:
            result.runs.append({
                "i": i,
                "scenario_seed": sc.seed,
                "preset": sc.preset,
                "mode": sc.mode,
                "novel": novel,
                "violations": run.violations,
                "fingerprint": run.fingerprint,
            })

        if run.failed:
            fail: dict[str, Any] = {
                "i": i,
                "violations": run.violations,
                "scenario": sc.to_dict(),
            }
            family = violation_family(run.violations)
            if do_minimize and family not in minimized_families:
                minimized_families.add(family)
                small, small_run = minimize(
                    sc, run.violations, max_steps=max_minimize_steps
                )
                fail["minimized"] = small.to_dict()
                fail["minimized_violations"] = small_run.violations
            result.failures.append(fail)

        # O6: seeded rerun bit-identity, spot-checked on a cadence.
        if (i + 1) % RERUN_CHECK_EVERY == 0:
            result.rerun_checks += 1
            if execute(sc).fingerprint != run.fingerprint:
                result.rerun_mismatches.append(i)

    record_campaign(result.summary())
    return result
