"""``repro.fuzz`` — seeded scenario fuzzing for the whole twin.

A seed-deterministic :class:`~repro.fuzz.scenario.Scenario` grammar
composes everything PRs 1–8 built — workload mix, machine preset,
service/log/node fault schedules, durable-vs-buffered ingest, shard
count, multi-tenant query streams — into one executable description.
A campaign executes random draws of it; a coverage map harvested from
counters the system already keeps (:mod:`~repro.fuzz.coverage`) says
what the draws reached; invariant oracles (:mod:`~repro.fuzz.oracles`)
check every run; failing scenarios are ddmin-shrunk
(:mod:`~repro.fuzz.minimize`) to minimal JSON seeds that the chaos CI
lane replays forever.

Entry points: ``pmove fuzz <preset>`` on the CLI, or
:func:`~repro.fuzz.campaign.run_campaign` /
:func:`~repro.fuzz.runner.execute` from Python.

The heavy submodules (runner, campaign) import the whole twin, while
:mod:`~repro.fuzz.rng` is the leaf primitive the twin itself uses
(``serve.load``, chaos suites) — so everything except the rng surface is
loaded lazily (PEP 562) to keep ``repro.fuzz.rng`` import-light and
cycle-free.
"""

from .rng import derive_seed, spawn

#: Lazily-resolved exports: name -> submodule that defines it.
_LAZY = {
    "CampaignResult": "campaign",
    "run_campaign": "campaign",
    "CoverageMap": "coverage",
    "harvest": "coverage",
    "minimize": "minimize",
    "violation_family": "minimize",
    "RunResult": "runner",
    "execute": "runner",
    "PRESET_POOL": "scenario",
    "FaultSpec": "scenario",
    "LogFaultSpec": "scenario",
    "NodeFaultSpec": "scenario",
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "ShardCrashSpec": "scenario",
    "StreamSpec": "scenario",
    "TenantSpec": "scenario",
    "generate": "scenario",
}

__all__ = sorted([*_LAZY, "derive_seed", "spawn"])


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{submodule}", __name__), name)


def __dir__() -> list[str]:
    return __all__
