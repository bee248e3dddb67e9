"""The serving schedule is pinned: every virtual-time decision the
frontend and its executor make is hashed, per (seed, variant), and
compared with ``schedule_golden.json``.

The fingerprint is canonical JSON of everything the schedule decides:

- every :class:`ExecutionRecord` (rid, tenant, class, status, submit,
  start, finish, points);
- ``outcomes``, ``health()`` and each tenant's stride ``vpass``;
- the worker ``slots`` (free time per slot index);
- for the direct-executor variants, ``stats()`` after every ``_step``.

Floats go through ``json`` as their shortest round-trip repr, so a hash
only matches when every admission, pass, aging test, deadline,
coalescing and slot choice is bit-identical to the run that recorded it.
A change that means to move the schedule (a recalibrated cost model, a
new policy) re-records the file and says so::

    PYTHONPATH=src python tests/serve/test_schedule_golden.py > tests/serve/schedule_golden.json

Tier-1 runs three variants over the twelve seeds; the full grid, which
also asserts that every outcome occurs somewhere, is ``chaos``-marked.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.db.influx import InfluxDB, Point
from repro.db.sharded import ShardedInfluxDB
from repro.serve import (
    BoundedExecutor,
    Priority,
    QueryRequest,
    ServiceCostModel,
    ServingFrontend,
    TenantConfig,
    mixed_load,
    replay,
)
from repro.viz.dashboard import Panel, Target
from repro.viz.grafana import GrafanaServer

GOLDEN = Path(__file__).with_name("schedule_golden.json")
SEEDS = range(12)
TENANTS = ("ops", "perf", "adhoc")
N_SERIES = 4
SPAN_S = 240
#: Inflated prices (the serving bench's): the offered load contends.
COST = ServiceCostModel(base_s=0.02, hit_s=0.005, per_point_s=2e-4)


@functools.cache
def _points() -> tuple[Point, ...]:
    return tuple(
        Point("cpu", {"tag": f"s{s}"},
              {"v": float((7 * t + 13 * s) % 97), "w": float(t % 11)}, float(t))
        for t in range(SPAN_S) for s in range(N_SERIES)
    )


def _grafana(sharded: bool = False) -> GrafanaServer:
    influx = ShardedInfluxDB(4) if sharded else InfluxDB()
    influx.create_database("pmove")
    influx.write_many("pmove", _points())
    return GrafanaServer(influx)


def _panels(percentile: bool = False) -> list[Panel]:
    targets = [
        [Target("cpu", "v", tag="s0"), Target("cpu", "w", tag="s0")],
        [Target("cpu", "v", tag="s1", agg="MEAN", group_by_s=60.0)],
        [Target("cpu", "w", tag="s2")],
        [Target("cpu", "v", tag="s3", agg="MAX", group_by_s=7.0)],
    ]
    if percentile:
        targets.append([Target("cpu", "v", tag="s1", agg="PERCENTILE",
                               agg_arg=95.0, group_by_s=60.0)])
    return [Panel(id=k + 1, title=f"p{k}", targets=t)
            for k, t in enumerate(targets)]


def _tenants(**kw) -> list[TenantConfig]:
    return [TenantConfig(name, **kw) for name in TENANTS]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _record(r) -> list:
    return [r.rid, r.tenant, int(r.priority), r.status, r.submit_t,
            r.start_t, r.finish_t, r.points]


def _executor_state(ex: BoundedExecutor) -> dict:
    return {
        "records": [_record(r) for r in ex.records],
        "vpass": {name: q.vpass for name, q in sorted(ex._queues.items())},
        "slots": list(ex.slots),
        "now": ex.now,
        "stats": ex.stats(),
    }


def _frontend_doc(fe: ServingFrontend) -> dict:
    return {
        **_executor_state(fe.executor),
        "outcomes": sorted(fe.outcomes.items()),
        "health": fe.health(),
    }


def _digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Frontend variants
# ----------------------------------------------------------------------
def _load(seed: int, **kw) -> list:
    args = dict(duration_s=3.0, span_s=float(SPAN_S), live_period_s=0.1,
                backfill_period_s=1.0, window_s=60.0, live_deadline_s=None,
                seed=seed)
    args.update(kw)
    return mixed_load(list(TENANTS), _panels(args.pop("percentile", False)), **args)


def _serve(seed: int, *, tenants=None, sharded=False, load=None, **kw) -> ServingFrontend:
    fe = ServingFrontend(_grafana(sharded), tenants or _tenants(),
                         cost_model=kw.pop("cost_model", COST), **kw)
    replay(fe, load if load is not None else _load(seed))
    fe.drain()
    return fe


def _v_base(seed):
    return _serve(seed)


def _v_weights(seed):
    tenants = [TenantConfig(n, weight=w) for n, w in zip(TENANTS, (1.0, 2.5, 4.0))]
    return _serve(seed, tenants=tenants, n_workers=2)


def _v_coalesce_off(seed):
    return _serve(seed, coalesce=False, n_workers=3)


def _v_admission_off(seed):
    tenants = _tenants(rate_per_s=1.0, burst=2.0, max_queue_depth=2)
    return _serve(seed, tenants=tenants, admission_enabled=False, n_workers=2)


def _v_aggressor(seed):
    tenants = _tenants(rate_per_s=8.0, burst=10.0)
    return _serve(seed, tenants=tenants, load=_load(seed, aggressor="adhoc",
                                                aggressor_live_factor=6.0))


def _v_pressure(seed):
    """queue_full, point_quota, rate_limited and deadline timeouts."""
    tenants = [
        TenantConfig("ops", max_queue_depth=3, weight=2.0),
        TenantConfig("perf", point_budget_per_s=100.0, point_burst=600.0),
        TenantConfig("adhoc", rate_per_s=4.0, burst=3.0, max_queue_depth=6),
    ]
    load = _load(seed, live_period_s=0.05, live_deadline_s=0.15,
                 backfill_deadline_s=0.9, backfill_period_s=0.5, aggressor="adhoc",
                 aggressor_live_factor=3.0, aggressor_backfill_factor=2.0)
    return _serve(seed, tenants=tenants, load=load, n_workers=1, aging_s=0.7)


def _v_interleaved(seed):
    """Submissions between ``run(until)`` calls, as a live caller makes them."""
    fe = ServingFrontend(_grafana(), _tenants(), cost_model=COST, n_workers=3,
                         aging_s=0.9)
    load = _load(seed, live_deadline_s=0.4)
    for k in range(0, len(load), 17):
        chunk = load[k:k + 17]
        replay(fe, chunk)
        fe.run(until=chunk[-1].at + 0.05)
    fe.drain()
    return fe


def _v_sharded_percentile(seed):
    """Tier-digest PERCENTILE panels on a router: sketch-served targets."""
    return _serve(seed, sharded=True, n_workers=4,
                  load=_load(seed, percentile=True, live_deadline_s=1.0),
                  cost_model=ServiceCostModel(base_s=0.01, hit_s=0.004,
                                              per_point_s=1e-4, sketch_s=0.003))


FRONTEND_VARIANTS = {
    "base": _v_base,
    "weights": _v_weights,
    "coalesce_off": _v_coalesce_off,
    "admission_off": _v_admission_off,
    "aggressor": _v_aggressor,
    "pressure": _v_pressure,
    "interleaved": _v_interleaved,
    "sharded_percentile": _v_sharded_percentile,
}


# ----------------------------------------------------------------------
# Direct-executor variants: stats() after every event
# ----------------------------------------------------------------------
def _direct(seed: int, *, coalesce: bool) -> tuple[dict, set[str]]:
    """Submit times and service prices on a 0.1 grid (not dyadic), so the
    aging and deadline comparisons meet float edges: on this grid
    ``t - submit_t >= aging_s`` and ``submit_t <= t - aging_s`` disagree
    on most seeds."""
    rng = np.random.default_rng(seed)
    service = [0.1, 0.2, 0.3, 0.4]

    def execute(request, t):
        return request.rid, request.rid % 5, service[request.rid % 4]

    def admit(request, t):
        return request.rid % 11 != 3

    ex = BoundedExecutor(2, execute=execute, aging_s=0.9, coalesce=coalesce,
                         weights={"t0": 2.0, "t3": 0.5})
    for rid in range(90):
        ex.schedule_arrival(QueryRequest(
            rid=rid, tenant=f"t{rid % 4}", panel=None,
            statements=(f"K{int(rng.integers(5))}",),
            submit_t=round(float(rng.uniform(0.0, 6.0)), 1),
            priority=Priority.BACKFILL if rng.random() < 0.4 else Priority.LIVE,
            deadline_s=0.3 if rid % 6 == 0 else None,
        ), admit)
    steps = []
    while ex._step(float("inf")):
        steps.append(ex.stats())
    doc = {**_executor_state(ex), "steps": steps}
    return doc, {r.status for r in ex.records}


def _outcomes(fe: ServingFrontend) -> set[str]:
    return {o.removeprefix("rejected:") for o in fe.outcomes.values()}


def fingerprint(variant: str, seed: int) -> tuple[str, set[str]]:
    if variant.startswith("executor"):
        doc, seen = _direct(seed, coalesce=variant == "executor")
        return _digest(doc), seen
    fe = FRONTEND_VARIANTS[variant](seed)
    return _digest(_frontend_doc(fe)), _outcomes(fe)


VARIANTS = [*FRONTEND_VARIANTS, "executor", "executor_coalesce_off"]
TIER1_VARIANTS = ("pressure", "sharded_percentile", "executor")
ALL_OUTCOMES = {"done", "coalesced", "timeout", "queue_full", "point_quota",
                "rate_limited"}


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("variant", TIER1_VARIANTS)
def test_schedule_matches_golden(variant):
    golden = _golden()
    for seed in SEEDS:
        digest, _ = fingerprint(variant, seed)
        assert digest == golden[f"{variant}/{seed}"], (variant, seed)


@pytest.mark.chaos
def test_full_grid_matches_golden_and_reaches_every_outcome():
    golden, seen = _golden(), set()
    assert set(golden) == {f"{v}/{s}" for v in VARIANTS for s in SEEDS}
    for variant in VARIANTS:
        for seed in SEEDS:
            digest, outcomes = fingerprint(variant, seed)
            assert digest == golden[f"{variant}/{seed}"], (variant, seed)
            seen |= outcomes
    assert ALL_OUTCOMES <= seen, ALL_OUTCOMES - seen


if __name__ == "__main__":
    print(json.dumps({f"{v}/{s}": fingerprint(v, s)[0]
                      for v in VARIANTS for s in SEEDS}, indent=1))
