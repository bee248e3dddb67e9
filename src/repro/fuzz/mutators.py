"""Mutation operators over :class:`~repro.fuzz.scenario.Scenario`.

fuddly-style disruptor chains: each operator is a small, composable
transform ``(scenario, rng) -> scenario | None`` drawn from a registry;
the campaign stacks 1–3 of them per child.  ``None`` means "not
applicable here" (e.g. *widen a fault window* on a scenario with no
faults) and the chain simply skips that link — invalid children are
impossible by construction because every operator funnels through
``Scenario.with_`` which re-validates.

The operators the issue names, plus the structural ones that make them
reachable:

- window surgery: :func:`widen_window`, :func:`shift_window`,
  :func:`split_window`;
- population: :func:`add_fault`, :func:`drop_fault`,
  :func:`add_tenant`, :func:`drop_tenant`;
- platform: :func:`swap_preset`, :func:`toggle_mode`,
  :func:`change_shards`;
- stream: :func:`reorder_queries`, :func:`toggle_rollup_stream`;
- log: :func:`crash_consumer_mid_replay` — stacks a *second* crash
  window right after an existing one ends, hitting the
  replay-from-checkpoint path while it is replaying.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .scenario import (
    AGGS,
    MODES,
    PRESET_POOL,
    LogFaultSpec,
    Scenario,
    ScenarioError,
    ShardCrashSpec,
    StreamSpec,
    TenantSpec,
    _gen_log_fault,
    _gen_service_fault,
)

__all__ = ["MUTATORS", "mutate", "mutant_name"]

Mutator = Callable[[Scenario, np.random.Generator], Optional[Scenario]]


def _guarded(sc: Scenario, **kw) -> Scenario | None:
    """``with_`` that treats grammar violations as "not applicable"."""
    try:
        return sc.with_(**kw)
    except ScenarioError:
        return None


# ----------------------------------------------------------------------
# Window surgery (service faults, log faults, shard crashes alike)
# ----------------------------------------------------------------------
def _windows(sc: Scenario) -> list[tuple[str, int]]:
    """(field, index) handles for every mutable fault window."""
    handles: list[tuple[str, int]] = []
    handles += [("service_faults", i) for i in range(len(sc.service_faults))]
    handles += [
        ("log_faults", i)
        for i, f in enumerate(sc.log_faults)
        if f.kind == "consumer-crash"
    ]
    handles += [("shard_crashes", i) for i in range(len(sc.shard_crashes))]
    return handles


def _rewrite(sc: Scenario, field: str, idx: int, t0: float, t1: float) -> Scenario | None:
    entries = list(getattr(sc, field))
    entries[idx] = replace(entries[idx], t0=t0, t1=t1)
    return _guarded(sc, **{field: tuple(entries)})


def widen_window(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Stretch one fault window by 1.2–3× (both edges)."""
    handles = _windows(sc)
    if not handles:
        return None
    field, idx = handles[int(rng.integers(0, len(handles)))]
    f = getattr(sc, field)[idx]
    if f.t1 == float("inf"):
        return _rewrite(sc, field, idx, max(0.0, round(f.t0 * 0.5, 3)), f.t1)
    span = f.t1 - f.t0
    grow = span * float(rng.uniform(0.2, 2.0))
    t0 = max(0.0, round(f.t0 - grow / 2, 3))
    return _rewrite(sc, field, idx, t0, round(f.t1 + grow / 2, 3))


def shift_window(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Slide one fault window earlier or later, preserving its span."""
    handles = _windows(sc)
    if not handles:
        return None
    field, idx = handles[int(rng.integers(0, len(handles)))]
    f = getattr(sc, field)[idx]
    delta = float(rng.uniform(-0.5, 0.5)) * sc.duration_s
    t0 = max(0.0, round(f.t0 + delta, 3))
    t1 = f.t1 if f.t1 == float("inf") else round(f.t1 + delta, 3)
    return _rewrite(sc, field, idx, t0, t1)


def split_window(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Split one finite window into two with a gap — twice the edges."""
    handles = [
        (fld, i) for fld, i in _windows(sc)
        if getattr(sc, fld)[i].t1 != float("inf")
        and getattr(sc, fld)[i].t1 - getattr(sc, fld)[i].t0 >= 1.0
    ]
    if not handles:
        return None
    field, idx = handles[int(rng.integers(0, len(handles)))]
    entries = list(getattr(sc, field))
    f = entries[idx]
    mid = f.t0 + (f.t1 - f.t0) * float(rng.uniform(0.3, 0.7))
    gap = (f.t1 - f.t0) * 0.1
    lo, hi = round(mid - gap / 2, 3), round(mid + gap / 2, 3)
    entries[idx : idx + 1] = [replace(f, t1=lo), replace(f, t0=hi)]
    return _guarded(sc, **{field: tuple(entries)})


# ----------------------------------------------------------------------
# Population
# ----------------------------------------------------------------------
def add_fault(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    roll = rng.random()
    if roll < 0.5 or (sc.mode != "durable" and sc.shards < 2):
        fault = _gen_service_fault(rng, sc.duration_s)
        return _guarded(sc, service_faults=sc.service_faults + (fault,))
    if sc.mode == "durable" and (roll < 0.8 or sc.shards < 2):
        fault = _gen_log_fault(rng, sc.duration_s, sc.db_writers)
        return _guarded(sc, log_faults=sc.log_faults + (fault,))
    t0 = round(float(rng.uniform(0.5, sc.duration_s)), 3)
    t1 = float("inf") if rng.random() < 0.5 else round(
        t0 + float(rng.uniform(0.5, sc.duration_s)), 3
    )
    crash = ShardCrashSpec(int(rng.integers(0, sc.shards)), t0, t1)
    return _guarded(sc, shard_crashes=sc.shard_crashes + (crash,))


def drop_fault(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    pools = [
        (fld, list(getattr(sc, fld)))
        for fld in ("service_faults", "log_faults", "shard_crashes")
        if getattr(sc, fld)
    ]
    if not pools:
        return None
    field, entries = pools[int(rng.integers(0, len(pools)))]
    del entries[int(rng.integers(0, len(entries)))]
    return _guarded(sc, **{field: tuple(entries)})


def add_tenant(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    existing = {t.name for t in sc.tenants}
    i = len(sc.tenants)
    while f"tenant-{i}" in existing:
        i += 1
    aggressor = not any(t.aggressor for t in sc.tenants) and rng.random() < 0.4
    tenants = sc.tenants + (
        TenantSpec(f"tenant-{i}", float(rng.choice([1.0, 2.0, 4.0])), aggressor),
    )
    stream = sc.stream or StreamSpec(order_seed=int(rng.integers(0, 2**31)))
    return _guarded(sc, tenants=tenants, stream=stream)


def drop_tenant(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    if not sc.tenants:
        return None
    tenants = list(sc.tenants)
    del tenants[int(rng.integers(0, len(tenants)))]
    if not tenants:
        return _guarded(sc, tenants=(), stream=None)
    return _guarded(sc, tenants=tuple(tenants))


# ----------------------------------------------------------------------
# Platform
# ----------------------------------------------------------------------
def swap_preset(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    others = [p for p in PRESET_POOL if p != sc.preset]
    return _guarded(sc, preset=others[int(rng.integers(0, len(others)))])


def toggle_mode(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    others = [m for m in MODES if m != sc.mode]
    mode = others[int(rng.integers(0, len(others)))]
    kw = {"mode": mode}
    if mode != "durable":
        kw["log_faults"] = ()
    return _guarded(sc, **kw)


def change_shards(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    others = [n for n in (0, 2, 3, 4) if n != sc.shards]
    shards = others[int(rng.integers(0, len(others)))]
    kw = {"shards": shards}
    if shards < 2:
        kw["shard_crashes"] = ()
    else:
        kw["shard_crashes"] = tuple(
            ShardCrashSpec(min(c.shard, shards - 1), c.t0, c.t1)
            for c in sc.shard_crashes
        )
    return _guarded(sc, **kw)


# ----------------------------------------------------------------------
# Stream & log
# ----------------------------------------------------------------------
def reorder_queries(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Re-draw the stream's schedule sub-seed — same mix, new interleaving."""
    if sc.stream is None:
        return None
    stream = StreamSpec(
        **{**sc.stream.__dict__, "order_seed": int(rng.integers(0, 2**31))}
    )
    return _guarded(sc, stream=stream)


def toggle_rollup_stream(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Flip the stream between raw targets and rollup-planned GROUP BY."""
    if sc.stream is None:
        return None
    agg = str(rng.choice([a for a in AGGS if a != sc.stream.agg]))
    stream = StreamSpec(**{**sc.stream.__dict__, "agg": agg})
    return _guarded(sc, stream=stream)


def toggle_percentile_stream(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Flip the stream's downsampled twin into ``PERCENTILE`` queries (or
    back to a scalar aggregate).  ``toggle_rollup_stream`` can land on
    PERCENTILE by luck, but the sketch serving planner's frontier
    (tier serves, merge-bound and error-bound fallbacks) sits behind the
    *combination* of PERCENTILE with a specific percentile, so a
    dedicated operator keeps the corpus exploring it."""
    if sc.stream is None:
        return None
    if sc.stream.agg == "PERCENTILE":
        agg = str(rng.choice([a for a in AGGS if a not in ("", "PERCENTILE")]))
        stream = StreamSpec(**{**sc.stream.__dict__, "agg": agg})
    else:
        pct = float(rng.choice([50.0, 90.0, 95.0, 99.0]))
        stream = StreamSpec(
            **{**sc.stream.__dict__, "agg": "PERCENTILE", "agg_arg": pct}
        )
    return _guarded(sc, stream=stream)


def make_durable(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Escalate into the deep end in one step: durable ingest plus a log
    fault.  ``toggle_mode`` + ``add_fault`` can get here in two lucky
    links, but the coverage frontier (DLQ parks, breaker trips, replay
    interruptions) lives behind this *combination*, so a dedicated
    operator keeps the corpus from starving it."""
    if sc.mode == "durable" and sc.log_faults:
        return None
    fault = _gen_log_fault(rng, sc.duration_s, sc.db_writers)
    return _guarded(
        sc, mode="durable", log_faults=sc.log_faults + (fault,)
    )


def crash_consumer_mid_replay(sc: Scenario, rng: np.random.Generator) -> Scenario | None:
    """Stack a second crash right after an existing one ends, so the
    consumer dies *while replaying from its checkpoint*."""
    crashes = [
        f for f in sc.log_faults
        if f.kind == "consumer-crash" and f.t1 != float("inf")
    ]
    if not crashes or sc.mode != "durable":
        return None
    base = crashes[int(rng.integers(0, len(crashes)))]
    gap = float(rng.uniform(0.05, 0.5))
    again = LogFaultSpec(
        "consumer-crash",
        round(base.t1 + gap, 3),
        round(base.t1 + gap + float(rng.uniform(0.5, 2.0)), 3),
        base.group,
        base.consumer,
    )
    return _guarded(sc, log_faults=sc.log_faults + (again,))


# ----------------------------------------------------------------------
# Registry & the chain driver
# ----------------------------------------------------------------------
MUTATORS: tuple[Mutator, ...] = (
    widen_window,
    shift_window,
    split_window,
    add_fault,
    drop_fault,
    add_tenant,
    drop_tenant,
    swap_preset,
    toggle_mode,
    change_shards,
    reorder_queries,
    toggle_rollup_stream,
    toggle_percentile_stream,
    make_durable,
    crash_consumer_mid_replay,
)


def mutant_name(fn: Mutator) -> str:
    return fn.__name__


def mutate(
    sc: Scenario, rng: np.random.Generator, n: int = 1
) -> tuple[Scenario, list[str]]:
    """Apply a chain of ``n`` randomly-drawn operators; returns the child
    and the names of the links that actually applied.

    Inapplicable links are skipped (with a bounded number of re-draws),
    so the child is always a *valid* scenario — possibly identical to
    the parent when nothing applied."""
    applied: list[str] = []
    current = sc
    for _ in range(n):
        for _attempt in range(6):
            op = MUTATORS[int(rng.integers(0, len(MUTATORS)))]
            child = op(current, rng)
            if child is not None and child.key() != current.key():
                current = child
                applied.append(mutant_name(op))
                break
    return current, applied
