"""The grammar judges fault windows through the fault schedules themselves.

``Scenario.validate`` and ``ClusterSpec.validate`` used to restate the
fault sets' overlap rule in four loops, and the fault constructors'
parameter checks beside them; they now build each scenario's faults into
throwaway schedules.  The parent's rules are kept below as the oracle:
over generated-and-mutated draws whose windows and parameters are pushed
toward the rules' edges, both accept and reject exactly the same
scenarios.
"""

import dataclasses

from repro.fuzz import (
    FaultSpec,
    LogFaultSpec,
    NodeFaultSpec,
    ScenarioError,
    ShardCrashSpec,
    generate,
    mutate,
    spawn,
)
from repro.fuzz.scenario import LOG_KINDS, NODE_KINDS, SERVICE_KINDS, ClusterSpec


def _overlap(a, b) -> bool:
    return a.t0 < b.t1 and b.t0 < a.t1


def _pairs(xs):
    return ((a, b) for i, a in enumerate(xs) for b in xs[i + 1:])


def parent_accepts(sc) -> bool:
    """The parent grammar's fault-window rules, verbatim in effect: the
    per-spec window and parameter checks and the four overlap loops.
    (Every other field of a draw below comes from a valid scenario.)"""
    h = sc.horizon
    for f in sc.service_faults:
        if f.kind not in SERVICE_KINDS or not 0.0 <= f.t0 < f.t1 or f.t0 >= h:
            return False
        if f.kind == "latency" and f.param < 1.0:
            return False
        if f.kind == "flaky" and not 0.0 < f.param <= 1.0:
            return False
    for f in sc.log_faults:
        if f.kind not in LOG_KINDS or f.t0 < 0 or f.t0 >= h:
            return False
        if f.kind == "consumer-crash" and (
            f.t1 <= f.t0 or f.consumer < 0
            or f.consumer >= (sc.db_writers if f.group == "db-writer" else 1)
        ):
            return False
    if sc.log_faults and sc.mode != "durable":
        return False
    crashes = [f for f in sc.log_faults if f.kind == "consumer-crash"]
    if any(a.group == b.group and a.consumer == b.consumer and _overlap(a, b)
           for a, b in _pairs(crashes)):
        return False
    truncs = [f.t0 for f in sc.log_faults if f.kind == "truncate"]
    if len(set(truncs)) != len(truncs):
        return False
    for c in sc.shard_crashes:
        if (sc.shards < 2 or not 0 <= c.shard < sc.shards
                or not 0.0 <= c.t0 < c.t1 or c.t0 >= h):
            return False
    if any(a.shard == b.shard and _overlap(a, b)
           for a, b in _pairs(sc.shard_crashes)):
        return False
    if sc.cluster is not None:
        nf = sc.cluster.node_faults
        for f in nf:
            if (f.kind not in NODE_KINDS or not 0 <= f.node < sc.cluster.n_nodes
                    or not 0.0 <= f.t0 < f.t1):
                return False
            if f.kind == "hang" and f.param < 1.0:
                return False
            if f.kind == "flap" and not 0.0 < f.param < 1.0:
                return False
        if any(a.kind == b.kind and a.node == b.node and _overlap(a, b)
               for a, b in _pairs(nf)):
            return False
    return True


def accepts(sc) -> bool:
    try:
        sc.validate()
    except ScenarioError:
        return False
    return True


# ----------------------------------------------------------------------
# Raw perturbations: dataclasses.replace, so nothing validates on the way
# ----------------------------------------------------------------------
PARAMS = (-0.1, 0.0, 0.5, 0.999, 1.0, 1.5, 4.0)


def _pick(rng, xs):
    return xs[int(rng.integers(0, len(xs)))]


def _near(rng, f):
    """A copy of window ``f`` moved to overlap it, abut it, or clear it."""
    span = 1.0 if f.t1 == float("inf") else f.t1 - f.t0
    shift = _pick(rng, (0.0, -span, span, span / 2, -span / 2, 2 * span, 1e-3))
    t0 = round(max(0.0, f.t0 + shift), 3)
    t1 = f.t1 if f.t1 == float("inf") else round(f.t1 + shift, 3)
    if rng.random() < 0.15:
        t1 = _pick(rng, (t0, t0 - 0.5))  # empty or inverted
    return dataclasses.replace(f, t0=t0, t1=t1)


def _perturb(sc, rng):
    roll = int(rng.integers(0, 6))
    if roll == 0:  # a service window near another, or with an edge param
        base = (_pick(rng, sc.service_faults) if sc.service_faults
                else FaultSpec(_pick(rng, SERVICE_KINDS), 1.0, 3.0, 2.0))
        new = _near(rng, base)
        if rng.random() < 0.5:
            new = dataclasses.replace(new, param=_pick(rng, PARAMS))
        return dataclasses.replace(sc, service_faults=sc.service_faults + (new,))
    if roll == 1:  # a consumer crash near another one
        crashes = [f for f in sc.log_faults if f.kind == "consumer-crash"]
        base = (_pick(rng, crashes) if crashes
                else LogFaultSpec("consumer-crash", 1.0, 3.0, "db-writer", 0))
        new = _near(rng, base)
        if rng.random() < 0.2:
            new = dataclasses.replace(new, consumer=int(rng.integers(0, 3)))
        return dataclasses.replace(sc, log_faults=sc.log_faults + (new,))
    if roll == 2:  # a truncation, often at an instant already taken
        taken = [f.t0 for f in sc.log_faults] or [2.0]
        t = _pick(rng, taken) if rng.random() < 0.6 else round(float(rng.uniform(0, 9)), 3)
        return dataclasses.replace(
            sc, log_faults=sc.log_faults + (LogFaultSpec("truncate", t),))
    if roll == 3:  # a shard crash near another one
        base = (_pick(rng, sc.shard_crashes) if sc.shard_crashes
                else ShardCrashSpec(int(rng.integers(0, 3)), 1.0, 4.0))
        return dataclasses.replace(
            sc, shard_crashes=sc.shard_crashes + (_near(rng, base),))
    cluster = sc.cluster or ClusterSpec(n_nodes=3)
    base = (_pick(rng, cluster.node_faults) if cluster.node_faults
            else NodeFaultSpec(_pick(rng, NODE_KINDS), 0, 1.0, 5.0, 2.0))
    new = _near(rng, base)
    if rng.random() < 0.3:
        new = dataclasses.replace(new, kind=_pick(rng, NODE_KINDS))
    if rng.random() < 0.4:
        new = dataclasses.replace(new, param=_pick(rng, PARAMS))
    if rng.random() < 0.2:
        new = dataclasses.replace(new, node=int(rng.integers(0, 4)))
    return dataclasses.replace(sc, cluster=dataclasses.replace(
        cluster, node_faults=cluster.node_faults + (new,)))


def _draws(n: int, label: str):
    rng = spawn(27, label)
    parents = [generate(s) for s in range(12)]
    for i in range(n):
        sc, _ = mutate(parents[i % len(parents)], rng, n=int(rng.integers(0, 3)))
        for _ in range(int(rng.integers(1, 4))):
            sc = _perturb(sc, rng)
        yield sc


def test_validate_agrees_with_the_parent_overlap_rules():
    verdicts = []
    for sc in _draws(600, "window-grammar"):
        new, old = accepts(sc), parent_accepts(sc)
        assert new == old, sc.to_json()
        verdicts.append(new)
    # Both sides of every rule are exercised, not just one.
    assert verdicts.count(True) >= 100
    assert verdicts.count(False) >= 100
