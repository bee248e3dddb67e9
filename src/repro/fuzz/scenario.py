"""The scenario grammar: a typed, seed-deterministic description of one
end-to-end run of the whole twin.

A :class:`Scenario` composes every axis the chaos suites used to
hand-enumerate:

- **workload mix** — the Scenario-A sampling run is always present;
  ``observe`` adds a Scenario-B kernel observation (plus a SUPERDB
  federation push when ``federate``), ``stream`` adds a multi-tenant
  dashboard query stream, ``cluster`` adds a scheduled cluster job under
  node faults;
- **machine preset** — any Table II platform;
- **fault schedules** — service faults (:mod:`repro.faults.services`),
  commit-log faults (:mod:`repro.faults.log`), shard crashes and
  cluster node faults (:mod:`repro.faults.nodes`), all as declarative
  window specs;
- **ingest mode** — unbuffered / buffered / durable, with the queue and
  commit-log knobs that matter to the invariants;
- **shard count** — 0 = the single engine, ≥ 2 = the consistent-hash
  router.

Scenarios are frozen, hashable, and round-trip losslessly through JSON —
that is what makes a minimized failing scenario a *replayable seed* the
chaos CI lane can pin forever.  :func:`generate` draws a random (but
seed-deterministic) scenario, and is the only source of the campaign's
scenarios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, TypeVar

from repro.db.aggregates import AGGREGATES
from repro.faults.log import ConsumerCrash, LogFaultSet, LogTruncation
from repro.faults.nodes import NodeCrash, NodeFault, NodeFaultSet, NodeFlap, NodeHang
from repro.faults.services import (
    DbOutage,
    FlakyWrites,
    InsertLatencySpike,
    NetworkPartition,
    ServiceFault,
    ServiceFaultSet,
)
from repro.faults.window import Schedule
from repro.machine.presets import PRESETS

from .rng import derive_seed, spawn

__all__ = [
    "FaultSpec",
    "LogFaultSpec",
    "ShardCrashSpec",
    "NodeFaultSpec",
    "ClusterSpec",
    "TenantSpec",
    "StreamSpec",
    "Scenario",
    "ScenarioError",
    "generate",
]

#: Presets the generator draws from (every Table II CPU platform).
PRESET_POOL = ("icl", "skx", "csl", "zen3")

SERVICE_KINDS = ("outage", "partition", "latency", "flaky")
LOG_KINDS = ("truncate", "consumer-crash")
NODE_KINDS = ("crash", "hang", "flap")
MODES = ("unbuffered", "buffered", "durable")
AGGS = ("", "MEAN", "SUM", "MIN", "MAX", "COUNT", "PERCENTILE")


class ScenarioError(ValueError):
    """A scenario violates the grammar."""


S = TypeVar("S", bound=Schedule)


def _installed(schedule: S, keyed: Iterable[tuple]) -> S:
    """``schedule`` with each ``(*scope, fault)`` of ``keyed`` injected.

    The specs' ``build`` methods are the one place a scenario's windows
    become faults, and the run injects them the same way: so the fault
    constructors and the schedule's overlap rule judge every window, and
    what they refuse is a grammar violation, not a crash of the runner.
    """
    try:
        for key in keyed:
            schedule.inject(*key)
    except ValueError as e:
        raise ScenarioError(str(e)) from None
    return schedule


# ----------------------------------------------------------------------
# Window specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One host-side service fault window (declarative form)."""

    kind: str  # outage | partition | latency | flaky
    t0: float
    t1: float
    #: latency -> factor (>= 1); flaky -> p_fail in (0, 1]; else unused.
    param: float = 0.0

    def validate(self, horizon: float) -> None:
        if self.kind not in SERVICE_KINDS:
            raise ScenarioError(f"unknown service fault kind {self.kind!r}")
        if not 0.0 <= self.t0:
            raise ScenarioError(f"bad fault window [{self.t0}, {self.t1})")
        if self.t0 >= horizon:
            raise ScenarioError("fault window starts past the run horizon")
        if self.kind == "flaky" and not self.param > 0.0:
            raise ScenarioError("flaky p_fail must be in (0, 1]")

    def build(self, seed: int) -> ServiceFault:
        if self.kind == "outage":
            return DbOutage(t0=self.t0, t1=self.t1)
        if self.kind == "partition":
            return NetworkPartition(t0=self.t0, t1=self.t1)
        if self.kind == "latency":
            return InsertLatencySpike(t0=self.t0, t1=self.t1, factor=self.param)
        return FlakyWrites(
            t0=self.t0, t1=self.t1, p_fail=self.param,
            # FlakyWrites packs its seed as a signed int64
            seed=derive_seed(seed, f"flaky@{self.t0}") % (2**63),
        )


@dataclass(frozen=True)
class LogFaultSpec:
    """One commit-log fault: an instant truncation or a consumer-crash
    window (``consumer`` indexes into the group's member ids)."""

    kind: str  # truncate | consumer-crash
    t0: float
    t1: float = 0.0  # unused for truncate; inf encoded as -1 in JSON
    group: str = "db-writer"
    consumer: int = 0

    def validate(self, horizon: float) -> None:
        if self.kind not in LOG_KINDS:
            raise ScenarioError(f"unknown log fault kind {self.kind!r}")
        if self.t0 < 0:
            raise ScenarioError("log fault must start at t >= 0")
        if self.kind == "consumer-crash" and self.consumer < 0:
            raise ScenarioError("consumer index must be >= 0")
        if self.t0 >= horizon:
            raise ScenarioError("log fault starts past the run horizon")

    def build(self) -> LogTruncation | ConsumerCrash:
        if self.kind == "truncate":
            return LogTruncation(at=self.t0)
        cid = f"{self.group}-{self.consumer}"
        return ConsumerCrash(self.group, cid, self.t0, self.t1)


@dataclass(frozen=True)
class ShardCrashSpec:
    """Crash one shard of the router over ``[t0, t1)``."""

    shard: int
    t0: float
    t1: float

    def validate(self, horizon: float, shards: int) -> None:
        if shards < 2:
            raise ScenarioError("shard crash needs a sharded scenario")
        if not 0 <= self.shard < shards:
            raise ScenarioError(f"shard index {self.shard} out of range")
        if not 0.0 <= self.t0:
            raise ScenarioError(f"bad shard-crash window [{self.t0}, {self.t1})")
        if self.t0 >= horizon:
            raise ScenarioError("shard crash starts past the run horizon")

    def build(self) -> NodeCrash:
        return NodeCrash(t0=self.t0, t1=self.t1)


@dataclass(frozen=True)
class NodeFaultSpec:
    """One cluster node fault window (crash / hang / flap)."""

    kind: str
    node: int
    t0: float
    t1: float
    param: float = 0.0  # hang -> factor; flap -> down_fraction

    def validate(self, n_nodes: int) -> None:
        if self.kind not in NODE_KINDS:
            raise ScenarioError(f"unknown node fault kind {self.kind!r}")
        if not 0 <= self.node < n_nodes:
            raise ScenarioError(f"node index {self.node} out of range")
        if not 0.0 <= self.t0:
            raise ScenarioError(f"bad node fault window [{self.t0}, {self.t1})")

    def build(self) -> NodeFault:
        if self.kind == "crash":
            return NodeCrash(t0=self.t0, t1=self.t1)
        if self.kind == "hang":
            return NodeHang(t0=self.t0, t1=self.t1, factor=self.param)
        return NodeFlap(t0=self.t0, t1=self.t1, down_fraction=self.param)


@dataclass(frozen=True)
class ClusterSpec:
    """Optional cluster-job phase: a monitored bulk-synchronous job under
    node faults — the scheduler-requeue / quarantine coverage source."""

    n_nodes: int = 4
    job_nodes: int = 2
    iterations: int = 120
    node_faults: tuple[NodeFaultSpec, ...] = ()

    def validate(self) -> None:
        if not 2 <= self.n_nodes <= 8:
            raise ScenarioError("cluster size must be in [2, 8]")
        if not 1 <= self.job_nodes <= self.n_nodes:
            raise ScenarioError("job cannot span more nodes than the cluster")
        if not 10 <= self.iterations <= 400:
            raise ScenarioError("cluster job iterations must be in [10, 400]")
        for f in self.node_faults:
            f.validate(self.n_nodes)
        _installed(NodeFaultSet(), ((f.node, f.build()) for f in self.node_faults))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the query stream; at most one is the aggressor."""

    name: str
    weight: float = 1.0
    aggressor: bool = False

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("tenant needs a name")
        if self.weight <= 0:
            raise ScenarioError("tenant weight must be positive")


@dataclass(frozen=True)
class StreamSpec:
    """The multi-tenant dashboard query stream served after ingest."""

    duration_s: float = 6.0
    live_period_s: float = 1.0
    backfill_period_s: float = 4.0
    window_s: float = 8.0
    #: Sub-seed of the query schedule's rng.
    order_seed: int = 0
    #: "" = raw panel targets; else every panel gains a downsampled twin
    #: (``agg`` + ``group_by_s``) that exercises the rollup planner —
    #: ``PERCENTILE`` additionally walks the sketch serving planner, with
    #: ``agg_arg`` as its percentile.
    agg: str = ""
    group_by_s: float = 10.0
    agg_arg: float = 95.0
    n_workers: int = 4

    def validate(self) -> None:
        if not 1.0 <= self.duration_s <= 60.0:
            raise ScenarioError("stream duration must be in [1, 60] s")
        if self.live_period_s <= 0 or self.backfill_period_s <= 0:
            raise ScenarioError("stream periods must be positive")
        if self.window_s <= 0:
            raise ScenarioError("stream window must be positive")
        if self.agg not in AGGS:
            raise ScenarioError(f"unknown stream aggregate {self.agg!r}")
        if self.group_by_s <= 0:
            raise ScenarioError("group_by_s must be positive")
        if not AGGREGATES["PERCENTILE"].admits(self.agg_arg):
            raise ScenarioError("agg_arg must be a percentile in [0, 100]")
        if not 1 <= self.n_workers <= 16:
            raise ScenarioError("executor slots must be in [1, 16]")


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------
_SPEC_FIELDS = {
    "service_faults": FaultSpec,
    "log_faults": LogFaultSpec,
    "shard_crashes": ShardCrashSpec,
}


@dataclass(frozen=True)
class Scenario:
    """One fully-specified end-to-end run of the twin."""

    seed: int = 0
    preset: str = "icl"
    duration_s: float = 10.0
    freq_hz: float = 2.0
    mode: str = "unbuffered"
    shards: int = 0

    # buffered-mode knobs
    queue_capacity: int = 32
    queue_policy: str = "drop_oldest"

    # durable-mode knobs
    n_partitions: int = 4
    fsync_every: int = 1
    db_writers: int = 1
    max_apply_attempts: int = 8

    service_faults: tuple[FaultSpec, ...] = ()
    log_faults: tuple[LogFaultSpec, ...] = ()
    shard_crashes: tuple[ShardCrashSpec, ...] = ()

    tenants: tuple[TenantSpec, ...] = ()
    stream: StreamSpec | None = None
    cluster: ClusterSpec | None = None

    #: Scenario-B phase: profile one kernel (adds an observation to the KB).
    observe: bool = False
    #: Push to SUPERDB over a (possibly faulted) WAN link + anti-entropy.
    federate: bool = False
    wan_outage: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Virtual end-of-interest: sampling plus downstream grace."""
        return self.duration_s + 30.0

    def service_fault_set(self) -> ServiceFaultSet:
        return _installed(
            ServiceFaultSet(), ((f.build(self.seed),) for f in self.service_faults)
        )

    def log_fault_set(self) -> LogFaultSet:
        return _installed(LogFaultSet(), ((f.build(),) for f in self.log_faults))

    def validate(self) -> "Scenario":
        """Raise :class:`ScenarioError` on any grammar violation; returns
        self so call sites can chain."""
        if self.preset not in PRESETS:
            raise ScenarioError(f"unknown preset {self.preset!r}")
        if not 2.0 <= self.duration_s <= 60.0:
            raise ScenarioError("duration must be in [2, 60] s")
        if not 0.5 <= self.freq_hz <= 8.0:
            raise ScenarioError("freq must be in [0.5, 8] Hz")
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.shards == 1 or self.shards < 0 or self.shards > 8:
            raise ScenarioError("shards must be 0 (single) or in [2, 8]")
        if not 4 <= self.queue_capacity <= 512:
            raise ScenarioError("queue capacity must be in [4, 512]")
        if self.queue_policy not in ("drop_oldest", "drop_newest", "spill"):
            raise ScenarioError(f"unknown queue policy {self.queue_policy!r}")
        if not 1 <= self.n_partitions <= 16:
            raise ScenarioError("log partitions must be in [1, 16]")
        if not 1 <= self.fsync_every <= 16:
            raise ScenarioError("fsync cadence must be in [1, 16]")
        if not 1 <= self.db_writers <= 4:
            raise ScenarioError("db-writer count must be in [1, 4]")
        if not 1 <= self.max_apply_attempts <= 32:
            raise ScenarioError("apply-attempt budget must be in [1, 32]")
        for f in self.service_faults:
            f.validate(self.horizon)
        for f in self.log_faults:
            f.validate(self.horizon)
            if f.kind == "consumer-crash" and f.consumer >= (
                self.db_writers if f.group == "db-writer" else 1
            ):
                raise ScenarioError(
                    f"consumer index {f.consumer} out of range for {f.group}"
                )
        if self.log_faults and self.mode != "durable":
            raise ScenarioError("log faults need mode='durable'")
        for c in self.shard_crashes:
            c.validate(self.horizon, self.shards)
        # built and thrown away: the fault sets judge every window
        self.service_fault_set()
        self.log_fault_set()
        _installed(NodeFaultSet(), ((c.shard, c.build()) for c in self.shard_crashes))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError("tenant names must be unique")
        if sum(1 for t in self.tenants if t.aggressor) > 1:
            raise ScenarioError("at most one aggressor tenant")
        for t in self.tenants:
            t.validate()
        if self.stream is not None:
            if not self.tenants:
                raise ScenarioError("a query stream needs at least one tenant")
            self.stream.validate()
        if self.tenants and self.stream is None:
            raise ScenarioError("tenants without a query stream are dead weight")
        if self.cluster is not None:
            self.cluster.validate()
        if self.federate and not self.observe:
            raise ScenarioError("federation needs an observation to report")
        if self.wan_outage is not None:
            if not self.federate:
                raise ScenarioError("a WAN outage needs federate=True")
            t0, t1 = self.wan_outage
            if not 0.0 <= t0 < t1:
                raise ScenarioError(f"bad WAN outage window [{t0}, {t1})")
        return self

    # ------------------------------------------------------------------
    # Serialization: lossless JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        def enc(v: Any) -> Any:
            if isinstance(v, tuple):
                return [enc(x) for x in v]
            if hasattr(v, "__dataclass_fields__"):
                return {f.name: enc(getattr(v, f.name)) for f in fields(v)}
            if isinstance(v, float) and v == float("inf"):
                return "inf"
            return v

        return {f.name: enc(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Scenario":
        def num(v: Any) -> Any:
            return float("inf") if v == "inf" else v

        kw: dict[str, Any] = {}
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        for name, value in doc.items():
            if name in _SPEC_FIELDS:
                spec = _SPEC_FIELDS[name]
                kw[name] = tuple(
                    spec(**{k: num(v) for k, v in entry.items()}) for entry in value
                )
            elif name == "tenants":
                kw[name] = tuple(TenantSpec(**entry) for entry in value)
            elif name == "stream":
                kw[name] = None if value is None else StreamSpec(**value)
            elif name == "cluster":
                if value is None:
                    kw[name] = None
                else:
                    nf = tuple(
                        NodeFaultSpec(**{k: num(v) for k, v in entry.items()})
                        for entry in value.get("node_faults", [])
                    )
                    kw[name] = ClusterSpec(
                        **{**{k: v for k, v in value.items() if k != "node_faults"},
                           "node_faults": nf}
                    )
            elif name == "wan_outage":
                kw[name] = None if value is None else (value[0], value[1])
            else:
                kw[name] = value
        return cls(**kw).validate()

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def with_(self, **kw: Any) -> "Scenario":
        """``dataclasses.replace`` + validate."""
        return replace(self, **kw).validate()


# ----------------------------------------------------------------------
# Random generation (the campaign's one source of scenarios)
# ----------------------------------------------------------------------
def _gen_service_fault(rng, horizon: float) -> FaultSpec:
    kind = SERVICE_KINDS[int(rng.integers(0, len(SERVICE_KINDS)))]
    t0 = float(rng.uniform(0.0, horizon * 0.6))
    t1 = t0 + float(rng.uniform(0.5, horizon * 0.4))
    param = 0.0
    if kind == "latency":
        param = float(rng.uniform(2.0, 10.0))
    elif kind == "flaky":
        param = round(float(rng.uniform(0.2, 0.9)), 3)
    return FaultSpec(kind, round(t0, 3), round(t1, 3), param)


def _gen_log_faults(rng, horizon: float, db_writers: int) -> tuple[LogFaultSpec, ...]:
    """One commit-log fault; a consumer crash is sometimes followed by a
    second one that starts just after it ends, so the consumer dies again
    while it replays from its checkpoint."""
    if rng.random() < 0.35:
        return (LogFaultSpec("truncate", round(float(rng.uniform(1.0, horizon * 0.6)), 3)),)
    t0 = float(rng.uniform(0.5, horizon * 0.5))
    t1 = round(t0 + float(rng.uniform(1.0, horizon * 0.4)), 3)
    group = "db-writer" if rng.random() < 0.7 else ("rollup" if rng.random() < 0.5 else "anomaly")
    consumer = int(rng.integers(0, db_writers)) if group == "db-writer" else 0
    crash = LogFaultSpec("consumer-crash", round(t0, 3), t1, group, consumer)
    if rng.random() >= 0.4:
        return (crash,)
    t2 = t1 + float(rng.uniform(0.05, 0.5))
    again = LogFaultSpec("consumer-crash", round(t2, 3),
                         round(t2 + float(rng.uniform(0.5, 2.0)), 3), group, consumer)
    return crash, again


def generate(seed: int, presets: tuple[str, ...] = PRESET_POOL) -> Scenario:
    """Draw one random scenario, a pure function of ``seed``.

    Every axis is drawn independently: preset, rate, ingest mode with its
    queue and commit-log knobs, zero to four shards, zero to two service
    faults, a log fault (sometimes a consumer crash and a second one
    during its replay) when durable, a shard crash when sharded, and each
    optional phase — query stream (any aggregate, a percentile other than
    95 too), cluster job, observation and federation — by its own coin.
    """
    rng = spawn(seed, "scenario.generate")
    preset = presets[int(rng.integers(0, len(presets)))]
    duration = round(float(rng.uniform(4.0, 12.0)), 1)
    freq = float(rng.choice([1.0, 2.0, 4.0]))
    mode = MODES[int(rng.integers(0, len(MODES)))]
    shards = int(rng.choice([0, 0, 2, 3, 4]))
    db_writers = int(rng.integers(1, 3)) if mode == "durable" else 1

    sc = Scenario(
        seed=seed,
        preset=preset,
        duration_s=duration,
        freq_hz=freq,
        mode=mode,
        shards=shards,
        queue_capacity=int(rng.choice([16, 32, 64])),
        queue_policy=str(rng.choice(["drop_oldest", "drop_newest", "spill"])),
        fsync_every=int(rng.choice([1, 3])),
        db_writers=db_writers,
        max_apply_attempts=int(rng.choice([3, 8, 12])),
    )

    n_service = int(rng.integers(0, 3))
    sc = sc.with_(service_faults=tuple(
        _gen_service_fault(rng, duration) for _ in range(n_service)
    ))
    if mode == "durable" and rng.random() < 0.5:
        sc = sc.with_(log_faults=_gen_log_faults(rng, duration, db_writers))
    if shards >= 2 and rng.random() < 0.4:
        t0 = round(float(rng.uniform(1.0, duration)), 3)
        sc = sc.with_(shard_crashes=(
            ShardCrashSpec(int(rng.integers(0, shards)), t0, float("inf")),
        ))

    if rng.random() < 0.5:
        n_tenants = int(rng.integers(2, 5))
        aggressor_at = int(rng.integers(0, n_tenants)) if rng.random() < 0.4 else -1
        tenants = tuple(
            TenantSpec(f"tenant-{i}", weight=float(rng.choice([1.0, 2.0])),
                       aggressor=(i == aggressor_at))
            for i in range(n_tenants)
        )
        agg = str(rng.choice(AGGS))
        stream = StreamSpec(
            duration_s=round(float(rng.uniform(3.0, 8.0)), 1),
            live_period_s=float(rng.choice([0.5, 1.0])),
            backfill_period_s=float(rng.choice([2.0, 4.0])),
            window_s=round(float(rng.uniform(2.0, duration)), 1),
            order_seed=int(rng.integers(0, 2**31)),
            agg=agg,
            group_by_s=float(rng.choice([10.0, 20.0, 60.0, 15.0])),
            agg_arg=float(rng.choice([50.0, 90.0, 95.0, 99.0]))
            if agg == "PERCENTILE" else 95.0,
            n_workers=int(rng.choice([2, 4, 8])),
        )
        sc = sc.with_(tenants=tenants, stream=stream)

    if rng.random() < 0.25:
        n_nodes = int(rng.integers(2, 5))
        n_nf = int(rng.integers(0, 2))
        node_faults = []
        for _ in range(n_nf):
            kind = NODE_KINDS[int(rng.integers(0, len(NODE_KINDS)))]
            t0 = round(float(rng.uniform(0.2, 3.0)), 3)
            t1 = round(t0 + float(rng.uniform(1.0, 20.0)), 3)
            param = {"crash": 0.0, "hang": float(rng.uniform(2.0, 8.0)),
                     "flap": round(float(rng.uniform(0.2, 0.8)), 3)}[kind]
            node_faults.append(
                NodeFaultSpec(kind, int(rng.integers(0, n_nodes)), t0, t1, param)
            )
        sc = sc.with_(cluster=ClusterSpec(
            n_nodes=n_nodes,
            job_nodes=min(2, n_nodes),
            iterations=int(rng.choice([60, 120, 200])),
            node_faults=tuple(node_faults),
        ))

    if rng.random() < 0.25:
        sc = sc.with_(observe=True)
        if rng.random() < 0.6:
            t0 = round(float(rng.uniform(0.0, 2.0)), 3)
            sc = sc.with_(
                federate=True,
                wan_outage=(t0, round(t0 + float(rng.uniform(0.5, 4.0)), 3))
                if rng.random() < 0.7 else None,
            )
    return sc.validate()
