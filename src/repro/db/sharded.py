"""Horizontally sharded InfluxDB: consistent-hash placement, scatter-gather.

One in-process :class:`~repro.db.influx.InfluxDB` engine is the ceiling the
whole substrate has been sitting under — every sampler, dashboard, and
SUPERDB report funnels into a single store.  This module splits the storage
layer into N independent shard engines behind a router, the architecture
DCDB Wintermute runs at datacenter scale (per-domain storage, merged
analytics):

- **Placement** is consistent hashing over the series key — the
  ``(measurement, sorted tag-set)`` pair that already defines a series in
  the engine — so a series lives wholly on one shard and the dominant
  dashboard query (one observation tag → one series) touches exactly one
  engine.  The :class:`HashRing` uses stable 64-bit blake2b positions with
  virtual nodes, so placement is identical across router instances and
  adding/removing a shard moves only the ~K/N keys the ring hands over.

- **Ingest** (`write`/`write_many`/`write_lines`) fans out batched
  per-shard.  The router stamps every point with a global per-measurement
  write sequence and pins it into the shard engine, so rows scattered over
  several engines keep one global (time, seq) order.

- **Queries** run scatter-gather through one dispatch (``_gather``).  A
  query whose matching series all live on one shard delegates verbatim
  (rollup serving, LIMIT pushdown and all).  Multi-shard queries merge
  per-shard partials *exactly*: raw selects and LIMIT put the shards' keyed
  columns in order with the routine an engine orders its series with;
  COUNT adds, MIN/MAX combine associatively (unless NaN made the fold
  order-sensitive), LAST picks the partial with the latest (time, seq) key,
  and MEAN/SUM ride sum/count pairs whenever a single shard holds the
  column's values — any merge that float reordering could perturb is
  re-folded, by the engine's own folds, from the interleaved scan, so
  results stay byte-identical to a single engine.  Sketches (t-digests,
  HLLs) merge only inside the configured error bound.

- **Freshness stamps** combine into per-shard epoch and generation vectors
  and the lowest frontier (:meth:`ShardedInfluxDB.freshness`), so the
  dashboard result cache invalidates on any shard's mutation with a tuple
  compare and keeps what no shard's append can have changed.

- **Faults** ride the PR 4 node-fault model: shards are nodes in a
  :class:`~repro.faults.nodes.NodeFaultSet`, consulted in virtual time.  A
  crashed shard degrades queries that touch its data to *partial* results
  (``last_partial``) instead of erroring; writes routed to it are counted
  as dropped, and everything else keeps flowing.

- **Rebalancing** (`add_shard`/`remove_shard`/`drain_shard`) migrates only
  the consistent-hash-affected series, preserving (time, seq) keys so
  merge order — and therefore every query result — survives the move.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_right, insort
from hashlib import blake2b
from functools import partial
from heapq import merge as _heap_merge

from repro.faults.nodes import NodeFault, NodeFaultSet

from .influx import (
    DEFAULT_ROLLUP_TIERS,
    ColumnRows,
    InfluxDB,
    InfluxError,
    Point,
    _fold_buckets,
    _merge_keyed,
    _values,
    fold_values,
)
from .sketch import SketchConfig, TDigest, nearest_rank, stddev_of, value_key

__all__ = ["HashRing", "ShardedInfluxDB", "series_key"]

_FOLDABLE = frozenset({"MEAN", "MAX", "MIN", "SUM", "COUNT", "LAST"})


def _hash64(s: str) -> int:
    """Stable 64-bit ring position (``hash()`` is salted per process)."""
    return int.from_bytes(blake2b(s.encode(), digest_size=8).digest(), "big")


def series_key(measurement: str, tags) -> str:
    """The placement key of one series: measurement + sorted tag set.

    ``tags`` may be a dict or an already-sorted tuple of (key, value)
    pairs.  Separators outside the tag alphabet keep distinct series from
    colliding into one key.
    """
    items = sorted(tags.items()) if isinstance(tags, dict) else tags
    return "\x00".join([measurement, *(f"{k}\x1f{v}" for k, v in items)])


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard owns ``vnodes`` pseudo-random ring positions; a key belongs
    to the first position clockwise of its own hash.  Placement therefore
    depends only on (key, member set) — stable across instances — and
    membership changes hand over only the arcs the joining/leaving shard
    owns (~K/N of the keys).
    """

    def __init__(self, nodes=(), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise InfluxError("hash ring needs at least one vnode per shard")
        self.vnodes = vnodes
        self.nodes: set[str] = set()
        self._ring: list[tuple[int, str]] = []
        for n in nodes:
            self.add(n)

    def add(self, node: str) -> None:
        if node in self.nodes:
            raise InfluxError(f"shard {node!r} already on the ring")
        self.nodes.add(node)
        for i in range(self.vnodes):
            insort(self._ring, (_hash64(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        if node not in self.nodes:
            raise InfluxError(f"shard {node!r} not on the ring")
        self.nodes.discard(node)
        self._ring = [(h, n) for h, n in self._ring if n != node]

    def place(self, key: str) -> str:
        if not self._ring:
            raise InfluxError("hash ring is empty (no placeable shards)")
        h = _hash64(key)
        idx = bisect_right(self._ring, (h, "￿"))
        if idx == len(self._ring):
            idx = 0
        return self._ring[idx][1]

    def __len__(self) -> int:
        return len(self.nodes)


class ShardedInfluxDB:
    """N shard engines behind a consistent-hash router.

    Drop-in for :class:`~repro.db.influx.InfluxDB` everywhere the substrate
    consumes one (samplers, :mod:`repro.db.influxql`, Grafana, SUPERDB) —
    same method surface, byte-identical query results.
    """

    def __init__(
        self,
        n_shards: int = 4,
        *,
        shard_names: list[str] | None = None,
        rollup_tiers: tuple[float, ...] = DEFAULT_ROLLUP_TIERS,
        vnodes: int = 64,
        faults: NodeFaultSet | None = None,
        sketch: SketchConfig | None = None,
    ) -> None:
        names = list(shard_names) if shard_names else [
            f"shard-{i}" for i in range(n_shards)
        ]
        if not names:
            raise InfluxError("sharded engine needs at least one shard")
        if len(set(names)) != len(names):
            raise InfluxError("shard names must be distinct")
        self._rollup_tiers = rollup_tiers
        self._sketch = sketch
        #: Kept in name order (here and in :meth:`add_shard`): scatter
        #: planning walks it on every read, and the order partials merge in
        #: is part of the byte-identical-to-one-engine contract.
        self.shards: dict[str, InfluxDB] = {
            n: InfluxDB(rollup_tiers, sketch=sketch) for n in sorted(names)
        }
        self.ring = HashRing(names, vnodes=vnodes)
        #: Shard outages ride the cluster node-fault model, in virtual time.
        self.faults = faults if faults is not None else NodeFaultSet()
        self.now = 0.0
        self._databases: dict[str, float | None] = {}  # name → retention
        self._seqs: dict[tuple[str, str], int] = {}  # (db, measurement) → next
        self._placement: dict[tuple[str, tuple], str] = {}  # series → shard
        self._draining: set[str] = set()
        # Observability.
        self.last_partial = False
        self.partial_queries = 0
        self.dropped_points: dict[str, int] = {n: 0 for n in names}
        self.last_rebalance: dict | None = None
        #: When True, fan-out methods record per-shard wall time in
        #: ``last_timings`` — what the shard benchmark's critical-path
        #: throughput model reads.
        self.instrument = False
        self.last_timings: dict | None = None

    # ------------------------------------------------------------------
    # Virtual time & fault surface
    # ------------------------------------------------------------------
    def at(self, t: float) -> "ShardedInfluxDB":
        """Stamp the virtual time the next operation happens at."""
        self.now = t
        return self

    def inject_shard_fault(self, shard: str, fault: NodeFault) -> NodeFault:
        self._require_shard(shard)
        return self.faults.inject(shard, fault)

    def _up(self, shard: str) -> bool:
        return not self.faults.is_down(shard, self.now)

    def shard_states(self) -> dict[str, str]:
        """Lifecycle state per shard: up / draining / down."""
        out = {}
        for name in sorted(self.shards):
            if not self._up(name):
                out[name] = "down"
            elif name in self._draining:
                out[name] = "draining"
            else:
                out[name] = "up"
        return out

    def shard_names(self) -> list[str]:
        return sorted(self.shards)

    def _summed(self, counter: str) -> dict[str, int]:
        """A planner decision counter (:attr:`InfluxDB.rollup_plan`,
        :attr:`InfluxDB.sketch_plan`) summed across shards — the same
        observational surface the single engine exposes."""
        out: dict[str, int] = {}
        for sh in self.shards.values():
            for k, v in getattr(sh, counter).items():
                out[k] = out.get(k, 0) + v
        return out

    rollup_plan = property(partial(_summed, counter="rollup_plan"))
    sketch_plan = property(partial(_summed, counter="sketch_plan"))

    @property
    def sketch_served(self) -> int:
        """:attr:`InfluxDB.sketch_served` summed across shards."""
        return sum(sh.sketch_served for sh in self.shards.values())

    @property
    def sketch(self) -> SketchConfig:
        """The (shared) sketch configuration of the shard engines."""
        return next(iter(self.shards.values())).sketch

    def _require_shard(self, name: str) -> InfluxDB:
        try:
            return self.shards[name]
        except KeyError:
            raise InfluxError(f"unknown shard {name!r}") from None

    # ------------------------------------------------------------------
    # Admin (fans out to every shard)
    # ------------------------------------------------------------------
    def create_database(self, name: str) -> None:
        if not name:
            raise InfluxError("database name cannot be empty")
        self._databases.setdefault(name, None)
        for sh in self.shards.values():
            sh.create_database(name)

    def drop_database(self, name: str) -> None:
        self._databases.pop(name, None)
        for sh in self.shards.values():
            sh.drop_database(name)
        self._seqs = {k: v for k, v in self._seqs.items() if k[0] != name}

    def databases(self) -> list[str]:
        return sorted(self._databases)

    def _check_db(self, db: str) -> None:
        if db not in self._databases:
            raise InfluxError(f"database {db!r} does not exist")

    def set_retention_policy(self, db: str, duration_s: float | None) -> None:
        self._check_db(db)
        self._databases[db] = duration_s
        for sh in self.shards.values():
            sh.set_retention_policy(db, duration_s)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, db: str, measurement: str, tagkey: tuple) -> str:
        """Shard owning one series; memoized per series key."""
        memo = self._placement
        k = (measurement, tagkey)
        sh = memo.get(k)
        if sh is None:
            sh = memo[k] = self.ring.place(series_key(measurement, tagkey))
        return sh

    def shard_for(self, measurement: str, tags: dict[str, str]) -> str:
        """Where one series lives (public probe for tests and tooling)."""
        return self._place("", measurement, tuple(sorted(tags.items())))

    # ------------------------------------------------------------------
    # Instrumented fan-out helper
    # ------------------------------------------------------------------
    def _timed(self, shard_s: dict[str, float], name: str, fn):
        if not self.instrument:
            return fn()
        t0 = _time.perf_counter()
        out = fn()
        shard_s[name] = shard_s.get(name, 0.0) + _time.perf_counter() - t0
        return out

    def _record(self, op: str, shard_s: dict[str, float]) -> None:
        if self.instrument:
            self.last_timings = {"op": op, "shard_s": shard_s}

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, db: str, point: Point) -> None:
        self.write_many(db, [point])

    def write_many(
        self, db: str, points: list[Point], *, seqs: list[int] | None = None
    ) -> int:
        """Route a batch: one grouped ``write_many`` per owning shard.

        Every point gets a global per-(db, measurement) write sequence
        before routing, so cross-shard merges reproduce single-engine row
        order exactly.  ``seqs`` lets a caller that already owns a global
        sequence domain (the durable-ingest apply path pins commit-log
        record seqs) supply the stamps instead; the router's own counter
        advances past them so the two domains never collide.  Points owned
        by a crashed shard are dropped and counted (``dropped_points``) —
        ingest degrades, it does not error.  Returns points actually
        written.
        """
        self._check_db(db)
        if seqs is not None and len(seqs) != len(points):
            raise InfluxError("seqs must align 1:1 with points")
        own_seqs = self._seqs
        memo = self._placement
        place = self.ring.place
        groups: dict[str, tuple[list[Point], list[int]]] = {}
        # Hot loop: one sequence stamp + one memoized placement lookup per
        # point; a 0/1-tag set (the telemetry norm) skips the sort.
        for i, p in enumerate(points):
            meas = p.measurement
            k = (db, meas)
            if seqs is None:
                q = own_seqs.get(k, 0)
                own_seqs[k] = q + 1
            else:
                q = seqs[i]
                if q >= own_seqs.get(k, 0):
                    own_seqs[k] = q + 1
            tags = p.tags
            items = tags.items()
            tagkey = tuple(items) if len(tags) < 2 else tuple(sorted(items))
            pk = (meas, tagkey)
            name = memo.get(pk)
            if name is None:
                name = memo[pk] = place(series_key(meas, tagkey))
            g = groups.get(name)
            if g is None:
                g = groups[name] = ([], [])
            g[0].append(p)
            g[1].append(q)
        written = 0
        shard_s: dict[str, float] = {}
        for name, (pts, qs) in groups.items():
            if not self._up(name):
                self.dropped_points[name] = (
                    self.dropped_points.get(name, 0) + len(pts)
                )
                continue
            written += self._timed(
                shard_s, name,
                lambda sh=self.shards[name], p=pts, q=qs: sh.write_many(
                    db, p, seqs=q
                ),
            )
        self._record("write_many", shard_s)
        return written

    def write_lines(self, db: str, lines: str) -> int:
        """Line-protocol ingest: the whole batch parses before any point
        routes, so a malformed line rejects the batch atomically (the
        single-engine contract)."""
        self._check_db(db)
        batch = [
            Point.from_line(line)
            for line in lines.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        return self.write_many(db, batch)

    # ------------------------------------------------------------------
    # Scatter planning
    # ------------------------------------------------------------------
    def _scatter_shards(
        self, db: str, measurement: str, tags: dict[str, str] | None
    ) -> list[str]:
        """Up shards holding matching series — every read's first step, so
        it also rejects an unknown database and notes whether an outage
        hides data from this query (:attr:`last_partial`).

        The router routed every series here, so probing each engine's tag
        index is its own placement metadata — a *down* shard's index tells
        us whether the outage actually hides data from this query (partial)
        or is irrelevant to it (complete).
        """
        self._check_db(db)
        is_down, now = self.faults.is_down, self.now
        up: list[str] = []
        partial = False
        for name, sh in self.shards.items():
            if sh.series_count(db, measurement, tags):
                if is_down(name, now):
                    partial = True
                else:
                    up.append(name)
        self._note_partial(partial)
        return up

    def _note_partial(self, partial: bool) -> None:
        self.last_partial = partial
        if partial:
            self.partial_queries += 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def measurements(self, db: str) -> list[str]:
        self._check_db(db)
        out: set[str] = set()
        partial = False
        for name, sh in self.shards.items():
            if self._up(name):
                out.update(sh.measurements(db))
            elif sh.measurements(db):  # a down shard hides series: no fold
                partial = True
        self._note_partial(partial)
        return sorted(out)

    def generation(self, db: str, measurement: str) -> tuple[int, ...]:
        """Generation *vector*: one per-shard stamp, ordered by shard name.

        Any write, series drop, retention trim — or a membership change,
        which changes the vector's length — produces a different vector.
        It is the middle element of :meth:`freshness`, which read layers
        use; this spelling stays for callers that only ask "did anything
        move".
        """
        return self.freshness(db, measurement)[1]

    def freshness(
        self, db: str, measurement: str
    ) -> tuple[tuple[int, ...], tuple[int, ...], float]:
        """:meth:`InfluxDB.freshness <repro.db.influx.InfluxDB.freshness>`
        of the whole router: the per-shard epoch vector, the per-shard
        generation vector (both ordered by shard name) and the *lowest*
        frontier among the shards that hold the measurement.

        An in-order append on shard ``i`` lands at or above shard ``i``'s
        frontier, hence at or above the lowest one: a window that ends
        below it is out of every shard's reach while the epoch vector
        holds.  A shard that has never held the measurement reports epoch
        0, so its first write of it — which could lie anywhere in time —
        changes the vector, as does any membership change (its length).
        """
        epochs, gens, lowest = [], [], None
        for name in sorted(self.shards):
            epoch, gen, frontier = self.shards[name].freshness(db, measurement)
            epochs.append(epoch)
            gens.append(gen)
            if epoch and (lowest is None or frontier < lowest):
                lowest = frontier
        return tuple(epochs), tuple(gens), -math.inf if lowest is None else lowest

    def max_seq(
        self, db: str, measurement: str, tags: dict[str, str] | None = None
    ) -> int:
        """Highest pinned write sequence across *all* shards (down shards
        included: their in-memory state models durable storage that comes
        back with the node, so the durable-ingest gate must see it — the
        safe error direction for at-most-once is "already applied")."""
        return max(
            (sh.max_seq(db, measurement, tags) for sh in self.shards.values()),
            default=-1,
        )

    # ------------------------------------------------------------------
    # Scatter-gather
    # ------------------------------------------------------------------
    def _gather(
        self, op: str, db: str, measurement: str, tags, t0, t1,
        t0_exclusive: bool, t1_exclusive: bool, args: tuple, merge,
        names: list[str] | None = None,
    ):
        """The one dispatch of a read.  One contributing shard answers
        ``op`` itself, verbatim (rollup serving, LIMIT pushdown and all).
        Any other number gives ``merge(read)``, where ``read(name, *args,
        **kw)`` is every contributing shard's answer to its read ``name``
        over the same tags and time range, in shard-name order — so the
        answer over no shard is the family's merge of nothing.

        Whichever it is, ``last_timings`` then says ``op`` and how long
        each contributing shard worked for it.  ``names`` is for a caller
        that had to scatter before it came here."""
        if names is None:
            names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        shard_s: dict[str, float] = {}

        def read(name: str, *args, **more):
            return [
                self._timed(
                    shard_s, n,
                    lambda n=n: getattr(self.shards[n], name)(
                        db, measurement, *args, **kw, **more),
                )
                for n in names
            ]

        out = read(op, *args)[0] if len(names) == 1 else merge(read)
        self._record(op, shard_s)
        return out

    def scan_points(
        self,
        db: str,
        measurement: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[tuple[float, int, Point]]:
        return self._gather(
            "scan_points", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (),
            lambda read: list(_heap_merge(
                *read("scan_points"), key=lambda r: (r[0], r[1]))),
        )

    def points(
        self,
        db: str,
        measurement: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[Point]:
        return [
            p
            for _, _, p in self.scan_points(
                db, measurement, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
            )
        ]

    @staticmethod
    def _union_columns(
        per_shard_cols: list[list[str]], columns: list[str] | None
    ) -> list[str]:
        """Merged column set: explicit list verbatim, else the sorted union
        of per-shard discoveries (= the single engine's discovery over the
        same matched rows)."""
        if columns is not None:
            return list(columns)
        out: set[str] = set()
        for cols in per_shard_cols:
            out.update(cols)
        return sorted(out)

    def scan_columns(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
        limit: int | None = None,
    ) -> tuple[list[str], ColumnRows]:
        """Columnar scatter scan.

        One contributing shard delegates verbatim; several have their keyed
        columns (each already LIMIT-pushed) put into (time, seq) order by
        the routine an engine orders its series with — no shard hands over
        more than ``limit`` rows and the router keeps exactly the merged
        prefix.
        """
        names = self._scatter_shards(db, measurement, tags)
        if len(names) == 1:
            # The dashboard's read is a few column slices in the shard —
            # microseconds — so the dispatch around it is one positional
            # call and one clock pair, not ``_gather``'s closures
            # (BENCH_shard.json, 1-shard vs plain).
            t = _time.perf_counter()
            out = self.shards[names[0]].scan_columns(
                db, measurement, columns, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
                limit=limit,
            )
            if self.instrument:
                self.last_timings = {
                    "op": "scan_columns",
                    "shard_s": {names[0]: _time.perf_counter() - t},
                }
            return out
        return self._gather(
            "scan_columns", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (columns,),
            lambda read: self._merged_scan(read, columns, limit), names,
        )

    def _merged_scan(
        self, read, columns: list[str] | None, limit: int | None = None
    ) -> tuple[list[str], ColumnRows]:
        """The shards' rows as one engine's ``scan_columns`` would hand
        them over: what the router's own answers with, and what every exact
        re-fold below folds."""
        per = read("scan_keyed", columns, limit=limit)
        cols = self._union_columns([c for c, _ in per], columns)
        runs = []
        for shard_cols, (times, seqs, values) in per:
            have = dict(zip(shard_cols, values))
            runs.append((times, seqs, [have.get(c) for c in cols]))
        return cols, ColumnRows(*_merge_keyed(runs, len(cols), limit))

    # ------------------------------------------------------------------
    # One answer per (bucket, column): aggregates, percentiles, STDDEV
    # ------------------------------------------------------------------
    # Between shards such an answer is ``(columns, bucket starts, [[answer
    # per bucket] per column])`` — an ungrouped read being one bucket that
    # starts at its first row — and leaves through ``_rows`` or ``_row`` in
    # the shape the engine gives it.  ``_folded_scan`` works it out exactly,
    # as the engine's own fold of the interleaved rows.  ``_merged_partials``
    # works it out from one *slot* per shard, bucket and column (a partial
    # stat, a t-digest) wherever the family's ``merge`` says that is
    # provably the same answer, and folds the rest.
    #
    # A stat is (count, total, vmin, vmax, last, last_t, last_seq, has_nan);
    # see InfluxDB.aggregate_partials.  ``_merge_stats`` returns the
    # _FALLBACK sentinel for MEAN/SUM split across shards (float summation
    # order), MIN/MAX with a NaN in the fold, and LAST whose winning key a
    # rollup did not store.

    _FALLBACK = object()

    @staticmethod
    def _rows(cols: list[str], starts: list, out: list):
        return cols, ColumnRows(starts, out)

    @staticmethod
    def _row(cols: list[str], starts: list, out: list):
        return cols, starts[0], [None if col is None else col[0] for col in out]

    @classmethod
    def _merge_stats(cls, agg: str, stats: list[tuple]):
        if not stats:
            return None
        if agg == "COUNT":
            return float(sum(st[0] for st in stats))
        if len(stats) == 1:
            count, total, vmin, vmax, last = stats[0][:5]
            if agg == "MEAN":
                return total / count
            if agg == "SUM":
                return total
            if agg == "MIN":
                return vmin
            if agg == "MAX":
                return vmax
            return last  # LAST
        if agg in ("MEAN", "SUM"):
            return cls._FALLBACK  # float summation order must not reorder
        if agg in ("MIN", "MAX"):
            if any(st[7] for st in stats):
                return cls._FALLBACK  # NaN makes the fold order-sensitive
            vals = [st[2] if agg == "MIN" else st[3] for st in stats]
            best = min(vals) if agg == "MIN" else max(vals)
            # min/max keep the *first* extremum in fold order, and -0.0 ==
            # 0.0: a tie between bit-distinct values is order-sensitive,
            # so only a bitwise-unambiguous extremum merges associatively.
            if any(v == best and repr(v) != repr(best) for v in vals):
                return cls._FALLBACK
            return best
        # LAST: the partial with the latest (time, seq) key wins.
        if any(st[5] is None for st in stats):
            return cls._FALLBACK  # rollup-served partial lost its key
        return max(stats, key=lambda st: (st[5], st[6]))[4]

    def _merged_sketch(self, sketches: list):
        """The shards' sketches of one slot — t-digests or HLLs, at least
        one — as one.  This is the only place the router answers
        approximately, so the only place it checks that it may: _FALLBACK
        when the error bound of what it would hand over exceeds the one
        configured (:class:`~repro.db.sketch.SketchConfig`; a digest's
        doubles once it is a merge)."""
        cfg = self.sketch
        first = sketches[0]
        if isinstance(first, TDigest):
            ok = cfg.digest_bound(merged=len(sketches) > 1) <= cfg.epsilon
        else:
            ok = first.error_bound() <= cfg.hll_epsilon
        if not ok:
            return self._FALLBACK
        return first if len(sketches) == 1 else type(first).merged(sketches)

    def _merge_digests(self, q: float, digests: list[TDigest]):
        if not digests:
            return None
        d = self._merged_sketch(digests)
        return d if d is self._FALLBACK else d.quantile(q)

    def _folded_scan(self, read, columns, group_by_s: float | None, fold):
        """The exact answer: ``fold`` of each bucket's values in (time,
        seq) order, by the routines the engine folds its own rows with."""
        cols, rows = self._merged_scan(read, columns)
        if group_by_s is not None:
            out = _fold_buckets(
                rows.times, rows.cols, 0, len(rows), group_by_s, fold)
            return cols, out.times, out.cols
        return cols, rows.times[:1] or [None], [
            None if col is None else [fold(_values(col, 0, len(rows)))]
            for col in rows.cols]

    def _merged_partials(
        self, read, name: str, columns, group_by_s: float | None, merge, fold
    ):
        """The answer from every shard's partial read ``name``: its slots
        regrouped onto the union columns and the union of buckets, each
        (bucket, column) finalized by ``merge(slots)`` — and, where that
        falls back, taken from :meth:`_folded_scan`."""
        if group_by_s is None:
            per = read(name, columns)
            starts = [min((t for _, t, _ in per if t is not None), default=None)]
            per = [(cols, [(starts[0], slots)]) for cols, _, slots in per]
        else:
            per = read(name, group_by_s, columns)
            starts = sorted({b for _, rows in per for b in rows.times})
        cols = self._union_columns([c for c, _ in per], columns)
        place = {b: k for k, b in enumerate(starts)}
        held: list[list[list]] = [[[] for _ in starts] for _ in cols]
        for shard_cols, rows in per:
            idx = [shard_cols.index(c) if c in shard_cols else None for c in cols]
            for b, slots in rows:
                k = place[b]
                for into, i in zip(held, idx):
                    if i is not None and slots[i] is not None:
                        into[k].append(slots[i])
        out = [[merge(slots) for slots in col] for col in held]
        again = [ci for ci, col in enumerate(out)
                 if any(v is self._FALLBACK for v in col)]
        if again:
            _, _, exact = self._folded_scan(
                read, [cols[ci] for ci in again], group_by_s, fold)
            for ci, ecol in zip(again, exact):
                out[ci] = [e if v is self._FALLBACK else v
                           for v, e in zip(out[ci], ecol)]
        return cols, starts, out

    def aggregate_columns(
        self,
        db: str,
        measurement: str,
        agg: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        """Scatter-gather aggregate: per-shard partials, merged exactly."""
        if agg not in _FOLDABLE:
            raise InfluxError(f"unknown aggregate {agg}")
        return self._gather(
            "aggregate_columns", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (agg, columns),
            lambda read: self._row(*self._merged_partials(
                read, "aggregate_partials", columns, None,
                partial(self._merge_stats, agg), partial(fold_values, agg))),
        )

    def scan_buckets(
        self,
        db: str,
        measurement: str,
        agg: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        """``GROUP BY time(N)`` scatter-gather.

        Per-shard bucket partials (rollup-served where the shard's planner
        allows) merge bucket-by-bucket under the same exactness rules as
        :meth:`aggregate_columns`; any (bucket, column) slot a partial
        merge cannot reproduce bit-for-bit is re-folded from one shared
        interleaved scan.
        """
        if agg not in _FOLDABLE:
            raise InfluxError(f"unknown aggregate {agg}")
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        return self._gather(
            "scan_buckets", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (agg, group_by_s, columns),
            lambda read: self._rows(*self._merged_partials(
                read, "bucket_partials", columns, group_by_s,
                partial(self._merge_stats, agg), partial(fold_values, agg))),
        )

    # PERCENTILE ships per-shard t-digest partials and merges them as
    # digests (true merge — the whole point of mergeable sketches), so the
    # cross-shard answer carries the same rank-error bound as a single
    # engine's, and is the exact nearest rank where the configuration
    # promises less than that.  COUNT(DISTINCT) merges per-shard HLLs
    # register-wise when every shard may serve approximately, else unions
    # the value-keyed exact lists.  STDDEV and DISTINCT are exact: a fold
    # of the interleaved scan and a merge of first occurrences,
    # byte-identical to the unsharded engine.

    def quantile_columns(
        self,
        db: str,
        measurement: str,
        pct: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        return self._gather(
            "quantile_columns", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (pct, columns),
            lambda read: self._row(*self._merged_partials(
                read, "quantile_partials", columns, None,
                partial(self._merge_digests, pct / 100.0),
                partial(nearest_rank, pct=pct))),
        )

    def quantile_buckets(
        self,
        db: str,
        measurement: str,
        pct: float,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        return self._gather(
            "quantile_buckets", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (pct, group_by_s, columns),
            lambda read: self._rows(*self._merged_partials(
                read, "quantile_bucket_partials", columns, group_by_s,
                partial(self._merge_digests, pct / 100.0),
                partial(nearest_rank, pct=pct))),
        )

    def stddev_columns(
        self,
        db: str,
        measurement: str,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], float | None, list[float | None]]:
        """Exact: single contributing shard delegates (rollup-partial
        serving and all); multi-shard re-folds the interleaved keyed scan in
        single-engine row order, so results stay byte-identical."""
        return self._gather(
            "stddev_columns", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (columns,),
            lambda read: self._row(
                *self._folded_scan(read, columns, None, stddev_of)),
        )

    def stddev_buckets(
        self,
        db: str,
        measurement: str,
        group_by_s: float,
        columns: list[str] | None = None,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[list[str], ColumnRows]:
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        return self._gather(
            "stddev_buckets", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (group_by_s, columns),
            lambda read: self._rows(
                *self._folded_scan(read, columns, group_by_s, stddev_of)),
        )

    def distinct_values(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> list[tuple[float, float]]:
        """Exact DISTINCT: per-shard value-keyed lists merged on the global
        (time, seq) first-occurrence key."""
        def merge(read):
            best: dict[bytes, tuple[float, int, float]] = {}
            for keyed in read("distinct_keyed", column):
                for t, seq, v in keyed:
                    vk = value_key(v)
                    prev = best.get(vk)
                    if prev is None or (t, seq) < (prev[0], prev[1]):
                        best[vk] = (t, seq, v)
            return [(t, v) for t, _, v in sorted(best.values())]

        return self._gather(
            "distinct_values", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (column,), merge,
        )

    def count_distinct(
        self,
        db: str,
        measurement: str,
        column: str,
        tags: dict[str, str] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        *,
        t0_exclusive: bool = False,
        t1_exclusive: bool = False,
    ) -> tuple[float | None, float | None]:
        """COUNT(DISTINCT): register-wise HLL merge when every contributing
        shard may serve approximately, else an exact value-key union."""
        def merge(read):
            per = read("distinct_partials", column)
            first_t = min((t for t, _, _ in per if t is not None), default=None)
            hlls = [h for _, h, _ in per if h is not None]
            if hlls and len(hlls) == len(per):
                hll = self._merged_sketch(hlls)
                if hll is not self._FALLBACK:
                    return first_t, float(round(hll.count()))
            keys: set[bytes] = set()
            for _, _, exact in per:
                keys.update(value_key(v) for _, _, v in exact)
            return first_t, (float(len(keys)) if keys else None)

        return self._gather(
            "count_distinct", db, measurement, tags, t0, t1, t0_exclusive,
            t1_exclusive, (column,), merge,
        )

    # ------------------------------------------------------------------
    # Series administration, retention, stats
    # ------------------------------------------------------------------
    def delete_series(
        self, db: str, measurement: str, tags: dict[str, str] | None = None
    ) -> int:
        self._check_db(db)
        removed = 0
        partial = False
        for name, sh in self.shards.items():
            if self._up(name):
                removed += sh.delete_series(db, measurement, tags)
            elif sh.series_count(db, measurement, tags):
                partial = True
        self._note_partial(partial)
        return removed

    def enforce_retention(self, db: str, now: float) -> int:
        """Fan-out retention; a down shard is skipped (its horizon catches
        up on the next enforcement after recovery — the call is idempotent
        per horizon)."""
        self._check_db(db)
        return sum(
            sh.enforce_retention(db, now)
            for name, sh in self.shards.items()
            if self._up(name)
        )

    def stats(self, db: str) -> dict:
        """Aggregated counters plus the per-shard breakdown (the
        introspection surface the rebalancer, balance tests, and the
        ``pmove shard`` CLI read)."""
        self._check_db(db)
        per = {
            name: self.shards[name].stats(db) for name in sorted(self.shards)
        }
        out: dict = {
            k: sum(s[k] for s in per.values())
            for k in (
                "points_written", "bytes_written", "series_stored",
                "series_count",
            )
        }
        out["shards"] = per
        out["dropped_points"] = dict(self.dropped_points)
        return out

    # ------------------------------------------------------------------
    # Rebalancing & migration
    # ------------------------------------------------------------------
    def add_shard(
        self, name: str | None = None, *, engine: InfluxDB | None = None
    ) -> dict:
        """Attach a new shard and migrate the ring-affected series in."""
        if name is None:
            i = len(self.shards)
            while f"shard-{i}" in self.shards:
                i += 1
            name = f"shard-{i}"
        if name in self.shards:
            raise InfluxError(f"shard {name!r} already attached")
        engine = engine or InfluxDB(self._rollup_tiers, sketch=self._sketch)
        for db, duration in self._databases.items():
            engine.create_database(db)
            if duration is not None:
                engine.set_retention_policy(db, duration)
        self.shards[name] = engine
        self.shards = dict(sorted(self.shards.items()))
        self.dropped_points.setdefault(name, 0)
        self.ring.add(name)
        return self._rebalance(f"add {name}")

    def drain_shard(self, name: str) -> dict:
        """Planned maintenance: take ``name`` out of placement and move its
        series to their new ring owners; the engine stays attached (and
        queryable — it is empty) until :meth:`remove_shard`."""
        self._require_shard(name)
        if not self._up(name):
            raise InfluxError(
                f"shard {name!r} is down; clear the fault before draining"
            )
        if name in self.ring.nodes:
            if len(self.ring) <= 1:
                raise InfluxError("cannot drain the last placeable shard")
            self.ring.remove(name)
            self._draining.add(name)
        return self._rebalance(f"drain {name}")

    def remove_shard(self, name: str) -> dict:
        """Drain ``name`` (if still placeable) and detach its engine."""
        self._require_shard(name)
        if len(self.shards) <= 1:
            raise InfluxError("cannot remove the last shard")
        summary = self.drain_shard(name) if name in self.ring.nodes else (
            self._rebalance(f"remove {name}")
        )
        del self.shards[name]
        self._draining.discard(name)
        self.dropped_points.pop(name, None)
        summary["reason"] = f"remove {name}"
        return summary

    def _rebalance(self, reason: str) -> dict:
        """Move every series whose ring placement changed; nothing else.

        Rows migrate with their (time, seq) keys intact, so merge order —
        and every query result — is invariant under rebalancing.  Requires
        all shards up: a crashed shard's data is unreachable, so migrating
        it would fabricate availability the deployment does not have.
        """
        down = [n for n in self.shards if not self._up(n)]
        if down:
            raise InfluxError(
                f"rebalance requires every shard up; down: {down}"
            )
        self._placement.clear()
        memo = self._placement
        moved_series = moved_points = 0
        for db in sorted(self._databases):
            for src_name in sorted(self.shards):
                src = self.shards[src_name]
                for measurement, tags in src.list_series(db):
                    tagkey = tuple(sorted(tags.items()))
                    dst_name = self.ring.place(series_key(measurement, tagkey))
                    memo[(measurement, tagkey)] = dst_name
                    if dst_name == src_name:
                        continue
                    rows = src.pop_series(db, measurement, tags)
                    if rows:
                        self.shards[dst_name].import_rows(
                            db, measurement, tags, rows
                        )
                        moved_series += 1
                        moved_points += len(rows)
        self.last_rebalance = {
            "reason": reason,
            "moved_series": moved_series,
            "moved_points": moved_points,
            "shards": sorted(self.shards),
        }
        return dict(self.last_rebalance)
