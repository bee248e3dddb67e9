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

- **Queries** run scatter-gather.  A query whose matching series all live
  on one shard delegates verbatim (rollup serving, LIMIT pushdown and all).
  Multi-shard queries merge per-shard partials *exactly*: raw selects and
  LIMIT are a heapq k-way merge of per-shard keyed streams; COUNT adds,
  MIN/MAX combine associatively (unless NaN made the fold order-sensitive),
  LAST picks the partial with the latest (time, seq) key, and MEAN/SUM ride
  sum/count pairs whenever a single shard holds the column's values — any
  merge that float reordering could perturb falls back to an interleaved
  k-way fold, so results stay byte-identical to a single engine.

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
from heapq import merge as _heap_merge

from repro.faults.nodes import NodeFault, NodeFaultSet

from .influx import (
    DEFAULT_ROLLUP_TIERS,
    InfluxDB,
    InfluxError,
    Point,
    fold_values,
)
from .sketch import HyperLogLog, SketchConfig, TDigest, stddev_of, value_key

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

    @property
    def rollup_plan(self) -> dict[str, int]:
        """Rollup-planner decision counters summed across shards — the
        same observational surface :attr:`InfluxDB.rollup_plan` exposes on
        the single engine."""
        out: dict[str, int] = {}
        for sh in self.shards.values():
            for k, v in sh.rollup_plan.items():
                out[k] = out.get(k, 0) + v
        return out

    @property
    def sketch_plan(self) -> dict[str, int]:
        """Sketch-planner decision counters summed across shards."""
        out: dict[str, int] = {}
        for sh in self.shards.values():
            for k, v in sh.sketch_plan.items():
                out[k] = out.get(k, 0) + v
        return out

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
            elif sh.stats(db)["series_count"]:
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
        names = self._scatter_shards(db, measurement, tags)
        streams = [
            self.shards[n].scan_points(
                db, measurement, tags, t0, t1,
                t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
            )
            for n in names
        ]
        if len(streams) <= 1:
            return streams[0] if streams else []
        return list(_heap_merge(*streams, key=lambda r: (r[0], r[1])))

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        """Columnar scatter scan.

        One contributing shard delegates verbatim (a single-series read
        stays the shard's :class:`~repro.db.influx.ColumnRows`); otherwise
        per-shard *keyed* streams (each already LIMIT-pushed) are heapq
        k-way merged on (time, seq) with an early stop at ``limit`` — no
        shard materializes more than ``limit`` rows and the router
        materializes exactly the merged prefix.
        """
        names = self._scatter_shards(db, measurement, tags)
        if len(names) == 1:
            # The dashboard's read is a few column slices in the shard —
            # microseconds — so the dispatch around it is one positional
            # call and one clock pair, not ``_timed``'s closure and
            # ``_record``'s call (BENCH_shard.json, 1-shard vs plain).
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
        shard_s: dict[str, float] = {}
        if not names:
            self._record("scan_columns", shard_s)
            return (list(columns) if columns is not None else []), []
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        per = [
            (
                n,
                self._timed(
                    shard_s, n,
                    lambda n=n: self.shards[n].scan_keyed(
                        db, measurement, columns=columns, limit=limit, **kw
                    ),
                ),
            )
            for n in names
        ]
        cols = self._union_columns([c for _, (c, _) in per], columns)

        def _remap(shard_cols: list[str], rows):
            idx = [
                shard_cols.index(c) if c in shard_cols else None for c in cols
            ]
            for t, q, vals in rows:
                yield (t, q, [vals[i] if i is not None else None for i in idx])

        rows: list[tuple[float, list[float | None]]] = []
        for t, q, vals in _heap_merge(
            *(_remap(c, r) for _, (c, r) in per), key=lambda r: (r[0], r[1])
        ):
            rows.append((t, vals))
            if limit is not None and len(rows) >= limit:
                break
        self._record("scan_columns", shard_s)
        return cols, rows

    # ------------------------------------------------------------------
    # Partial-stat merging
    # ------------------------------------------------------------------
    # A stat is (count, total, vmin, vmax, last, last_t, last_seq, has_nan);
    # see InfluxDB.aggregate_partials.  _merge_stats returns the finalized
    # aggregate or the _FALLBACK sentinel when only an interleaved re-fold
    # is provably exact (MEAN/SUM split across shards; MIN/MAX with a NaN
    # in the fold; LAST whose winning key a rollup did not store).

    _FALLBACK = object()

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

    def _merged_keyed_rows(
        self, db: str, measurement: str, cols: list[str], names: list[str],
        kw: dict,
    ):
        """Interleaved (time, seq, values) rows across shards — the exact
        single-engine row order the fallback folds re-run in."""
        per = [
            self.shards[n].scan_keyed(db, measurement, columns=cols, **kw)
            for n in names
        ]
        return _heap_merge(
            *(rows for _, rows in per), key=lambda r: (r[0], r[1])
        )

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
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        shard_s: dict[str, float] = {}
        if not names:
            cols = list(columns) if columns is not None else []
            self._record("aggregate_columns", shard_s)
            return cols, None, [None] * len(cols)
        if len(names) == 1:
            out = self._timed(
                shard_s, names[0],
                lambda: self.shards[names[0]].aggregate_columns(
                    db, measurement, agg, columns=columns, **kw
                ),
            )
            self._record("aggregate_columns", shard_s)
            return out
        per = [
            (
                n,
                self._timed(
                    shard_s, n,
                    lambda n=n: self.shards[n].aggregate_partials(
                        db, measurement, columns=columns, **kw
                    ),
                ),
            )
            for n in names
        ]
        cols = self._union_columns([c for _, (c, _, _) in per], columns)
        first_t = min(
            (ft for _, (_, ft, _) in per if ft is not None), default=None
        )
        out: list = []
        fallback_cols: list[int] = []
        for ci, c in enumerate(cols):
            stats = []
            for _, (shard_cols, _, shard_stats) in per:
                try:
                    si = shard_cols.index(c)
                except ValueError:
                    continue
                st = shard_stats[si]
                if st is not None:
                    stats.append(st)
            merged = self._merge_stats(agg, stats)
            if merged is self._FALLBACK:
                fallback_cols.append(ci)
                merged = None
            out.append(merged)
        if fallback_cols:
            vals: dict[int, list[float]] = {ci: [] for ci in fallback_cols}
            fb_names = [cols[ci] for ci in fallback_cols]
            for _, _, row in self._merged_keyed_rows(
                db, measurement, fb_names, names, kw
            ):
                for j, ci in enumerate(fallback_cols):
                    v = row[j]
                    if v is not None:
                        vals[ci].append(v)
            for ci in fallback_cols:
                out[ci] = fold_values(agg, vals[ci]) if vals[ci] else None
        self._record("aggregate_columns", shard_s)
        return cols, first_t, out

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        """``GROUP BY time(N)`` scatter-gather.

        Per-shard bucket partials (rollup-served where the shard's planner
        allows) merge bucket-by-bucket under the same exactness rules as
        :meth:`aggregate_columns`; any (bucket, column) slot a partial
        merge cannot reproduce bit-for-bit is re-folded from one shared
        interleaved scan.  One contributing shard answers alone, and its
        :class:`~repro.db.influx.ColumnRows` is passed through (as for
        :meth:`quantile_buckets` and :meth:`stddev_buckets`).
        """
        if agg not in _FOLDABLE:
            raise InfluxError(f"unknown aggregate {agg}")
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        shard_s: dict[str, float] = {}
        if not names:
            self._record("scan_buckets", shard_s)
            return (list(columns) if columns is not None else []), []
        if len(names) == 1:
            out = self._timed(
                shard_s, names[0],
                lambda: self.shards[names[0]].scan_buckets(
                    db, measurement, agg, group_by_s, columns=columns, **kw
                ),
            )
            self._record("scan_buckets", shard_s)
            return out
        per = [
            (
                n,
                self._timed(
                    shard_s, n,
                    lambda n=n: self.shards[n].bucket_partials(
                        db, measurement, group_by_s, columns=columns, **kw
                    ),
                ),
            )
            for n in names
        ]
        cols = self._union_columns([c for _, (c, _) in per], columns)
        buckets: dict[float, list[list[tuple]]] = {}
        for _, (shard_cols, bucket_rows) in per:
            idx = [
                shard_cols.index(c) if c in shard_cols else None for c in cols
            ]
            for b, stat_row in bucket_rows:
                slot = buckets.get(b)
                if slot is None:
                    slot = buckets[b] = [[] for _ in cols]
                for ci, i in enumerate(idx):
                    if i is None:
                        continue
                    st = stat_row[i]
                    if st is not None:
                        slot[ci].append(st)
        ordered = sorted(buckets)
        rows: list[tuple[float, list]] = []
        fallback: set[tuple[float, int]] = set()
        for b in ordered:
            row: list = []
            for ci in range(len(cols)):
                merged = self._merge_stats(agg, buckets[b][ci])
                if merged is self._FALLBACK:
                    fallback.add((b, ci))
                    merged = None
                row.append(merged)
            rows.append((b, row))
        if fallback:
            vals: dict[tuple[float, int], list[float]] = {}
            for t, _, row in self._merged_keyed_rows(
                db, measurement, cols, names, kw
            ):
                b = (t // group_by_s) * group_by_s
                for ci, v in enumerate(row):
                    if v is not None and (b, ci) in fallback:
                        vals.setdefault((b, ci), []).append(v)
            by_bucket = {b: row for b, row in rows}
            for (b, ci) in fallback:
                vs = vals.get((b, ci))
                by_bucket[b][ci] = fold_values(agg, vs) if vs else None
        self._record("scan_buckets", shard_s)
        return cols, rows

    # ------------------------------------------------------------------
    # Sketch-served analytics scatter-gather
    # ------------------------------------------------------------------
    # PERCENTILE ships per-shard t-digest partials and merges them as
    # digests (true merge — the whole point of mergeable sketches), so the
    # cross-shard answer carries the same rank-error bound as a single
    # engine.  COUNT(DISTINCT) merges per-shard HLLs register-wise when
    # every shard may serve approximately, else unions the value-keyed
    # exact lists.  STDDEV and DISTINCT re-fold the interleaved scan —
    # exact, and byte-identical to the unsharded engine.

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
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        shard_s: dict[str, float] = {}
        if not names:
            cols = list(columns) if columns is not None else []
            self._record("quantile_columns", shard_s)
            return cols, None, [None] * len(cols)
        if len(names) == 1:
            out = self._timed(
                shard_s, names[0],
                lambda: self.shards[names[0]].quantile_columns(
                    db, measurement, pct, columns=columns, **kw
                ),
            )
            self._record("quantile_columns", shard_s)
            return out
        per = [
            (
                n,
                self._timed(
                    shard_s, n,
                    lambda n=n: self.shards[n].quantile_partials(
                        db, measurement, columns=columns, **kw
                    ),
                ),
            )
            for n in names
        ]
        cols = self._union_columns([c for _, (c, _, _) in per], columns)
        first_t = min(
            (ft for _, (_, ft, _) in per if ft is not None), default=None
        )
        q = pct / 100.0
        out: list[float | None] = []
        for c in cols:
            ds: list[TDigest] = []
            for _, (shard_cols, _, digests) in per:
                try:
                    si = shard_cols.index(c)
                except ValueError:
                    continue
                d = digests[si]
                if d is not None:
                    ds.append(d)
            if not ds:
                out.append(None)
            elif len(ds) == 1:
                out.append(ds[0].quantile(q))
            else:
                out.append(TDigest.merged(ds).quantile(q))
        self._record("quantile_columns", shard_s)
        return cols, first_t, out

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        shard_s: dict[str, float] = {}
        if not names:
            self._record("quantile_buckets", shard_s)
            return (list(columns) if columns is not None else []), []
        if len(names) == 1:
            out = self._timed(
                shard_s, names[0],
                lambda: self.shards[names[0]].quantile_buckets(
                    db, measurement, pct, group_by_s, columns=columns, **kw
                ),
            )
            self._record("quantile_buckets", shard_s)
            return out
        per = [
            (
                n,
                self._timed(
                    shard_s, n,
                    lambda n=n: self.shards[n].quantile_bucket_partials(
                        db, measurement, group_by_s, columns=columns, **kw
                    ),
                ),
            )
            for n in names
        ]
        cols = self._union_columns([c for _, (c, _) in per], columns)
        buckets: dict[float, list[list[TDigest]]] = {}
        for _, (shard_cols, bucket_rows) in per:
            idx = [
                shard_cols.index(c) if c in shard_cols else None for c in cols
            ]
            for b, digest_row in bucket_rows:
                slot = buckets.get(b)
                if slot is None:
                    slot = buckets[b] = [[] for _ in cols]
                for ci, i in enumerate(idx):
                    if i is None:
                        continue
                    d = digest_row[i]
                    if d is not None:
                        slot[ci].append(d)
        q = pct / 100.0
        rows: list[tuple[float, list[float | None]]] = []
        for b in sorted(buckets):
            row: list[float | None] = []
            for ds in buckets[b]:
                if not ds:
                    row.append(None)
                elif len(ds) == 1:
                    row.append(ds[0].quantile(q))
                else:
                    row.append(TDigest.merged(ds).quantile(q))
            rows.append((b, row))
        self._record("quantile_buckets", shard_s)
        return cols, rows

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
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        if not names:
            cols = list(columns) if columns is not None else []
            return cols, None, [None] * len(cols)
        if len(names) == 1:
            return self.shards[names[0]].stddev_columns(
                db, measurement, columns=columns, **kw
            )
        cols, rows = self.scan_columns(
            db, measurement, columns=columns, **kw
        )
        first_t = rows[0][0] if rows else None
        out: list[float | None] = []
        for i in range(len(cols)):
            vals = [r[i] for _, r in rows if r[i] is not None]
            out.append(stddev_of(vals))
        return cols, first_t, out

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
    ) -> tuple[list[str], list[tuple[float, list[float | None]]]]:
        if group_by_s <= 0:
            raise InfluxError("GROUP BY time() needs a positive bucket width")
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        if not names:
            return (list(columns) if columns is not None else []), []
        if len(names) == 1:
            return self.shards[names[0]].stddev_buckets(
                db, measurement, group_by_s, columns=columns, **kw
            )
        cols, rows = self.scan_columns(db, measurement, columns=columns, **kw)
        buckets: dict[float, list[list[float]]] = {}
        for t, vals in rows:
            b = (t // group_by_s) * group_by_s
            slot = buckets.setdefault(b, [[] for _ in cols])
            for i, v in enumerate(vals):
                if v is not None:
                    slot[i].append(v)
        return cols, [
            (b, [stddev_of(vs) for vs in buckets[b]]) for b in sorted(buckets)
        ]

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
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        if not names:
            return []
        if len(names) == 1:
            return self.shards[names[0]].distinct_values(
                db, measurement, column, **kw
            )
        best: dict[bytes, tuple[float, int, float]] = {}
        for n in names:
            for t, seq, v in self.shards[n].distinct_keyed(
                db, measurement, column, **kw
            ):
                vk = value_key(v)
                prev = best.get(vk)
                if prev is None or (t, seq) < (prev[0], prev[1]):
                    best[vk] = (t, seq, v)
        return [(t, v) for t, _, v in sorted(best.values())]

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
        names = self._scatter_shards(db, measurement, tags)
        kw = dict(
            tags=tags, t0=t0, t1=t1,
            t0_exclusive=t0_exclusive, t1_exclusive=t1_exclusive,
        )
        if not names:
            return None, None
        if len(names) == 1:
            return self.shards[names[0]].count_distinct(
                db, measurement, column, **kw
            )
        per = [
            self.shards[n].distinct_partials(db, measurement, column, **kw)
            for n in names
        ]
        first_t = min((ft for ft, _, _ in per if ft is not None), default=None)
        cfg = self.sketch
        hlls = [h for _, h, _ in per if h is not None]
        # Approximate only when *every* shard could serve its slice and the
        # merged register width stays within the configured bound.
        if (
            len(hlls) == len(per)
            and hlls
            and hlls[0].error_bound() <= cfg.hll_epsilon
        ):
            merged = HyperLogLog(hlls[0].p)
            for h in hlls:
                merged.merge_from(h)
            return first_t, float(round(merged.count()))
        keys: set[bytes] = set()
        for _, _, exact in per:
            keys.update(value_key(v) for _, _, v in exact)
        return first_t, (float(len(keys)) if keys else None)

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
