"""Durable streaming ingest: an in-process, virtual-time commit log.

PR 2's :class:`~repro.pcp.shipper.Shipper` made the host link resilient,
but it is still point-to-point: one queue, one consumer (the DB writer),
and everybody else (rollups, anomaly scans, SUPERDB federation) rides the
DB writer's fate.  This module generalizes the shipper's WAL into the
substrate production ODA pipelines sit on — a Kafka-shaped commit log:

- **topics are measurements**; each topic is split into a fixed number of
  **partitions** and a series lands on the partition its PR 6 consistent-
  hash key (:func:`repro.db.sharded.series_key` over a
  :class:`~repro.db.sharded.HashRing`) places it on, so log partitioning
  and shard placement agree;
- partitions are **append-only segment files** of
  :class:`LogRecord`-serialized reports.  Every record carries a log-wide
  monotone **sequence number** — the idempotence token downstream applies
  are gated on;
- a **flushed high-watermark** per partition separates durable records
  from the producer's unacked tail.  Consumers only ever see flushed
  records; a :class:`~repro.faults.log.LogTruncation` (crash-restart of
  the log) loses exactly the unflushed tail, which the
  :class:`LogProducer` retains and resends under the *same* sequence
  numbers — so truncation is loss-free end to end;
- **consumer groups** own disjoint partition assignments (round-robin
  over the sorted partition list), poll at their own pace, and commit
  :class:`Checkpoint` s — ``(next offset, applied seq, optional state
  blob)`` — atomically to the :class:`CheckpointStore` (the in-process
  model of ``__consumer_offsets``).  Membership changes (crash, rejoin)
  rebalance assignments and reset read positions to the committed
  checkpoints, which is what makes replay-from-checkpoint the *only*
  recovery path;
- a **dead-letter queue** parks poison records (parse failures, applies
  that keep failing) per group, deduplicated by sequence number so crash
  redelivery cannot park the same record twice; :meth:`CommitLog.requeue`
  re-appends parked records under *fresh* sequence numbers, preserving
  per-partition seq monotonicity (what the at-most-once gate relies on).

Everything is driven by the caller's virtual clock — appends, flushes,
truncations and rebalances are all stamped — so chaos schedules replay
bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Any

from repro.db.influx import Point
from repro.db.sharded import HashRing, series_key
from repro.faults.log import LogFaultSet

__all__ = [
    "LogRecord",
    "LogSegment",
    "Checkpoint",
    "CheckpointStore",
    "DeadLetter",
    "DeadLetterQueue",
    "CommitLog",
    "LogProducer",
]


@dataclass(frozen=True)
class LogRecord:
    """One report's points for one (topic, partition), in line protocol.

    ``seq`` is the log-wide idempotence token; ``offset`` is the record's
    position in its partition (re-assigned if the record is re-appended
    after a truncation or a DLQ requeue).  ``report_id``/``report_records``
    tie the record back to the sampler report it was split from, so the
    DB writer can account whole reports for Table III.
    """

    topic: str
    partition: int
    offset: int
    seq: int
    time: float  # sample timestamp of the report
    produced_at: float  # virtual append time
    lines: str  # line-protocol payload
    n_fields: int
    tag: str
    is_zero: bool = False
    report_id: int = -1
    report_records: int = 1
    #: Set on DLQ-requeued records: only this group consumes the copy.
    #: Every other group already settled the original (applied or parked
    #: it); an untargeted re-append would make them apply it twice.
    for_group: str | None = None
    #: Decode memo (see :meth:`points`); not part of the record's identity.
    _decoded: list[Point] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def points(self) -> list[Point]:
        """Deserialize the payload; raises on poison (malformed lines).

        Every consumer group reads every record, so a good decode is kept
        on the record and handed to the next group as is — shared and
        read-only (sinks copy the values out).  A failed decode is not
        remembered: each group parses the poison and parks it itself.
        :meth:`CommitLog.trim` drops the memo once every group has
        committed past the record.
        """
        pts = self._decoded
        if pts is None:
            pts = [
                Point.from_line(line)
                for line in self.lines.splitlines()
                if line.strip()
            ]
            object.__setattr__(self, "_decoded", pts)
        return pts


class LogSegment:
    """One append-only segment file of a partition."""

    __slots__ = ("base_offset", "records")

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.records: list[LogRecord] = []

    @property
    def end_offset(self) -> int:
        return self.base_offset + len(self.records)

    def __len__(self) -> int:
        return len(self.records)


class _Partition:
    """Segmented record store with a flushed (durable) high-watermark."""

    __slots__ = ("topic", "index", "tp", "segment_records", "segments",
                 "_bases", "flushed", "released")

    def __init__(self, topic: str, index: int, segment_records: int) -> None:
        self.topic = topic
        self.index = index
        self.tp = (topic, index)
        self.segment_records = segment_records
        self.segments: list[LogSegment] = [LogSegment(0)]
        #: ``base_offset`` of every segment, kept beside ``segments`` so an
        #: offset finds its segment by bisection without rebuilding it.
        self._bases = [0]
        #: Offsets below this are durable; consumers never read past it.
        self.flushed = 0
        #: Records below this hold no decode memo (:meth:`release_decoded`).
        self.released = 0

    @property
    def start_offset(self) -> int:
        return self.segments[0].base_offset

    @property
    def next_offset(self) -> int:
        return self.segments[-1].end_offset

    def _add_segment(self, base_offset: int) -> LogSegment:
        seg = LogSegment(base_offset)
        self.segments.append(seg)
        self._bases.append(base_offset)
        return seg

    def append(self, rec: LogRecord) -> None:
        seg = self.segments[-1]
        if len(seg) >= self.segment_records:
            seg = self._add_segment(seg.end_offset)
        seg.records.append(rec)

    def get(self, offset: int) -> LogRecord:
        seg = self.segments[bisect_right(self._bases, offset) - 1]
        return seg.records[offset - seg.base_offset]

    def _range(self, start: int, stop: int) -> list[LogRecord]:
        """Records in ``[start, stop)``; ``start`` is not below the log start."""
        out: list[LogRecord] = []
        o = start
        while o < stop:
            seg = self.segments[bisect_right(self._bases, o) - 1]
            lo = o - seg.base_offset
            hi = min(len(seg), stop - seg.base_offset)
            out.extend(seg.records[lo:hi])
            o = seg.base_offset + hi
        return out

    def read(self, start: int, max_records: int) -> list[LogRecord]:
        """Durable records in ``[start, flushed)``, at most ``max_records``."""
        start = max(start, self.start_offset)
        if start < self.released:
            # A reader behind the mark (a group that joined late) decodes
            # these records again; the next release starts from here.
            self.released = start
        return self._range(start, min(self.flushed, start + max_records))

    def flush(self) -> int:
        """Mark everything appended so far durable; returns records flushed."""
        n = self.next_offset - self.flushed
        self.flushed = self.next_offset
        return n

    def truncate_to_flushed(self) -> list[LogRecord]:
        """Crash-restart: drop the unflushed tail, returning what was lost."""
        lost: list[LogRecord] = []
        while self.segments and self.segments[-1].base_offset >= self.flushed:
            seg = self.segments.pop()
            self._bases.pop()
            lost[:0] = seg.records
        if not self.segments:
            self._add_segment(self.flushed)
        else:
            seg = self.segments[-1]
            keep = self.flushed - seg.base_offset
            lost[:0] = seg.records[keep:]
            del seg.records[keep:]
        return lost

    def release_decoded(self, upto: int) -> None:
        """Drop the decode memo of every record below ``upto``; each record
        is visited once, the walk resumes where the last one stopped."""
        if upto > self.released:
            for rec in self._range(max(self.released, self.start_offset), upto):
                object.__setattr__(rec, "_decoded", None)
            self.released = upto

    def trim(self, upto: int) -> int:
        """Drop whole segments fully below ``upto`` (all-consumed, durable).

        The active tail segment always survives, so ``next_offset`` never
        goes backwards.  Returns records reclaimed.
        """
        reclaimed = 0
        while len(self.segments) > 1 and self.segments[0].end_offset <= upto:
            reclaimed += len(self.segments.pop(0))
            self._bases.pop(0)
        return reclaimed


@dataclass(frozen=True)
class Checkpoint:
    """Committed progress of one (group, topic, partition).

    ``offset`` is the next record to read, ``applied_seq`` the highest
    sequence number whose effects are durable in the consumer's sink, and
    ``state`` an opaque blob committed *atomically* with the offset — the
    exactly-once trick the rollup maintainer uses (its accumulator never
    drifts from its offset).
    """

    offset: int = 0
    applied_seq: int = -1
    state: Any = None


#: What a (group, partition) that never committed loads.
_NO_CHECKPOINT = Checkpoint()


class CheckpointStore:
    """The in-process ``__consumer_offsets``: atomic, crash-durable commits."""

    def __init__(self) -> None:
        #: group → (topic, partition) → checkpoint
        self._docs: dict[str, dict[tuple[str, int], Checkpoint]] = {}
        self.commits = 0

    def load(self, group: str, tp: tuple[str, int]) -> Checkpoint:
        return self.for_group(group).get(tp, _NO_CHECKPOINT)

    def commit(
        self,
        group: str,
        tp: tuple[str, int],
        offset: int,
        applied_seq: int,
        state: Any = None,
    ) -> None:
        self._docs.setdefault(group, {})[tp] = Checkpoint(offset, applied_seq, state)
        self.commits += 1

    def committed_offset(self, group: str, tp: tuple[str, int]) -> int:
        return self.load(group, tp).offset

    def for_group(self, group: str) -> dict[tuple[str, int], Checkpoint]:
        """The group's checkpoints by partition (the store's own mapping:
        read it, commit through :meth:`commit`)."""
        return self._docs.get(group) or {}

    def snapshot(self) -> dict[str, dict[str, int]]:
        """JSON-friendly view for health surfaces and CI artifacts."""
        return {
            f"{g}:{topic}/{p}": {"offset": cp.offset, "applied_seq": cp.applied_seq}
            for g, docs in sorted(self._docs.items())
            for (topic, p), cp in sorted(docs.items())
        }


@dataclass
class DeadLetter:
    """One poison record parked for one consumer group."""

    group: str
    record: LogRecord
    reason: str  # "parse-error" | "apply-error"
    error: str
    attempts: int
    parked_at: float

    def to_dict(self) -> dict[str, Any]:
        r = self.record
        return {
            "group": self.group,
            "topic": r.topic,
            "partition": r.partition,
            "offset": r.offset,
            "seq": r.seq,
            "tag": r.tag,
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
            "parked_at": self.parked_at,
        }


class DeadLetterQueue:
    """Per-group parking lot for records a consumer could not apply."""

    def __init__(self) -> None:
        self.entries: list[DeadLetter] = []
        self.parked_total = 0
        self.requeued_total = 0

    def __len__(self) -> int:
        return len(self.entries)

    def park(
        self,
        group: str,
        record: LogRecord,
        reason: str,
        error: str,
        attempts: int,
        t: float,
    ) -> DeadLetter | None:
        """Park one record; None if this (group, seq) is already parked.

        The dedup matters under crash redelivery: a consumer that parked a
        record, crashed before committing, and replays the batch must not
        grow the DLQ a second time.
        """
        for e in self.entries:
            if e.group == group and e.record.seq == record.seq:
                return None
        letter = DeadLetter(group, record, reason, error, attempts, t)
        self.entries.append(letter)
        self.parked_total += 1
        return letter

    def for_group(self, group: str) -> list[DeadLetter]:
        return [e for e in self.entries if e.group == group]

    def is_parked(self, group: str, seq: int) -> bool:
        """Whether ``group`` currently holds this seq parked.

        Consumers check this on redelivery: once a record is parked, the
        DLQ owns it — a crash-replay of the same batch must *skip* it, or
        the record gets applied both by the replay (after the fault heals)
        and by the eventual requeue under a fresh seq, defeating every
        idempotence gate."""
        return any(
            e.group == group and e.record.seq == seq for e in self.entries
        )

    def take(self, group: str | None = None) -> list[DeadLetter]:
        """Remove and return parked entries (all groups if None)."""
        taken = [e for e in self.entries if group is None or e.group == group]
        self.entries = [e for e in self.entries if e not in taken]
        return taken

    def summary(self, by: str = "group") -> dict[str, int]:
        """Parked entries counted per ``group`` or per ``reason``."""
        out: dict[str, int] = {}
        for e in self.entries:
            k = getattr(e, by)
            out[k] = out.get(k, 0) + 1
        return out

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self.entries]


class CommitLog:
    """Topics × partitions × segments, plus group coordination and the DLQ."""

    def __init__(
        self,
        n_partitions: int = 4,
        *,
        segment_records: int = 256,
        vnodes: int = 16,
        faults: LogFaultSet | None = None,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("commit log needs at least one partition per topic")
        if segment_records < 1:
            raise ValueError("segments must hold at least one record")
        self.n_partitions = n_partitions
        self.segment_records = segment_records
        # Same placement construction as the PR 6 shard router: a series'
        # partition is where its consistent-hash key lands on the ring.
        self.ring = HashRing([f"p{i}" for i in range(n_partitions)], vnodes=vnodes)
        self.faults = faults if faults is not None else LogFaultSet()
        self.checkpoints = CheckpointStore()
        self.dlq = DeadLetterQueue()
        self.now = 0.0

        self._topics: dict[str, list[_Partition]] = {}
        self._seq = 0
        self._report_seq = 0
        self._placement: dict[tuple[str, tuple], int] = {}
        self._applied_truncations: set[int] = set()

        # Group coordination.
        self._members: dict[str, list[str]] = {}
        self._generations: dict[str, int] = {}
        #: group → (topic, partition) → next offset to hand out
        self._positions: dict[str, dict[tuple[str, int], int]] = {}
        #: (group, consumer) → (generation, topic count, assignment)
        self._assignments: dict[
            tuple[str, str], tuple[int, int, list[tuple[str, int]]]
        ] = {}
        self.rebalances = 0

        # Observability.
        self.appended_records = 0
        self.flushed_records = 0
        self.truncated_records = 0
        self.trimmed_records = 0
        self.requeued_records = 0

    # ------------------------------------------------------------------
    # Virtual time & faults
    # ------------------------------------------------------------------
    def at(self, t: float) -> "CommitLog":
        """Stamp the clock and apply any truncation that has come due."""
        self.now = t
        for f in self.faults.truncations:
            if f.at <= t and id(f) not in self._applied_truncations:
                self._applied_truncations.add(id(f))
                self._truncate(f.topic)
        return self

    def _truncate(self, topic: str | None) -> int:
        lost = 0
        for name, parts in self._topics.items():
            if topic is not None and name != topic:
                continue
            for p in parts:
                lost += len(p.truncate_to_flushed())
        self.truncated_records += lost
        return lost

    # ------------------------------------------------------------------
    # Topics, placement, append
    # ------------------------------------------------------------------
    def _topic(self, name: str) -> list[_Partition]:
        parts = self._topics.get(name)
        if parts is None:
            parts = self._topics[name] = [
                _Partition(name, i, self.segment_records)
                for i in range(self.n_partitions)
            ]
        return parts

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partition_for(self, topic: str, tags: dict[str, str]) -> int:
        """PR 6 placement: consistent-hash the series key over partitions."""
        tagkey = tuple(sorted(tags.items()))
        k = (topic, tagkey)
        p = self._placement.get(k)
        if p is None:
            p = self._placement[k] = int(
                self.ring.place(series_key(topic, tagkey))[1:]
            )
        return p

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def next_report_id(self) -> int:
        self._report_seq += 1
        return self._report_seq

    def append(
        self,
        topic: str,
        partition: int,
        *,
        seq: int,
        time: float,
        lines: str,
        n_fields: int,
        tag: str,
        is_zero: bool = False,
        report_id: int = -1,
        report_records: int = 1,
    ) -> LogRecord:
        p = self._topic(topic)[partition]
        rec = LogRecord(
            topic=topic,
            partition=partition,
            offset=p.next_offset,
            seq=seq,
            time=time,
            produced_at=self.now,
            lines=lines,
            n_fields=n_fields,
            tag=tag,
            is_zero=is_zero,
            report_id=report_id,
            report_records=report_records,
        )
        p.append(rec)
        self.appended_records += 1
        return rec

    def has_record(self, rec: LogRecord) -> bool:
        """Is this exact (offset, seq) still in the log?  Truncation probe."""
        parts = self._topics.get(rec.topic)
        if parts is None:
            return False
        p = parts[rec.partition]
        if not (p.start_offset <= rec.offset < p.next_offset):
            return False
        return p.get(rec.offset).seq == rec.seq

    def flush(self, topic: str | None = None) -> int:
        """fsync: advance the durable high-watermark; returns records flushed."""
        n = 0
        for name, parts in self._topics.items():
            if topic is not None and name != topic:
                continue
            for p in parts:
                n += p.flush()
        self.flushed_records += n
        return n

    def end_offset(self, topic: str, partition: int) -> int:
        return self._topic(topic)[partition].next_offset

    def flushed_offset(self, topic: str, partition: int) -> int:
        return self._topic(topic)[partition].flushed

    # ------------------------------------------------------------------
    # Consumer groups
    # ------------------------------------------------------------------
    def join(self, group: str, consumer: str) -> None:
        members = self._members.setdefault(group, [])
        if consumer not in members:
            members.append(consumer)
            members.sort()
            self._rebalance(group)

    def leave(self, group: str, consumer: str) -> None:
        members = self._members.get(group, [])
        if consumer in members:
            members.remove(consumer)
            self._rebalance(group)

    def members(self, group: str) -> list[str]:
        return list(self._members.get(group, []))

    def _rebalance(self, group: str) -> None:
        """Membership changed: bump the generation and reset every read
        position to the committed checkpoint — replay-from-checkpoint is
        the only recovery path, so survivors re-read (and re-gate) any
        applied-but-uncommitted tail the departed member left behind."""
        self._generations[group] = self._generations.get(group, 0) + 1
        self.rebalances += 1
        self._positions.pop(group, None)

    def generation(self, group: str) -> int:
        return self._generations.get(group, 0)

    def all_partitions(self) -> list[tuple[str, int]]:
        return [p.tp for topic in sorted(self._topics) for p in self._topics[topic]]

    def assignment(self, group: str, consumer: str) -> list[tuple[str, int]]:
        """Round-robin assignment over the sorted partition list.

        Deterministic in (member set, topic set) alone, so every member
        computes the same split without a coordinator round-trip — and
        computed only when one of the two moved (a group's generation
        counts its membership changes, topics are never dropped).  The
        list is the cached one: read it, do not edit it.
        """
        generation, n_topics = self._generations.get(group, 0), len(self._topics)
        cached = self._assignments.get((group, consumer))
        if cached is not None and cached[0] == generation and cached[1] == n_topics:
            return cached[2]
        members = self._members.get(group, [])
        mine: list[tuple[str, int]] = []
        if consumer in members:
            mine = self.all_partitions()[members.index(consumer) :: len(members)]
        self._assignments[(group, consumer)] = (generation, n_topics, mine)
        return mine

    def ready(self, group: str, consumer: str) -> list[tuple[str, int]]:
        """The assigned partitions :meth:`poll` would return records from,
        in assignment order.

        A poll of any other partition is a no-op — nothing read, nothing
        committed, no virtual time spent — so a consumer that walks only
        these reaches each of them at the instant a walk of its whole
        assignment would.
        """
        topics = self._topics
        positions = self._positions.get(group) or {}
        committed = self.checkpoints.for_group(group)
        out = []
        for tp in self.assignment(group, consumer):
            p = topics[tp[0]][tp[1]]
            if p.flushed:  # most partitions of a topic never see a series
                pos = positions.get(tp)
                if pos is None:
                    pos = committed.get(tp, _NO_CHECKPOINT).offset
                if max(pos, p.start_offset) < p.flushed:
                    out.append(tp)
        return out

    def poll(
        self,
        group: str,
        consumer: str,
        tp: tuple[str, int],
        max_records: int,
    ) -> list[LogRecord]:
        """Fetch durable records from the group's position on ``tp``.

        The position starts at the committed checkpoint and advances as
        records are handed out; rebalances reset it to the checkpoint.
        """
        if consumer not in self._members.get(group, []):
            return []
        topic, part = tp
        p = self._topic(topic)[part]
        positions = self._positions.setdefault(group, {})
        pos = positions.get(tp)
        if pos is None:
            pos = self.checkpoints.committed_offset(group, tp)
        records = p.read(pos, max_records)
        if records:
            positions[tp] = records[-1].offset + 1
        return records

    def rewind(self, group: str, tp: tuple[str, int]) -> None:
        """Forget the group's read position on ``tp``: the next poll starts
        at the committed checkpoint again.

        For a consumer that dies mid-batch.  Records it was handed but
        never committed are re-read after a rebalance; a crash window that
        closes before the consumer's next poll causes none, and without
        this they would be skipped for good.
        """
        self._positions.get(group, {}).pop(tp, None)

    def commit(
        self,
        group: str,
        tp: tuple[str, int],
        offset: int,
        applied_seq: int,
        state: Any = None,
    ) -> None:
        self.checkpoints.commit(group, tp, offset, applied_seq, state)

    def committed(self, group: str, tp: tuple[str, int]) -> Checkpoint:
        return self.checkpoints.load(group, tp)

    def lag(self, group: str) -> dict[tuple[str, int], int]:
        """Durable-but-uncommitted records per partition for one group."""
        committed = self.checkpoints.for_group(group)
        return {
            p.tp: max(0, p.flushed - committed.get(p.tp, _NO_CHECKPOINT).offset)
            for parts in self._topics.values()
            for p in parts
        }

    def total_lag(self, group: str) -> int:
        committed = self.checkpoints.for_group(group)
        return sum(
            max(0, p.flushed - committed.get(p.tp, _NO_CHECKPOINT).offset)
            for parts in self._topics.values()
            for p in parts
            if p.flushed
        )

    # ------------------------------------------------------------------
    # Dead-letter queue
    # ------------------------------------------------------------------
    def park(
        self,
        group: str,
        record: LogRecord,
        reason: str,
        error: str,
        attempts: int,
    ) -> DeadLetter | None:
        return self.dlq.park(group, record, reason, error, attempts, self.now)

    def requeue(self, group: str | None = None) -> int:
        """Re-append parked records under fresh sequence numbers.

        Fresh seqs keep per-partition sequences monotone (the at-most-once
        gate's soundness condition); the re-appended partitions are flushed
        immediately so the records are consumable right away.  Each copy is
        targeted (``for_group``) at the group that parked it — the other
        groups settled the original already, and a fresh seq would defeat
        their idempotence gates.  Returns the number of records requeued.
        """
        taken = self.dlq.take(group)
        touched: set[str] = set()
        for letter in taken:
            r = letter.record
            rec = replace(
                r,
                offset=self._topic(r.topic)[r.partition].next_offset,
                seq=self.next_seq(),
                produced_at=self.now,
                for_group=letter.group,
            )
            self._topic(r.topic)[r.partition].append(rec)
            self.appended_records += 1
            touched.add(r.topic)
        for topic in touched:
            self.flush(topic)
        self.dlq.requeued_total += len(taken)
        self.requeued_records += len(taken)
        return len(taken)

    def inject_poison(
        self,
        topic: str,
        *,
        tags: dict[str, str] | None = None,
        time: float = 0.0,
        lines: str = "!! not line protocol !!",
        tag: str = "poison",
    ) -> LogRecord:
        """Append (and flush) one unparseable record — chaos/CLI helper."""
        partition = self.partition_for(topic, tags or {"tag": tag})
        rec = self.append(
            topic,
            partition,
            seq=self.next_seq(),
            time=time,
            lines=lines,
            n_fields=0,
            tag=tag,
            report_id=self.next_report_id(),
        )
        self.flush(topic)
        return rec

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def trim(self, groups: list[str] | None = None) -> int:
        """Reclaim segments every listed group has committed past.

        ``groups`` defaults to every group that ever joined; partitions
        keep their active tail segment, so the log stays bounded by
        (slowest consumer's lag + one segment) per partition.
        """
        groups = list(self._members) if groups is None else groups
        if not groups:
            return 0
        committed = [self.checkpoints.for_group(g) for g in groups]
        reclaimed = 0
        for parts in self._topics.values():
            for p in parts:
                if p.flushed:
                    floor = min(
                        docs.get(p.tp, _NO_CHECKPOINT).offset for docs in committed
                    )
                    floor = min(floor, p.flushed)
                    # Every listed group is past these: nobody decodes them
                    # again, so the shared decode goes before the segment.
                    p.release_decoded(floor)
                    reclaimed += p.trim(floor)
        self.trimmed_records += reclaimed
        return reclaimed

    def stats(self) -> dict[str, Any]:
        per_topic = {
            topic: {
                "partitions": len(parts),
                "records": sum(p.next_offset - p.start_offset for p in parts),
                "flushed": [p.flushed for p in parts],
                "end": [p.next_offset for p in parts],
            }
            for topic, parts in sorted(self._topics.items())
        }
        return {
            "appended_records": self.appended_records,
            "flushed_records": self.flushed_records,
            "truncated_records": self.truncated_records,
            "trimmed_records": self.trimmed_records,
            "requeued_records": self.requeued_records,
            "rebalances": self.rebalances,
            "checkpoint_commits": self.checkpoints.commits,
            "dlq": self.dlq.summary(),
            "topics": per_topic,
        }


class LogProducer:
    """The PR 2 shipper generalized: appends reports, retains the unacked
    tail, and resends after a truncation under the same sequence numbers.

    One report fans out into one record per (measurement, partition) —
    split deterministically, smallest key first.  Records stay in the
    producer's retention buffer until a flush makes them durable; if a
    :class:`~repro.faults.log.LogTruncation` wipes the unflushed tail
    first, the next produce/flush re-appends them (fresh offsets, original
    seqs), which is why truncation never loses data.
    """

    def __init__(self, log: CommitLog, *, fsync_every_reports: int = 1) -> None:
        if fsync_every_reports < 1:
            raise ValueError("fsync cadence must be >= 1 report")
        self.log = log
        self.fsync_every_reports = fsync_every_reports
        self._unacked: list[LogRecord] = []
        self._reports_since_flush = 0
        #: ``log.truncated_records`` at the last reconcile.
        self._truncated_seen = log.truncated_records

        self.produced_reports = 0
        self.produced_records = 0
        self.produced_points = 0
        self.resent_records = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._unacked)

    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Re-append any retained record a truncation wiped (same seq).

        Retained records are unflushed, and only a truncation removes an
        unflushed record: while the log's count of truncated records has
        not moved there is nothing to look for.
        """
        if self.log.truncated_records == self._truncated_seen:
            return
        self._truncated_seen = self.log.truncated_records
        for i, rec in enumerate(self._unacked):
            if self.log.has_record(rec):
                continue
            p = self.log._topic(rec.topic)[rec.partition]
            fresh = replace(rec, offset=p.next_offset, produced_at=self.log.now)
            p.append(fresh)
            self.log.appended_records += 1
            self._unacked[i] = fresh
            self.resent_records += 1

    def produce(
        self,
        t: float,
        report_time: float,
        batch: list[Point],
        tag: str,
        is_zero: bool = False,
    ) -> list[LogRecord]:
        """Split one report's point batch into records and append them."""
        self.log.at(t)
        self._reconcile()
        groups: dict[tuple[str, int], list[Point]] = {}
        for p in batch:
            key = (p.measurement, self.log.partition_for(p.measurement, p.tags))
            groups.setdefault(key, []).append(p)
        report_id = self.log.next_report_id()
        records: list[LogRecord] = []
        for (topic, partition) in sorted(groups):
            pts = groups[(topic, partition)]
            records.append(
                self.log.append(
                    topic,
                    partition,
                    seq=self.log.next_seq(),
                    time=report_time,
                    lines="\n".join(p.to_line() for p in pts),
                    n_fields=sum(len(p.fields) for p in pts),
                    tag=tag,
                    is_zero=is_zero,
                    report_id=report_id,
                    report_records=len(groups),
                )
            )
        self._unacked.extend(records)
        self.produced_reports += 1
        self.produced_records += len(records)
        self.produced_points += sum(r.n_fields for r in records)
        self._reports_since_flush += 1
        if self._reports_since_flush >= self.fsync_every_reports:
            self.flush(t)
        return records

    def flush(self, t: float) -> int:
        """fsync the log: everything appended becomes durable (acked)."""
        self.log.at(t)
        self._reconcile()
        n = self.log.flush()
        self._unacked.clear()
        self._reports_since_flush = 0
        self.flushes += 1
        return n
