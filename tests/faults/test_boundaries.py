"""Boundary-instant semantics of every fault family.

All fault windows in the substrate are half-open ``[t0, t1)`` virtual
time.  The fuzzer's oracles lean on that contract hard (a crash window
ending exactly at a poll instant must NOT swallow the poll), so this
suite pins the edges explicitly: active exactly at ``t0``, inactive
exactly at ``t1``, back-to-back windows chaining without a gap, and the
loud inject-time validation of overlapping or zero-length windows.
"""

import math

import pytest

from repro.faults import (
    ConsumerCrash,
    DbOutage,
    FlakyWrites,
    InsertLatencySpike,
    LogFaultSet,
    LogTruncation,
    NetworkPartition,
    NodeCrash,
    NodeFaultSet,
    NodeFlap,
    NodeHang,
    ServiceFaultSet,
)
from repro.machine import CpuThrottle


# ----------------------------------------------------------------------
# Service faults (repro.faults.services)
# ----------------------------------------------------------------------
class TestServiceBoundaries:
    @pytest.mark.parametrize("cls", [DbOutage, NetworkPartition])
    def test_half_open_window(self, cls):
        f = cls(t0=2.0, t1=5.0)
        assert not f.fails_write(1.999999)
        assert f.fails_write(2.0)       # inclusive at t0
        assert f.fails_write(4.999999)
        assert not f.fails_write(5.0)   # exclusive at t1

    def test_latency_spike_half_open(self):
        f = InsertLatencySpike(t0=1.0, t1=2.0, factor=4.0)
        assert f.latency_factor(1.0) == 4.0
        assert f.latency_factor(2.0) == 1.0

    def test_flaky_inactive_outside_window_even_with_p1(self):
        f = FlakyWrites(t0=1.0, t1=2.0, p_fail=1.0, seed=3)
        assert not f.fails_write(0.999999)
        assert f.fails_write(1.0)
        assert not f.fails_write(2.0)

    def test_back_to_back_windows_leave_no_gap(self):
        fs = ServiceFaultSet()
        fs.inject(DbOutage(t0=1.0, t1=3.0))
        fs.inject(DbOutage(t0=3.0, t1=6.0))
        # t=3.0 is the seam: first window closed, second already open.
        assert fs.write_error(3.0) == "db-outage"
        assert fs.write_error(6.0) is None

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            DbOutage(t0=4.0, t1=4.0)
        with pytest.raises(ValueError):
            InsertLatencySpike(t0=4.0, t1=3.0)


# ----------------------------------------------------------------------
# Node faults (repro.faults.nodes)
# ----------------------------------------------------------------------
class TestNodeBoundaries:
    def test_crash_half_open(self):
        f = NodeCrash(t0=2.0, t1=5.0)
        assert f.down_at(2.0) and not f.down_at(5.0)
        # next_up *at* t1 is the identity: the node is already up.
        assert f.next_up(5.0) == 5.0

    def test_hang_half_open(self):
        f = NodeHang(t0=2.0, t1=5.0, factor=3.0)
        assert f.hang_factor(2.0) == 3.0
        assert f.hang_factor(5.0) == 1.0

    def test_flap_first_instant_is_down(self):
        f = NodeFlap(t0=2.0, t1=10.0, period_s=2.0, down_fraction=0.5)
        assert f.down_at(2.0)           # each period opens with downtime
        assert not f.down_at(10.0)      # window closed at t1

    def test_back_to_back_crashes_chain_next_up(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=1.0, t1=3.0))
        fs.inject("n0", NodeCrash(t0=3.0, t1=6.0))
        # Adjacent windows are NOT overlapping ([1,3) ∩ [3,6) = ∅) so the
        # loud check admits them, and next_up fixpoints across the seam.
        assert fs.is_down("n0", 3.0)
        assert fs.next_up("n0", 1.5) == 6.0

    def test_down_intervals_exclude_t1(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=1.0, t1=4.0))
        assert fs.down_intervals("n0", 0.0, 4.0) == [(1.0, 4.0)]
        assert fs.down_seconds("n0", 4.0, 10.0) == 0.0

    def test_overlap_rejected_loudly(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=1.0, t1=4.0))
        with pytest.raises(ValueError, match="overlapping NodeCrash"):
            fs.inject("n0", NodeCrash(t0=3.999, t1=6.0))
        # Different kind, different node, or explicit opt-in all pass.
        fs.inject("n0", NodeHang(t0=1.0, t1=4.0, factor=2.0))
        fs.inject("n1", NodeCrash(t0=1.0, t1=4.0))
        fs.inject("n0", NodeCrash(t0=2.0, t1=5.0), allow_overlap=True)

    def test_permanent_window_overlaps_everything_after_t0(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=5.0, t1=math.inf))
        with pytest.raises(ValueError, match="overlapping"):
            fs.inject("n0", NodeCrash(t0=100.0, t1=200.0))


# ----------------------------------------------------------------------
# Commit-log faults (repro.faults.log)
# ----------------------------------------------------------------------
class TestLogBoundaries:
    def test_consumer_crash_half_open(self):
        c = ConsumerCrash("db-writer", "db-writer-0", t0=2.0, t1=5.0)
        assert c.active(2.0) and c.down_at(2.0)
        assert not c.active(5.0)  # a poll exactly at t1 must succeed
        assert not c.down_at(5.0)

    def test_fault_set_next_up_merges_back_to_back(self):
        lf = LogFaultSet()
        lf.inject(ConsumerCrash("g", "c", 1.0, 3.0))
        lf.inject(ConsumerCrash("g", "c", 3.0, 7.0))
        assert lf.crashed("g", "c", 3.0)
        assert lf.next_up("g", "c", 2.0) == 7.0
        # Exactly at the final t1 the consumer is already up.
        assert not lf.crashed("g", "c", 7.0)
        assert lf.next_up("g", "c", 7.0) == 7.0

    def test_liveness_probe_without_a_crash_schedule_walks_nothing(self):
        """``crashed`` is asked for every consumer on every poll; with no
        crash scheduled it answers before building a key to probe with."""
        class NeverProbed(dict):
            def get(self, *args):
                raise AssertionError("probed an empty crash schedule")

        lf = LogFaultSet()
        lf.by_scope = NeverProbed()
        assert lf.crashed("g", "c", 1.0) is False

    def test_zero_length_crash_rejected(self):
        with pytest.raises(ValueError):
            ConsumerCrash("g", "c", t0=2.0, t1=2.0)

    def test_overlapping_crash_same_consumer_rejected(self):
        lf = LogFaultSet()
        lf.inject(ConsumerCrash("g", "c", 1.0, 4.0))
        with pytest.raises(ValueError, match="overlapping ConsumerCrash"):
            lf.inject(ConsumerCrash("g", "c", 3.0, 6.0))
        # Other consumer / other group / explicit layering are all fine.
        lf.inject(ConsumerCrash("g", "c2", 3.0, 6.0))
        lf.inject(ConsumerCrash("g2", "c", 3.0, 6.0))
        lf.inject(ConsumerCrash("g", "c", 3.0, 6.0), allow_overlap=True)

    def test_duplicate_truncation_rejected(self):
        lf = LogFaultSet()
        lf.inject(LogTruncation(at=4.0))
        with pytest.raises(ValueError, match="duplicate truncation"):
            lf.inject(LogTruncation(at=4.0))
        # Different topic scope or instant is a different fault.
        lf.inject(LogTruncation(at=4.0, topic="pmove"))
        lf.inject(LogTruncation(at=5.0))
        lf.inject(LogTruncation(at=4.0), allow_overlap=True)

    def test_unknown_fault_kind_is_type_error(self):
        with pytest.raises(TypeError):
            LogFaultSet().inject(object())  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# One window contract for every family
# ----------------------------------------------------------------------
NAN = math.nan


class TestNaNBoundsRefused:
    """``t1 <= t0`` is False for a NaN bound, so each family used to build
    a fault that never fires — a silently inert chaos schedule."""

    @pytest.mark.parametrize("make", [
        lambda t0, t1: DbOutage(t0=t0, t1=t1),
        lambda t0, t1: FlakyWrites(t0=t0, t1=t1, p_fail=1.0),
        lambda t0, t1: NodeCrash(t0=t0, t1=t1),
        lambda t0, t1: NodeFlap(t0=t0, t1=t1),
        lambda t0, t1: ConsumerCrash("g", "c", t0, t1),
        lambda t0, t1: CpuThrottle(t0=t0, t1=t1),
    ], ids=["service", "flaky", "node-crash", "node-flap", "consumer", "machine"])
    @pytest.mark.parametrize("t0, t1", [(NAN, 5.0), (0.0, NAN), (NAN, NAN)])
    def test_either_bound(self, make, t0, t1):
        with pytest.raises(ValueError, match="positive length"):
            make(t0, t1)
        make(0.0, 5.0)

    def test_truncation_instant(self):
        with pytest.raises(ValueError):
            LogTruncation(at=NAN)
        LogTruncation(at=0.0)


class TestFlakySeedRange:
    """The draw packs the seed as an int64: a seed outside that range used
    to construct, then crash the first write in the window with
    ``struct.error`` instead of a rejected write."""

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_edges_draw(self, seed):
        f = FlakyWrites(t0=0.0, t1=10.0, p_fail=0.5, seed=seed)
        assert f.fails_write(5.0) in (True, False)

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63])
    def test_past_the_edges_refused(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            FlakyWrites(t0=0.0, t1=10.0, p_fail=0.5, seed=seed)
