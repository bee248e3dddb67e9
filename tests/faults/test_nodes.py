"""Tests for node-lifecycle faults (crash, hang, flap) and the fault set."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import NodeCrash, NodeFaultSet, NodeFlap, NodeHang


class TestNodeCrash:
    def test_down_on_window(self):
        f = NodeCrash(t0=2.0, t1=5.0)
        assert not f.down_at(1.9)
        assert f.down_at(2.0)
        assert f.down_at(4.999)
        assert not f.down_at(5.0)

    def test_next_down_next_up(self):
        f = NodeCrash(t0=2.0, t1=5.0)
        assert f.next_down(0.0) == 2.0
        assert f.next_down(3.0) == 3.0
        assert f.next_down(5.0) is None
        assert f.next_up(3.0) == 5.0
        assert f.next_up(1.0) == 1.0

    def test_permanent_crash(self):
        f = NodeCrash(t0=1.0, t1=math.inf)
        assert f.down_at(1e12)
        assert f.next_up(2.0) == math.inf

    def test_down_intervals_clipped(self):
        f = NodeCrash(t0=2.0, t1=5.0)
        assert f.down_intervals(0.0, 10.0) == [(2.0, 5.0)]
        assert f.down_intervals(3.0, 4.0) == [(3.0, 4.0)]
        assert f.down_intervals(6.0, 9.0) == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(t0=5.0, t1=5.0)


class TestNodeHang:
    def test_paces_only_inside_window(self):
        f = NodeHang(t0=1.0, t1=3.0, factor=4.0)
        assert f.hang_factor(0.5) == 1.0
        assert f.hang_factor(2.0) == 4.0
        assert f.hang_factor(3.0) == 1.0
        assert not f.down_at(2.0)  # hung, not down

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            NodeHang(t0=0.0, t1=1.0, factor=0.5)


class TestNodeFlap:
    def test_duty_cycle(self):
        f = NodeFlap(t0=0.0, t1=10.0, period_s=2.0, down_fraction=0.5)
        # Each 2 s period starts with 1 s of downtime.
        assert f.down_at(0.5)
        assert not f.down_at(1.5)
        assert f.down_at(2.5)
        assert not f.down_at(3.5)

    def test_next_up_within_cycle(self):
        f = NodeFlap(t0=0.0, t1=10.0, period_s=2.0, down_fraction=0.5)
        assert f.next_up(0.25) == pytest.approx(1.0)
        assert f.next_up(1.5) == 1.5

    def test_next_down_skips_up_phase(self):
        f = NodeFlap(t0=0.0, t1=10.0, period_s=2.0, down_fraction=0.5)
        assert f.next_down(1.5) == pytest.approx(2.0)
        assert f.next_down(9.5) is None  # next cycle starts past t1

    def test_down_intervals_sum(self):
        f = NodeFlap(t0=0.0, t1=10.0, period_s=2.0, down_fraction=0.5)
        ivals = f.down_intervals(0.0, 10.0)
        assert len(ivals) == 5
        assert sum(b - a for a, b in ivals) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFlap(t0=0.0, t1=1.0, period_s=0.0)
        with pytest.raises(ValueError):
            NodeFlap(t0=0.0, t1=1.0, down_fraction=1.0)
        with pytest.raises(ValueError):
            NodeFlap(t0=0.0, t1=1.0, period_s=math.nan)


def _cent(lo: int, hi: int):
    """Two-decimal floats in ``[lo, hi] / 100``, spelled as literals are."""
    return st.integers(lo, hi).map(lambda n: n / 100)


FLAPS = st.builds(
    lambda t0, span, period, frac: NodeFlap(
        t0=t0, t1=round(t0 + span, 2), period_s=period, down_fraction=frac
    ),
    _cent(0, 1000), _cent(1, 3000), _cent(1, 500), _cent(1, 99),
)


def _flap_answers_agree(flap: NodeFlap, t: float) -> None:
    """The four answers of one flap name the same cycle edges."""
    nd = flap.next_down(t)
    if nd is not None:
        assert flap.down_at(nd), (flap, t, nd)
    fs = NodeFaultSet()
    fs.inject("n", flap)
    up = fs.next_up("n", t)
    if up < flap.t1:
        assert not fs.is_down("n", up), (flap, t, up)
    for a, _b in flap.down_intervals(t, t + 3 * flap.period_s):
        assert flap.down_at(a), (flap, t, a)


class TestNodeFlapCycleEdges:
    """``down_at``, ``next_down``, ``next_up`` and ``down_intervals`` used
    to find cycle positions three ways, and float rounding put them on
    different sides of an edge: the scheduler, which waits on ``next_up``,
    could place a job on a node that was still down."""

    def test_next_down_is_down(self):
        f = NodeFlap(t0=0.7, t1=9.623, period_s=0.55, down_fraction=0.5)
        assert f.next_down(4.0) == 4.0
        assert f.down_at(4.0)

    def test_next_up_is_up(self):
        fs = NodeFaultSet()
        fs.inject("n", NodeFlap(t0=3.19, t1=22.63, period_s=1.62,
                                down_fraction=0.7))
        up = fs.next_up("n", 12.31)
        assert up == pytest.approx(12.424)
        assert not fs.is_down("n", up)

    @given(FLAPS, _cent(0, 4000))
    @settings(max_examples=60, deadline=None)
    def test_answers_agree_at_cycle_edges(self, flap, t):
        _flap_answers_agree(flap, t)

    @pytest.mark.chaos
    @given(FLAPS, _cent(0, 4000))
    @settings(max_examples=1000, deadline=None)
    def test_answers_agree_at_cycle_edges_wide(self, flap, t):
        _flap_answers_agree(flap, t)


class TestNodeFaultSet:
    def test_empty_set_is_falsy_and_up(self):
        fs = NodeFaultSet()
        assert not fs
        assert not fs.is_down("n0", 5.0)
        assert fs.hang_factor("n0", 5.0) == 1.0
        assert fs.next_up("n0", 5.0) == 5.0
        assert fs.down_seconds("n0", 0.0, 100.0) == 0.0

    def test_inject_remove(self):
        fs = NodeFaultSet()
        f = fs.inject("n0", NodeCrash(t0=1.0, t1=2.0))
        assert fs and fs.is_down("n0", 1.5)
        assert not fs.is_down("n1", 1.5)  # other nodes untouched
        assert fs.remove("n0", f)
        assert not fs.remove("n0", f)
        assert not fs

    def test_scoped_leaks_nothing(self):
        fs = NodeFaultSet()
        with fs.scoped("n0", NodeCrash(t0=0.0, t1=1.0)):
            assert fs.is_down("n0", 0.5)
        assert not fs

    def test_hang_factors_multiply(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeHang(t0=0.0, t1=10.0, factor=2.0))
        fs.inject("n0", NodeHang(t0=5.0, t1=10.0, factor=3.0),
                  allow_overlap=True)
        assert fs.hang_factor("n0", 1.0) == 2.0
        assert fs.hang_factor("n0", 6.0) == 6.0

    def test_next_up_chains_back_to_back_windows(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=1.0, t1=3.0))
        fs.inject("n0", NodeCrash(t0=3.0, t1=6.0))
        assert fs.next_up("n0", 2.0) == 6.0

    def test_down_intervals_merge_overlaps(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=1.0, t1=4.0))
        fs.inject("n0", NodeCrash(t0=3.0, t1=6.0), allow_overlap=True)
        assert fs.down_intervals("n0", 0.0, 10.0) == [(1.0, 6.0)]
        assert fs.down_seconds("n0", 0.0, 10.0) == pytest.approx(5.0)

    def test_first_failure_earliest_across_nodes(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeCrash(t0=5.0, t1=9.0))
        fs.inject("n1", NodeCrash(t0=3.0, t1=4.0))
        assert fs.first_failure(["n0", "n1"], 0.0, 10.0) == ("n1", 3.0)
        # Windows entirely outside the probe range do not fire.
        assert fs.first_failure(["n0", "n1"], 0.0, 3.0) is None
        assert fs.first_failure(["n2"], 0.0, 10.0) is None

    def test_hang_never_triggers_failure(self):
        fs = NodeFaultSet()
        fs.inject("n0", NodeHang(t0=0.0, t1=10.0, factor=8.0))
        assert fs.first_failure(["n0"], 0.0, 10.0) is None
