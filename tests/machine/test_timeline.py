"""Unit + property tests for the event-rate timeline.

Every behavioural test runs against both engines — the indexed prefix-sum
``Timeline`` and the O(n)-scan ``NaiveTimeline`` reference — so the shared
contract (overlap summing, half-open windows, negative-rate corrections)
is pinned on each independently of the randomized equivalence suite.
"""

import struct
from bisect import bisect_right
from collections import defaultdict

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.machine import NaiveTimeline, Timeline


@pytest.fixture(params=[Timeline, NaiveTimeline], ids=["indexed", "naive"])
def tl(request):
    return request.param()


class TestTimelineBasics:
    def test_empty_integrates_zero(self, tl):
        assert tl.integrate(("cpu", 0), "cycles", 0.0, 10.0) == 0.0

    def test_full_window(self, tl):
        tl.add_rate(("cpu", 0), "cycles", 1.0, 3.0, 100.0)
        assert tl.integrate(("cpu", 0), "cycles", 0.0, 10.0) == pytest.approx(200.0)

    def test_partial_overlap(self, tl):
        tl.add_rate(("cpu", 0), "cycles", 0.0, 10.0, 10.0)
        assert tl.integrate(("cpu", 0), "cycles", 5.0, 7.0) == pytest.approx(20.0)

    def test_disjoint_window(self, tl):
        tl.add_rate(("cpu", 0), "cycles", 0.0, 1.0, 10.0)
        assert tl.integrate(("cpu", 0), "cycles", 2.0, 3.0) == 0.0

    def test_overlapping_segments_sum(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 1.0)
        tl.add_rate(("cpu", 0), "x", 5.0, 10.0, 2.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 10.0) == pytest.approx(20.0)

    def test_scopes_isolated(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 1.0, 5.0)
        assert tl.integrate(("cpu", 1), "x", 0.0, 1.0) == 0.0
        assert tl.integrate(("socket", 0), "x", 0.0, 1.0) == 0.0

    def test_quantities_isolated(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 1.0, 5.0)
        assert tl.integrate(("cpu", 0), "y", 0.0, 1.0) == 0.0

    def test_add_total(self, tl):
        tl.add_total(("cpu", 0), "x", 0.0, 4.0, 100.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 2.0) == pytest.approx(50.0)

    def test_add_total_empty_interval_nonzero_raises(self, tl):
        with pytest.raises(ValueError):
            tl.add_total(("cpu", 0), "x", 1.0, 1.0, 5.0)

    def test_add_total_empty_interval_zero_ok(self, tl):
        tl.add_total(("cpu", 0), "x", 1.0, 1.0, 0.0)

    def test_reversed_segment_rejected(self, tl):
        with pytest.raises(ValueError):
            tl.add_rate(("cpu", 0), "x", 2.0, 1.0, 1.0)

    @pytest.mark.parametrize("t0, t1, rate", [
        (float("nan"), 1.0, 1.0), (0.0, float("nan"), 1.0), (0.0, 1.0, float("nan")),
        (0.0, float("inf"), 1.0), (float("-inf"), 1.0, 1.0), (0.0, 1.0, float("inf")),
        (0.0, 1.0, float("-inf")), (1.0, 1.0, float("nan"))])
    def test_non_finite_segment_rejected(self, tl, t0, t1, rate):
        # a NaN bound passes ``t1 < t0``, and a NaN rate once made every
        # later integral over the series NaN
        with pytest.raises(ValueError, match="finite"):
            tl.add_rate(("cpu", 0), "x", t0, t1, rate)
        assert tl.integrate(("cpu", 0), "x", 0.0, 2.0) == 0.0

    def test_non_finite_total_rejected(self, tl):
        with pytest.raises(ValueError, match="finite"):
            tl.add_total(("cpu", 0), "x", 0.0, 1.0, float("nan"))
        with pytest.raises(ValueError, match="finite"):
            tl.bulk_add(("cpu", 0), {"x": float("inf")}, 0.0, 1.0)

    def test_reversed_window_rejected(self, tl):
        with pytest.raises(ValueError):
            tl.integrate(("cpu", 0), "x", 2.0, 1.0)

    def test_rate_at(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 3.0)
        tl.add_rate(("cpu", 0), "x", 5.0, 6.0, 4.0)
        assert tl.rate_at(("cpu", 0), "x", 5.5) == pytest.approx(7.0)
        assert tl.rate_at(("cpu", 0), "x", 9.0) == pytest.approx(3.0)
        assert tl.rate_at(("cpu", 0), "x", 11.0) == 0.0

    def test_rate_at_halfopen_boundaries(self, tl):
        """Segments are [t0, t1): the start counts, the end does not."""
        tl.add_rate(("cpu", 0), "x", 1.0, 2.0, 5.0)
        assert tl.rate_at(("cpu", 0), "x", 1.0) == pytest.approx(5.0)
        assert tl.rate_at(("cpu", 0), "x", 2.0) == 0.0
        assert tl.rate_at(("cpu", 0), "x", 0.999) == 0.0

    def test_integrate_many(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 1.0, 1.0)
        tl.add_rate(("cpu", 1), "x", 0.0, 1.0, 2.0)
        assert tl.integrate_many([("cpu", 0), ("cpu", 1)], "x", 0.0, 1.0) == pytest.approx(3.0)

    def test_quantities_listing(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 1.0, 1.0)
        tl.add_rate(("cpu", 0), "y", 0.0, 1.0, 1.0)
        assert tl.quantities(("cpu", 0)) == {"x", "y"}

    def test_bulk_add_skips_zero(self, tl):
        tl.bulk_add(("cpu", 0), {"x": 10.0, "y": 0.0}, 0.0, 1.0)
        assert tl.quantities(("cpu", 0)) == {"x"}


class TestNegativeRates:
    """Negative rates are corrections — allowed by contract in both engines."""

    def test_negative_rate_integrates_negative(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 2.0, -3.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 2.0) == pytest.approx(-6.0)

    def test_correction_cancels_deposit(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 4.0, 10.0)
        tl.add_rate(("cpu", 0), "x", 0.0, 4.0, -10.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 4.0) == pytest.approx(0.0, abs=1e-9)
        assert tl.integrate(("cpu", 0), "x", 1.0, 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_partial_correction(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 5.0)
        tl.add_rate(("cpu", 0), "x", 2.0, 4.0, -5.0)  # retract the middle
        assert tl.integrate(("cpu", 0), "x", 0.0, 10.0) == pytest.approx(40.0)
        assert tl.integrate(("cpu", 0), "x", 2.0, 4.0) == pytest.approx(0.0, abs=1e-9)
        assert tl.rate_at(("cpu", 0), "x", 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_total(self, tl):
        tl.add_total(("cpu", 0), "x", 0.0, 2.0, -8.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 1.0) == pytest.approx(-4.0)


class TestBatchedReads:
    def test_integrate_batch_matches_scalar(self, tl):
        tl.add_rate(("cpu", 0), "x", 0.0, 5.0, 2.0)
        tl.add_rate(("cpu", 1), "x", 1.0, 6.0, 3.0)
        tl.add_rate(("socket", 0), "e", 0.0, 10.0, 7.0)
        pairs = [(("cpu", 0), "x"), (("cpu", 1), "x"), (("socket", 0), "e"),
                 (("cpu", 9), "x")]
        got = tl.integrate_batch(pairs, 0.5, 4.5)
        want = [tl.integrate(s, q, 0.5, 4.5) for s, q in pairs]
        assert got == want

    def test_integrate_batch_reversed_window_rejected(self, tl):
        with pytest.raises(ValueError):
            tl.integrate_batch([(("cpu", 0), "x")], 2.0, 1.0)

    def test_integrate_batch_empty_pairs(self, tl):
        assert tl.integrate_batch([], 0.0, 1.0) == []


class TestIndexedEngineInternals:
    """Behaviour specific to the staged/compacted representation."""

    def test_add_rate_stages_without_merging(self):
        tl = Timeline()
        for k in range(100):
            tl.add_rate(("cpu", 0), "x", float(k), float(k + 1), 1.0)
        assert tl.pending(("cpu", 0), "x") == 100

    def test_empty_window_integrate_does_not_merge(self):
        """A zero-width window answers 0.0 without touching the staging
        buffer — no compaction allocation on the hot zero-read path."""
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 3.0)
        tl.add_rate(("cpu", 0), "x", 2.0, 4.0, 5.0)
        assert tl.pending(("cpu", 0), "x") == 2
        assert tl.integrate(("cpu", 0), "x", 5.0, 5.0) == 0.0
        assert tl.pending(("cpu", 0), "x") == 2  # still staged
        assert tl.integrate_batch([(("cpu", 0), "x")], 5.0, 5.0) == [0.0]
        assert tl.pending(("cpu", 0), "x") == 2

    def test_first_read_merges(self):
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 0.0, 2.0, 1.0)
        tl.integrate(("cpu", 0), "x", 0.0, 1.0)
        assert tl.pending(("cpu", 0), "x") == 0

    def test_breakpoints_compacted(self):
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 1.0)
        tl.add_rate(("cpu", 0), "x", 5.0, 10.0, 2.0)  # shared end boundary
        assert tl.breakpoints(("cpu", 0), "x") == [0.0, 5.0, 10.0]

    def test_reads_after_interleaved_writes(self):
        """Merge → write → merge again keeps the series consistent."""
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 0.0, 10.0, 2.0)
        assert tl.integrate(("cpu", 0), "x", 0.0, 10.0) == pytest.approx(20.0)
        tl.add_rate(("cpu", 0), "x", 5.0, 15.0, 1.0)
        assert tl.pending(("cpu", 0), "x") == 1
        assert tl.integrate(("cpu", 0), "x", 0.0, 20.0) == pytest.approx(30.0)
        assert tl.rate_at(("cpu", 0), "x", 7.0) == pytest.approx(3.0)

    def test_quantities_index_across_scopes(self):
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 0.0, 1.0, 1.0)
        tl.add_rate(("cpu", 0), "y", 0.0, 1.0, 1.0)
        tl.add_rate(("socket", 0), "e", 0.0, 1.0, 1.0)
        assert tl.quantities(("cpu", 0)) == {"x", "y"}
        assert tl.quantities(("socket", 0)) == {"e"}
        assert tl.quantities(("node", 0)) == set()
        # The returned set is a copy, not the live index.
        tl.quantities(("cpu", 0)).add("z")
        assert tl.quantities(("cpu", 0)) == {"x", "y"}

    def test_dropped_writes_do_not_register_quantity(self):
        tl = Timeline()
        tl.add_rate(("cpu", 0), "x", 1.0, 1.0, 5.0)  # zero width
        tl.add_rate(("cpu", 0), "y", 0.0, 1.0, 0.0)  # zero rate
        assert tl.quantities(("cpu", 0)) == set()


segments = st.lists(
    st.tuples(
        st.floats(0, 100),
        st.floats(0.01, 50),
        st.floats(0.1, 1e6),
    ),
    min_size=1,
    max_size=20,
)


class TestTimelineProperties:
    @given(segments, st.floats(0, 100), st.floats(0, 60))
    @settings(max_examples=60)
    def test_window_additivity(self, segs, w0, dw):
        """integral([a,b]) + integral([b,c]) == integral([a,c])."""
        tl = Timeline()
        for t0, dur, rate in segs:
            tl.add_rate(("cpu", 0), "x", t0, t0 + dur, rate)
        a, b, c = w0, w0 + dw / 2, w0 + dw
        left = tl.integrate(("cpu", 0), "x", a, b)
        right = tl.integrate(("cpu", 0), "x", b, c)
        whole = tl.integrate(("cpu", 0), "x", a, c)
        assert left + right == pytest.approx(whole, rel=1e-9, abs=1e-6)

    @given(segments)
    @settings(max_examples=60)
    def test_total_equals_sum_of_segments(self, segs):
        tl = Timeline()
        expected = 0.0
        for t0, dur, rate in segs:
            tl.add_rate(("cpu", 0), "x", t0, t0 + dur, rate)
            expected += dur * rate
        got = tl.integrate(("cpu", 0), "x", 0.0, 200.0)
        assert got == pytest.approx(expected, rel=1e-9)

    @given(segments, st.floats(0, 100), st.floats(0, 60))
    @settings(max_examples=60)
    def test_monotone_in_window(self, segs, w0, dw):
        """Widening the window never decreases the integral (rates >= 0)."""
        tl = Timeline()
        for t0, dur, rate in segs:
            tl.add_rate(("cpu", 0), "x", t0, t0 + dur, rate)
        inner = tl.integrate(("cpu", 0), "x", w0, w0 + dw)
        outer = tl.integrate(("cpu", 0), "x", max(0, w0 - 1), w0 + dw + 1)
        # Slack scales with magnitude: prefix-sum reads are not exactly
        # per-segment monotone the way the naive clip-scan is.
        assert outer >= inner - 1e-9 - 1e-12 * abs(inner)


# ----------------------------------------------------------------------
# integrate_batch(pairs) == [integrate(p) ...], bit for bit
# ----------------------------------------------------------------------
def parent_integrate(tl: Timeline, scope, quantity, t0, t1):
    """The scalar read as it stood before ``integrate`` became a batch of
    one and the batch loop began reusing its two bisect indices —
    ``_compacted`` + ``_integrate_compacted`` + ``_Series.cumulative``,
    which bisected twice more.  Kept here as the oracle: the arithmetic
    must not have moved by a bit."""
    def cumulative(series, x):
        times = series.times
        if x <= times[0]:
            return 0.0
        if x >= times[-1]:
            return series.prefix[-1]
        i = bisect_right(times, x) - 1
        return series.prefix[i] + series.rates[i] * (x - times[i])

    if t1 < t0:
        raise ValueError("integration window reversed")
    if t1 == t0:
        return 0.0
    series = tl._series.get((scope, quantity))
    if series is None:
        return 0.0
    if series.staged:
        series.merge()
    times = series.times
    if not times or t1 <= times[0] or t0 >= times[-1]:
        return 0.0
    i = bisect_right(times, t0) - 1
    j = bisect_right(times, t1) - 1
    if i == j:
        return series.rates[i] * (t1 - t0)
    return cumulative(series, t1) - cumulative(series, t0)


batch_soups = st.lists(
    st.tuples(
        st.sampled_from([("cpu", 0), ("cpu", 1), ("socket", 0)]),
        st.one_of(st.integers(0, 10).map(float), st.floats(0, 100)),
        st.one_of(st.integers(1, 5).map(float), st.floats(0.01, 50)),
        st.one_of(st.integers(-100, 100).map(float), st.floats(-1e6, 1e6)),  # corrections too
    ),
    max_size=30,
)


class TestBatchEqualsScalarBitForBit:
    PAIRS = [
        (("cpu", 0), "x"), (("cpu", 1), "x"), (("socket", 0), "x"),
        (("cpu", 0), "x"),   # duplicated pair
        (("cpu", 9), "x"),   # absent series
        (("cpu", 0), "never"),
    ]

    @staticmethod
    def windows(soup):
        """Left of, right of, straddling and inside the support; on and
        beside every breakpoint (single- and multi-interval windows)."""
        edges = sorted({t0 for _, t0, _, _ in soup} | {t0 + d for _, t0, d, _ in soup})
        if not edges:
            return [(0.0, 1.0)]
        lo, hi = edges[0], edges[-1]
        out = [(lo - 2.0, lo - 1.0), (hi + 1.0, hi + 2.0), (lo - 1.0, hi + 1.0),
               (lo - 1.0, (lo + hi) / 2), ((lo + hi) / 2, hi + 1.0), (lo, hi)]
        for a, b in zip(edges, edges[1:]):
            mid = (a + b) / 2
            out += [(a, b), (a, mid), (mid, b), (mid, hi), (lo, mid),
                    ((a + mid) / 2, (mid + b) / 2)]
        return [(a, b) for a, b in out if a <= b]

    @given(batch_soups, st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_against_both_engines_and_the_parent_arithmetic(self, soup, staged_from):
        engine, oracle, naive = Timeline(), Timeline(), NaiveTimeline()
        for k, (scope, t0, dur, rate) in enumerate(soup):
            if k == staged_from:
                # everything before is merged, everything after stays staged
                # until the first window below reads it
                for tl in (engine, oracle):
                    for pair in self.PAIRS:
                        tl.integrate(*pair, 0.0, 1000.0)
            for tl in (engine, oracle, naive):
                tl.add_rate(scope, "x", t0, t0 + dur, rate)
        for w0, w1 in self.windows(soup):
            got = engine.integrate_batch(self.PAIRS, w0, w1)
            assert got == [engine.integrate(s, q, w0, w1) for s, q in self.PAIRS]
            assert got == [parent_integrate(oracle, s, q, w0, w1) for s, q in self.PAIRS]
            assert naive.integrate_batch(self.PAIRS, w0, w1) == [
                naive.integrate(s, q, w0, w1) for s, q in self.PAIRS]


# ----------------------------------------------------------------------
# merge: the tail sweep == the full sweep, bit for bit
# ----------------------------------------------------------------------
def parent_merge(times, rates, staged):
    """The merge as it stood before it could start at the old last
    breakpoint: every stored breakpoint re-encoded as a delta and swept
    again with the staged ones.  Kept here as the oracle."""
    deltas = defaultdict(float)
    prev = 0.0
    for i, t in enumerate(times):
        r = rates[i] if i < len(rates) else 0.0
        if r != prev:
            deltas[t] = r - prev
        prev = r
    for s0, s1, rate in staged:
        deltas[s0] += rate
        deltas[s1] -= rate
    out_t, out_r = [], []
    rate = 0.0
    for t in sorted(deltas):
        d = deltas[t]
        if d == 0.0 and out_t:
            continue
        rate += d
        out_t.append(t)
        out_r.append(rate)
    if out_t:
        out_r.pop()
    prefix = [0.0]
    acc = 0.0
    for i, r in enumerate(out_r):
        acc += r * (out_t[i + 1] - out_t[i])
        prefix.append(acc)
    return out_t, out_r, prefix


def _packed(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def merge_ticks(ticks):
    """Write each tick's segments to one series and merge after each, each
    time against ``parent_merge`` on a copy.  Returns the kept-breakpoint
    count of every merge (0 = full sweep)."""
    tl = Timeline()
    kept = []
    for segs in ticks:
        for t0, t1, rate in segs:
            tl.add_rate(("cpu", 0), "x", t0, t1, rate)
        series = tl._series.get((("cpu", 0), "x"))
        if series is None or not series.staged:
            continue
        want = parent_merge(list(series.times), list(series.rates), list(series.staged))
        kept.append(series.merge())
        got = (series.times, series.rates, series.prefix)
        for g, w in zip(got, want):
            assert _packed(g) == _packed(w)
    return kept


tick_rates = st.one_of(
    st.integers(-100, 100).map(float),
    st.floats(-1e6, 1e6),
    st.sampled_from([1e20, -1e20, 1.0, -1.0, 3.0, -3.0]),
)


@st.composite
def tick_soups(draw):
    """Sampler-shaped ticks (each after the last: tail path) with optional
    out-of-order, overlapping, cancelling and huge-next-to-tiny segments."""
    ticks = []
    now = draw(st.floats(0, 10))
    for _ in range(draw(st.integers(1, 12))):
        segs = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["tick", "at-last", "back", "cancel"]))
            dur = draw(st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 5)))
            rate = draw(tick_rates)
            if kind == "back":
                t0 = max(0.0, now - draw(st.floats(0.01, 20)))
            else:
                t0 = now if kind == "at-last" else now + draw(st.sampled_from([0.0, 0.5, 1.0]))
            segs.append((t0, t0 + dur, rate))
            if kind == "cancel":
                segs.append((t0, t0 + dur, -rate))
        ticks.append(segs)
        now = max(now, max(t1 for _, t1, _ in segs))
    return ticks


class TestMergeTailEqualsFullSweep:
    @given(tick_soups())
    @settings(max_examples=150, deadline=None)
    def test_every_merge_matches_the_full_sweep(self, ticks):
        for k in merge_ticks(ticks):
            event("tail" if k else "full")

    def test_both_paths_are_exercised(self):
        """The spy: each case takes the path its shape calls for."""
        monotone = [[(float(i), float(i + 1), 1.0 + i % 3)] for i in range(50)]
        assert merge_ticks(monotone) == [0] + list(range(1, 50))
        # s0 == times[-1] (the tick starts where the last one ended) and a
        # gap: both append
        assert merge_ticks([[(0.0, 1.0, 2.0)], [(1.0, 2.0, 5.0)], [(4.0, 5.0, 7.0)]]) == [0, 1, 2]
        # negative and cancelling rates keep the tail path
        assert merge_ticks([[(0.0, 1.0, -2.0)], [(1.0, 2.0, 3.0), (1.0, 2.0, -3.0)],
                            [(2.0, 3.0, 2.0)]]) == [0, 1, 1]
        # a segment before the last breakpoint forces the full sweep
        assert merge_ticks([[(0.0, 2.0, 1.0)], [(1.0, 3.0, 1.0)]]) == [0, 0]
        # 1e20 next to 1: 1e20 + 1 == 1e20 leaves two equal stored rates, no
        # fixpoint, so the next merge sweeps everything although it appends;
        # that sweep drops the absorbed breakpoint and the one after appends
        assert merge_ticks([[(0.0, 2.0, 1e20), (1.0, 2.0, 1.0)], [(2.0, 3.0, 1.0)],
                            [(3.0, 4.0, 5.0)]]) == [0, 0, 2]
