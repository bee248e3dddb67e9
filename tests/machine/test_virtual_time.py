"""Virtual time is a Python float, whatever type a caller advances it by.

SpMV descriptors compute their runtime in numpy, so a kernel hands the
machine a ``numpy.float64``.  Were it kept, every clock reading, tick time,
breakpoint and counter value after it would be one too: a line-protocol
record would then carry ``np.float64(…)`` text, and the durable path would
park it.  ``VirtualClock`` and ``Timeline.add_rate`` — where time enters —
store ``float(…)``: the values are the ones the uncoerced arithmetic gives,
only the type changes.  ``float32`` is left out on purpose: its arithmetic
stays in single precision, so its values would not be the same.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import SimulatedMachine, Timeline, VirtualClock
from repro.machine.presets import get_preset
from repro.machine.timeline import _Series
from repro.workloads.matrices import generate
from repro.workloads.spmv import spmv_descriptor

#: a duration or a time as callers hand it in: int, numpy double, float
SPANS = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6).map(np.float64),
                  st.floats(0, 1e6))
RATES = st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6).map(np.float64),
                  st.floats(-1e6, 1e6))
SCOPES = [("cpu", 0), ("cpu", 1), ("socket", 0)]


class ParentTimeline(Timeline):
    """``Timeline`` whose ``add_rate`` stages its arguments as given, as it
    did before it coerced them: the arithmetic the values must equal."""

    def add_rate(self, scope, quantity, t0, t1, rate):
        if t1 < t0:
            raise ValueError(f"segment ends before it starts: [{t0}, {t1})")
        if t1 == t0 or rate == 0.0:
            return
        key = (scope, quantity)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series()
            self._scope_quantities.setdefault(scope, set()).add(quantity)
        series.staged.append((t0, t1, rate))


def exact_floats(values) -> bool:
    return all(type(v) is float for v in values)


class TestVirtualClock:
    @given(start=st.floats(0, 1e6), steps=st.lists(
        st.tuples(st.booleans(), SPANS), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_now_is_a_float_equal_to_the_uncoerced_sum(self, start, steps):
        clock, want = VirtualClock(start), start
        for absolute, x in steps:
            if absolute:
                got = clock.advance_to(x)
                want = x if x > want else want
            else:
                got = clock.advance(x)
                want = want + x
            assert type(got) is float and type(clock.now()) is float
            assert got == clock.now() == want


class TestTimelineStoresFloats:
    @given(segments=st.lists(st.tuples(
        st.sampled_from(SCOPES), SPANS, st.one_of(
            st.integers(0, 1000), st.floats(1e-3, 1e3).map(np.float64)),
        RATES), min_size=1, max_size=25),
        windows=st.lists(st.tuples(st.floats(0, 1.1e6), st.floats(0, 1e4)),
                         min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_breakpoints_and_integrals_are_floats_of_the_parent_values(
            self, segments, windows):
        new, parent = Timeline(), ParentTimeline()
        for scope, t0, width, rate in segments:
            t1 = t0 + width  # as a kernel computes its end: in the input type
            for tl in (new, parent):
                tl.add_rate(scope, "q", t0, t1, rate)
                if t1 > t0:
                    tl.add_total(scope, "tot", t0, t1, rate)
        pairs = [(s, q) for s in SCOPES for q in ("q", "tot")]
        for s, q in pairs:
            got = new.breakpoints(s, q)
            assert exact_floats(got) and got == parent.breakpoints(s, q)
        for lo, width in windows:  # a window is read off the (float) clock
            got = new.integrate_batch(pairs, lo, lo + width)
            assert exact_floats(got)
            assert got == parent.integrate_batch(pairs, lo, lo + width)


def test_an_spmv_kernel_leaves_every_time_a_float():
    machine = SimulatedMachine(get_preset("icl"), seed=7)
    desc = spmv_descriptor(generate("adaptive", scale=0.001, seed=7),
                           machine.spec, n_threads=8, nnz_scale=9000)
    run = machine.run_kernel(desc, list(range(8)))
    assert type(run.profile.runtime_s) is not float  # the leak being plugged
    assert type(machine.clock.now()) is float and type(run.t_end) is float
    assert run.t_end == machine.clock.now()
    tl = machine.timeline
    for scope in [("cpu", c) for c in range(8)] + [("socket", 0)]:
        for q in tl.quantities(scope):
            assert exact_floats(tl.breakpoints(scope, q))
    t0 = run.t_start
    assert exact_floats(machine.read_batch(
        [(("cpu", 0), q) for q in tl.quantities(("cpu", 0))], t0, run.t_end))
