"""A kept /proc snapshot ≡ a fresh one, bit for bit.

``SoftwareState.snapshot`` keeps the source reads of the two latest
instants it read and hands them out again while ``machine.version(t)`` holds.
The oracle is a fresh ``SoftwareState`` per read (it keeps nothing) on a
*twin* machine that plays the same script, so the check also pins that a
kept answer skips nothing a fresh read would have done to the machine: a
skipped background extension or merge would part the twins' later bits.

The script interleaves reads at repeated instants with everything that
writes the machine — ``advance``, ``run_kernel``, a clock moved without
the machine (background left behind the clock), and direct ``add_rate``
deposits, among them a ``1e20`` rate with a ``1`` beside it, which forces
full merge sweeps — and a caller that scribbles on a list it was handed.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import ISA, KernelDescriptor, SimulatedMachine, SoftwareState, get_preset
from repro.machine.activity import SW_METRICS

METRICS = sorted(SW_METRICS)


def kernel(n):
    return KernelDescriptor(
        "stream", flops_dp={ISA.AVX2: 2.0 * n}, fma_fraction=1.0, loads=n / 2,
        stores=n / 4, mem_isa=ISA.AVX2, working_set_bytes=24 * n)


# A step is one integer: what happens and where the read lands are drawn
# from ``random.Random`` of it, which keeps 1 000 examples cheap to
# generate; hypothesis still shrinks the script's length and its steps.
# Four steps in ten write the machine.
KINDS = [None, None, None, None, "scribble", "scribble", "advance", "clock", "kernel", "deposit"]
ops = st.lists(st.integers(0, 2**32), min_size=1, max_size=10)


def instants(machine, read):
    """Where to read: instants read before (so kept ones come back), the
    clock, ahead of the clock, and the ends of every run."""
    now = machine.clock.now()
    out = sorted({*read, now, now / 2, now + 0.25,
                  *(t for r in machine.runs for t in (r.t_start, r.t_end))})
    return out


def play(kind, rng, machine):
    if kind == "advance":
        machine.advance(rng.uniform(0.01, 2.0))
    elif kind == "clock":
        machine.clock.advance(rng.uniform(0.01, 1.0))
    elif kind == "kernel":
        machine.run_kernel(kernel(rng.choice([200_000, 40_000_000])),
                           list(range(rng.randint(1, 4))))
    else:  # a deposit anywhere up to the clock, past ones included
        scope, quantity = ("cpu", rng.randint(0, 3)), rng.choice(["cycles", "dram_bytes"])
        rate = rng.choice([-1e6, 1.0, 3e7, 1e20])
        now = machine.clock.now()
        t0 = rng.random() * now
        t1 = t0 + rng.uniform(0.0, 0.5) * now
        machine.timeline.add_rate(scope, quantity, t0, t1, rate)
        if rate == 1e20:  # a small rate on top: 1e20 + 1 == 1e20
            machine.timeline.add_rate(scope, quantity, t0, t1, 1.0)


def bits(snapshot):
    return {m: array("d", vs).tobytes() for m, vs in snapshot.items()}


def check(host, script):
    kept_m, fresh_m = (SimulatedMachine(get_preset(host), seed=4) for _ in range(2))
    for m in (kept_m, fresh_m):
        m.advance(1.0)
    kept = SoftwareState(kept_m)
    read: list[float] = []
    handed: list[dict] = []
    for step in script:
        kind = KINDS[step % len(KINDS)]
        if kind == "scribble":
            for snap in handed:
                for values in snap.values():
                    values[:] = [-1.0] * len(values)
        elif kind is not None:
            play(kind, random.Random(step), kept_m)
            play(kind, random.Random(step), fresh_m)
        rng = random.Random(f"read {step}")
        metrics = rng.sample(METRICS, rng.randint(1, 6))
        if rng.random() < 0.5 and read:  # one of the two latest instants read: kept
            t = read[-1 - rng.randrange(min(2, len(read)))]
        else:
            t = rng.choice(instants(kept_m, read))
        got = kept.snapshot(metrics, t)
        want = SoftwareState(fresh_m).snapshot(metrics, t)
        assert bits(got) == bits(want), (t, metrics)
        # and the kept read did to the machine what the fresh one did
        assert (kept_m._bg_end, kept_m.timeline.writes) == (
            fresh_m._bg_end, fresh_m.timeline.writes)
        read.append(t)
        handed.append(got)
    # the twins still agree on everything at the end
    end = kept_m.clock.now()
    assert bits(kept.snapshot(METRICS, end)) == bits(SoftwareState(fresh_m).snapshot(METRICS, end))


class TestKeptSnapshotEqualsFresh:
    @given(host=st.sampled_from(["icl", "zen3"]), script=ops)
    @settings(max_examples=50, deadline=None)
    def test_bit_for_bit(self, host, script):
        check(host, script)

    @pytest.mark.chaos
    @given(host=st.sampled_from(["icl", "skx", "zen3"]), script=ops)
    @settings(max_examples=1000, deadline=None)
    def test_bit_for_bit_wide(self, host, script):
        check(host, script)

    def test_a_tick_pattern_hits_and_a_write_misses(self):
        """Reads at t1 then t0 = the previous t1 come from the kept
        instant; any write to the machine drops what was kept."""
        m = SimulatedMachine(get_preset("icl"), seed=4)
        m.advance(4.0)
        state = SoftwareState(m)
        calls = []
        real = m.read_batch
        m.read_batch = lambda *a: calls.append(a) or real(*a)
        state.snapshot(METRICS, 1.0)
        n = len(calls)
        state.snapshot(METRICS, 2.0)
        state.snapshot(METRICS, 1.0)
        assert len(calls) == 2 * n
        m.timeline.add_rate(("cpu", 0), "cycles", 0.5, 0.75, 1.0)
        state.snapshot(METRICS, 1.0)
        assert len(calls) == 3 * n

    def test_a_read_that_would_lay_background_is_not_served_kept(self):
        """The clock moved without the machine: a fresh read lays the
        background down to the clock, so the kept one may not skip it."""
        m = SimulatedMachine(get_preset("icl"), seed=4)
        m.advance(4.0)
        state = SoftwareState(m)
        state.snapshot(METRICS, 2.0)
        m.clock.advance(1.0)
        state.snapshot(METRICS, 2.0)
        assert m._bg_end == 5.0

    def test_the_version_moves_with_every_write_and_lags_with_the_background(self):
        m = SimulatedMachine(get_preset("icl"), seed=4)
        m.advance(4.0)
        v = m.version(4.0)
        assert v is not None and m.version(2.0) == v
        assert m.version(4.5) is None  # a read there lays background first
        m.timeline.add_rate(("cpu", 0), "cycles", 0.5, 0.75, 1.0)
        assert m.version(4.0) == v + 1
        m.run_kernel(kernel(200_000), [0])
        assert m.version(m.clock.now()) > v + 1
        m.clock.advance(1.0)
        assert m.version(0.0) is None

    def test_a_handed_list_is_the_callers(self):
        m = SimulatedMachine(get_preset("icl"), seed=4)
        m.advance(4.0)
        state = SoftwareState(m)
        first = state.snapshot(["kernel.all.load", "hinv.ncpu"], 2.0)
        want = bits(first)
        first["kernel.all.load"].append(9.0)
        first["hinv.ncpu"][0] = -1.0
        assert bits(state.snapshot(["kernel.all.load", "hinv.ncpu"], 2.0)) == want
