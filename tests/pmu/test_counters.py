"""Tests for PMU counter programming, reading, multiplexing, and noise."""

import hashlib
import random
import struct

import numpy as np
import pytest

from repro.machine import ISA, KernelDescriptor, SimulatedMachine, csl, icl, zen3
from repro.machine.spec import PMUSpec
from repro.pmu import PMU, CounterAllocationError, NoiseModel, UnknownEventError
from repro.pmu.noise import _pcg64_states


def kernel(n=10_000_000):
    return KernelDescriptor(
        "k",
        flops_dp={ISA.AVX512: 2.0 * n},
        fma_fraction=1.0,
        loads=2 * n / 8,
        stores=n / 8,
        mem_isa=ISA.AVX512,
        working_set_bytes=3 * 8 * n,
    )


def zen_kernel(n=10_000_000):
    return KernelDescriptor(
        "zk",
        flops_dp={ISA.AVX2: 2.0 * n},
        fma_fraction=1.0,
        loads=2 * n / 4,
        stores=n / 4,
        mem_isa=ISA.AVX2,
        working_set_bytes=3 * 8 * n,
    )


class TestProgramming:
    def test_unknown_event_rejected_at_program_time(self):
        pmu = PMU(SimulatedMachine(icl()))
        with pytest.raises(UnknownEventError):
            pmu.program(["BOGUS_EVENT"])

    def test_duplicate_events_rejected(self):
        pmu = PMU(SimulatedMachine(icl()))
        with pytest.raises(ValueError, match="duplicate"):
            pmu.program(["L1D:REPLACEMENT", "L1D:REPLACEMENT"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PMU(SimulatedMachine(icl())).program([])

    def test_bad_cpu_rejected(self):
        pmu = PMU(SimulatedMachine(icl()))
        with pytest.raises(ValueError, match="out of range"):
            pmu.program(["L1D:REPLACEMENT"], cpus=[99])

    def test_four_core_events_fit_on_intel(self):
        pmu = PMU(SimulatedMachine(icl()))
        sess = pmu.program(
            ["L1D:REPLACEMENT", "L2_RQSTS:MISS", "FP_ARITH:SCALAR_DOUBLE",
             "MEM_INST_RETIRED:ALL_LOADS"]
        )
        assert sess.mux_groups == 1

    def test_fixed_and_socket_events_free(self):
        """Fixed counters (cycles/instructions) and RAPL don't use slots."""
        pmu = PMU(SimulatedMachine(icl()))
        sess = pmu.program(
            ["UNHALTED_CORE_CYCLES", "INSTRUCTION_RETIRED", "RAPL_ENERGY_PKG",
             "L1D:REPLACEMENT", "L2_RQSTS:MISS", "FP_ARITH:SCALAR_DOUBLE",
             "MEM_INST_RETIRED:ALL_LOADS"]
        )
        assert sess.mux_groups == 1

    def test_fifth_event_multiplexes_on_intel(self):
        pmu = PMU(SimulatedMachine(icl()))
        sess = pmu.program(
            ["L1D:REPLACEMENT", "L2_RQSTS:MISS", "FP_ARITH:SCALAR_DOUBLE",
             "MEM_INST_RETIRED:ALL_LOADS", "MEM_INST_RETIRED:ALL_STORES"]
        )
        assert sess.mux_groups == 2

    def test_multiplexing_can_be_refused(self):
        pmu = PMU(SimulatedMachine(icl()))
        with pytest.raises(CounterAllocationError):
            pmu.program(
                ["L1D:REPLACEMENT", "L2_RQSTS:MISS", "FP_ARITH:SCALAR_DOUBLE",
                 "MEM_INST_RETIRED:ALL_LOADS", "MEM_INST_RETIRED:ALL_STORES"],
                allow_multiplexing=False,
            )

    def test_smt_idle_doubles_intel_slots(self):
        pmu = PMU(SimulatedMachine(icl()))
        assert pmu.slots_available() == 4
        assert pmu.slots_available(smt_sibling_idle=True) == 8

    def test_amd_two_slots_no_smt_doubling(self):
        pmu = PMU(SimulatedMachine(zen3()))
        assert pmu.slots_available() == 2
        assert pmu.slots_available(smt_sibling_idle=True) == 2

    def test_amd_three_events_multiplex(self):
        """The paper's Fig 4 event set on zen3 (FLOPs + loads + stores)
        exceeds the 2 counters and must multiplex."""
        pmu = PMU(SimulatedMachine(zen3()))
        sess = pmu.program(
            ["RETIRED_SSE_AVX_FLOPS:ANY", "MEM_UOPS:LOADS", "MEM_UOPS:STORES"]
        )
        assert sess.mux_groups == 2

    def test_stop_clears_session(self):
        pmu = PMU(SimulatedMachine(icl()))
        pmu.program(["L1D:REPLACEMENT"])
        pmu.stop()
        with pytest.raises(RuntimeError):
            _ = pmu.session


class TestReading:
    def test_read_requires_programming(self):
        pmu = PMU(SimulatedMachine(icl()))
        with pytest.raises(RuntimeError, match="not been programmed"):
            pmu.read("L1D:REPLACEMENT", 0)

    def test_unprogrammed_event_read_rejected(self):
        pmu = PMU(SimulatedMachine(icl()))
        pmu.program(["L1D:REPLACEMENT"])
        with pytest.raises(KeyError, match="not programmed"):
            pmu.read("L2_RQSTS:MISS", 0)

    def test_uncovered_cpu_read_rejected(self):
        pmu = PMU(SimulatedMachine(icl()))
        pmu.program(["L1D:REPLACEMENT"], cpus=[0, 1])
        with pytest.raises(KeyError, match="not covered"):
            pmu.read("L1D:REPLACEMENT", 5)

    def test_read_close_to_ground_truth(self):
        m = SimulatedMachine(csl(), seed=9)
        pmu = PMU(m, seed=9)
        pmu.program(["FP_ARITH:512B_PACKED_DOUBLE"], cpus=list(range(28)))
        run = m.run_kernel(kernel(), list(range(28)))
        total = sum(pmu.read("FP_ARITH:512B_PACKED_DOUBLE", c) for c in range(28))
        true = run.ground_truth("fp_dp_avx512")
        assert total == pytest.approx(true, rel=0.005)

    def test_rapl_same_for_same_socket_cpus(self):
        m = SimulatedMachine(csl(), seed=9)
        pmu = PMU(m, seed=9)
        pmu.program(["RAPL_ENERGY_PKG"], cpus=[0, 1])
        m.run_kernel(kernel(), [0, 1])
        t0, t1 = 0.0, m.clock.now()
        # True value identical per socket; noise differs per-cpu read but
        # stays within noise bounds.
        a = pmu.read_interval("RAPL_ENERGY_PKG", 0, t0, t1)
        b = pmu.read_interval("RAPL_ENERGY_PKG", 1, t0, t1)
        assert a == pytest.approx(b, rel=0.01)
        assert a > 0

    def test_multiplexed_read_noisier(self):
        """Multiplexed sessions must show larger mean relative error than
        dedicated-counter sessions for the same workload (statistical over
        several seeds — individual reads can go either way)."""
        def run(events, seed):
            m = SimulatedMachine(zen3(), seed=seed)
            pmu = PMU(m, seed=seed)
            pmu.program(events, cpus=list(range(16)))
            r = m.run_kernel(zen_kernel(), list(range(16)))
            meas = sum(pmu.read("MEM_UOPS:LOADS", c) for c in range(16))
            true = r.ground_truth("loads")
            return abs(meas - true) / true

        seeds = range(40, 52)
        err_clean = sum(run(["MEM_UOPS:LOADS"], s) for s in seeds)
        err_mux = sum(
            run(
                ["MEM_UOPS:LOADS", "MEM_UOPS:STORES", "RETIRED_SSE_AVX_FLOPS:ANY",
                 "CYCLES_NOT_IN_HALT", "RETIRED_INSTRUCTIONS"],
                s,
            )
            for s in seeds
        )
        assert err_mux > err_clean

    def test_read_all_cpus(self):
        m = SimulatedMachine(icl(), seed=1)
        pmu = PMU(m, seed=1)
        pmu.program(["MEM_INST_RETIRED:ALL_LOADS"], cpus=[0, 1, 2])
        m.run_kernel(kernel(1_000_000), [0, 1, 2])
        vals = pmu.read_all_cpus("MEM_INST_RETIRED:ALL_LOADS", 0.0, m.clock.now())
        assert set(vals) == {0, 1, 2}
        assert all(v > 0 for v in vals.values())


class TestNoiseModel:
    def spec(self, **kw):
        defaults = dict(n_programmable=4, n_fixed=3, uarch="skylakex")
        defaults.update(kw)
        return PMUSpec(**defaults)

    def test_zero_stays_zero(self):
        nm = NoiseModel(self.spec())
        assert nm.measure(0.0, 0, "E", 0.0, 1.0) == 0.0

    def test_negative_rejected(self):
        nm = NoiseModel(self.spec())
        with pytest.raises(ValueError):
            nm.measure(-1.0, 0, "E", 0.0, 1.0)

    @pytest.mark.parametrize("true_value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, true_value):
        # max(0.0, nan) is 0.0 and inf * (1 + rel) is inf: both once
        # measured as if they were counts
        nm = NoiseModel(self.spec())
        with pytest.raises(ValueError, match="finite"):
            nm.measure(true_value, 0, "E", 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            nm.measure_batch([(1.0, 0, "E", 1), (true_value, 1, "E", 1)], 0.0, 1.0)

    def test_bad_mux_rejected(self):
        nm = NoiseModel(self.spec())
        with pytest.raises(ValueError):
            nm.measure(1.0, 0, "E", 0.0, 1.0, mux_groups=0)

    def test_deterministic_per_identity(self):
        nm = NoiseModel(self.spec(), machine_seed=5)
        a = nm.measure(1e9, 3, "EV", 0.0, 1.0)
        b = nm.measure(1e9, 3, "EV", 0.0, 1.0)
        assert a == b

    def test_different_windows_differ(self):
        nm = NoiseModel(self.spec(), machine_seed=5)
        a = nm.measure(1e9, 3, "EV", 0.0, 1.0)
        b = nm.measure(1e9, 3, "EV", 1.0, 2.0)
        assert a != b

    def test_systematic_overcount_visible_in_mean(self):
        nm = NoiseModel(self.spec(overcount_ppm=500.0, jitter_ppm=100.0))
        vals = [nm.measure(1e9, c, "EV", 0.0, 1.0) for c in range(200)]
        mean_rel = (sum(vals) / len(vals) - 1e9) / 1e9
        assert 3e-4 < mean_rel < 7e-4

    def test_error_small_in_relative_terms(self):
        nm = NoiseModel(self.spec())
        v = nm.measure(1e9, 0, "EV", 0.0, 1.0)
        assert abs(v - 1e9) / 1e9 < 0.01


# ----------------------------------------------------------------------
# Batch seeding == default_rng(seed), draw for draw
# ----------------------------------------------------------------------
def parent_rng(machine_seed, cpu, event, t0, t1):
    """Per-read noise stream as ``NoiseModel._rng`` built it before a tick's
    reads were seeded in one batch.  Kept here as the oracle."""
    ident = f"{machine_seed}:{cpu}:{event}:{t0:.9f}:{t1:.9f}".encode()
    digest = hashlib.blake2b(ident, digest_size=8).digest()
    (seed,) = struct.unpack("<Q", digest)
    return np.random.default_rng(seed)


def parent_measure(nm, true_value, cpu, event, t0, t1, mux_groups=1):
    if true_value == 0.0:
        return 0.0
    rng = parent_rng(nm.machine_seed, cpu, event, t0, t1)
    rel = nm.pmu.overcount_ppm * 1e-6 + rng.normal(0.0, nm.pmu.jitter_ppm * 1e-6)
    if mux_groups > 1:
        rel += rng.normal(0.0, 0.008 * (mux_groups - 1))
    return max(0.0, true_value * (1.0 + rel))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestBatchSeeding:
    @staticmethod
    def seeds():
        rnd = random.Random(20240806)
        return EDGE_SEEDS + [rnd.getrandbits(64) for _ in range(1000)]

    def test_states_and_draws_equal_default_rng(self):
        seeds = self.seeds()
        words = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2)
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        for seed, (state, inc) in zip(seeds, _pcg64_states(words)):
            ref = np.random.default_rng(seed)
            want = ref.bit_generator.state["state"]
            assert (state, inc) == (want["state"], want["inc"]), seed
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            got = [gen.normal(0.0, 1e-4), gen.normal(0.0, 0.008), gen.random()]
            want = [ref.normal(0.0, 1e-4), ref.normal(0.0, 0.008), ref.random()]
            assert struct.pack("<3d", *got) == struct.pack("<3d", *want), seed

    def test_measure_batch_equals_parent_measure(self):
        spec = PMUSpec(n_programmable=4, n_fixed=3, uarch="skylakex")
        nm = NoiseModel(spec, machine_seed=11)
        rnd = random.Random(3)
        reads = [(rnd.choice([0.0, 1.0, 1e9, rnd.uniform(0, 1e12)]), rnd.randrange(64),
                  rnd.choice(["A", "B:C"]), rnd.randint(1, 4)) for _ in range(300)]
        got = nm.measure_batch(reads, 1.25, 1.5)
        want = [parent_measure(nm, v, c, e, 1.25, 1.5, m) for v, c, e, m in reads]
        assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(want)}d", *want)
        assert [nm.measure(v, c, e, 1.25, 1.5, m) for v, c, e, m in reads] == got

    def test_batch_rejects_negative_anywhere(self):
        nm = NoiseModel(PMUSpec(n_programmable=4, n_fixed=3, uarch="skylakex"))
        with pytest.raises(ValueError):
            nm.measure_batch([(1.0, 0, "E", 1), (-1.0, 1, "E", 1)], 0.0, 1.0)

    def test_all_cpus_equals_per_cpu_reads_under_multiplexing(self):
        m = SimulatedMachine(icl(), seed=2)
        pmu = PMU(m, seed=2)
        programmable = [n for n in pmu.catalog.core_events() if not pmu.catalog.get(n).fixed]
        sess = pmu.program(programmable[:12] + ["INSTRUCTION_RETIRED", "RAPL_ENERGY_PKG"],
                           cpus=[0, 1, 2, 3])
        assert sess.mux_groups > 1
        m.run_kernel(kernel(1_000_000), [0, 1, 2])
        t1 = m.clock.now()
        batch = pmu.read_events_all_cpus(list(sess.events), 0.0, t1)
        for ev in sess.events:
            for cpu in sess.cpus:
                assert struct.pack("<d", batch[ev][cpu]) == struct.pack(
                    "<d", pmu.read_interval(ev, cpu, 0.0, t1))


# ----------------------------------------------------------------------
# The session read plan: built once, replaced by program/stop, bit-equal
# ----------------------------------------------------------------------
def bits(reads: dict[str, dict[int, float]]) -> dict[str, dict[int, bytes]]:
    return {e: {c: struct.pack("<d", v) for c, v in per.items()} for e, per in reads.items()}


def fresh_reads(machine, seed, events, cpus, t0, t1):
    """The same window read by a PMU that never held another session."""
    pmu = PMU(machine, seed=seed)
    pmu.program(events, cpus=cpus)
    return bits(pmu.read_events_all_cpus(events, t0, t1))


def oracle_reads(pmu, events, t0, t1):
    """Per-read ``parent_measure`` of the session's true accumulations."""
    sess, out = pmu.session, {}
    for e in events:
        edef = pmu.catalog.get(e)
        mux = sess.mux_groups if edef.scope == "cpu" and not edef.fixed else 1
        out[e] = {}
        for c in sess.cpus:
            true = 0.0
            for q, scale in edef.terms.items():
                true += scale * pmu.machine.read(pmu._scope_for(edef, c), q, t0, t1)
            out[e][c] = parent_measure(pmu.noise, true, c, e, t0, t1, mux)
    return bits(out)


class TestReadPlan:
    @pytest.fixture(scope="class")
    def zen(self):
        m = SimulatedMachine(zen3(), seed=5)
        m.run_kernel(zen_kernel(1_000_000), [0, 1, 2, 3])
        return m

    def test_reprogram_other_events_and_cpus(self, zen):
        pmu, t1 = PMU(zen, seed=5), zen.clock.now()
        first = ["RETIRED_SSE_AVX_FLOPS:ANY", "RAPL_ENERGY_PKG"]  # 6 terms; socket scope
        pmu.program(first, cpus=[0, 1])
        assert bits(pmu.read_events_all_cpus(first, 0.0, t1)) == oracle_reads(pmu, first, 0.0, t1)
        second = ["LS_DISPATCH:LD_DISPATCH", "RETIRED_SSE_AVX_FLOPS:MULT_FLOPS"]
        pmu.program(second, cpus=[3, 2, 5])
        got = bits(pmu.read_events_all_cpus(second, 0.0, t1))
        assert got == fresh_reads(zen, 5, second, [3, 2, 5], 0.0, t1)
        assert got == oracle_reads(pmu, second, 0.0, t1)
        assert list(got["LS_DISPATCH:LD_DISPATCH"]) == [3, 2, 5]

    def test_mux_on_then_off(self, zen):
        pmu, t1 = PMU(zen, seed=5), zen.clock.now()
        many = ["RETIRED_UOPS", "RETIRED_BRANCH_INSTRUCTIONS", "LS_DISPATCH:LD_DISPATCH",
                "LS_DISPATCH:STORE_DISPATCH", "MEM_UOPS:LOADS"]
        assert pmu.program(many, cpus=[0, 1]).mux_groups == 3
        assert bits(pmu.read_events_all_cpus(many, 0.0, t1)) == oracle_reads(pmu, many, 0.0, t1)
        few = many[:2]
        assert pmu.program(few, cpus=[0, 1]).mux_groups == 1
        got = bits(pmu.read_events_all_cpus(few, 0.0, t1))
        assert got == oracle_reads(pmu, few, 0.0, t1)
        assert got == fresh_reads(zen, 5, few, [0, 1], 0.0, t1)

    def test_event_lists_alternate_in_one_session(self, zen):
        pmu, t1 = PMU(zen, seed=5), zen.clock.now()
        events = ["CYCLES_NOT_IN_HALT", "MEM_UOPS:STORES", "RAPL_ENERGY_DRAM"]
        pmu.program(events, cpus=[0, 4])
        for ask in (events, events[1:], events[::-1], events):
            assert bits(pmu.read_events_all_cpus(ask, 0.0, t1)) == oracle_reads(pmu, ask, 0.0, t1)

    def test_stop_then_read_raises(self, zen):
        pmu = PMU(zen, seed=5)
        pmu.program(["CYCLES_NOT_IN_HALT"], cpus=[0])
        pmu.read_events_all_cpus(["CYCLES_NOT_IN_HALT"], 0.0, 1.0)
        pmu.stop()
        with pytest.raises(RuntimeError, match="not been programmed"):
            pmu.read_events_all_cpus(["CYCLES_NOT_IN_HALT"], 0.0, 1.0)

    def test_unprogrammed_event_raises_every_time(self, zen):
        pmu = PMU(zen, seed=5)
        pmu.program(["CYCLES_NOT_IN_HALT"], cpus=[0])
        for _ in range(2):
            with pytest.raises(KeyError, match="not programmed"):
                pmu.read_events_all_cpus(["CYCLES_NOT_IN_HALT", "MEM_UOPS:LOADS"], 0.0, 1.0)
        assert pmu.read_events_all_cpus(["CYCLES_NOT_IN_HALT"], 0.0, 0.0) == {
            "CYCLES_NOT_IN_HALT": {0: 0.0}}

    def test_all_zero_batch_draws_nothing(self, monkeypatch):
        import repro.pmu.noise as noise

        def no_draws(words):
            raise AssertionError("an all-zero batch seeded a stream")

        monkeypatch.setattr(noise, "_pcg64_states", no_draws)
        nm = NoiseModel(PMUSpec(n_programmable=4, n_fixed=3, uarch="skylakex"))
        before = nm._bitgen.state
        assert nm.measure_batch([(0.0, c, "E", 2) for c in range(5)], 0.0, 1.0) == [0.0] * 5
        assert nm.measure_batch([], 0.0, 1.0) == []
        assert nm._bitgen.state == before
