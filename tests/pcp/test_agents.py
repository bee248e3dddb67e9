"""Tests for the PCP agents and pmcd."""

import pytest

from repro.gpu import NvmlSampler, SimulatedGpu
from repro.machine import (
    ISA,
    KernelDescriptor,
    SimulatedMachine,
    SoftwareState,
    gpu_node,
    icl,
)
from repro.pcp import Pmcd, PmdaLinux, PmdaNvidia, PmdaPerfevent, PmdaProc, perfevent_metric
from repro.pmu import PMU


def make_machine():
    m = SimulatedMachine(icl(), seed=4)
    return m, SoftwareState(m)


def triad(n=10_000_000):
    return KernelDescriptor(
        "triad",
        flops_dp={ISA.AVX512: 2.0 * n},
        fma_fraction=1.0,
        loads=2 * n / 8,
        stores=n / 8,
        mem_isa=ISA.AVX512,
        working_set_bytes=3 * 8 * n,
    )


class TestPmdaLinux:
    def test_metrics_listed(self):
        _, ss = make_machine()
        a = PmdaLinux(ss)
        assert "kernel.percpu.cpu.idle" in a.metrics()
        assert a.owns("mem.util.used")
        assert not a.owns("perfevent.hwcounters.X.value")

    def test_percpu_fetch_has_all_instances(self):
        m, ss = make_machine()
        m.advance(5.0)
        vals = PmdaLinux(ss).fetch("kernel.percpu.cpu.idle", 0.0, 5.0)
        assert set(vals) == {f"_cpu{i}" for i in range(16)}

    def test_counter_fetch_is_window_delta(self):
        m, ss = make_machine()
        m.advance(10.0)
        a = PmdaLinux(ss)
        v = a.fetch("kernel.percpu.cpu.idle", 2.0, 4.0)["_cpu0"]
        assert v == pytest.approx(2000.0, rel=0.02)  # idle machine: ~2 s idle

    def test_instant_fetch_is_point_value(self):
        m, ss = make_machine()
        m.advance(5.0)
        v = PmdaLinux(ss).fetch("mem.util.used", 0.0, 5.0)["_value"]
        assert v > 0

    def test_costs_accumulate(self):
        m, ss = make_machine()
        m.advance(1.0)
        a = PmdaLinux(ss)
        a.fetch("kernel.percpu.cpu.idle", 0.0, 1.0)
        assert a.costs.fetches == 1
        assert a.costs.values_served == 16
        assert a.costs.cpu_seconds > 0
        assert a.costs.rss_kb == a.rss_kb


class TestPmdaPerfevent:
    def test_must_configure_first(self):
        m, _ = make_machine()
        a = PmdaPerfevent(PMU(m))
        assert a.metrics() == []
        with pytest.raises(KeyError, match="not configured"):
            a.fetch(perfevent_metric("UNHALTED_CORE_CYCLES"), 0.0, 1.0)

    def test_fetch_matches_pmu_reads(self):
        m, _ = make_machine()
        pmu = PMU(m, seed=4)
        a = PmdaPerfevent(pmu)
        a.configure(["MEM_INST_RETIRED:ALL_LOADS"], cpus=[0, 1])
        run = m.run_kernel(triad(), [0, 1])
        vals = a.fetch(
            perfevent_metric("MEM_INST_RETIRED:ALL_LOADS"), run.t_start, run.t_end
        )
        total = sum(vals.values())
        assert total == pytest.approx(run.ground_truth("loads"), rel=0.01)

    def test_configure_twice_reads_as_fresh_agent(self):
        m, _ = make_machine()
        run = m.run_kernel(triad(1_000_000), [0, 1, 2])
        a = PmdaPerfevent(PMU(m, seed=4))
        a.configure(["MEM_INST_RETIRED:ALL_LOADS", "UNHALTED_CORE_CYCLES"], cpus=[0, 1])
        a.fetch_batch(a.metrics(), run.t_start, run.t_end)
        events = ["MEM_INST_RETIRED:ALL_STORES", "RAPL_ENERGY_PKG"]
        a.configure(events, cpus=[2, 0, 9])
        fresh = PmdaPerfevent(PMU(m, seed=4))
        fresh.configure(events, cpus=[2, 0, 9])
        assert a.metrics() == fresh.metrics() == [perfevent_metric(e) for e in events]
        assert a.configured_events == events
        got = a.fetch_batch(a.metrics(), run.t_start, run.t_end)
        assert got == fresh.fetch_batch(fresh.metrics(), run.t_start, run.t_end)
        assert list(got[perfevent_metric("RAPL_ENERGY_PKG")]) == ["_cpu2", "_cpu0", "_cpu9"]
        with pytest.raises(KeyError, match="not configured"):
            a.fetch(perfevent_metric("MEM_INST_RETIRED:ALL_LOADS"), run.t_start, run.t_end)

    def test_unconfigured_metric_raises(self):
        m, _ = make_machine()
        a = PmdaPerfevent(PMU(m))
        a.configure(["UNHALTED_CORE_CYCLES"], cpus=[0])
        assert a.owns("perfevent.hwcounters.NOPE.value")
        with pytest.raises(KeyError, match="not configured"):
            a.fetch_batch([perfevent_metric("UNHALTED_CORE_CYCLES"),
                           "perfevent.hwcounters.NOPE.value"], 0.0, 1.0)
        assert a.costs.fetches == 0

    def test_events_sharing_a_pmns_name_refused(self):
        # both would be perfevent.hwcounters.FP_ARITH_SCALAR_DOUBLE.value,
        # and a fetch of it could serve only one of them
        m, _ = make_machine()
        pmu = PMU(m)
        a = PmdaPerfevent(pmu)
        with pytest.raises(ValueError, match="PMNS name"):
            a.configure(["FP_ARITH:SCALAR_DOUBLE", "FP_ARITH.SCALAR_DOUBLE"])
        assert a.metrics() == []
        with pytest.raises(RuntimeError):
            _ = pmu.session

    def test_owns_prefix(self):
        m, _ = make_machine()
        a = PmdaPerfevent(PMU(m))
        assert a.owns("perfevent.hwcounters.ANY.value")
        assert not a.owns("kernel.all.load")


class TestPmdaProc:
    def test_large_instance_domain(self):
        _, ss = make_machine()
        a = PmdaProc(ss, n_processes=220)
        vals = a.fetch("proc.psinfo.rss", 0.0, 1.0)
        assert len(vals) == 220

    def test_rss_is_biggest_agent(self):
        _, ss = make_machine()
        assert PmdaProc(ss).rss_kb > PmdaLinux(ss).rss_kb


class TestPmdaNvidia:
    def test_fetch_gpu_metric(self):
        spec = gpu_node()
        m = SimulatedMachine(spec)
        gpu = SimulatedGpu(spec.gpus[0], m.clock)
        a = PmdaNvidia(NvmlSampler(gpu))
        vals = a.fetch("nvidia.memused", 0.0, 0.0)
        assert vals == {"_gpu0": pytest.approx(420.0)}
        assert a.owns("nvidia.power")


class TestPmcd:
    def make(self):
        m, ss = make_machine()
        m.advance(2.0)
        pmu = PMU(m, seed=4)
        pe = PmdaPerfevent(pmu)
        pe.configure(["UNHALTED_CORE_CYCLES"])
        return Pmcd([PmdaLinux(ss), pe]), m

    def test_needs_agents(self):
        with pytest.raises(ValueError):
            Pmcd([])

    def test_duplicate_agents_rejected(self):
        _, ss = make_machine()
        with pytest.raises(ValueError, match="duplicate"):
            Pmcd([PmdaLinux(ss), PmdaLinux(ss)])

    def test_fetch_routes_to_agents(self):
        pmcd, _ = self.make()
        rep = pmcd.fetch(
            ["kernel.all.load", perfevent_metric("UNHALTED_CORE_CYCLES")], 0.0, 2.0
        )
        assert rep.n_points == 1 + 16
        assert rep.time == 2.0

    def test_unowned_metric_rejected(self):
        pmcd, _ = self.make()
        with pytest.raises(KeyError, match="no agent owns"):
            pmcd.fetch(["nvidia.power"], 0.0, 1.0)

    def test_empty_metrics_rejected(self):
        pmcd, _ = self.make()
        with pytest.raises(ValueError):
            pmcd.fetch([], 0.0, 1.0)

    def test_reversed_window_rejected(self):
        pmcd, _ = self.make()
        with pytest.raises(ValueError):
            pmcd.fetch(["kernel.all.load"], 2.0, 1.0)

    def test_report_zeroed(self):
        pmcd, _ = self.make()
        rep = pmcd.fetch(["kernel.percpu.cpu.idle"], 0.0, 2.0)
        z = rep.zeroed()
        assert z.n_points == rep.n_points
        assert all(v == 0.0 for fields in z.values.values() for v in fields.values())

    def test_resource_usage_includes_pmcd(self):
        pmcd, _ = self.make()
        pmcd.fetch(["kernel.all.load"], 0.0, 1.0)
        usage = pmcd.resource_usage()
        assert set(usage) == {"pmdalinux", "pmdaperfevent", "pmcd"}
        assert usage["pmcd"].cpu_seconds > 0

    def test_agent_lookup(self):
        pmcd, _ = self.make()
        assert pmcd.agent("pmdalinux").name == "pmdalinux"
        with pytest.raises(KeyError):
            pmcd.agent("pmdaproc")

    def test_available_metrics(self):
        pmcd, _ = self.make()
        avail = pmcd.available_metrics()
        assert "kernel.all.load" in avail
        assert perfevent_metric("UNHALTED_CORE_CYCLES") in avail
