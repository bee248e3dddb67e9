"""The sampler tick path must issue batched timeline reads.

The acceptance contract for the indexed-engine PR: one pmcd fetch (one
sampler tick) routes every perfevent metric through
``PMU.read_events_all_cpus`` → ``SimulatedMachine.read_batch`` →
``Timeline.integrate_batch`` — **zero** per-event-per-cpu scalar
``integrate`` calls — and the batched values/costs are identical to the
scalar path's.  Since the SW half of the PMNS fetches by the tick as well,
the same holds for a Scenario-A tick through ``PmdaLinux``.
"""

import pytest

from repro.db import InfluxDB
from repro.machine import SimulatedMachine, SoftwareState, get_preset
from repro.machine.activity import SW_METRICS
from repro.core.daemon import _SCENARIO_A_METRICS as SCENARIO_A_METRICS
from repro.pcp import Pmcd, PmdaLinux, PmdaPerfevent, PmdaProc, Sampler, perfevent_metric
from repro.pmu import PMU

EVENTS = [
    "UNHALTED_CORE_CYCLES",
    "INSTRUCTION_RETIRED",
    "MEM_INST_RETIRED:ALL_LOADS",
]


def instrument(machine):
    """Count scalar vs batched integrate calls on a machine's timeline."""
    counts = {"integrate": 0, "integrate_batch": 0}
    tl = machine.timeline
    orig_scalar, orig_batch = tl.integrate, tl.integrate_batch

    def integrate(*args, **kwargs):
        counts["integrate"] += 1
        return orig_scalar(*args, **kwargs)

    def integrate_batch(*args, **kwargs):
        counts["integrate_batch"] += 1
        return orig_batch(*args, **kwargs)

    tl.integrate = integrate
    tl.integrate_batch = integrate_batch
    return counts


def make_machine(host="icl", seed=7):
    machine = SimulatedMachine(get_preset(host), seed=seed)
    machine.advance(12.0)
    return machine


class TestTickIssuesBatchedReads:
    def test_pmcd_fetch_no_scalar_integrate(self):
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        perfevent = PmdaPerfevent(pmu)
        perfevent.configure(EVENTS)
        pmcd = Pmcd([perfevent])
        metrics = [perfevent_metric(e) for e in EVENTS]

        counts = instrument(machine)
        report = pmcd.fetch(metrics, 0.0, 0.5)
        assert counts["integrate"] == 0, "scalar integrate in the tick hot loop"
        assert counts["integrate_batch"] == 1, "one tick = one batched read"
        assert report.n_points == len(EVENTS) * machine.spec.n_threads

    def test_sampler_run_no_scalar_integrate(self):
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        perfevent = PmdaPerfevent(pmu)
        perfevent.configure(EVENTS)
        sampler = Sampler(Pmcd([perfevent]), InfluxDB(), seed=7)
        metrics = [perfevent_metric(e) for e in EVENTS]

        counts = instrument(machine)
        stats = sampler.run(metrics, 4.0, 0.0, 5.0)
        assert stats.inserted_reports > 0
        assert counts["integrate"] == 0
        # One batched read per delivered fetch (zero-batch ticks included),
        # never events x cpus scalar calls.
        assert counts["integrate_batch"] <= stats.expected_reports
        assert counts["integrate_batch"] >= stats.inserted_reports

    def test_batched_values_equal_scalar_reads(self):
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        pmu.program(EVENTS)
        batched = pmu.read_events_all_cpus(EVENTS, 1.0, 3.5)
        for event in EVENTS:
            for cpu in pmu.session.cpus:
                assert batched[event][cpu] == pmu.read_interval(event, cpu, 1.0, 3.5)

    def test_read_all_cpus_equals_scalar_reads(self):
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        pmu.program(EVENTS)
        vals = pmu.read_all_cpus("INSTRUCTION_RETIRED", 0.0, 2.0)
        assert list(vals) == list(pmu.session.cpus)
        for cpu, v in vals.items():
            assert v == pmu.read_interval("INSTRUCTION_RETIRED", cpu, 0.0, 2.0)

    def test_read_events_all_cpus_unknown_event(self):
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        pmu.program(EVENTS[:2])
        with pytest.raises(KeyError):
            pmu.read_events_all_cpus(EVENTS, 0.0, 1.0)


class TestBatchedFetchFidelity:
    def test_fetch_batch_matches_scalar_fetch_values_and_costs(self):
        scalar_m = make_machine()
        batch_m = make_machine()
        metrics = [perfevent_metric(e) for e in EVENTS]

        scalar_pe = PmdaPerfevent(PMU(scalar_m, seed=7))
        scalar_pe.configure(EVENTS)
        batch_pe = PmdaPerfevent(PMU(batch_m, seed=7))
        batch_pe.configure(EVENTS)

        want = {m: scalar_pe.fetch(m, 0.0, 2.0) for m in metrics}
        got = batch_pe.fetch_batch(metrics, 0.0, 2.0)
        assert got == want
        assert batch_pe.costs.fetches == scalar_pe.costs.fetches
        assert batch_pe.costs.values_served == scalar_pe.costs.values_served
        assert batch_pe.costs.cpu_seconds == scalar_pe.costs.cpu_seconds

    def test_pmcd_report_order_with_mixed_agents(self):
        """Grouping by agent must not reorder the report's metric list."""
        machine = make_machine()
        pmu = PMU(machine, seed=7)
        perfevent = PmdaPerfevent(pmu)
        perfevent.configure(EVENTS)
        linux = PmdaLinux(SoftwareState(machine))
        pmcd = Pmcd([perfevent, linux])
        metrics = [
            perfevent_metric(EVENTS[0]),
            "kernel.all.load",
            perfevent_metric(EVENTS[1]),
            "mem.util.used",
            perfevent_metric(EVENTS[2]),
        ]
        report = pmcd.fetch(metrics, 0.0, 1.0)
        assert list(report.values) == metrics


class TestScenarioATick:
    """The SW half of the PMNS fetches by the tick too: one /proc snapshot
    per instant (``SoftwareState.snapshot``), so a Scenario-A tick is a
    handful of batched timeline reads — counted here, not timed."""

    def stack(self):
        machine = make_machine()
        state = SoftwareState(machine)
        perfevent = PmdaPerfevent(PMU(machine, seed=7))
        perfevent.configure(EVENTS)
        return machine, Pmcd([PmdaLinux(state), perfevent, PmdaProc(state, n_processes=30)])

    def test_a_tick_reads_each_counter_once_per_instant(self):
        machine, pmcd = self.stack()
        counts = instrument(machine)
        report = pmcd.fetch(list(SCENARIO_A_METRICS), 10.0, 10.5)
        assert report.n_points == 2 * machine.spec.n_threads + 4
        assert counts["integrate"] == 0, "scalar integrate in the tick hot loop"
        # cycles and dram_bytes at t1 and at t0, and the load window
        assert 0 < counts["integrate_batch"] <= 5

    def test_a_stale_tick_takes_one_snapshot(self):
        machine, pmcd = self.stack()
        counts = instrument(machine)
        report = pmcd.fetch(list(SCENARIO_A_METRICS), 10.5, 10.5)
        assert counts["integrate"] == 0
        assert 0 < counts["integrate_batch"] <= 3
        counters = [m for m in SCENARIO_A_METRICS if SW_METRICS[m][1] == "counter"]
        assert all(v == 0.0 for m in counters for v in report.values[m].values())

    def test_costs_equal_the_per_metric_scalar_fetch(self):
        """Fig 6 quantities do not depend on the fetch shape: one tick
        through ``Pmcd.fetch`` charges every agent what fetching the same
        metrics one ``Agent.fetch`` at a time does, float for float."""
        metrics = (list(SCENARIO_A_METRICS) + [perfevent_metric(e) for e in EVENTS]
                   + ["proc.psinfo.utime", "proc.psinfo.rss"])
        _, ticked = self.stack()
        _, scalar = self.stack()
        for t0, t1 in ((10.0, 10.5), (10.5, 10.5), (10.5, 11.25)):
            report = ticked.fetch(metrics, t0, t1)
            one_by_one = {m: scalar._route(m).fetch(m, t0, t1) for m in metrics}
            assert report.values == one_by_one
            scalar.costs.charge(report.n_points, scalar.cpu_per_fetch, scalar.cpu_per_value)
        for name, want in scalar.resource_usage().items():
            got = ticked.resource_usage()[name]
            assert (got.fetches, got.values_served, got.cpu_seconds) == (
                want.fetches, want.values_served, want.cpu_seconds), name
            assert got.fetches > 0
