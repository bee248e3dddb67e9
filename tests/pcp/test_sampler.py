"""Tests for the transport model and the sampling loop."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import PMoVE
from repro.db import FaultyInfluxDB, InfluxDB, InfluxError
from repro.faults import DbOutage, ServiceFaultSet
from repro.machine import SimulatedMachine, SoftwareState, icl, skx
from repro.pcp import (
    CommitLog,
    DbWriterConsumer,
    IngestPipeline,
    Pmcd,
    PmdaLinux,
    PmdaPerfevent,
    Sampler,
    ShipperConfig,
    TransportModel,
    perfevent_metric,
)
from repro.pmu import PMU

EVENTS = [
    "UNHALTED_CORE_CYCLES",
    "INSTRUCTION_RETIRED",
    "UOPS_DISPATCHED",
    "BRANCH_INSTRUCTIONS_RETIRED",
]


def make_sampler(mk=icl, seed=7, duration=10.0, n_events=2, transport=None):
    m = SimulatedMachine(mk(), seed=seed)
    m.advance(duration + 1)
    pmu = PMU(m, seed=seed)
    pe = PmdaPerfevent(pmu)
    pe.configure(EVENTS[:n_events])
    pmcd = Pmcd([pe, PmdaLinux(SoftwareState(m))])
    influx = InfluxDB()
    s = Sampler(pmcd, influx, transport=transport, seed=seed)
    metrics = [perfevent_metric(e) for e in EVENTS[:n_events]]
    return s, influx, metrics, m


class RecordingRng:
    """Generator proxy that logs every draw as ``(method, tick)``; ``tick``
    is whatever the test last set it to."""

    def __init__(self, rng):
        self._rng = rng
        self.log = []
        self.tick = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self.log.append((name, self.tick))
            return draw(*args, **kwargs)

        return recorded


MODES = ("unbuffered", "buffered", "durable")

#: Captured at the parent of the one-loop refactor (PR 23): per mode, every
#: draw on the sampler's generator and every pmcd fetch of the window below,
#: as ``method@k`` with k the index of the last tick that fetched.
DRAWS = {
    "unbuffered": (
        "uniform@0 random@0 random@0 fetch@1 normal@1 random@1 random@1 "
        "fetch@2 normal@2 random@2 random@2 fetch@3 normal@3 random@3 "
        "random@3 fetch@4 normal@4 random@4 random@4 fetch@5 normal@5 "
        "random@5 random@5 fetch@6 normal@6 random@6 random@6 fetch@7 "
        "normal@7 random@7 random@7 fetch@8 normal@8 random@8 random@8 "
        "fetch@9 normal@9 random@9 random@9 fetch@10 normal@10 random@10 "
        "random@10 fetch@11 normal@11 random@11 random@11 fetch@12 "
        "normal@12 random@12 random@12 random@12 fetch@14 normal@14 "
        "random@14 random@14 fetch@15 normal@15 random@15 random@15 "
        "fetch@16 normal@16"
    ),
    "buffered": (
        "uniform@0 random@0 random@0 fetch@1 normal@1 random@1 random@1 "
        "fetch@2 normal@2 random@2 random@2 fetch@3 normal@3 uniform@3 "
        "random@3 random@3 fetch@4 normal@4 uniform@4 random@4 random@4 "
        "fetch@5 random@5 random@5 fetch@6 random@6 random@6 fetch@8 "
        "normal@8 uniform@8 normal@8 uniform@8 normal@8 normal@8 normal@8 "
        "normal@8 random@8 random@8 fetch@11 normal@11 random@11 random@11 "
        "fetch@12 normal@12 random@12 random@12 fetch@13 normal@13 "
        "random@13 random@13 fetch@14 normal@14 random@14 random@14 "
        "fetch@15 normal@15 random@15 random@15 fetch@16 fetch@16 normal@16 "
        "normal@16"
    ),
    "durable": (
        "uniform@0 random@0 random@0 fetch@1 random@1 random@1 fetch@2 "
        "random@2 random@2 fetch@3 random@3 random@3 fetch@4 random@4 "
        "random@4 fetch@5 random@5 random@5 fetch@6 random@6 random@6 "
        "fetch@7 random@7 random@7 fetch@8 random@8 random@8 fetch@9 "
        "random@9 random@9 fetch@10 random@10 random@10 fetch@11 random@11 "
        "random@11 fetch@12 random@12 random@12 fetch@13 random@13 "
        "random@13 fetch@14 random@14 random@14 fetch@15 random@15 "
        "random@15 fetch@16 fetch@16"
    ),
}

#: ``dataclasses.asdict(SamplingStats)`` of the same three runs.
STATS = {
    "unbuffered": {
        "freq_hz": 32.0, "n_metrics": 1, "duration_s": 0.5,
        "expected_points": 256, "inserted_points": 128, "zero_points": 48,
        "expected_reports": 16, "inserted_reports": 8, "lost_reports": 8,
        "zero_reports": 3, "tag": "draws", "mode": "unbuffered",
        "retried_reports": 0, "recovered_reports": 0, "dropped_by_policy": 0,
        "spilled_reports": 0, "unshipped_reports": 0, "degraded_ticks": 0,
        "breaker_open_s": 0.0, "max_queue_depth": 0, "max_staleness_s": 0.0,
        "effective_freq_hz": None, "produced_records": 0, "applied_records": 0,
        "duplicate_records": 0, "parked_records": 0, "resent_records": 0,
        "max_group_lag": 0, "backlog_records": 0,
    },
    "buffered": {
        "freq_hz": 32.0, "n_metrics": 1, "duration_s": 0.5,
        "expected_points": 256, "inserted_points": 208, "zero_points": 80,
        "expected_reports": 16, "inserted_reports": 13, "lost_reports": 0,
        "zero_reports": 5, "tag": "draws", "mode": "buffered",
        "retried_reports": 2, "recovered_reports": 1, "dropped_by_policy": 1,
        "spilled_reports": 0, "unshipped_reports": 0, "degraded_ticks": 3,
        "breaker_open_s": 0.0, "max_queue_depth": 4,
        "max_staleness_s": 0.18527069791146555, "effective_freq_hz": 4.0,
        "produced_records": 0, "applied_records": 0, "duplicate_records": 0,
        "parked_records": 0, "resent_records": 0, "max_group_lag": 0,
        "backlog_records": 0,
    },
    "durable": {
        "freq_hz": 32.0, "n_metrics": 1, "duration_s": 0.5,
        "expected_points": 256, "inserted_points": 272, "zero_points": 112,
        "expected_reports": 16, "inserted_reports": 17, "lost_reports": 0,
        "zero_reports": 7, "tag": "draws", "mode": "durable",
        "retried_reports": 0, "recovered_reports": 0, "dropped_by_policy": 0,
        "spilled_reports": 0, "unshipped_reports": 0, "degraded_ticks": 0,
        "breaker_open_s": 0.0, "max_queue_depth": 0,
        "max_staleness_s": 0.4825868761801779, "effective_freq_hz": None,
        "produced_records": 17, "applied_records": 17, "duplicate_records": 0,
        "parked_records": 0, "resent_records": 0, "max_group_lag": 0,
        "backlog_records": 0,
    },
}


def faulted_run(mode, freq=32.0, t_end=0.5):
    """16 ticks at 32 Hz (zero batches happen) with a DB outage over
    [0.1, 0.3): the draws and fetches in order, and the run's stats."""
    s, influx, metrics, _ = make_sampler(icl, seed=7, duration=t_end, n_events=1)
    influx = s.influx = FaultyInfluxDB(
        influx, ServiceFaultSet([DbOutage(t0=0.1, t1=0.3)]))
    rec = s._rng = RecordingRng(np.random.default_rng(7))
    pmcd = s.pmcd
    fetch = pmcd.fetch

    def recorded_fetch(metrics, t0, t1):
        rec.tick = int(round(t1 * freq))
        rec.log.append(("fetch", rec.tick))
        return fetch(metrics, t0, t1)

    pmcd.fetch = recorded_fetch
    pipeline = None
    if mode == "durable":
        log = CommitLog(n_partitions=2)
        pipeline = IngestPipeline(log)
        pipeline.add(DbWriterConsumer(log, influx, "pmove", transport=TransportModel(),
                                      cid="db-writer-0", seed=1))
    st = s.run(metrics, freq, 0.0, t_end, tag="draws",
               final_fetch=True, mode=mode, pipeline=pipeline,
               shipper_config=ShipperConfig(capacity=4, drain_grace_s=5.0))
    return rec.log, st


class TestTransportModel:
    def test_mean_ship_time_grows_with_points(self):
        t = TransportModel()
        assert t.mean_ship_time(500) > t.mean_ship_time(50)

    def test_zero_probability_shape(self):
        t = TransportModel()
        assert t.zero_batch_probability(0.5) == 0.0  # 2 Hz
        assert t.zero_batch_probability(0.125) == 0.0  # 8 Hz
        assert 0.2 < t.zero_batch_probability(1 / 32) < 0.5  # 32 Hz

    def test_bad_params(self):
        with pytest.raises(ValueError):
            TransportModel(net_bw_mbit=0)
        with pytest.raises(ValueError):
            TransportModel(insert_base_s=-1)
        with pytest.raises(ValueError):
            TransportModel().zero_batch_probability(0)
        with pytest.raises(ValueError):
            TransportModel().ship_time(-1, np.random.default_rng(0))

    def test_ship_time_jitters_around_mean(self):
        t = TransportModel()
        rng = np.random.default_rng(0)
        times = [t.ship_time(100, rng) for _ in range(500)]
        assert np.mean(times) == pytest.approx(t.mean_ship_time(100), rel=0.1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TransportModel(net_latency_s=-1e-6)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            TransportModel(jitter_rel_std=-0.1)

    def test_zero_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            TransportModel(zero_floor_s=0.0)
        with pytest.raises(ValueError):
            TransportModel(zero_floor_s=-0.047)

    def test_hiccup_rate_must_be_a_probability(self):
        with pytest.raises(ValueError):
            TransportModel(hiccup_rate_max=-0.01)
        with pytest.raises(ValueError):
            TransportModel(hiccup_rate_max=1.5)
        TransportModel(hiccup_rate_max=0.0)  # boundary values are fine
        TransportModel(hiccup_rate_max=1.0)

    @pytest.mark.parametrize("kw", [
        {"net_bw_mbit": math.nan}, {"jitter_rel_std": math.nan},
        {"insert_base_s": math.nan}, {"insert_per_point_s": math.nan},
        {"net_latency_s": math.nan}, {"net_latency_s": math.inf},
        {"insert_base_s": math.inf}, {"jitter_rel_std": math.inf},
        {"zero_floor_s": math.nan}, {"hiccup_rate_max": math.nan},
    ])
    def test_a_parameter_that_makes_ship_times_nan_is_refused(self, kw):
        """A NaN ship time makes every durable apply time after it NaN."""
        with pytest.raises(ValueError):
            TransportModel(**kw)

    def test_latency_spike_dilates_insert_share_only(self):
        from repro.faults import InsertLatencySpike, ServiceFaultSet

        t = TransportModel(jitter_rel_std=0.0)
        rng = np.random.default_rng(0)
        faults = ServiceFaultSet([InsertLatencySpike(t0=0, t1=10, factor=3.0)])
        base = t.ship_time(100, rng, at=20.0, faults=faults)  # outside window
        spiked = t.ship_time(100, rng, at=5.0, faults=faults)
        insert = t.insert_base_s + t.insert_per_point_s * 100
        assert base == pytest.approx(t.mean_ship_time(100))
        assert spiked == pytest.approx(base + 2.0 * insert)


class TestSampler:
    def test_bad_args(self):
        s, _, metrics, _ = make_sampler()
        with pytest.raises(ValueError):
            s.run(metrics, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            s.run(metrics, 2, 5.0, 5.0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("tag, host", [("a\nb", ""), ("t", "n\u20280")],
                             ids=["tag", "host"])
    def test_a_tag_no_line_carries_is_refused_before_the_first_tick(self, mode, tag, host):
        """Unbuffered, it used to be stored; buffered and spilled, it would
        fail mid-ship; durable, at the first produce."""
        s, influx, metrics, m = make_sampler()
        s.host = host
        log = CommitLog()
        pipe = IngestPipeline(log)
        pipe.add(DbWriterConsumer(log, influx))
        now, rng = m.clock.now(), s._rng.bit_generator.state
        with pytest.raises(InfluxError, match="line break"):
            s.run(metrics, 8.0, 0.0, 2.0, tag=tag, mode=mode, pipeline=pipe)
        assert (m.clock.now(), s._rng.bit_generator.state) == (now, rng)
        assert influx.measurements("pmove") == [] and log.appended_records == 0
        assert s.last_stats is None

    def test_expected_point_count_formula(self):
        """expected = freq * duration * n_metrics * n_threads — the
        structure of Table III's Expected column."""
        s, _, metrics, m = make_sampler(icl, n_events=2)
        st = s.run(metrics, 2.0, 0.0, 10.0)
        assert st.expected_points == 2 * 10 * 2 * 16

    def test_low_frequency_low_loss(self):
        s, _, metrics, _ = make_sampler(icl, n_events=2)
        st = s.run(metrics, 2.0, 0.0, 10.0)
        assert st.loss_plus_zero_pct < 10.0

    def test_high_frequency_produces_zeros(self):
        s, _, metrics, _ = make_sampler(icl, n_events=2)
        st = s.run(metrics, 32.0, 0.0, 10.0)
        assert st.zero_points > 0
        assert 20.0 < st.loss_plus_zero_pct < 60.0

    def test_large_domain_loses_more(self):
        """The paper's key observation: loss correlates with instance-domain
        size — skx (88 threads) suffers far more at 32 Hz than icl (16)."""
        s_icl, _, m_icl, _ = make_sampler(icl, n_events=4, seed=3)
        s_skx, _, m_skx, _ = make_sampler(skx, n_events=4, seed=3)
        st_icl = s_icl.run(m_icl, 32.0, 0.0, 10.0)
        st_skx = s_skx.run(m_skx, 32.0, 0.0, 10.0)
        assert st_skx.loss_pct > st_icl.loss_pct + 5.0
        assert st_skx.loss_plus_zero_pct > 45.0
        assert st_icl.loss_pct < 10.0

    def test_values_land_in_influx_with_tag(self):
        s, influx, metrics, _ = make_sampler(icl, n_events=1)
        st = s.run(metrics, 2.0, 0.0, 5.0, tag="obs-123")
        meas = "perfevent_hwcounters_UNHALTED_CORE_CYCLES_value"
        pts = influx.points("pmove", meas, tags={"tag": "obs-123"})
        assert len(pts) == st.inserted_reports
        assert set(pts[0].fields) == {f"_cpu{i}" for i in range(16)}

    def test_auto_tag_is_uuid(self):
        s, _, metrics, _ = make_sampler(icl, n_events=1)
        st = s.run(metrics, 2.0, 0.0, 2.0)
        assert len(st.tag) == 36

    def test_stats_identities(self):
        s, _, metrics, _ = make_sampler(icl, n_events=2, seed=11)
        st = s.run(metrics, 32.0, 0.0, 10.0)
        assert st.inserted_reports + st.lost_reports == st.expected_reports
        assert st.zero_points <= st.inserted_points
        assert st.throughput == pytest.approx(st.inserted_points / 10.0)
        assert st.actual_throughput <= st.throughput

    def test_perfect_transport_no_loss(self):
        fast = TransportModel(
            net_bw_mbit=10_000,
            insert_base_s=0.0,
            insert_per_point_s=0.0,
            jitter_rel_std=0.0,
            zero_floor_s=1e-6,
            hiccup_rate_max=0.0,
        )
        s, _, metrics, _ = make_sampler(icl, n_events=2, transport=fast)
        st = s.run(metrics, 32.0, 0.0, 10.0)
        assert st.loss_pct == 0.0
        assert st.zero_points == 0

    def test_deterministic_given_seed(self):
        a = make_sampler(icl, seed=21)[0].run(
            [perfevent_metric("UNHALTED_CORE_CYCLES")], 32.0, 0.0, 5.0, tag="t"
        )
        b = make_sampler(icl, seed=21)[0].run(
            [perfevent_metric("UNHALTED_CORE_CYCLES")], 32.0, 0.0, 5.0, tag="t"
        )
        assert a.inserted_points == b.inserted_points
        assert a.zero_points == b.zero_points

    def test_batched_insert_matches_per_point_reference(self):
        """The write_many batch path must leave Table III stats and stored
        telemetry identical to a per-point reference insert."""
        from repro.db.naive import NaiveInfluxDB

        s, influx, metrics, _ = make_sampler(icl, n_events=2, seed=5)
        st = s.run(metrics, 16.0, 0.0, 10.0, tag="obs-batch")

        # Replay the stored points one write() at a time into a naive store:
        # identical contents proves batching changed only the transport.
        naive = NaiveInfluxDB()
        naive.create_database("pmove")
        total_fields = 0
        for meas in influx.measurements("pmove"):
            pts = influx.points("pmove", meas, tags={"tag": "obs-batch"})
            for p in pts:
                naive.write("pmove", p)
                total_fields += len(p.fields)
            assert naive.points("pmove", meas) == pts
        assert total_fields == st.inserted_points
        assert st.throughput == pytest.approx(st.inserted_points / 10.0)
        assert 0.0 <= st.loss_pct <= 100.0

    def test_batched_insert_deterministic_stats(self):
        """Same seed → identical SamplingStats through the batched path
        (the Table III columns are reproduced bit-for-bit)."""
        runs = [
            make_sampler(icl, n_events=2, seed=13)[0].run(
                [perfevent_metric(e) for e in EVENTS[:2]], 32.0, 0.0, 10.0, tag="t"
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_loss_accounting_closes_across_seeds(self):
        """Unbuffered invariant: every expected tick is either inserted or
        lost — no third bucket, at any frequency, under any seed."""
        for seed in (1, 7, 23, 99):
            for freq in (2.0, 8.0, 32.0):
                s, _, metrics, _ = make_sampler(icl, n_events=2, seed=seed)
                st = s.run(metrics, freq, 0.0, 10.0)
                assert st.lost_reports + st.inserted_reports == st.expected_reports
                assert 0.0 <= st.loss_pct <= 100.0
                assert st.zero_reports <= st.inserted_reports

    def test_hiccup_draws_skipped_while_busy(self):
        """The busy check short-circuits the hiccup draw: a tick that fires
        while the pipeline is shipping consumes no randomness, so hiccups
        only ever hit ticks that had a chance to fetch."""

        # Insert cost far beyond the window: only tick 1 is ever non-busy.
        slow = TransportModel(insert_base_s=1e6, hiccup_rate_max=0.0)
        s, _, metrics, _ = make_sampler(icl, n_events=1, transport=slow)
        rec = s._rng = RecordingRng(np.random.default_rng(3))
        st = s.run(metrics, 8.0, 0.0, 10.0)
        assert st.inserted_reports == 1
        assert st.lost_reports == st.expected_reports - 1
        # The run's hiccup rate, then tick 1's hiccup check, zero-batch check
        # and ship time.  79 busy ticks drew nothing.
        assert [name for name, _ in rec.log] == ["uniform", "random", "random", "normal"]

    @pytest.mark.parametrize("mode", MODES)
    def test_draw_order_is_pinned_per_mode(self, mode):
        """Unbuffered ``busy? → (hiccup) → zero → fetch → ship_time``;
        buffered ``advance`` (ship times and backoffs, drawn from the
        *sampler's* generator) ``→ stride skip (no draw) → hiccup → zero →
        fetch``; durable ``pump → hiccup → zero → fetch``; the closing fetch
        draws nothing.  A reordered, added or dropped draw fails here by
        name, not as a changed Table III digit."""
        log, st = faulted_run(mode)
        assert " ".join(f"{name}@{k}" for name, k in log) == DRAWS[mode]
        assert dataclasses.asdict(st) == STATS[mode]

    def test_three_modes_agree_when_nothing_is_lost(self):
        """One pipeline configured three ways: with no hiccups, no zero
        batches (2 Hz) and no faults, where a report goes changes nothing
        of what the host DB ends up holding."""
        outcomes = []
        for mode in MODES:
            d = PMoVE(seed=5)
            m = SimulatedMachine(icl(), seed=5)
            d.attach_target(m, transport=TransportModel(hiccup_rate_max=0.0))
            st, _ = d.scenario_a(m.spec.hostname, 30.0, 2.0, mode=mode)
            rows = sorted(
                p.to_line()
                for meas in d.influx.measurements("pmove")
                for p in d.influx.points("pmove", meas)
            )
            outcomes.append((rows, (st.expected_points, st.inserted_points,
                                    st.zero_points, st.lost_reports)))
        assert len(outcomes[0][0]) == 360
        assert outcomes[0][1] == (2160, 2160, 0, 0)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_sampling_overhead_scales_with_freq(self):
        s, _, _, _ = make_sampler()
        assert s.sampling_overhead(32) == pytest.approx(4 * s.sampling_overhead(8))
        assert s.sampling_overhead(32) < 0.001  # sub-0.1 % (Fig 5 magnitude)
        with pytest.raises(ValueError):
            s.sampling_overhead(-1)

    def test_sw_and_hw_metrics_in_one_run(self):
        s, influx, metrics, _ = make_sampler(icl, n_events=1)
        st = s.run(metrics + ["kernel.percpu.cpu.idle"], 2.0, 0.0, 5.0, tag="x")
        assert influx.points("pmove", "kernel_percpu_cpu_idle", tags={"tag": "x"})
        assert st.expected_points == 2 * 5 * (16 + 16)
