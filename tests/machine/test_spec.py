"""Unit tests for the hardware specification model."""

import dataclasses
import math

import pytest

from repro.machine import ISA, CacheSpec, PerfEnvelope, Vendor, get_preset, skx, zen3


class TestISA:
    def test_dp_lanes(self):
        assert ISA.SCALAR.dp_lanes == 1
        assert ISA.SSE.dp_lanes == 2
        assert ISA.AVX2.dp_lanes == 4
        assert ISA.AVX512.dp_lanes == 8

    def test_sp_lanes_double_dp(self):
        for isa in ISA:
            assert isa.sp_lanes == 2 * isa.dp_lanes

    def test_vector_bytes(self):
        assert ISA.SCALAR.vector_bytes == 8
        assert ISA.AVX512.vector_bytes == 64


class TestCacheSpec:
    def test_size_kb(self):
        assert CacheSpec(level=1, size_bytes=32 * 1024).size_kb == 32

    def test_n_sets(self):
        c = CacheSpec(level=1, size_bytes=32 * 1024, line_bytes=64, associativity=8)
        assert c.n_sets == 64


class TestPerfEnvelope:
    def test_missing_level_rejected(self):
        with pytest.raises(ValueError, match="missing bandwidth"):
            PerfEnvelope(level_bw_gbs={"L1": 100.0}, saturation_threads={})


class TestTopologyHelpers:
    def test_skx_counts(self):
        m = skx()
        assert m.n_sockets == 2
        assert m.n_cores == 44
        assert m.n_threads == 88
        assert m.smt == 2

    def test_cached_counts_are_not_part_of_the_value(self):
        warm, cold = skx(), skx()
        assert (warm.n_cores, warm.n_threads) == (44, 88)  # fills the cache
        # (a spec holds dicts, so it never was hashable: nothing to compare)
        assert warm == cold and dataclasses.asdict(warm) == dataclasses.asdict(cold)
        one = dataclasses.replace(warm, sockets=warm.sockets[:1])
        assert (one.n_cores, one.n_threads) == (22, 44)
        assert (warm.n_cores, warm.n_threads) == (44, 88)

    def test_socket_of_core(self):
        m = skx()
        assert m.socket_of_core(0) == 0
        assert m.socket_of_core(21) == 0
        assert m.socket_of_core(22) == 1
        assert m.socket_of_core(43) == 1
        with pytest.raises(IndexError):
            m.socket_of_core(44)

    def test_numa_of_core(self):
        m = skx()
        assert m.numa_of_core(0) == 0
        assert m.numa_of_core(30) == 1
        with pytest.raises(IndexError):
            m.numa_of_core(99)

    def test_thread_numbering_linux_style(self):
        m = skx()
        assert m.threads_of_core(0) == (0, 44)
        assert m.threads_of_core(43) == (43, 87)
        assert m.core_of_thread(44) == 0
        assert m.core_of_thread(87) == 43

    def test_thread_core_roundtrip(self):
        m = zen3()
        for core in range(m.n_cores):
            for cpu in m.threads_of_core(core):
                assert m.core_of_thread(cpu) == core

    def test_cache_lookup(self):
        m = skx()
        assert m.cache(1).size_kb == 32
        assert m.cache(2).size_kb == 1024
        with pytest.raises(KeyError):
            m.cache(4)

    def test_cache_levels_excludes_instruction(self):
        assert skx().cache_levels == (1, 2, 3)


class TestPeakGflops:
    def test_scales_with_isa_width(self):
        m = skx()
        scalar = m.peak_gflops(ISA.SCALAR, 44)
        avx512 = m.peak_gflops(ISA.AVX512, 44)
        assert avx512 == pytest.approx(scalar * 8)

    def test_smt_adds_no_fp_throughput(self):
        m = skx()
        assert m.peak_gflops(ISA.AVX512, 88) == pytest.approx(
            m.peak_gflops(ISA.AVX512, 44)
        )

    def test_single_core_value(self):
        # 8 lanes * 2 FMA units * 2 ops * 3.7 GHz = 118.4 GFLOP/s/core
        assert skx().peak_gflops(ISA.AVX512, 1) == pytest.approx(118.4)

    def test_unsupported_isa_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            zen3().peak_gflops(ISA.AVX512, 16)

    def test_sp_doubles_dp(self):
        m = skx()
        assert m.peak_gflops(ISA.AVX2, 4, precision="sp") == pytest.approx(
            2 * m.peak_gflops(ISA.AVX2, 4, precision="dp")
        )


class TestBandwidth:
    def test_private_levels_scale_linearly(self):
        m = skx()
        b1 = m.bandwidth_gbs("L1", 2)  # 1 core
        b11 = m.bandwidth_gbs("L1", 22)  # 11 cores
        assert b11 == pytest.approx(11 * b1)

    def test_dram_saturates(self):
        m = skx()
        full = m.bandwidth_gbs("DRAM", 44)
        half = m.bandwidth_gbs("DRAM", 22)
        # 11 cores/socket >= saturation point of 10 -> both saturated/socket,
        # but 44 threads engage both sockets fully.
        assert full >= half
        assert full <= 2 * m.envelope.level_bw_gbs["DRAM"] + 1e-9

    def test_two_sockets_double_dram(self):
        m = skx()
        assert m.bandwidth_gbs("DRAM", 88) == pytest.approx(
            2 * m.envelope.level_bw_gbs["DRAM"]
        )

    def test_unknown_level(self):
        with pytest.raises(KeyError):
            skx().bandwidth_gbs("L9", 1)

    def test_hierarchy_ordering_all_presets(self):
        for name in ("skx", "icl", "csl", "zen3"):
            m = get_preset(name)
            t = m.n_threads
            assert (
                m.bandwidth_gbs("L1", t)
                > m.bandwidth_gbs("L2", t)
                > m.bandwidth_gbs("L3", t)
                > m.bandwidth_gbs("DRAM", t)
            ), name


class TestMemoryLevelFor:
    def test_small_fits_l1(self):
        assert skx().memory_level_for(8 * 1024, 1) == "L1"

    def test_medium_fits_l2(self):
        assert skx().memory_level_for(512 * 1024, 1) == "L2"

    def test_large_goes_dram(self):
        assert skx().memory_level_for(4 * 1024**3, 1) == "DRAM"

    def test_split_across_threads(self):
        m = skx()
        # 1 MB split over 44 threads is ~23 KB/thread -> L1.
        assert m.memory_level_for(1024 * 1024, 44) == "L1"

    def test_vendor_enum(self):
        assert skx().vendor is Vendor.INTEL
        assert zen3().vendor is Vendor.AMD
