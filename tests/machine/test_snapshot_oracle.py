"""One /proc snapshot per instant ≡ the per-instance reads it replaced.

``SoftwareState.snapshot`` integrates each cumulative counter once per
instant and ``PmdaLinux`` / ``PmdaProc`` difference two snapshots; before
that, a fetch was one ``value(metric, instance, t)`` call per instance and
instant through a ``startswith`` chain.  That chain is kept **here**, as the
oracle (``oracle_value`` — the parent commit's code), and every metric, instance and field of a
batched fetch must equal ``oracle(t1) - oracle(t0)`` with ``==`` on floats:
Table III, Fig 4/5/6 and the unbuffered golden are made of these values.

The two sides run on *twin* machines built from the same script, so the
test also pins that the batched read merges a series' staged deposits at
the same points the scalar reads did (a merge re-derives boundary deltas,
so its timing is visible in the last bits).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    ISA,
    CpuThrottle,
    KernelDescriptor,
    SimulatedMachine,
    SoftwareState,
    get_preset,
)
from repro.machine import activity
from repro.machine.activity import SW_METRICS
from repro.pcp import Pmcd, PmdaLinux, PmdaProc
from repro.pcp.pmns import instance_field

_BASE_MEM_USED_KB = 4 * 1024 * 1024
PROC_METRICS = ["proc.psinfo.utime", "proc.psinfo.stime", "proc.psinfo.rss"]


# ----------------------------------------------------------------------
# The oracle: the parent commit's per-instance code, verbatim
# ----------------------------------------------------------------------
def oracle_instances(spec, metric):
    domain = SW_METRICS[metric][0]
    if domain is None:
        return [""]
    if domain == "percpu":
        return [f"cpu{i}" for i in range(spec.n_threads)]
    if domain == "pernode":
        return [f"node{n.node_id}" for n in spec.numa_nodes]
    if domain == "perdisk":
        return [d.name for d in spec.disks]
    if domain == "pernic":
        return [n.name for n in spec.nics]
    raise KeyError(domain)


def oracle_value(m, metric, instance, t):
    if metric not in SW_METRICS:
        raise KeyError(f"unknown SW metric {metric!r}")
    spec = m.spec
    freq_hz = spec.base_freq_ghz * 1e9

    if metric.startswith("kernel.percpu.cpu."):
        cpu = int(instance.removeprefix("cpu"))
        busy_s = m.read_cpu(cpu, "cycles", 0.0, t) / freq_hz
        busy_s = min(busy_s, t)
        if metric.endswith(".idle"):
            return (t - busy_s) * 1000.0
        if metric.endswith(".user"):
            return busy_s * 900.0
        return busy_s * 100.0

    if metric == "kernel.all.load":
        window = min(t, 60.0)
        if window <= 0:
            return 0.0
        return sum(m.busy_fractions(range(spec.n_threads), t - window, t))

    if metric == "kernel.all.nprocs":
        return 220 + 2 * len(m.active_runs(t))

    if metric == "kernel.all.pswitch":
        base = 120.0 * spec.n_threads * t
        run_extra = sum(
            (min(r.t_end, t) - r.t_start) * 50.0 * len(r.cpu_ids)
            for r in m.runs
            if r.t_start < t
        )
        return base + run_extra

    if metric in ("mem.util.used", "mem.util.free"):
        active_ws = sum(r.descriptor.working_set_bytes for r in m.active_runs(t))
        used_kb = _BASE_MEM_USED_KB + active_ws / 1024.0
        if metric == "mem.util.used":
            return used_kb
        return max(0.0, spec.memory_bytes / 1024.0 - used_kb)

    if metric.startswith("mem.numa.alloc."):
        node_id = int(instance.removeprefix("node"))
        node = spec.numa_nodes[node_id]
        cpus = [cpu for core in node.core_ids for cpu in spec.threads_of_core(core)]
        dram = m.read_batch([(("cpu", c), "dram_bytes") for c in cpus], 0.0, t)
        pages = 0.0
        for b in dram:
            pages += b / 4096.0
        if metric.endswith(".hit"):
            return pages * 0.97 + 500.0 * t
        return pages * 0.03

    if metric == "disk.dev.write_bytes":
        return 2048.0 * t

    if metric == "network.interface.out.bytes":
        return m.read(("node", 0), "net_out_bytes", 0.0, t)

    if metric == "hinv.ncpu":
        return float(spec.n_threads)

    raise KeyError(metric)


def oracle_linux_fetch(m, metric, t0, t1):
    """The parent's ``PmdaLinux._fetch``."""
    semantics = SW_METRICS[metric][1]
    out = {}
    for inst in oracle_instances(m.spec, metric):
        if semantics == "counter":
            v = oracle_value(m, metric, inst, t1) - oracle_value(m, metric, inst, t0)
        else:
            v = oracle_value(m, metric, inst, t1)
        out[instance_field(inst)] = v
    return out


def oracle_proc_fetch(m, metric, t0, t1, nproc):
    """The parent's ``PmdaProc._fetch``."""
    busy_ms = sum(
        oracle_value(m, "kernel.percpu.cpu.user", f"cpu{c}", t1)
        - oracle_value(m, "kernel.percpu.cpu.user", f"cpu{c}", t0)
        for c in range(min(4, m.spec.n_threads))
    )
    out = {}
    for pid in range(1, nproc + 1):
        if metric == "proc.psinfo.rss":
            v = 2_000.0 + (pid % 17) * 800.0
        elif metric == "proc.psinfo.utime":
            v = busy_ms * (1.0 / nproc)
        else:
            v = busy_ms * (0.1 / nproc)
        out[instance_field(f"{pid:06d} proc{pid}")] = v
    return out


# ----------------------------------------------------------------------
# Scripts: what happened on the machine before (and between) the fetches
# ----------------------------------------------------------------------
def kernel(n):
    """Streaming AVX2 kernel (every preset has AVX2); DRAM-resident from
    n ≈ 1e7 so ``dram_bytes`` — the NUMA page counters — moves too."""
    return KernelDescriptor(
        "stream", flops_dp={ISA.AVX2: 2.0 * n}, fma_fraction=1.0, loads=n / 2,
        stores=n / 4, mem_isa=ISA.AVX2, working_set_bytes=24 * n)


steps = st.lists(
    st.one_of(
        st.tuples(st.just("idle"), st.floats(0.05, 4.0)),
        st.tuples(st.just("kernel"), st.integers(1, 6),
                  st.sampled_from([200_000, 5_000_000, 40_000_000])),
        # a throttle fault over the next stretch: the kernels inside dilate
        st.tuples(st.just("throttle"), st.floats(0.1, 3.0),
                  st.sampled_from([0.4, 0.75])),
        # a negative-rate correction deposited in the past, as a share of
        # the span so far: (cpu, from, to, rate multiple)
        st.tuples(st.just("retract"), st.integers(0, 7), st.floats(0.0, 0.9),
                  st.floats(0.05, 0.1), st.sampled_from([0.5, 1.0, 40.0])),
    ),
    min_size=1, max_size=6,
)


def play(machine, script):
    for step in script:
        now = machine.clock.now()
        if step[0] == "idle":
            machine.advance(step[1])
        elif step[0] == "kernel":
            machine.run_kernel(kernel(step[2]), list(range(step[1])))
        elif step[0] == "throttle":
            machine.inject_fault(CpuThrottle(now, now + step[1], freq_factor=step[2]))
        else:
            _, cpu, a, width, k = step
            bg = 0.002 * machine.spec.base_freq_ghz * 1e9
            t0, t1 = a * now, min(now, (a + width) * now)
            for quantity, rate in (("cycles", bg), ("dram_bytes", 1e6)):
                machine.timeline.add_rate(("cpu", cpu), quantity, t0, t1, -k * rate)


def instants(machine):
    """Window edges worth asking about: boot, now, a read ahead of the clock
    (it lays background down to there), and the start, middle and end of
    every run — so runs fall before, across and after windows."""
    now = machine.clock.now()
    out = {0.0, now / 2, now, now + 0.3}
    for r in machine.runs:
        out.update((r.t_start, (r.t_start + r.t_end) / 2, r.t_end))
    return sorted(out)


def twins(host, script, seed=3):
    pair = []
    for _ in range(2):
        m = SimulatedMachine(get_preset(host), seed=seed)
        play(m, script)
        pair.append(m)
    return pair


class TestSnapshotEqualsPerInstanceOracle:
    @given(
        host=st.sampled_from(["icl", "skx", "zen3"]),
        script=steps,
        more=steps,
        metrics=st.permutations(sorted(SW_METRICS)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_metric_every_instance_bit_for_bit(self, host, script, more, metrics, data):
        batched, scalar = twins(host, script)
        linux = PmdaLinux(SoftwareState(batched))
        proc = PmdaProc(SoftwareState(batched), n_processes=9)
        pmcd = Pmcd([linux, proc])
        for round_ in range(2):
            edges = instants(batched)
            t1 = data.draw(st.sampled_from(edges), label="t1")
            t0 = data.draw(st.sampled_from([0.0, t1] + [e for e in edges if e <= t1]),
                           label="t0")
            got = pmcd.fetch(list(metrics) + PROC_METRICS, t0, t1).values
            for metric in metrics:
                want = oracle_linux_fetch(scalar, metric, t0, t1)
                assert list(got[metric].items()) == list(want.items()), metric
            for metric in PROC_METRICS:
                want = oracle_proc_fetch(scalar, metric, t0, t1, 9)
                assert list(got[metric].items()) == list(want.items()), metric
            if round_ == 0:  # more history, then a second tick on merged series
                play(batched, more)
                play(scalar, more)

    @pytest.mark.parametrize("host", ["icl", "skx", "zen3"])
    def test_value_is_the_one_instance_view(self, host):
        batched, scalar = twins(host, [("idle", 2.0), ("kernel", 3, 5_000_000),
                                       ("idle", 0.5)])
        state = SoftwareState(batched)
        t = batched.runs[0].t_end
        for metric in SW_METRICS:
            names = state.instances(metric)
            assert names == oracle_instances(scalar.spec, metric)
            for inst in names:
                assert state.value(metric, inst, t) == oracle_value(scalar, metric, inst, t)

    def test_the_table_covers_the_namespace(self):
        assert set(activity._VIEWS) == set(SW_METRICS)


class TestErrorsStayLoud:
    def make(self):
        m = SimulatedMachine(get_preset("icl"), seed=1)
        m.advance(3.0)
        return m, SoftwareState(m)

    def test_unknown_metric_anywhere_in_a_batch_names_it_and_charges_nothing(self):
        m, state = self.make()
        linux = PmdaLinux(state)
        with pytest.raises(KeyError, match="no.such.metric"):
            linux.fetch_batch(["kernel.all.load", "no.such.metric", "mem.util.used"], 0.0, 1.0)
        assert (linux.costs.fetches, linux.costs.values_served, linux.costs.cpu_seconds) == (0, 0, 0.0)
        with pytest.raises(KeyError, match="no.such.metric"):
            state.snapshot(["hinv.ncpu", "no.such.metric"], 1.0)

    @pytest.mark.parametrize("metric,instance", [
        ("kernel.percpu.cpu.idle", "cpu99"),   # icl has 16 threads
        ("kernel.percpu.cpu.user", "cpu-1"),   # must not index from the end
        ("kernel.percpu.cpu.sys", "cpu16"),
        ("mem.numa.alloc.hit", "node7"),
        ("mem.numa.alloc.miss", "node-1"),
        ("disk.dev.write_bytes", "no-such-disk"),
        ("kernel.all.load", "cpu0"),           # a singleton has one instance: ""
    ])
    def test_instance_outside_the_domain_raises(self, metric, instance):
        _, state = self.make()
        with pytest.raises(IndexError):
            state.value(metric, instance, 1.0)

    def test_unowned_metric_raises_every_time_and_reversed_window_asks_no_agent(self):
        m, state = self.make()
        linux = PmdaLinux(state)
        pmcd = Pmcd([linux])
        for _ in range(2):  # the route memo must not remember a miss as a hit
            with pytest.raises(KeyError, match="perfevent.hwcounters.X.value"):
                pmcd.fetch(["kernel.all.load", "perfevent.hwcounters.X.value"], 0.0, 1.0)
        asked = []
        linux._fetch_batch = lambda *a: asked.append(a)
        with pytest.raises(ValueError, match="reversed"):
            pmcd.fetch(["kernel.all.load"], 2.0, 1.0)
        assert asked == [] and pmcd.costs.fetches == 0 and linux.costs.fetches == 0


# ----------------------------------------------------------------------
# sum() stays sum(): Python 3.12 compensates float sums, CI runs 3.12
# ----------------------------------------------------------------------
def naive_sum(xs):
    total = 0
    for x in xs:
        total = total + x
    return total


def neumaier_sum(xs):
    """What ``sum()`` does to floats from CPython 3.12 on."""
    total, c = 0.0, 0.0
    for x in xs:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c


class TestLoadAndPswitchKeepCallingSum:
    """``kernel.all.load`` and ``kernel.all.pswitch`` were recorded with
    the builtin ``sum`` over a fixed sequence.  A hand loop in its place is
    bit-identical on 3.11 and wrong in the last bits on 3.12, so the case
    below is one where the two sums differ, and the builtin is spied on so
    the pin holds on either interpreter."""

    def make(self):
        m = SimulatedMachine(get_preset("icl"), seed=5)
        m.advance(1.0)
        for i in range(14):  # enough uneven terms for the two sums to part
            m.run_kernel(kernel(900_000 * (1 + (7 * i) % 11)), list(range(1 + (3 * i) % 7)))
            m.advance(0.37)
        return m, SoftwareState(m)

    def spy(self, monkeypatch):
        seen = []

        def spying_sum(xs, *start):
            xs = list(xs)
            seen.append(xs)
            return sum(xs, *start)

        monkeypatch.setattr(activity, "sum", spying_sum, raising=False)
        return seen

    def test_load(self, monkeypatch):
        m, state = self.make()
        t = m.runs[-1].t_end
        terms = m.busy_fractions(range(m.spec.n_threads), t - min(t, 60.0), t)
        assert neumaier_sum(terms) != naive_sum(terms), "not a discriminating case"
        seen = self.spy(monkeypatch)
        assert state.value("kernel.all.load", "", t) == sum(terms)
        assert seen == [terms]

    def test_pswitch(self, monkeypatch):
        m, state = self.make()
        t = m.runs[-1].t_end - 1e-3
        terms = [(min(r.t_end, t) - r.t_start) * 50.0 * len(r.cpu_ids)
                 for r in m.runs if r.t_start < t]
        assert neumaier_sum(terms) != naive_sum(terms), "not a discriminating case"
        seen = self.spy(monkeypatch)
        assert state.value("kernel.all.pswitch", "", t) == 120.0 * 16 * t + sum(terms)
        assert seen == [terms]
