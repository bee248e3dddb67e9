"""PCP metric agents (PMDAs) and their resource-cost models.

The paper's Fig 6 measures four agents on the target system:

- ``pmcd`` — manages other agents and reports their readings;
- ``pmdaperfevent`` — samples PMUs via the Linux perf interface;
- ``pmdalinux`` — software-sourced system state (memory, CPU times);
- ``pmdaproc`` — per-process metrics, with a much larger instance domain
  (hence its larger, but still constant, memory footprint).

Each agent here produces metric values from the simulated machine *and*
accounts its own CPU time per fetch, constant RSS, and bytes shipped —
exactly the quantities Fig 6 plots.  Counter-type values are reported as
window deltas (the sampler records the window), which is what P-MoVE's
dashboards chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.activity import SW_METRICS, SoftwareState
from repro.pmu.counters import PMU

from .pmns import instance_field, perfevent_metric

__all__ = ["AgentCosts", "Agent", "PmdaLinux", "PmdaPerfevent", "PmdaProc", "PmdaNvidia"]


@dataclass
class AgentCosts:
    """Accumulated resource usage of one agent (Fig 6 quantities)."""

    cpu_seconds: float = 0.0
    fetches: int = 0
    values_served: int = 0
    rss_kb: float = 0.0

    def charge(self, n_values: int, cpu_per_fetch: float, cpu_per_value: float) -> None:
        self.fetches += 1
        self.values_served += n_values
        self.cpu_seconds += cpu_per_fetch + cpu_per_value * n_values


class Agent:
    """Base PMDA: metric ownership, fetch, and cost accounting."""

    #: Fixed CPU cost per fetch round-trip (IPC with pmcd) and per value.
    cpu_per_fetch = 40e-6
    cpu_per_value = 6e-6
    rss_kb = 6_000.0

    def __init__(self, name: str) -> None:
        self.name = name
        self.costs = AgentCosts(rss_kb=self.rss_kb)

    def metrics(self) -> list[str]:
        raise NotImplementedError

    def owns(self, metric: str) -> bool:
        raise NotImplementedError

    def fetch(self, metric: str, t0: float, t1: float) -> dict[str, float]:
        """Return {influx field name: value} for one metric over a window:
        :meth:`fetch_batch` of one."""
        return self.fetch_batch([metric], t0, t1)[metric]

    def fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        """Fetch several owned metrics over one shared window — a sampler
        tick's worth, which is the unit agents implement (:meth:`_fetch_batch`).

        Costs are charged here and nowhere else, per metric and only once
        every value is in hand, so Fig 6 numbers do not depend on the fetch
        shape and a tick that raises charges nothing."""
        fetched = self._fetch_batch(metrics, t0, t1)
        for m in metrics:
            self.costs.charge(len(fetched[m]), self.cpu_per_fetch, self.cpu_per_value)
        return fetched

    def _fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        raise NotImplementedError


class PmdaLinux(Agent):
    """Software system-state metrics from /proc (SWTelemetry)."""

    rss_kb = 9_200.0
    cpu_per_value = 4e-6  # /proc reads are cheap

    def __init__(self, state: SoftwareState) -> None:
        super().__init__("pmdalinux")
        self.state = state
        self._fields = {m: [instance_field(i) for i in state.instances(m)] for m in SW_METRICS}

    def metrics(self) -> list[str]:
        return sorted(SW_METRICS)

    def owns(self, metric: str) -> bool:
        return metric in SW_METRICS

    def _fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        """One /proc snapshot at ``t1`` and, only if a counter was asked over
        a non-empty window, one at ``t0``.  Counters are differenced value by
        value — ``v(t1) - v(t0)`` on the metric's own scale, the subtraction
        the goldens were recorded with."""
        now = self.state.snapshot(metrics, t1)
        counters = [m for m in metrics if SW_METRICS[m][1] == "counter"]
        then = self.state.snapshot(counters, t0) if counters and t0 != t1 else now
        values = dict(now)
        for m in counters:
            values[m] = [v1 - v0 for v1, v0 in zip(now[m], then[m])]
        return {m: dict(zip(self._fields[m], values[m])) for m in metrics}


class PmdaPerfevent(Agent):
    """PMU sampling via the perf interface (HWTelemetry).

    Must be configured (counter programming) before fetching; PCP's
    perfevent does the same through its event configuration file — which is
    what P-MoVE's Abstraction Layer writes (§IV-A).
    """

    rss_kb = 5_800.0
    cpu_per_value = 9e-6  # perf syscalls cost more than /proc reads

    def __init__(self, pmu: PMU) -> None:
        super().__init__("pmdaperfevent")
        self.pmu = pmu
        self._events: dict[str, str] = {}  # metric → event, in configured order
        self._fields = {c: instance_field(f"cpu{c}") for c in range(pmu.machine.spec.n_threads)}

    def configure(self, events: list[str], cpus: list[int] | None = None) -> None:
        names = {perfevent_metric(e): e for e in events}
        if len(names) != len(set(events)):
            clash = sorted(set(events) - set(names.values()))
            raise ValueError(f"events {clash} share a PMNS name with another event")
        self.pmu.program(events, cpus=cpus)
        self._events = names

    @property
    def configured_events(self) -> list[str]:
        return list(self._events.values())

    def metrics(self) -> list[str]:
        return list(self._events)

    def owns(self, metric: str) -> bool:
        return metric.startswith("perfevent.")

    def _fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        """One batched PMU read for the whole metric set × cpu set: a tick
        issues a single :meth:`~repro.pmu.counters.PMU.read_events_all_cpus`
        (one timeline pass), never events × cpus scalar ``integrate`` calls."""
        try:
            events = [self._events[m] for m in metrics]
        except KeyError as e:
            raise KeyError(f"perfevent metric {e.args[0]!r} not configured") from None
        vals = self.pmu.read_events_all_cpus(events, t0, t1)
        fields = self._fields
        return {
            metric: {fields[c]: v for c, v in vals[event].items()}
            for metric, event in zip(metrics, events)
        }


class PmdaProc(Agent):
    """Per-process metrics.  The instance domain is every process on the
    system, which is why this agent's (constant) memory footprint dwarfs
    the others in Fig 6.  P-MoVE itself uses 0 per-process metrics (§V-B);
    the agent exists because a default PCP install runs it."""

    rss_kb = 35_000.0
    cpu_per_value = 3e-6

    _METRICS = ("proc.psinfo.utime", "proc.psinfo.stime", "proc.psinfo.rss")

    def __init__(self, state: SoftwareState, n_processes: int = 220) -> None:
        super().__init__("pmdaproc")
        self.state = state
        self.n_processes = n_processes

    def metrics(self) -> list[str]:
        return list(self._METRICS)

    def owns(self, metric: str) -> bool:
        return metric.startswith("proc.")

    def _fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        # A stable synthetic process table: pid -> deterministic share of
        # system activity.  Process 1..n split the machine's busy time, read
        # from the same /proc snapshot pair pmdalinux differences.
        nproc = self.n_processes
        user = "kernel.percpu.cpu.user"
        now = self.state.snapshot((user,), t1)[user][:4]
        then = self.state.snapshot((user,), t0)[user][:4]
        busy_ms = sum(v1 - v0 for v1, v0 in zip(now, then))
        fields = [instance_field(f"{pid:06d} proc{pid}") for pid in range(1, nproc + 1)]
        table = {
            "proc.psinfo.rss": lambda: {
                f: 2_000.0 + (pid % 17) * 800.0 for pid, f in enumerate(fields, 1)},
            "proc.psinfo.utime": lambda: dict.fromkeys(fields, busy_ms * (1.0 / nproc)),
            "proc.psinfo.stime": lambda: dict.fromkeys(fields, busy_ms * (0.1 / nproc)),
        }
        return {m: table[m]() for m in metrics}


class PmdaNvidia(Agent):
    """NVML metrics via pcp-pmda-nvidia (§III-D SWTelemetry)."""

    rss_kb = 7_500.0

    def __init__(self, sampler) -> None:  # repro.gpu.NvmlSampler
        super().__init__("pmdanvidia")
        self.sampler = sampler

    def metrics(self) -> list[str]:
        return self.sampler.metrics()

    def owns(self, metric: str) -> bool:
        return metric.startswith("nvidia.")

    def _fetch_batch(
        self, metrics: list[str], t0: float, t1: float
    ) -> dict[str, dict[str, float]]:
        field = instance_field(f"gpu{self.sampler.gpu.spec.index}")
        return {m: {field: self.sampler.value(m, t1)} for m in metrics}
