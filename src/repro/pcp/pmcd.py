"""``pmcd`` — the PCP collector daemon on the target.

pmcd "manages other agents and reports their readings" (§V-B): a fetch
request for a set of metrics is routed to the owning agents, the results are
flattened into one report, and pmcd charges its own (small) per-value CPU
cost for marshalling.  The report is what the transport ships to the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .agents import Agent, AgentCosts

__all__ = ["Report", "Pmcd"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pcp.pmcd": {
        "Pmcd": ("fetch", "available_metrics"),
    },
}


@dataclass
class Report:
    """One fetch result: every (metric, field) value at one timestamp."""

    time: float
    window: tuple[float, float]
    values: dict[str, dict[str, float]]  # metric -> {field: value}

    @cached_property
    def n_points(self) -> int:
        """Values in the report, counted once (a report is not edited)."""
        return sum(len(v) for v in self.values.values())

    def zeroed(self) -> "Report":
        """The same report with every value zeroed — what a stalled
        perfevent snapshot delivers (the 'batched zeros' of §V-A)."""
        return Report(
            time=self.time,
            window=self.window,
            values={m: {f: 0.0 for f in fields} for m, fields in self.values.items()},
        )


class Pmcd:
    """Routes fetches to agents and accounts its own cost."""

    cpu_per_fetch = 60e-6
    cpu_per_value = 2e-6
    rss_kb = 8_400.0

    def __init__(self, agents: list[Agent]) -> None:
        if not agents:
            raise ValueError("pmcd needs at least one agent")
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise ValueError("duplicate agent names")
        self.agents = list(agents)
        self.costs = AgentCosts(rss_kb=self.rss_kb)
        self._owner: dict[str, Agent] = {}  # metric -> agent, learnt at first sight

    def agent(self, name: str) -> Agent:
        for a in self.agents:
            if a.name == name:
                return a
        raise KeyError(f"no agent named {name!r}")

    def _route(self, metric: str) -> Agent:
        agent = self._owner.get(metric)
        if agent is None:
            for agent in self.agents:
                if agent.owns(metric):
                    self._owner[metric] = agent
                    break
            else:
                raise KeyError(f"no agent owns metric {metric!r}")
        return agent

    def available_metrics(self) -> list[str]:
        out: list[str] = []
        for a in self.agents:
            out.extend(a.metrics())
        return sorted(out)

    def fetch(self, metrics: list[str], t0: float, t1: float) -> Report:
        """Fetch a metric set over a window into one report.

        Metrics are grouped by owning agent and each agent is asked once
        per tick — a perfevent fetch is a single batched PMU read, a
        pmdalinux fetch one /proc snapshot per window edge.  The report
        lists metrics in request order regardless of grouping, once each."""
        if not metrics:
            raise ValueError("empty metric list")
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"repeated metric in {metrics!r}")
        if t1 < t0:
            raise ValueError("fetch window reversed")
        by_agent: dict[int, tuple[Agent, list[str]]] = {}
        for m in metrics:
            agent = self._route(m)
            by_agent.setdefault(id(agent), (agent, []))[1].append(m)
        fetched: dict[str, dict[str, float]] = {}
        for agent, ms in by_agent.values():
            fetched.update(agent.fetch_batch(ms, t0, t1))
        values = {m: fetched[m] for m in metrics}
        report = Report(time=t1, window=(t0, t1), values=values)
        self.costs.charge(report.n_points, self.cpu_per_fetch, self.cpu_per_value)
        return report

    def resource_usage(self) -> dict[str, AgentCosts]:
        """Per-agent accumulated costs, pmcd included (Fig 6 data)."""
        out = {a.name: a.costs for a in self.agents}
        out["pmcd"] = self.costs
        return out
