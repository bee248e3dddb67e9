"""Programmable PMU counter files for a simulated machine.

This models the constraint at the heart of the paper's Abstraction Layer
discussion (§IV-A): counters are a scarce, vendor-specific resource.  Intel
offers 4 programmable counters per hardware thread (8 when the SMT sibling
is idle) plus 3 fixed counters; the paper models AMD with 2.  Requesting
more core events than slots forces time-multiplexing, which degrades
accuracy (see :mod:`repro.pmu.noise` and the multiplexing ablation bench).

Socket-scope events (RAPL) live in their own MSR space and do not consume
core counter slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.simulator import SimulatedMachine

from .events import EventCatalog, EventDef, catalog_for
from .noise import NoiseModel

__all__ = ["CounterSession", "PMU", "CounterAllocationError"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pmu": {
        "PMU": (
            "program", "stop", "read", "read_interval", "read_all_cpus",
            "read_events_all_cpus"),
    },
}


class CounterAllocationError(RuntimeError):
    """Raised when an event set cannot be scheduled without multiplexing
    and the caller asked for ``allow_multiplexing=False``."""


@dataclass(frozen=True)
class CounterSession:
    """One programming of the PMU: which events, where, since when."""

    events: tuple[str, ...]
    cpus: tuple[int, ...]
    t_programmed: float
    mux_groups: int

    def __contains__(self, event: str) -> bool:
        return event in self.events


class PMU:
    """The performance-monitoring unit of one simulated machine."""

    def __init__(self, machine: SimulatedMachine, seed: int = 0) -> None:
        self.machine = machine
        self.spec = machine.spec.pmu
        self.catalog: EventCatalog = catalog_for(self.spec.uarch)
        self.noise = NoiseModel(self.spec, machine_seed=seed)
        self._session: CounterSession | None = None
        #: the read plan of the last event list read, which ``program`` and
        #: ``stop`` drop: (events, pairs, term scales, identities, muxes)
        self._plan: tuple | None = None

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def slots_available(self, smt_sibling_idle: bool = False) -> int:
        """Programmable slots per hardware thread.

        Intel doubles the per-thread budget when the core is not shared
        with a second thread (§IV-A).
        """
        n = self.spec.n_programmable
        if smt_sibling_idle and self.catalog.vendor == "GenuineIntel":
            n *= 2
        return n

    def program(
        self,
        events: list[str],
        cpus: list[int] | None = None,
        allow_multiplexing: bool = True,
        smt_sibling_idle: bool = False,
    ) -> CounterSession:
        """Bind ``events`` to counters on ``cpus`` (default: all threads).

        Core events beyond the fixed counters compete for programmable
        slots; overflow triggers time-multiplexing in round-robin groups,
        or raises :class:`CounterAllocationError` if disallowed.
        """
        if not events:
            raise ValueError("must program at least one event")
        defs = [self.catalog.get(e) for e in events]  # raises on unknown
        if len(set(events)) != len(events):
            raise ValueError("duplicate events in programming request")
        if cpus is None:
            cpus = list(range(self.machine.spec.n_threads))
        bad = [c for c in cpus if not 0 <= c < self.machine.spec.n_threads]
        if bad:
            raise ValueError(f"cpus {bad} out of range")

        programmable = [
            d for d in defs if d.scope == "cpu" and not d.fixed
        ]
        slots = self.slots_available(smt_sibling_idle)
        mux_groups = max(1, -(-len(programmable) // slots))  # ceil division
        if mux_groups > 1 and not allow_multiplexing:
            raise CounterAllocationError(
                f"{len(programmable)} programmable events need "
                f"{mux_groups} multiplexing groups on {slots} slots"
            )
        self._session = CounterSession(
            events=tuple(events),
            cpus=tuple(cpus),
            t_programmed=self.machine.clock.now(),
            mux_groups=mux_groups,
        )
        self._plan = None
        return self._session

    @property
    def session(self) -> CounterSession:
        if self._session is None:
            raise RuntimeError("PMU has not been programmed")
        return self._session

    def stop(self) -> None:
        self._session = None
        self._plan = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _scope_for(self, edef: EventDef, cpu: int) -> tuple[str, int]:
        if edef.scope == "socket":
            socket = self.machine.spec.socket_of_core(
                self.machine.spec.core_of_thread(cpu)
            )
            return ("socket", socket)
        return ("cpu", cpu)

    def _true_value(self, edef: EventDef, cpu: int, t0: float, t1: float) -> float:
        scope = self._scope_for(edef, cpu)
        return sum(
            scale * self.machine.read(scope, quantity, t0, t1)
            for quantity, scale in edef.terms.items()
        )

    def read_interval(self, event: str, cpu: int, t0: float, t1: float) -> float:
        """Measured event count on one cpu over a window.

        Socket-scope events (RAPL) are attributed to the socket owning
        ``cpu``; sibling threads of the same socket would read the same
        value, exactly as ``perfevent`` instance domains behave.
        """
        sess = self.session
        if event not in sess:
            raise KeyError(f"event {event!r} not programmed")
        if cpu not in sess.cpus:
            raise KeyError(f"cpu {cpu} not covered by current session")
        edef = self.catalog.get(event)
        true = self._true_value(edef, cpu, t0, t1)
        mux = sess.mux_groups if (edef.scope == "cpu" and not edef.fixed) else 1
        return self.noise.measure(true, cpu, event, t0, t1, mux_groups=mux)

    def read(self, event: str, cpu: int) -> float:
        """Cumulative measured count since the session was programmed."""
        return self.read_interval(
            event, cpu, self.session.t_programmed, self.machine.clock.now()
        )

    def read_all_cpus(self, event: str, t0: float, t1: float) -> dict[int, float]:
        """One window read for every cpu in the session (a perfevent fetch).

        Routed through the batched path: one timeline pass for the whole
        cpu set instead of a scalar integrate per cpu."""
        return self.read_events_all_cpus([event], t0, t1)[event]

    def _read_plan(self, events: tuple[str, ...]) -> tuple:
        """What every read of ``events`` × the session's cpus asks the same
        way, in event-major, cpu-minor order: the timeline pairs, each read's
        term scales, noise identity and mux group count."""
        sess = self.session
        missing = [e for e in events if e not in sess]
        if missing:
            raise KeyError(f"events {missing} not programmed")
        pairs, scales, identities, muxes = [], [], [], []
        for event in events:
            edef = self.catalog.get(event)
            mux = sess.mux_groups if (edef.scope == "cpu" and not edef.fixed) else 1
            for cpu in sess.cpus:
                scope = self._scope_for(edef, cpu)
                pairs.extend((scope, quantity) for quantity in edef.terms)
                scales.append(tuple(edef.terms.values()))
                identities.append(self.noise.identity(cpu, event))
                muxes.append(mux)
        return events, pairs, scales, identities, muxes

    def read_events_all_cpus(
        self, events: list[str], t0: float, t1: float
    ) -> dict[str, dict[int, float]]:
        """Window reads for many events × every session cpu, in one batched
        timeline pass.

        This is the whole-tick fetch of a PCP sampler: the true
        accumulations for all (event term, cpu) pairs come back from a
        single :meth:`SimulatedMachine.read_batch` call, then the tick's
        deterministic per-read noise is seeded in one
        :meth:`NoiseModel.measure_planned` — measured values are
        identical to scalar :meth:`read_interval` reads, only the number
        of timeline traversals changes.  All but the window comes from the
        session's read plan, built by the first read of an event list."""
        if self._plan is None or self._plan[0] != tuple(events):
            self._plan = self._read_plan(tuple(events))
        _, pairs, term_scales, identities, muxes = self._plan
        raw = iter(self.machine.read_batch(pairs, t0, t1))
        values = []
        for scales in term_scales:
            true = 0.0
            for scale in scales:
                true += scale * next(raw)
            values.append(true)
        measured = iter(self.noise.measure_planned(values, identities, muxes, t0, t1))
        cpus = self._session.cpus
        return {event: {cpu: next(measured) for cpu in cpus} for event in events}
