"""The live-CARM panel (§IV-B2, Figs 8–9).

"This functionality is achieved by automatically configuring PMU events
based on the underlying architecture of a system, in order to accurately
calculate the live Arithmetic Intensity (AI) and live-GFLOPS of the
system."

Given an ObservationInterface and the time series it links to, each sampling
window becomes one application dot:

- **GFLOPS** — "mapping and adding all of the available FLOP events", i.e.
  the Abstraction Layer's ``FLOPS_DP`` formula over the window's counts;
- **bytes** — load/store event counts times an access width "inferred from
  the ratios of different FP instructions (scalar, SSE, AVX2, AVX512)";
- **AI** — FLOPs / bytes.

Points carry timestamps so execution phases can be boxed on the plot, as
the colored squares of Fig 8 do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.influx import InfluxDB
from repro.pmu.abstraction import AbstractionLayer, UnsupportedEventError, pmu_utils
from repro.pmu.counters import PMU

__all__ = ["LivePoint", "live_carm_points", "live_carm_points_from_pmu", "assign_phases"]

_ISA_WIDTH_EVENTS = {
    # FP_ARITH-style event suffix -> access width in bytes.
    "SCALAR_DOUBLE": 8,
    "128B_PACKED_DOUBLE": 16,
    "256B_PACKED_DOUBLE": 32,
    "512B_PACKED_DOUBLE": 64,
}


@dataclass(frozen=True)
class LivePoint:
    """One live-CARM application dot."""

    t: float
    window_s: float
    flops: float
    bytes_moved: float
    phase: str = ""

    @property
    def gflops(self) -> float:
        return self.flops / self.window_s / 1e9 if self.window_s else 0.0

    @property
    def ai(self) -> float:
        return self.flops / self.bytes_moved if self.bytes_moved else float("inf")


def _series_by_event(influx: InfluxDB, database: str, observation: dict) -> dict[str, list[tuple[float, float]]]:
    """event name -> [(t, summed-across-instances value)] for one observation."""
    out: dict[str, list[tuple[float, float]]] = {}
    for m in observation["metrics"]:
        event = m.get("event")
        if not event:
            continue  # software metric rows are not PMU events
        _, rows = influx.scan_columns(
            database, m["measurement"], m["fields"], tags={"tag": observation["tag"]})
        out[event] = [
            (t, float(sum(v for v in vals if v is not None))) for t, vals in rows
        ]
    return out


def _infer_width_bytes(window_counts: dict[str, float]) -> float:
    """Access width from the FP-instruction mix (§IV-B2)."""
    weighted = total = 0.0
    for event, count in window_counts.items():
        for suffix, width in _ISA_WIDTH_EVENTS.items():
            if event.endswith(suffix):
                weighted += count * width
                total += count
    return weighted / total if total > 0 else 8.0


def live_carm_points(
    influx: InfluxDB,
    database: str,
    observation: dict,
    pmu_name: str,
    layer: AbstractionLayer = pmu_utils,
) -> list[LivePoint]:
    """Turn one observation's PMU series into live-CARM dots."""
    if observation.get("@type") != "ObservationInterface":
        raise ValueError("live-CARM needs an ObservationInterface entry")
    series = _series_by_event(influx, database, observation)
    if not series:
        raise ValueError("observation has no PMU event series")
    flops_formula = layer.formula(pmu_name, "FLOPS_DP")
    loads_formula = layer.formula(pmu_name, "LOADS")
    stores_formula = layer.formula(pmu_name, "STORES")

    # Align on the timestamps of the first series; values are per-window
    # deltas by the sampler's contract.
    anchor = next(iter(series.values()))
    points: list[LivePoint] = []
    prev_t = observation["time"]["start"]
    for i, (t, _) in enumerate(anchor):
        window_counts: dict[str, float] = {}
        for event, s in series.items():
            if i < len(s) and abs(s[i][0] - t) < 1e-9:
                window_counts[event] = s[i][1]
            else:  # series lost this tick; treat as zero
                window_counts[event] = 0.0

        def resolve(ev: str) -> float:
            return window_counts.get(ev, 0.0)

        flops = flops_formula.evaluate(resolve)
        mem_ops = loads_formula.evaluate(resolve) + stores_formula.evaluate(resolve)
        width = _infer_width_bytes(window_counts)
        window = t - prev_t
        prev_t = t
        if window <= 0:
            continue
        points.append(
            LivePoint(t=t, window_s=window, flops=flops, bytes_moved=mem_ops * width)
        )
    return points


def live_carm_points_from_pmu(
    pmu: PMU,
    pmu_name: str,
    t0: float,
    t1: float,
    freq_hz: float,
    layer: AbstractionLayer = pmu_utils,
) -> list[LivePoint]:
    """Live-CARM dots straight off the programmed PMU, no DB round-trip.

    The dashboard path (:func:`live_carm_points`) replays series the
    sampler already shipped to Influx; this is the in-situ variant — the
    panel observing the machine directly, window by window.  Each window
    issues **one** batched counter read
    (:meth:`~repro.pmu.counters.PMU.read_events_all_cpus`, a single
    timeline pass) for every event the FLOPS/LOADS/STORES formulas need,
    instead of events × cpus scalar reads per dot.
    """
    if freq_hz <= 0:
        raise ValueError("live-CARM sampling frequency must be positive")
    if t1 <= t0:
        raise ValueError("empty live-CARM window")
    flops_formula = layer.formula(pmu_name, "FLOPS_DP")
    loads_formula = layer.formula(pmu_name, "LOADS")
    stores_formula = layer.formula(pmu_name, "STORES")
    events = [e for e in layer.hw_events_needed(
        pmu_name, ["FLOPS_DP", "LOADS", "STORES"]
    ) if e in pmu.session]

    period = 1.0 / freq_hz
    n_windows = max(1, int(round((t1 - t0) * freq_hz)))
    points: list[LivePoint] = []
    prev_t = t0
    for k in range(1, n_windows + 1):
        t = min(t0 + k * period, t1)
        window = t - prev_t
        if window <= 0:
            continue
        per_event = pmu.read_events_all_cpus(events, prev_t, t)
        window_counts = {e: sum(vals.values()) for e, vals in per_event.items()}

        def resolve(ev: str) -> float:
            return window_counts.get(ev, 0.0)

        flops = flops_formula.evaluate(resolve)
        mem_ops = loads_formula.evaluate(resolve) + stores_formula.evaluate(resolve)
        width = _infer_width_bytes(window_counts)
        points.append(
            LivePoint(t=t, window_s=window, flops=flops, bytes_moved=mem_ops * width)
        )
        prev_t = t
    return points


def assign_phases(
    points: list[LivePoint], phases: list[tuple[str, float, float]]
) -> list[LivePoint]:
    """Label points by execution phase [(name, t0, t1)] — Fig 8's boxes."""
    out = []
    for p in points:
        label = ""
        for name, t0, t1 in phases:
            if t0 <= p.t <= t1:
                label = name
                break
        out.append(LivePoint(p.t, p.window_s, p.flops, p.bytes_moved, phase=label))
    return out
