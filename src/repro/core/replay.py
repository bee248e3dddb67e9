"""Replay and what-if prediction (§I).

"Its historical data access capability ... can be leveraged to replay or
simulate various configurations to identify bottlenecks and propose
potential hardware or software configurations ... predictive performance
modelling on a candidate architecture, suggesting hardware upgrades."

Two capabilities on top of the KB + time-series history:

- :func:`replay` — reconstruct a recorded observation as a time-ordered
  event stream (what a live dashboard would have shown), entirely from the
  stored documents and series;
- :func:`predict_runtime` / :func:`suggest_upgrade` — CARM-based
  cross-architecture projection: characterize the recorded workload by its
  live (AI, GFLOPS) signature on the source machine, find which roof bound
  it, and scale to the candidate machine's corresponding roof.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.influx import InfluxDB

if TYPE_CHECKING:  # repro.carm imports repro.core.kb; keep runtime lazy
    from repro.carm.model import CarmModel

__all__ = ["ReplayEvent", "replay", "Prediction", "predict_runtime", "suggest_upgrade"]


@dataclass(frozen=True)
class ReplayEvent:
    """One reconstructed telemetry sample."""

    t: float
    measurement: str
    field: str
    value: float


def replay(influx: InfluxDB, database: str, observation: dict) -> list[ReplayEvent]:
    """Reconstruct the observation's full event stream in time order."""
    if observation.get("@type") != "ObservationInterface":
        raise ValueError("replay needs an ObservationInterface entry")
    events: list[ReplayEvent] = []
    for m in observation["metrics"]:
        fields, rows = influx.scan_columns(
            database, m["measurement"], tags={"tag": observation["tag"]})
        for f, col in zip(fields, rows.cols):
            events.extend(
                ReplayEvent(t=t, measurement=m["measurement"], field=f, value=v)
                for t, v in zip(rows.times, col) if v is not None)
    if not events:
        raise ValueError(
            f"no stored series for observation {observation.get('@id')!r} — "
            "was it recorded into this database?"
        )
    return sorted(events, key=lambda e: (e.t, e.measurement, e.field))


@dataclass(frozen=True)
class Prediction:
    """A cross-architecture runtime projection."""

    source_host: str
    target_host: str
    observed_runtime_s: float
    predicted_runtime_s: float
    ai: float
    source_gflops: float
    target_gflops: float
    bound: str  # the roof class that limited the source run

    @property
    def speedup(self) -> float:
        return self.observed_runtime_s / self.predicted_runtime_s


def _signature(influx: InfluxDB, database: str, observation: dict,
               pmu_name: str) -> tuple[float, float]:
    from repro.carm.live import live_carm_points

    pts = [p for p in live_carm_points(influx, database, observation, pmu_name)
           if p.flops > 0]
    if not pts:
        raise ValueError("observation carries no usable FP event series")
    ai = statistics.median(p.ai for p in pts)
    gflops = statistics.median(p.gflops for p in pts)
    return ai, gflops


def predict_runtime(
    influx: InfluxDB,
    database: str,
    observation: dict,
    source_model: CarmModel,
    target_model: CarmModel,
    source_pmu: str,
) -> Prediction:
    """Project a recorded execution onto a candidate architecture.

    The workload's live signature (median AI, median GFLOPS) is read from
    its stored PMU series; the level whose roof bounded it on the source
    identifies the limiting resource; the prediction scales performance by
    the ratio of the *corresponding* roofs on the target, preserving the
    workload's relative efficiency under its bounding roof.
    """
    ai, gflops = _signature(influx, database, observation, source_pmu)
    bound = source_model.bounding_level(ai, gflops)
    if bound == "peak":
        src_roof = source_model.peak()
        dst_roof = target_model.peak()
    elif bound == "above_roofs":
        # Measured above every source roof (model mismatch); fall back to
        # the peak ratio, the most conservative scaling.
        src_roof = source_model.peak()
        dst_roof = target_model.peak()
    else:
        src_roof = source_model.attainable(ai, bound)
        dst_roof = target_model.attainable(ai, bound)
    efficiency = min(1.0, gflops / src_roof)
    target_gflops = efficiency * dst_roof
    observed = observation["time"]["runtime_s"]
    predicted = observed * gflops / target_gflops
    return Prediction(
        source_host=source_model.hostname,
        target_host=target_model.hostname,
        observed_runtime_s=observed,
        predicted_runtime_s=predicted,
        ai=ai,
        source_gflops=gflops,
        target_gflops=target_gflops,
        bound=bound,
    )


def suggest_upgrade(
    influx: InfluxDB,
    database: str,
    observation: dict,
    source_model: CarmModel,
    candidates: list[CarmModel],
    source_pmu: str,
) -> list[Prediction]:
    """Rank candidate architectures by projected speedup for a recorded
    workload — the paper's "suggesting hardware upgrades" use case."""
    if not candidates:
        raise ValueError("need at least one candidate architecture")
    preds = [
        predict_runtime(influx, database, observation, source_model, c, source_pmu)
        for c in candidates
    ]
    return sorted(preds, key=lambda p: p.predicted_runtime_s)
