"""Host–target telemetry transport and DB-insert timing model.

"The sampled metrics are reported over a network, which presents another
bottleneck to database throughput" (§V-A), and PCP has "no buffer or queue
mechanism to keep data points until their insertion into the DB".  This
model computes, per report, the wall time the pipeline is busy (serialize +
network + InfluxDB insert); the sampler uses it to decide which ticks are
lost.  It also models the perfevent snapshot floor: when the sampling period
drops below the agent's refresh interval, whole reports arrive as batched
zeros (§V-A's observed behaviour at 32 Hz).

Defaults are calibrated to the paper's testbed: 100 Mbit host link, a
single-node InfluxDB 1.8 on spinning-adjacent storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TransportModel"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pcp.transport": {
        "TransportModel": (
            "ship_time", "mean_ship_time", "zero_batch_probability",
            "hiccup_rate"),
    },
}

_BYTES_PER_POINT = 42  # field name + float + separators in line protocol


@dataclass
class TransportModel:
    """Timing model for one report's journey into the host DB."""

    net_bw_mbit: float = 100.0
    net_latency_s: float = 400e-6
    insert_base_s: float = 0.012
    insert_per_point_s: float = 45e-6
    jitter_rel_std: float = 0.14
    #: Period below which perfevent snapshots start returning zero batches.
    zero_floor_s: float = 0.047
    #: Max per-run rate of sporadic fetch hiccups (uniformly drawn per run).
    hiccup_rate_max: float = 0.04

    def __post_init__(self) -> None:
        # So spelled, a NaN is refused too: it would make every ship time,
        # and every durable apply time after it, NaN.
        if not (self.net_bw_mbit > 0 and self.zero_floor_s > 0):
            raise ValueError("network bandwidth and zero floor must be positive")
        for name in ("net_latency_s", "insert_base_s", "insert_per_point_s",
                     "jitter_rel_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 <= self.hiccup_rate_max <= 1.0:
            raise ValueError("hiccup rate must be in [0, 1]")

    # ------------------------------------------------------------------
    def report_bytes(self, n_points: int) -> int:
        return 120 + _BYTES_PER_POINT * n_points

    def mean_ship_time(self, n_points: int) -> float:
        """Expected busy time for one report of ``n_points`` values."""
        net = self.net_latency_s + self.report_bytes(n_points) * 8 / (self.net_bw_mbit * 1e6)
        insert = self.insert_base_s + self.insert_per_point_s * n_points
        return net + insert

    def ship_time(
        self,
        n_points: int,
        rng: np.random.Generator,
        at: float | None = None,
        faults: "object | None" = None,
    ) -> float:
        """One sampled busy time (lognormal jitter around the mean).

        With ``at``/``faults`` (a :class:`repro.faults.services.ServiceFaultSet`),
        active insert-latency spikes dilate the DB-insert share of the time —
        the network share is unaffected, matching a compaction-stalled DB.
        """
        if n_points < 0:
            raise ValueError("negative point count")
        mean = self.mean_ship_time(n_points)
        if faults is not None and at is not None:
            factor = faults.latency_factor(at)
            if factor != 1.0:
                insert = self.insert_base_s + self.insert_per_point_s * n_points
                mean += insert * (factor - 1.0)
        return mean * float(np.exp(rng.normal(0.0, self.jitter_rel_std)))

    def zero_batch_probability(self, period_s: float) -> float:
        """Probability one delivered report is a zero batch at this period."""
        if period_s <= 0:
            raise ValueError("period must be positive")
        return float(np.clip(1.0 - period_s / self.zero_floor_s, 0.0, 0.6))

    def hiccup_rate(self, rng: np.random.Generator) -> float:
        """Per-run sporadic tick-loss rate (pmcd scheduling hiccups)."""
        return float(rng.uniform(0.0, self.hiccup_rate_max))
