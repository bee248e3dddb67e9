"""Anomaly detection over telemetry series (§III-B).

"Employing a tree-structured KB enables fully automated performance
monitoring, anomaly detection and dashboards..."  This module provides the
detection half: stream detectors (rolling z-score and an EWMA control
chart), a scanner that runs them over every series an observation or a KB
component links to, and a KB-aware ranking that walks the focus-view path
to suggest the root-cause component — the §III-B navigation "from a
component perspective to a more generalized system perspective".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.db.influx import InfluxDB
from repro.db.influxql import ResultSet, execute
from repro.db.sketch import nearest_rank

from .kb import KnowledgeBase

__all__ = ["Anomaly", "rolling_zscore", "ewma_chart", "percentile_exceed",
           "scan_series", "scan_observation", "scan_component"]


@dataclass(frozen=True)
class Anomaly:
    """One flagged sample."""

    t: float
    value: float
    score: float
    detector: str
    series: str = ""

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("anomaly scores are non-negative")


def rolling_zscore(
    times: list[float],
    values: list[float],
    window: int = 12,
    threshold: float = 3.5,
    series: str = "",
) -> list[Anomaly]:
    """Flag samples more than ``threshold`` sigmas from the trailing window.

    The window excludes the sample under test; degenerate (constant)
    windows use a small floor variance so genuine level shifts still flag.
    """
    if window < 3:
        raise ValueError("window must be >= 3")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    out: list[Anomaly] = []
    for i in range(window, len(values)):
        hist = values[i - window : i]
        mean = sum(hist) / window
        var = sum((v - mean) ** 2 for v in hist) / window
        std = math.sqrt(var)
        floor = 1e-9 + 0.01 * abs(mean)
        score = abs(values[i] - mean) / max(std, floor)
        if score >= threshold:
            out.append(Anomaly(t=times[i], value=values[i], score=score,
                               detector="zscore", series=series))
    return out


def ewma_chart(
    times: list[float],
    values: list[float],
    alpha: float = 0.25,
    L: float = 3.0,
    warmup: int = 8,
    series: str = "",
) -> list[Anomaly]:
    """EWMA control chart: flag when the smoothed statistic escapes the
    +-L*sigma_ewma control limits estimated from the warmup samples."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if len(values) <= warmup:
        return []
    base = values[:warmup]
    mu = sum(base) / warmup
    sigma = math.sqrt(sum((v - mu) ** 2 for v in base) / warmup)
    sigma = max(sigma, 1e-9 + 0.01 * abs(mu))
    out: list[Anomaly] = []
    z = mu
    for i in range(warmup, len(values)):
        z = alpha * values[i] + (1 - alpha) * z
        # Steady-state EWMA sigma.
        sigma_z = sigma * math.sqrt(alpha / (2 - alpha))
        score = abs(z - mu) / sigma_z
        if score >= L:
            out.append(Anomaly(t=times[i], value=values[i], score=score / L,
                               detector="ewma", series=series))
    return out


def percentile_exceed(
    times: list[float],
    values: list[float],
    pct: float = 99.0,
    cutoff: float | None = None,
    series: str = "",
) -> list[Anomaly]:
    """Flag samples at or above the series' ``pct``-quantile cutoff.

    ``cutoff`` is normally supplied by :func:`scan_observation` from the
    engine's sketch-served quantile (O(tiers), not O(points)); standalone
    use computes the exact nearest-rank cutoff from the given values.
    The score is 1 at the cutoff and grows with the relative excess.
    """
    if not 50.0 <= pct < 100.0:
        raise ValueError("pct must be in [50, 100)")
    if cutoff is None:
        cutoff = nearest_rank(values, pct)
    if cutoff is None or cutoff != cutoff:
        return []
    denom = max(abs(cutoff), 1e-9)
    out: list[Anomaly] = []
    for t, v in zip(times, values):
        if v >= cutoff:
            out.append(Anomaly(t=t, value=v, score=1.0 + (v - cutoff) / denom,
                               detector="percentile", series=series))
    return out


_DETECTORS = {"zscore": rolling_zscore, "ewma": ewma_chart,
              "percentile": percentile_exceed}


def scan_series(
    times: list[float],
    values: list[float],
    detector: str = "zscore",
    series: str = "",
    **kw,
) -> list[Anomaly]:
    try:
        fn = _DETECTORS[detector]
    except KeyError:
        raise KeyError(f"unknown detector {detector!r}; known: {sorted(_DETECTORS)}") from None
    return fn(times, values, series=series, **kw)


def _to_rates(times: list[float], values: list[float]) -> tuple[list[float], list[float]]:
    """Window deltas -> per-second rates (what dashboards chart).

    Sampled counter deltas depend on each window's length (the closing
    fetch covers a longer tail window, §IV); normalizing to rates keeps the
    detectors focused on behaviour, not on sampling cadence.
    """
    rt, rv = [], []
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        if dt > 0:
            rt.append(times[i])
            rv.append(values[i] / dt)
    return rt, rv


def scan_observation(
    influx: InfluxDB,
    database: str,
    observation: dict,
    detector: str = "zscore",
    as_rates: bool = True,
    **kw,
) -> list[Anomaly]:
    """Run a detector over every series an observation recorded.

    The ``percentile`` detector's cutoff is fetched from the engine's
    sketch-served quantile path when the tested values are the stored ones
    (``as_rates=False``) — the scan itself stays O(points), but the cutoff
    costs O(tiers) and matches what a dashboard percentile panel shows.
    Rate-normalized values aren't stored, so with ``as_rates=True`` the
    cutoff falls back to the exact in-memory fold.
    """
    if observation.get("@type") != "ObservationInterface":
        raise ValueError("need an ObservationInterface entry")
    sketch_served = (
        detector == "percentile"
        and not as_rates
        and "cutoff" not in kw
    )
    out: list[Anomaly] = []
    for m in observation["metrics"]:
        # One columnar scan per measurement (no Point materialization),
        # then split per field; row order matches the Point scan.
        fields = list(m["fields"])
        scanned = ResultSet(*influx.scan_columns(
            database, m["measurement"], columns=fields,
            tags={"tag": observation["tag"]},
        ))
        cutoffs: dict[str, float | None] = {}
        if sketch_served:
            _, _, qs = influx.quantile_columns(
                database, m["measurement"], kw.get("pct", 99.0),
                columns=fields, tags={"tag": observation["tag"]},
            )
            cutoffs = dict(zip(fields, qs))
        for f in fields:
            times, values = scanned.series(f)
            if as_rates:
                times, values = _to_rates(times, values)
            extra = dict(kw)
            if sketch_served:
                extra["cutoff"] = cutoffs.get(f)
            out.extend(
                scan_series(times, values, detector=detector,
                            series=f"{m['measurement']}:{f}", **extra)
            )
    return sorted(out, key=lambda a: a.t)


def scan_component(
    kb: KnowledgeBase,
    influx: InfluxDB,
    database: str,
    dtmi: str,
    detector: str = "zscore",
    walk_to_root: bool = True,
    **kw,
) -> dict[str, list[Anomaly]]:
    """Scan a component's telemetry, optionally walking the focus-view path
    toward the root; returns {component dtmi: anomalies} for root-causing.

    This is §III-B's navigation: start where the symptom is, climb toward
    the system view, and see at which level the anomalies appear.
    """
    components = kb.path_to_root(dtmi) if walk_to_root else [kb.get(dtmi)]
    result: dict[str, list[Anomaly]] = {}
    for iface in components:
        found: list[Anomaly] = []
        for tel in iface.telemetry():
            times, values = execute(
                influx, database,
                f'SELECT "{tel.field_name}" FROM "{tel.db_name}"',
            ).series()
            found.extend(
                scan_series(times, values, detector=detector,
                            series=f"{tel.db_name}:{tel.field_name}", **kw)
            )
        result[iface.id] = found
    return result
