"""Synthetic multi-tenant dashboard load, shared by the CLI, the example,
and the serving benchmark.

The request mix models what a facility-scale deployment actually serves:

- **live refresh** — every tenant re-issues the shared "fleet overview"
  panels on a fixed tick with the window quantized to that tick.  The
  statements are identical across tenants and across consecutive ticks,
  which is exactly what makes the result cache and single-flight
  coalescing earn their keep;
- **backfill/export** — occasional wide, randomly-placed window scans
  (seeded rng), deliberately cache-hostile, submitted at BACKFILL
  priority;
- an optional **aggressor** tenant floods both classes with
  cache-busting (never-repeating) windows — the admission controller and
  per-tenant cache partitions are what keep it from hurting anyone else.

Everything is a pure function of the seed: the same schedule replays
bit-identically into any frontend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fuzz.rng import spawn
from repro.viz.dashboard import Panel

from .admission import Priority
from .frontend import ServingFrontend

__all__ = ["RequestSpec", "mixed_load", "replay"]


@dataclass(frozen=True)
class RequestSpec:
    """One scheduled request, frontend-agnostic (baselines replay it too)."""

    at: float
    tenant: str
    panel: Panel
    priority: Priority
    t0: float | None
    t1: float | None
    deadline_s: float | None


def mixed_load(
    tenant_names: list[str],
    panels: list[Panel],
    *,
    duration_s: float,
    span_s: float,
    live_period_s: float = 1.0,
    backfill_period_s: float = 4.0,
    window_s: float = 60.0,
    live_deadline_s: float | None = 2.0,
    backfill_deadline_s: float | None = None,
    seed: int = 0,
    aggressor: str | None = None,
    aggressor_live_factor: float = 20.0,
    aggressor_backfill_factor: float = 8.0,
) -> list[RequestSpec]:
    """Build the mixed live/backfill schedule for ``tenant_names``.

    ``span_s`` is the ingested data span (windows are clamped into it).
    The aggressor, if named, multiplies both of its request rates and
    busts caches with per-request unique windows.
    """
    if not tenant_names or not panels:
        raise ValueError("need at least one tenant and one panel")
    rng = spawn(seed, "serve.load.mixed_load")
    specs: list[RequestSpec] = []

    for tenant in sorted(tenant_names):
        hostile = tenant == aggressor
        live_period = live_period_s / (aggressor_live_factor if hostile else 1.0)
        backfill_period = backfill_period_s / (
            aggressor_backfill_factor if hostile else 1.0
        )

        # Live refresh: shared tick grid → identical statements across
        # tenants (coalescing) and across ticks (cache hits).
        n_live = int(duration_s / live_period)
        for k in range(1, n_live + 1):
            at = k * live_period
            if at >= duration_s:
                break
            panel = panels[k % len(panels)]
            if hostile:
                # Cache-busting: a fresh, never-repeating window each time.
                t1 = float(rng.uniform(window_s, span_s))
                t0 = max(0.0, t1 - float(rng.uniform(0.5, 1.0) * window_s))
            else:
                t1 = min(span_s, live_period_s * np.floor(at / live_period_s))
                t0 = max(0.0, t1 - window_s)
            specs.append(
                RequestSpec(at, tenant, panel, Priority.LIVE, t0, t1, live_deadline_s)
            )

        # Backfill: wide random scans, cache-hostile by construction.
        n_backfill = int(duration_s / backfill_period)
        for _ in range(n_backfill):
            at = float(rng.uniform(0.0, duration_s))
            panel = panels[int(rng.integers(0, len(panels)))]
            t0 = float(rng.uniform(0.0, span_s * 0.5))
            t1 = min(span_s, t0 + float(rng.uniform(0.25, 0.5) * span_s))
            specs.append(
                RequestSpec(
                    at, tenant, panel, Priority.BACKFILL, t0, t1, backfill_deadline_s
                )
            )

    # Stable global order: by arrival time, tenant, class — the rng draws
    # above already fixed everything else.
    specs.sort(key=lambda s: (s.at, s.tenant, s.priority))
    return specs


def replay(frontend: ServingFrontend, specs: list[RequestSpec]) -> list[int]:
    """Submit a schedule into a frontend; returns the rids in order."""
    return [
        frontend.submit(
            spec.tenant,
            spec.panel,
            at=spec.at,
            priority=spec.priority,
            t0=spec.t0,
            t1=spec.t1,
            deadline_s=spec.deadline_s,
        )
        for spec in specs
    ]
