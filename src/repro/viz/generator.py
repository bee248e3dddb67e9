"""Dashboard generation from KB views (Fig 2: "Dashboards, automatically
generated by P-MoVE").

A :class:`~repro.core.views.ViewSpec` (focus/subtree/level) maps one-to-one
onto a Grafana dashboard: each panel spec becomes a panel, each
(measurement, field) target becomes a Listing-1 target against the Influx
datasource.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .dashboard import Dashboard, Panel, Target

if TYPE_CHECKING:  # pragma: no cover - viz↔core import cycle guard
    from repro.core.views import ViewSpec

__all__ = ["generate_dashboard"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "viz.generator": {
        None: ("generate_dashboard",),
    },
}

_dashboard_ids = itertools.count(1)


def generate_dashboard(
    view: ViewSpec,
    datasource_uid: str = "UUkm1881",
    time_from: str = "now-5m",
    dashboard_id: int | None = None,
) -> Dashboard:
    """Turn a KB view into a shareable dashboard document."""
    panels = []
    for i, spec in enumerate(view.panels, start=1):
        targets = []
        for t in spec.targets:
            if len(t) == 2:
                meas, fld = t
                targets.append(Target(measurement=meas, params=fld,
                                      datasource_uid=datasource_uid))
            else:
                meas, fld, tag, alias = t
                targets.append(Target(measurement=meas, params=fld, tag=tag,
                                      alias=alias, datasource_uid=datasource_uid))
        panels.append(Panel(id=i, title=spec.title, targets=targets))
    return Dashboard(
        id=dashboard_id if dashboard_id is not None else next(_dashboard_ids),
        title=view.name,
        panels=panels,
        time_from=time_from,
    )
