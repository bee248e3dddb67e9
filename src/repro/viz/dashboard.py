"""Grafana dashboard JSON model (Listing 1).

"In P-MoVE, each dashboard is only a simple JSON file... A dashboard can be
modified by the users and saved for the next sessions.  The corresponding
JSON file can be shared by multiple users."  The model here serializes to
exactly the Listing 1 shape — ``id``/``panels``/``targets`` with
``datasource {type, uid}``, ``measurement``, ``params``, and a ``time``
range — and parses it back, so dashboards really are shareable JSON
artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.db.aggregates import SPELLINGS

__all__ = ["Target", "Panel", "Dashboard", "DashboardError"]


class DashboardError(ValueError):
    """Malformed dashboard documents."""


@dataclass(frozen=True)
class Target:
    """One query target of a panel (Listing 1's targets entry).

    ``tag`` optionally pins the target to one observation's series (the
    WHERE tag=... scoping of Listing 3); process/observation-level views
    (Fig 2 c/d) use it to draw one line per execution.  ``agg`` and
    ``group_by_s`` opt a target into a downsampled view (``AGG("field")
    ... GROUP BY time(Ns)``) served from the engine's rollup tiers; both
    default off and are omitted from the JSON, so legacy documents stay
    byte-identical.  ``agg_arg`` carries a parameterized aggregate's
    argument — today the N of ``PERCENTILE("field", N)``, served from the
    rollup tiers' t-digests.  ``agg`` must be a function the aggregate table
    spells (:data:`~repro.db.aggregates.SPELLINGS`), and ``agg_arg`` an
    argument its record admits.
    """

    measurement: str
    params: str  # instance field, e.g. "_cpu0"
    datasource_uid: str = "UUkm1881"
    datasource_type: str = "influxdb"
    tag: str = ""
    alias: str = ""  # legend label override
    agg: str = ""  # "" = raw select; else MEAN/MAX/MIN/SUM/COUNT/...
    group_by_s: float = 0.0  # 0 = no GROUP BY time()
    agg_arg: float | None = None  # PERCENTILE(field, N)'s N

    def __post_init__(self) -> None:
        if not self.measurement:
            raise DashboardError("target needs a measurement")
        if not 0 <= self.group_by_s < math.inf:  # NaN fails it too
            raise DashboardError(
                f"group_by_s must be finite and >= 0, not {self.group_by_s!r}")
        if not self.agg:
            if self.agg_arg is not None:
                raise DashboardError("agg_arg needs an agg")
            return
        a, fixed = SPELLINGS.get((self.agg.upper(), False), (None, None))
        if a is None:
            raise DashboardError(f"no aggregate {self.agg!r} in the query table")
        if (fixed is not None and self.agg_arg is not None) or not a.admits(
                self.agg_arg if fixed is None else fixed):  # MEDIAN fixes its own
            raise DashboardError(f"{self.agg} does not take agg_arg={self.agg_arg!r}")

    def to_json(self) -> dict[str, Any]:
        doc = {
            "datasource": {"type": self.datasource_type, "uid": self.datasource_uid},
            "measurement": self.measurement,
            "params": self.params,
        }
        if self.tag:
            doc["tag"] = self.tag
        if self.alias:
            doc["alias"] = self.alias
        if self.agg:
            doc["agg"] = self.agg
        if self.group_by_s:
            doc["groupBySeconds"] = self.group_by_s
        if self.agg_arg is not None:
            doc["aggArg"] = self.agg_arg
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Target":
        try:
            ds = doc.get("datasource", {})
            return cls(
                measurement=doc["measurement"],
                params=doc.get("params", "_value"),
                datasource_uid=ds.get("uid", "UUkm1881"),
                datasource_type=ds.get("type", "influxdb"),
                tag=doc.get("tag", ""),
                alias=doc.get("alias", ""),
                agg=doc.get("agg", ""),
                group_by_s=float(doc.get("groupBySeconds", 0.0)),
                agg_arg=(float(doc["aggArg"]) if "aggArg" in doc else None),
            )
        except KeyError as e:
            raise DashboardError(f"target missing {e}") from None


@dataclass
class Panel:
    """One panel: a titled group of targets."""

    id: int
    title: str
    targets: list[Target]
    panel_type: str = "timeseries"
    #: (the targets, their labels) as :meth:`labels` last worked them out
    _labelled: tuple = field(default=((), ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.targets:
            raise DashboardError(f"panel {self.id} has no targets")

    def labels(self) -> list[str]:
        """One legend label per target: its alias, else the last 40
        characters of measurement + field.  Labels that collide — Fig 2 c/d
        draws one field once per execution — gain the target's tag, then
        its position, so that no series overwrites another.  Worked out
        once per state of ``targets``: a panel edited in place, or given
        new targets, is labelled again."""
        targets = tuple(self.targets)
        if self._labelled[0] != targets:  # one identity test per (frozen) target
            self._labelled = (targets, tuple(self._label(targets)))
        return list(self._labelled[1])

    @staticmethod
    def _label(targets: tuple[Target, ...]) -> list[str]:
        labels = [t.alias or f"{t.measurement}{t.params}"[-40:] for t in targets]
        if len(set(labels)) == len(labels):
            return labels
        for suffix in (lambda i: f" [{targets[i].tag}]" if targets[i].tag else "",
                       lambda i: f" #{i + 1}"):
            clash = {label for label in labels if labels.count(label) > 1}
            labels = [label + suffix(i) if label in clash else label
                      for i, label in enumerate(labels)]
        return labels

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "title": self.title,
            "type": self.panel_type,
            "targets": [t.to_json() for t in self.targets],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Panel":
        return cls(
            id=doc.get("id", 1),
            title=doc.get("title", ""),
            targets=[Target.from_json(t) for t in doc.get("targets", [])],
            panel_type=doc.get("type", "timeseries"),
        )


@dataclass
class Dashboard:
    """A complete dashboard document."""

    id: int
    title: str
    panels: list[Panel] = field(default_factory=list)
    time_from: str = "now-5m"
    time_to: str = "now"
    uid: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "uid": self.uid or f"dash{self.id}",
            "title": self.title,
            "panels": [p.to_json() for p in self.panels],
            "time": {"from": self.time_from, "to": self.time_to},
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Dashboard":
        if "panels" not in doc:
            raise DashboardError("dashboard document has no panels")
        return cls(
            id=doc.get("id", 1),
            uid=doc.get("uid", ""),
            title=doc.get("title", ""),
            panels=[Panel.from_json(p) for p in doc["panels"]],
            time_from=doc.get("time", {}).get("from", "now-5m"),
            time_to=doc.get("time", {}).get("to", "now"),
        )

    # ------------------------------------------------------------------
    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)

    @classmethod
    def loads(cls, text: str) -> "Dashboard":
        return cls.from_json(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Persist the shareable JSON file (Listing 1)."""
        p = Path(path)
        p.write_text(self.dumps())
        return p

    @classmethod
    def load(cls, path: str | Path) -> "Dashboard":
        return cls.loads(Path(path).read_text())

    def panel(self, panel_id: int) -> Panel:
        for p in self.panels:
            if p.id == panel_id:
                return p
        raise DashboardError(f"no panel {panel_id} in dashboard {self.id}")
