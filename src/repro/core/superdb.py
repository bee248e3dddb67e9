"""SUPERDB: the global performance database (§III-E).

"For long-term data management, P-MoVE operates a global performance
database, SUPERDB ... cloud instances of MongoDB and InfluxDB", accumulating
metrics and KBs from many systems for architectural research and ML
training.  Observations are promoted into one of two forms:

- ``TSObservationInterface`` — the raw time series are copied up;
- ``AGGObservationInterface`` — "statistically summarizes data using
  various aggregations, e.g., min, max, mean, to manage high data volumes".

Reports travel over a :class:`~repro.core.federation.FederationLink`: the
WAN between a local instance and the cloud can partition, so pushes retry
with backoff behind a circuit breaker, per-host sync state is recorded, and
:meth:`SuperDB.anti_entropy` repairs any divergence the link's retry budget
could not hide.  Re-reports are idempotent in both modes — a raw-series
re-push drops the observation's upstream series before copying, so syncing
twice never duplicates points.

Users *with* a local P-MoVE instance can recall and visualize; without one,
they "can only download selected data for ML training" (:meth:`download`).
"""

from __future__ import annotations

import math
from typing import Any

from repro.db.influx import InfluxDB
from repro.db.influxql import ResultSet
from repro.db.mongo import MongoDB
from repro.db.sharded import ShardedInfluxDB
from repro.db.sketch import DEFAULT_SKETCH, HyperLogLog, TDigest
from repro.faults.services import ServiceFaultSet
from repro.pcp.retry import RetryPolicy

from .federation import FederationLink

__all__ = ["SuperDB"]

_AGGS = ("min", "max", "mean", "count")


def _aggregate(values: list[float]) -> dict[str, float]:
    if not values:
        return {"min": math.nan, "max": math.nan, "mean": math.nan, "count": 0}
    return {
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "count": float(len(values)),
    }


def _finite_agg(agg: dict[str, float]) -> bool:
    """Whether an aggregate is usable for cross-system math.

    All-NaN series can yield aggregates whose count is nonzero but whose
    min/max/mean are NaN (or inf, if a sensor glitched); folding those into
    a running min/max seeded at ±inf leaks non-finite values into every
    host's comparison row."""
    return all(math.isfinite(agg[k]) for k in ("min", "max", "mean"))


class SuperDB:
    """Cloud-side aggregation of many local P-MoVE instances."""

    def __init__(
        self,
        faults: ServiceFaultSet | None = None,
        retry: RetryPolicy | None = None,
        attempt_cost_s: float = 0.0,
        seed: int = 0,
        shards: int = 0,
    ) -> None:
        self.mongo = MongoDB()
        # SUPERDB accumulates series from *many* hosts, so its Influx side
        # is the natural place to shard; ``shards >= 2`` swaps the single
        # engine for the consistent-hash router (identical query results).
        self.influx: InfluxDB | ShardedInfluxDB = (
            ShardedInfluxDB(shards) if shards >= 2 else InfluxDB()
        )
        self.influx.create_database("superdb")
        # Secondary indexes on the global-query access paths: every lookup
        # below filters on one of these, and SUPERDB accumulates docs from
        # many hosts, so linear scans are the first thing to go at scale.
        obs = self.mongo.collection("superdb", "observations")
        obs.create_index("@id")
        obs.create_index("hostname")
        obs.create_index("@type")
        self.mongo.collection("superdb", "kbs").create_index("hostname")
        self.mongo.collection("superdb", "sync_state").create_index("hostname")
        #: WAN leg between local instances and the cloud DBs.
        self.link = FederationLink(
            self,
            faults=faults,
            retry=retry,
            attempt_cost_s=attempt_cost_s,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Reporting (user opt-in, §III-E)
    # ------------------------------------------------------------------
    def report(
        self,
        kb,
        local_influx: InfluxDB,
        local_database: str = "pmove",
        mode: str = "agg",
        at: float | None = None,
    ) -> dict[str, int]:
        """Push a local instance's KB + observation telemetry upstream.

        ``mode='ts'`` copies raw series (TSObservationInterface);
        ``mode='agg'`` stores per-field aggregates (AGGObservationInterface).
        The push rides the federation link: under WAN faults it retries
        within the link's budget, and whatever stays pending is recorded in
        sync state (see :meth:`sync_status` / :meth:`anti_entropy`).
        """
        if mode not in ("ts", "agg"):
            raise ValueError("mode must be 'ts' or 'agg'")
        return self.link.report(kb, local_influx, local_database, mode, at=at)

    def anti_entropy(
        self,
        kb,
        local_influx: InfluxDB,
        local_database: str = "pmove",
        mode: str = "agg",
        at: float | None = None,
    ) -> dict[str, Any]:
        """Repair upstream divergence for one host (see the link docs)."""
        if mode not in ("ts", "agg"):
            raise ValueError("mode must be 'ts' or 'agg'")
        return self.link.anti_entropy(kb, local_influx, local_database, mode,
                                      at=at)

    def sync_status(self, hostname: str) -> dict[str, Any] | None:
        """Recorded sync state for one host (None = never reported)."""
        return self.link.sync_status(hostname)

    # ------------------------------------------------------------------
    # Upstream writes (called by the federation link per round trip)
    # ------------------------------------------------------------------
    def _upsert_kb(self, kb) -> None:
        kbs = self.mongo.collection("superdb", "kbs")
        kbs.replace_one({"hostname": kb.hostname}, kb.to_jsonld(), upsert=True)

    def _push_observation(
        self,
        obs: dict[str, Any],
        local_influx: InfluxDB,
        local_database: str,
        mode: str,
        hostname: str,
    ) -> int:
        """Upsert one observation upstream; returns raw points copied.

        Idempotent: the Mongo doc is a replace_one upsert, and in ts mode
        the observation's upstream series (keyed by its unique tag) are
        dropped before re-copying, so a re-sync after a partial push never
        duplicates raw points.
        """
        doc: dict[str, Any] = {
            "@type": "TSObservationInterface" if mode == "ts" else "AGGObservationInterface",
            "@id": obs["@id"] + ":" + mode,
            "hostname": hostname,
            "source": obs["@id"],
            "tag": obs["tag"],
            "command": obs["command"],
            "affinity": obs["affinity"],
            "time": obs["time"],
        }
        copied = 0
        if mode == "ts":
            for m in obs["metrics"]:
                pts = local_influx.points(
                    local_database, m["measurement"], tags={"tag": obs["tag"]}
                )
                self.influx.delete_series(
                    "superdb", m["measurement"], tags={"tag": obs["tag"]}
                )
                self.influx.write_many("superdb", pts)
                copied += sum(len(p.fields) for p in pts)
            doc["points_copied"] = copied
        else:
            aggregates: dict[str, dict[str, dict[str, float]]] = {}
            sketches: dict[str, dict[str, dict[str, Any]]] = {}
            for m in obs["metrics"]:
                # One columnar scan per measurement; per-field value lists
                # come out of the column arrays, no Point materialization.
                fields = list(m["fields"])
                scanned = ResultSet(*local_influx.scan_columns(
                    local_database, m["measurement"], columns=fields,
                    tags={"tag": obs["tag"]},
                ))
                per_field: dict[str, dict[str, float]] = {}
                per_sketch: dict[str, dict[str, Any]] = {}
                for f in fields:
                    _, vals = scanned.series(f)
                    per_field[f] = _aggregate(vals)
                    copied += len(vals)
                    # Mergeable sketches travel beside the scalar summary:
                    # SUPERDB can answer global percentile / cardinality
                    # questions without ever pulling raw points back.  The
                    # HLL of a profile's few values ships sparse: bytes, not KB.
                    dg = TDigest(DEFAULT_SKETCH.compression)
                    dg.add_many(vals)
                    hll = HyperLogLog(DEFAULT_SKETCH.hll_p)
                    for v in vals:
                        hll.add(v)
                    per_sketch[f] = {
                        "digest": dg.to_dict(), "hll": hll.to_dict()
                    }
                aggregates[m["measurement"]] = per_field
                sketches[m["measurement"]] = per_sketch
            doc["aggregates"] = aggregates
            doc["sketches"] = sketches
        self.mongo.collection("superdb", "observations").replace_one(
            {"@id": doc["@id"]}, doc, upsert=True
        )
        return copied

    # ------------------------------------------------------------------
    # Global queries
    # ------------------------------------------------------------------
    def systems(self) -> list[str]:
        return sorted(self.mongo.collection("superdb", "kbs").distinct("hostname"))

    def observations(self, hostname: str | None = None) -> list[dict[str, Any]]:
        flt = {"hostname": hostname} if hostname else {}
        return self.mongo.collection("superdb", "observations").find(flt)

    def kb_document(self, hostname: str) -> dict[str, Any]:
        doc = self.mongo.collection("superdb", "kbs").find_one({"hostname": hostname})
        if doc is None:
            raise KeyError(f"SUPERDB has no KB for {hostname!r}")
        return doc

    def download(self, hostname: str, command_filter: str | None = None) -> list[dict[str, Any]]:
        """The no-local-instance access path: raw documents for ML training,
        no dashboards, no recall."""
        flt: dict[str, Any] = {"hostname": hostname}
        if command_filter:
            flt["command"] = {"$regex": command_filter}
        return self.mongo.collection("superdb", "observations").find(flt)

    def compare_metric(self, measurement: str, field: str) -> dict[str, dict[str, float]]:
        """Cross-system aggregate comparison for one metric — the global
        view that motivates SUPERDB.

        Non-finite aggregates (all-NaN fields, sensor glitches) are skipped
        so one bad series cannot poison a host's row.  A host whose last
        sync left observations pending is flagged ``partial: True`` — its
        numbers are real but may not cover everything the host measured.

        Observations reported with serialized sketches additionally yield
        true cross-observation percentiles (``p50``/``p95``/``p99``, from a
        register-exact t-digest merge — not a mean of per-observation
        percentiles) and an HLL cardinality estimate
        (``distinct_estimate``); hosts synced before the sketch era simply
        lack those keys.
        """
        out: dict[str, dict[str, float]] = {}
        digests: dict[str, list[TDigest]] = {}
        hlls: dict[str, list[HyperLogLog]] = {}
        # One field of documents that carry every field's sketches: project
        # it.  Key tuples, because a measurement name may contain ".".
        for doc in self.mongo.collection("superdb", "observations").find(
            {"@type": "AGGObservationInterface"},
            projection=[
                "hostname",
                ("aggregates", measurement, field),
                ("sketches", measurement, field),
            ],
        ):
            agg = doc.get("aggregates", {}).get(measurement, {}).get(field)
            if not agg or not agg.get("count") or not _finite_agg(agg):
                continue
            host = doc["hostname"]
            cur = out.setdefault(host, {"min": math.inf, "max": -math.inf, "mean": 0.0, "count": 0.0})
            cur["min"] = min(cur["min"], agg["min"])
            cur["max"] = max(cur["max"], agg["max"])
            total = cur["count"] + agg["count"]
            cur["mean"] = (cur["mean"] * cur["count"] + agg["mean"] * agg["count"]) / total
            cur["count"] = total
            sk = doc.get("sketches", {}).get(measurement, {}).get(field)
            if sk:
                if "digest" in sk:
                    digests.setdefault(host, []).append(
                        TDigest.from_dict(sk["digest"])
                    )
                if "hll" in sk:
                    hlls.setdefault(host, []).append(
                        HyperLogLog.from_dict(sk["hll"])
                    )
        for host, cur in out.items():
            ds = digests.get(host)
            if ds:
                merged = ds[0] if len(ds) == 1 else TDigest.merged(ds)
                for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                    v = merged.quantile(q)
                    if v is not None:
                        cur[label] = v
            hs = hlls.get(host)
            if hs:
                cur["distinct_estimate"] = float(
                    round(HyperLogLog.merged(hs).count()))
            state = self.sync_status(host)
            cur["partial"] = bool(state is not None and not state.get("complete", True))
        return out
