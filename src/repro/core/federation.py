"""Resilient SUPERDB federation: the WAN leg of §III-E, made fault-tolerant.

``SuperDB.report`` used to write straight into its in-process DBs — no
retry, no sync bookkeeping, and a WAN that could never fail.  Real
federation crosses an unreliable link to "cloud instances of MongoDB and
InfluxDB", so every report now travels through a :class:`FederationLink`:

- a :class:`~repro.faults.services.ServiceFaultSet` *on the SUPERDB side*
  gates every upstream write, so WAN partitions, cloud outages and latency
  spikes are injectable independently of any local-host faults;
- failed pushes retry with the shipper's decorrelated-jitter backoff
  behind a circuit breaker (the shared :mod:`repro.pcp.retry` core),
  bounded by a virtual-time budget per observation;
- per-host ``sync_state`` documents record exactly which observations made
  it upstream, which are pending, and how stale the host's copy is;
- :meth:`FederationLink.anti_entropy` detects and repairs divergence after
  a partition — missing observation docs and raw-point gaps alike — so
  repeated syncs converge to the fault-free state.

Everything runs in virtual time with an explicit seeded RNG: a chaos
schedule replays bit-for-bit, and with no faults installed the link is a
zero-cost pass-through (identical end state to the direct write path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.faults.services import ServiceFaultSet
from repro.pcp.retry import CircuitBreaker, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.influx import InfluxDB

    from .superdb import SuperDB

__all__ = ["FederationLink", "SyncPending"]


class SyncPending(RuntimeError):
    """A sync left observations pending (retry budget exhausted)."""


class FederationLink:
    """Retrying, breaker-guarded transport between a local P-MoVE instance
    and SUPERDB, with per-host sync bookkeeping."""

    def __init__(
        self,
        superdb: "SuperDB",
        faults: ServiceFaultSet | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_open_s: float = 1.0,
        attempt_cost_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        if attempt_cost_s < 0:
            raise ValueError("attempt cost must be >= 0")
        self.superdb = superdb
        #: WAN-side faults; independent of any local-host ServiceFaultSet.
        self.faults = faults if faults is not None else ServiceFaultSet()
        self.retry = retry or RetryPolicy()
        self.breaker = CircuitBreaker(breaker_threshold, breaker_open_s)
        #: Virtual time each upstream round trip costs (0 = free WAN).
        self.attempt_cost_s = attempt_cost_s
        self._rng = np.random.default_rng(seed)
        #: The link's virtual clock; advanced by every attempt and sleep.
        self.now = 0.0

        # Observable counters.
        self.attempts = 0
        self.failed_attempts = 0
        self.synced_observations = 0
        self.pending_observations = 0
        self.repaired_observations = 0

    # ------------------------------------------------------------------
    # The retry loop (shared by report and anti-entropy)
    # ------------------------------------------------------------------
    def _with_retry(self, t: float, fn) -> tuple[bool, float]:
        """Run ``fn`` against the upstream DBs with retry/backoff/breaker.

        Returns (succeeded, virtual time afterwards).  The WAN fault set is
        consulted at each attempt's start instant; a fault there fails the
        whole round trip (both cloud DBs sit behind the same link).
        """
        deadline = t + self.retry.budget_s
        prev_sleep = 0.0
        attempts = 0
        while True:
            start = self.breaker.earliest_attempt(t)
            if start > deadline:
                return False, t
            self.breaker.on_attempt(start)
            t_done = start + self.attempt_cost_s
            attempts += 1
            self.attempts += 1
            if self.faults.write_error(start) is None:
                fn()
                self.breaker.record_success(t_done)
                return True, t_done
            self.failed_attempts += 1
            self.breaker.record_failure(t_done)
            if self.retry.exhausted(attempts):
                return False, t_done
            prev_sleep = self.retry.next_sleep(prev_sleep, self._rng)
            t = t_done + prev_sleep

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(
        self,
        kb,
        local_influx: "InfluxDB",
        local_database: str = "pmove",
        mode: str = "agg",
        at: float | None = None,
    ) -> dict[str, Any]:
        """Push a local instance's KB + observations upstream, resiliently.

        Observations sync one at a time (each its own retried round trip),
        so a mid-report WAN fault yields a *partial* sync — exactly what
        ``sync_state`` records and :meth:`anti_entropy` later repairs.
        """
        sdb = self.superdb
        t = self.now if at is None else at
        kb_ok, t = self._with_retry(t, lambda: sdb._upsert_kb(kb))
        n_obs = n_points = 0
        pending: list[str] = []
        observations = kb.entries_of_type("ObservationInterface")
        if not kb_ok:
            # The KB doc never landed: nothing downstream can be trusted
            # to resolve, so every observation stays pending.
            pending = [o["@id"] for o in observations]
            self.pending_observations += len(pending)
        else:
            for obs in observations:
                copied = 0

                def push(o=obs):
                    nonlocal copied
                    copied = sdb._push_observation(o, local_influx,
                                                   local_database, mode,
                                                   kb.hostname)

                ok, t = self._with_retry(t, push)
                if ok:
                    n_obs += 1
                    n_points += copied
                    self.synced_observations += 1
                else:
                    pending.append(obs["@id"])
                    self.pending_observations += 1
        self._save_sync_state(kb.hostname, t, mode, observations, pending,
                              kb_ok)
        self.now = t
        return {
            "observations": n_obs,
            "points": n_points,
            "pending": len(pending),
            "t": t,
        }

    # ------------------------------------------------------------------
    # Sync bookkeeping
    # ------------------------------------------------------------------
    def _save_sync_state(
        self,
        hostname: str,
        t: float,
        mode: str,
        observations: list[dict[str, Any]],
        pending: list[str],
        kb_ok: bool,
    ) -> None:
        """Record what the upstream copy of ``hostname`` looks like.

        Bookkeeping is local state about the remote side, so it is *not*
        gated by the WAN fault set — you always know what you failed to
        send."""
        unsent = set(pending)
        synced = [o["@id"] for o in observations if o["@id"] not in unsent]
        synced_end = max(
            (o["time"]["end"] for o in observations if o["@id"] not in unsent),
            default=None,
        )
        latest_end = max((o["time"]["end"] for o in observations), default=None)
        staleness = (
            latest_end - synced_end
            if latest_end is not None and synced_end is not None
            else None
        )
        doc = {
            "hostname": hostname,
            "mode": mode,
            "last_sync_t": t,
            "synced": synced,
            "pending": list(pending),
            "kb_synced": kb_ok,
            "complete": kb_ok and not pending,
            "last_synced_obs_end": synced_end,
            "staleness_s": staleness,
        }
        col = self.superdb.mongo.collection("superdb", "sync_state")
        col.replace_one({"hostname": hostname}, doc, upsert=True)

    def sync_status(self, hostname: str) -> dict[str, Any] | None:
        """The recorded sync state of one host (None = never reported)."""
        return self.superdb.mongo.collection("superdb", "sync_state").find_one(
            {"hostname": hostname}
        )

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def _diverged(
        self,
        obs: dict[str, Any],
        local_influx: "InfluxDB",
        local_database: str,
        mode: str,
    ) -> bool:
        """Whether the upstream copy of one observation is missing or has
        raw-point gaps (ts mode) relative to the local truth."""
        sdb = self.superdb
        # An existence test: counting clones nothing of the sketch-bearing doc.
        if not sdb.mongo.collection("superdb", "observations").count_documents(
            {"@id": obs["@id"] + ":" + mode}
        ):
            return True
        if mode != "ts":
            return False
        def n_values(influx: "InfluxDB", database: str, measurement: str) -> int:
            _, rows = influx.scan_columns(
                database, measurement, tags={"tag": obs["tag"]})
            return sum(len(col) - col.count(None) for col in rows.cols)

        return any(
            n_values(local_influx, local_database, m["measurement"])
            != n_values(sdb.influx, "superdb", m["measurement"])
            for m in obs["metrics"]
        )

    def anti_entropy(
        self,
        kb,
        local_influx: "InfluxDB",
        local_database: str = "pmove",
        mode: str = "agg",
        at: float | None = None,
    ) -> dict[str, Any]:
        """Detect and repair upstream divergence for one host.

        Compares every local observation against its SUPERDB copy (doc
        presence, and per-measurement raw point counts in ts mode) and
        re-pushes the diverged ones idempotently.  Each pass converges
        toward the fault-free state; a pass that repairs nothing proves
        convergence.
        """
        sdb = self.superdb
        t = self.now if at is None else at
        kb_ok, t = self._with_retry(t, lambda: sdb._upsert_kb(kb))
        observations = kb.entries_of_type("ObservationInterface")
        repaired = 0
        pending: list[str] = []
        checked = 0
        if not kb_ok:
            pending = [o["@id"] for o in observations]
        else:
            for obs in observations:
                checked += 1
                if not self._diverged(obs, local_influx, local_database, mode):
                    continue
                ok, t = self._with_retry(
                    t, lambda o=obs: sdb._push_observation(
                        o, local_influx, local_database, mode, kb.hostname
                    )
                )
                if ok:
                    repaired += 1
                    self.repaired_observations += 1
                else:
                    pending.append(obs["@id"])
        self._save_sync_state(kb.hostname, t, mode, observations, pending,
                              kb_ok)
        self.now = t
        return {
            "checked": checked,
            "repaired": repaired,
            "pending": len(pending),
            "t": t,
        }
