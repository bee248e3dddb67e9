"""The bounded virtual-time executor: slots, fairness, aging, deadlines,
single-flight coalescing, and bit-determinism.

These tests drive :class:`BoundedExecutor` directly with a synthetic
``execute`` callback (fixed modeled service time) — no Grafana, no
engines — so each scheduling property is isolated.
"""

import numpy as np
import pytest

from repro.serve import BoundedExecutor, Priority, QueryRequest


def _req(rid, tenant="a", key=None, submit_t=0.0, priority=Priority.LIVE,
         deadline_s=None):
    return QueryRequest(
        rid=rid, tenant=tenant, panel=None,
        statements=(key if key is not None else f"S{rid}",),
        submit_t=submit_t, priority=priority, deadline_s=deadline_s,
    )


def _admit_all(request, t):
    return True


def _mk(n_workers=1, service_s=1.0, **kw):
    def execute(request, t):
        return f"result-{request.rid}", 10, service_s
    return BoundedExecutor(n_workers, execute=execute, **kw)


def _by_rid(ex):
    return {r.rid: r for r in ex.records}


class TestBoundedConcurrency:
    def test_one_worker_serializes(self):
        ex = _mk(n_workers=1, service_s=1.0)
        for rid in range(4):
            ex.schedule_arrival(_req(rid), _admit_all)
        assert ex.drain() == 4.0
        assert sorted(r.finish_t for r in ex.records) == [1.0, 2.0, 3.0, 4.0]

    def test_n_workers_run_n_at_once(self):
        ex = _mk(n_workers=4, service_s=1.0)
        for rid in range(4):
            ex.schedule_arrival(_req(rid), _admit_all)
        assert ex.drain() == 1.0
        assert all(r.start_t == 0.0 for r in ex.records)

    def test_never_more_than_n_overlapping(self):
        ex = _mk(n_workers=3, service_s=2.0)
        for rid in range(10):
            ex.schedule_arrival(_req(rid, submit_t=0.1 * rid), _admit_all)
        ex.drain()
        # At any instant, count executions whose [start, finish) covers it.
        for probe in np.arange(0.0, 10.0, 0.05):
            live = sum(1 for r in ex.records if r.start_t <= probe < r.finish_t)
            assert live <= 3

    def test_rejected_arrivals_never_queue(self):
        ex = _mk()
        ex.schedule_arrival(_req(0), lambda r, t: False)
        ex.schedule_arrival(_req(1), _admit_all)
        ex.drain()
        assert [r.rid for r in ex.records] == [1]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            _mk(n_workers=0)
        with pytest.raises(ValueError):
            _mk(aging_s=0.0)


class TestWeightedFairness:
    def test_equal_weights_alternate(self):
        ex = _mk(n_workers=1, service_s=1.0)
        for rid in range(8):
            ex.schedule_arrival(_req(rid, tenant="a" if rid < 4 else "b"), _admit_all)
        ex.drain()
        assert [r.tenant for r in ex.records] == ["a", "b"] * 4

    def test_double_weight_drains_twice_as_fast(self):
        ex = _mk(n_workers=1, service_s=1.0, weights={"a": 2.0, "b": 1.0})
        for rid in range(12):
            ex.schedule_arrival(_req(rid, tenant="a" if rid < 6 else "b"), _admit_all)
        ex.drain()
        first9 = [r.tenant for r in ex.records[:9]]
        assert first9.count("a") == 6 and first9.count("b") == 3

    def test_set_weight_reaches_an_existing_queue(self):
        ex = _mk(n_workers=1, service_s=1.0)
        for rid in range(12):
            ex.schedule_arrival(_req(rid, tenant="a" if rid < 6 else "b"), _admit_all)
        ex.run(until=0.5)
        ex.set_weight("a", 2.0)
        ex.drain()
        first9 = [r.tenant for r in ex.records[:9]]
        assert first9.count("a") == 6 and first9.count("b") == 3
        with pytest.raises(ValueError):
            ex.set_weight("a", 0.0)

    def test_idle_wake_inherits_stride_clock(self):
        """A tenant waking from idle must not replay its idle period as a
        burst: its pass is bumped to the global virtual time."""
        ex = _mk(n_workers=1, service_s=1.0)
        for rid in range(5):
            ex.schedule_arrival(_req(rid, tenant="a"), _admit_all)
        ex.run(until=3.5)  # tenant a has accumulated pass while b slept
        ex.schedule_arrival(_req(10, tenant="b", submit_t=3.5), _admit_all)
        ex.run(until=3.6)
        assert ex._queues["b"].vpass == ex._vtime
        # b gets the next slot (smaller name at equal pass), then service
        # alternates instead of b monopolizing the worker.
        ex.schedule_arrival(_req(11, tenant="b", submit_t=3.6), _admit_all)
        ex.drain()
        tail = [r.tenant for r in ex.records[3:]]
        assert tail.count("b") == 2 and tail != ["b", "b", "a", "a"]


class TestPriorities:
    def test_live_dispatches_before_backfill(self):
        ex = _mk(n_workers=1, service_s=1.0)
        ex.schedule_arrival(_req(0, priority=Priority.BACKFILL), _admit_all)
        ex.schedule_arrival(_req(1, priority=Priority.LIVE), _admit_all)
        ex.drain()
        assert [r.rid for r in ex.records] == [1, 0]

    def test_aged_backfill_beats_younger_live(self):
        """A steady live stream cannot starve backfill past ``aging_s`` —
        even inside the same tenant."""
        ex = _mk(n_workers=1, service_s=0.5, aging_s=1.0)
        ex.schedule_arrival(_req(0, priority=Priority.BACKFILL), _admit_all)
        for k in range(10):
            ex.schedule_arrival(
                _req(1 + k, submit_t=0.4 * k, priority=Priority.LIVE), _admit_all
            )
        ex.drain()
        backfill = _by_rid(ex)[0]
        assert backfill.start_t <= 1.5  # served right after crossing aging_s
        assert ex.records[-1].priority is Priority.LIVE  # live kept flowing

    def test_cross_tenant_aging_promotes_class(self):
        """An all-backfill tenant competes in the live class once aged,
        beating a live tenant with a larger stride pass."""
        ex = _mk(n_workers=1, service_s=1.0, aging_s=2.0)
        ex.schedule_arrival(_req(0, tenant="bulk", priority=Priority.BACKFILL),
                            _admit_all)
        for k in range(6):
            ex.schedule_arrival(
                _req(1 + k, tenant="ui", submit_t=0.5 * k, priority=Priority.LIVE),
                _admit_all,
            )
        ex.drain()
        assert _by_rid(ex)[0].start_t <= 3.0


class TestDeadlines:
    def test_overdue_request_cancelled_without_a_slot(self):
        ex = _mk(n_workers=1, service_s=2.0)
        ex.schedule_arrival(_req(0), _admit_all)
        ex.schedule_arrival(_req(1, deadline_s=0.5), _admit_all)
        ex.drain()
        rec = _by_rid(ex)[1]
        assert rec.status == "timeout"
        assert ex.timeouts == 1 and ex.executed == 1
        assert ex.makespan() == 2.0  # the cancel consumed no service time

    def test_within_deadline_executes(self):
        ex = _mk(n_workers=1, service_s=0.1)
        ex.schedule_arrival(_req(0, deadline_s=5.0), _admit_all)
        ex.drain()
        assert _by_rid(ex)[0].status == "done"
        assert ex.timeouts == 0


class TestCoalescing:
    def test_identical_inflight_key_rides_the_leader(self):
        ex = _mk(n_workers=2, service_s=1.0)
        ex.schedule_arrival(_req(0, key="SAME"), _admit_all)
        ex.schedule_arrival(_req(1, key="SAME", submit_t=0.25), _admit_all)
        ex.drain()
        recs = _by_rid(ex)
        assert recs[0].status == "done" and recs[1].status == "coalesced"
        assert recs[1].finish_t == recs[0].finish_t  # leader's completion
        assert recs[1].points == recs[0].points
        assert ex.executed == 1 and ex.coalesced == 1

    def test_finished_flight_does_not_coalesce(self):
        """Coalescing is single-flight, not a cache: a request arriving
        after the leader finished re-executes (the result could be stale)."""
        ex = _mk(n_workers=1, service_s=1.0)
        ex.schedule_arrival(_req(0, key="SAME"), _admit_all)
        ex.schedule_arrival(_req(1, key="SAME", submit_t=5.0), _admit_all)
        ex.drain()
        assert ex.executed == 2 and ex.coalesced == 0

    def test_coalesce_off_executes_everything(self):
        ex = _mk(n_workers=2, service_s=1.0, coalesce=False)
        ex.schedule_arrival(_req(0, key="SAME"), _admit_all)
        ex.schedule_arrival(_req(1, key="SAME", submit_t=0.25), _admit_all)
        ex.drain()
        assert ex.executed == 2 and ex.coalesced == 0

    def test_distinct_keys_never_coalesce(self):
        ex = _mk(n_workers=2, service_s=1.0)
        ex.schedule_arrival(_req(0, key="A"), _admit_all)
        ex.schedule_arrival(_req(1, key="B", submit_t=0.25), _admit_all)
        ex.drain()
        assert ex.executed == 2 and ex.coalesced == 0


class TestDeterminism:
    def _run_once(self, seed):
        rng = np.random.default_rng(seed)
        ex = _mk(n_workers=3, service_s=0.0)  # service drawn per request below

        def execute(request, t):
            # Deterministic per-rid service time (not rng: order-free).
            return None, request.rid, 0.1 + 0.01 * (request.rid % 7)

        ex.execute = execute
        for rid in range(40):
            ex.schedule_arrival(
                _req(
                    rid,
                    tenant=f"t{rid % 4}",
                    key=f"K{rid % 9}",
                    submit_t=float(rng.uniform(0.0, 4.0)),
                    priority=Priority.LIVE if rid % 3 else Priority.BACKFILL,
                    deadline_s=2.0 if rid % 5 == 0 else None,
                ),
                _admit_all,
            )
        ex.drain()
        return [
            (r.rid, r.tenant, r.status, r.start_t, r.finish_t) for r in ex.records
        ]

    def test_same_seed_same_schedule_bit_identical(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_differs(self):
        assert self._run_once(7) != self._run_once(8)


class TestStats:
    def test_stats_shape(self):
        ex = _mk(n_workers=2, service_s=0.5)
        for rid in range(3):
            ex.schedule_arrival(_req(rid, tenant="a"), _admit_all)
        ex.drain()
        s = ex.stats()
        assert s["executed"] == 3 and s["queued"] == 0
        assert s["pending_arrivals"] == 0
        assert s["max_queue_depth"]["a"] >= 1

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_running_counts_equal_the_full_scans(self, coalesce):
        """The queued count and the in-flight expiry are kept per event,
        not recomputed: after every event they say what a scan of every
        lane and every in-flight run would."""
        rng = np.random.default_rng(3)
        service = {rid: float(rng.choice([0.0, 0.25, 0.5])) for rid in range(120)}
        ex = BoundedExecutor(
            3, execute=lambda request, t: (None, 1, service[request.rid]),
            coalesce=coalesce)
        for rid in range(120):
            ex.schedule_arrival(
                _req(rid, tenant=f"t{rid % 5}", key=f"K{rng.integers(4)}",
                     submit_t=float(rng.integers(0, 12)) / 4,
                     priority=Priority.LIVE if rid % 3 else Priority.BACKFILL,
                     deadline_s=0.5 if rid % 7 == 0 else None),
                _admit_all)
        seen = 0
        while ex._step(float("inf")):
            assert ex.total_queued() == sum(len(q) for q in ex._queues.values())
            dispatched = len(ex.records) > seen
            seen = len(ex.records)
            for key, (finish_t, _, record) in ex._inflight.items():
                assert (finish_t, record.rid, key) in ex._finishing
                # the scan at this dispatch left only what was still running
                # (or was started by it)
                assert not dispatched or finish_t > ex.now or record.start_t == ex.now
        assert ex.stats()["queued"] == 0 and seen == 120
        assert ex.coalesced > 0 if coalesce else ex.executed + ex.timeouts == 120
