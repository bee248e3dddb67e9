"""The dashboard result cache never serves stale rows.

``GrafanaServer.execute_panel`` caches each target's result under the
measurement's freshness stamps: a window that ended below the frontier is
*sealed* and outlives in-order appends; every other window is *open*, and
its target holds one answer that its successor overwrites (and, for a raw
window sliding forward, extends).  The invariant under test: a refresh after
*any* engine mutation (write, series drop, retention trim, shard move)
returns exactly what an uncached server would return — the cache may only
ever change how fast an answer arrives, never the answer.
"""

import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.faulty import FaultyInfluxDB
from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.influxql import naive_execute
from repro.db.sharded import ShardedInfluxDB
from repro.faults import NodeCrash
from repro.viz.dashboard import Dashboard, Panel, Target
from repro.viz.grafana import GrafanaServer


def _mk(n=50, tiers=(10.0, 60.0)):
    influx = InfluxDB(rollup_tiers=tiers)
    influx.create_database("pmove")
    influx.write_many(
        "pmove",
        [Point("cpu", {"tag": "t1"}, {"_cpu0": float(i)}, float(i)) for i in range(n)],
    )
    server = GrafanaServer(influx)
    panel = Panel(id=1, title="cpu", targets=[Target("cpu", "_cpu0", tag="t1")])
    return influx, server, panel


class TestCacheHits:
    def test_repeat_refresh_is_a_hit_with_identical_result(self):
        _, server, panel = _mk()
        first = server.execute_panel(panel, t0=0.0, t1=100.0)
        assert server.cache_misses == 1 and server.cache_hits == 0
        second = server.execute_panel(panel, t0=0.0, t1=100.0)
        assert server.cache_hits == 1
        assert second == first

    def test_different_time_range_is_a_different_key(self):
        _, server, panel = _mk()
        server.execute_panel(panel, t0=0.0, t1=100.0)
        server.execute_panel(panel, t0=0.0, t1=50.0)
        assert server.cache_misses == 2

    def test_served_lists_are_copies(self):
        """A caller mutating the returned series must not corrupt the cache."""
        _, server, panel = _mk()
        first = server.execute_panel(panel)
        next(iter(first.values()))[1].append(1e9)
        second = server.execute_panel(panel)
        assert server.cache_hits == 1
        assert 1e9 not in next(iter(second.values()))[1]

    def test_lru_bound_holds(self):
        influx, server, _ = _mk()
        server.cache_size = 4
        for i in range(10):
            p = Panel(id=1, title="p", targets=[Target("cpu", "_cpu0", tag="t1")])
            server.execute_panel(p, t0=float(i))
        assert len(server._cache) <= 4


class TestInvalidation:
    def test_write_between_refreshes_recomputes(self):
        influx, server, panel = _mk()
        first = server.execute_panel(panel)
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 999.0}, 12.5))
        second = server.execute_panel(panel)
        assert server.cache_hits == 0  # generation moved: forced recompute
        assert second != first
        assert 999.0 in next(iter(second.values()))[1]

    def test_delete_series_between_refreshes_recomputes(self):
        influx, server, panel = _mk()
        server.execute_panel(panel)
        influx.delete_series("pmove", "cpu", tags={"tag": "t1"})
        times, values = next(iter(server.execute_panel(panel).values()))
        assert times == [] and values == []

    def test_retention_trim_between_refreshes_recomputes(self):
        influx, server, panel = _mk()
        server.execute_panel(panel)
        influx.set_retention_policy("pmove", 10.0)
        influx.enforce_retention("pmove", 49.0)
        times, _ = next(iter(server.execute_panel(panel).values()))
        assert times and min(times) >= 39.0

    def test_write_to_other_measurement_keeps_hit(self):
        influx, server, panel = _mk()
        server.execute_panel(panel)
        influx.write("pmove", Point("mem", {"tag": "t1"}, {"v": 1.0}, 3.0))
        server.execute_panel(panel)
        assert server.cache_hits == 1

    def test_faulty_wrapper_passes_generations_through(self):
        influx, _, panel = _mk()
        wrapped = FaultyInfluxDB(influx)
        server = GrafanaServer(wrapped)
        first = server.execute_panel(panel)
        server.execute_panel(panel)
        assert server.cache_hits == 1
        wrapped.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": -5.0}, 7.25))
        second = server.execute_panel(panel)
        assert -5.0 in next(iter(second.values()))[1]
        assert second != first

    def test_randomized_interleaving_never_stale(self):
        """Random writes/drops interleaved with refreshes: every refresh
        equals what a cache-cold server computes from the same engine."""
        rng = random.Random(42)
        influx, server, panel = _mk(n=20)
        for step in range(120):
            action = rng.random()
            if action < 0.45:
                influx.write(
                    "pmove",
                    Point("cpu", {"tag": "t1"}, {"_cpu0": rng.uniform(-10, 10)},
                          rng.uniform(0, 100)),
                )
            elif action < 0.5:
                influx.delete_series("pmove", "cpu", tags={"tag": "t1"})
            t0 = rng.choice([None, rng.uniform(0, 50)])
            t1 = rng.choice([None, rng.uniform(50, 100)])
            got = server.execute_panel(panel, t0=t0, t1=t1)
            cold = GrafanaServer(influx).execute_panel(panel, t0=t0, t1=t1)
            assert got == cold, f"stale serve at step {step}"
        assert server.cache_hits > 0  # the cache did actually engage


class TestDownsampledTargets:
    def test_agg_group_by_target_statement_and_json_roundtrip(self):
        t = Target("cpu", "_cpu0", tag="t1", agg="MEAN", group_by_s=10.0)
        stmt = GrafanaServer.target_statement(t, t0=0.0, t1=100.0)
        assert stmt == (
            'SELECT MEAN("_cpu0") FROM "cpu"'
            ' WHERE tag="t1" AND time >= 0.0 AND time <= 100.0'
            " GROUP BY time(10.0s)"
        )
        doc = t.to_json()
        assert doc["agg"] == "MEAN" and doc["groupBySeconds"] == 10.0
        assert Target.from_json(doc) == t

    def test_plain_target_json_unchanged(self):
        """Legacy documents stay byte-identical: no agg/groupBy keys."""
        doc = Target("cpu", "_cpu0", tag="t1").to_json()
        assert "agg" not in doc and "groupBySeconds" not in doc

    def test_downsampled_panel_executes_and_caches(self):
        influx, server, _ = _mk(n=200)
        panel = Panel(
            id=2,
            title="coarse",
            targets=[Target("cpu", "_cpu0", tag="t1", agg="MEAN", group_by_s=10.0)],
        )
        times, values = next(iter(server.execute_panel(panel).values()))
        assert times == [float(b * 10) for b in range(20)]
        assert values[0] == sum(range(10)) / 10.0
        server.execute_panel(panel)
        assert server.cache_hits == 1

    def test_dashboard_roundtrip_with_downsampled_target(self):
        dash = Dashboard(
            id=7,
            title="d",
            panels=[Panel(id=1, title="p", targets=[
                Target("cpu", "_cpu0", agg="MAX", group_by_s=60.0)
            ])],
        )
        assert Dashboard.loads(dash.dumps()).panels[0].targets[0].agg == "MAX"


# ----------------------------------------------------------------------
# Closed windows: what an in-order append cannot change stays cached
# ----------------------------------------------------------------------
def _sharded_mk(n=50):
    influx = ShardedInfluxDB(3)
    influx.create_database("pmove")
    influx.write_many("pmove", [
        Point("cpu", {"tag": f"t{s}"}, {"_cpu0": float(i)}, float(i))
        for i in range(n) for s in (1, 2, 3, 4)])
    return influx, GrafanaServer(influx), Panel(
        id=1, title="cpu", targets=[Target("cpu", "_cpu0", tag="t1")])


def _answer(influx, server, panel, **window):
    """The panel's series, and the uncached reference for it."""
    got = server.execute_panel(panel, **window)
    want = {
        label: tuple(map(list, naive_execute(
            influx, "pmove", server.target_statement(target, **window)).series()))
        for label, target in zip(got, panel.targets)
    }
    assert {k: (list(t), list(v)) for k, (t, v) in got.items()} == {
        k: (t, v) for k, (t, v) in want.items()}
    return got


@pytest.mark.parametrize("mk", [_mk, _sharded_mk], ids=["single", "sharded"])
class TestClosedWindows:
    """The newest sample is at t = 49: ``t1 = 30`` is a closed window."""

    def test_in_order_appends_keep_a_closed_window_a_hit(self, mk):
        influx, server, panel = mk()
        first = _answer(influx, server, panel, t0=0.0, t1=30.0)
        for t in (49.0, 49.0, 50.0, 75.5):  # at the frontier, then beyond
            influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": -1.0}, t))
            assert _answer(influx, server, panel, t0=0.0, t1=30.0) == first
        assert (server.cache_hits, server.cache_misses) == (4, 1)
        assert len(server._cache.by_measurement["cpu"].sealed) == len(server._cache) == 1

    @pytest.mark.parametrize("when", [30.0, 12.5, 0.0, -3.0])
    def test_a_write_at_or_below_t1_makes_it_a_miss(self, mk, when):
        influx, server, panel = mk()
        first = _answer(influx, server, panel, t0=-10.0, t1=30.0)
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 999.0}, when))
        second = _answer(influx, server, panel, t0=-10.0, t1=30.0)
        assert server.cache_hits == 0 and second != first
        assert 999.0 in next(iter(second.values()))[1]

    def test_a_write_between_t1_and_the_frontier_is_a_miss_too(self, mk):
        """Below the frontier nothing is promised, whichever side of the
        window the write fell on: the epoch moved."""
        influx, server, panel = mk()
        first = _answer(influx, server, panel, t0=0.0, t1=30.0)
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 999.0}, 40.0))
        assert _answer(influx, server, panel, t0=0.0, t1=30.0) == first
        assert server.cache_hits == 0

    @pytest.mark.parametrize("t1", [49.0, 60.0, None])
    def test_a_window_reaching_the_frontier_behaves_as_before(self, mk, t1):
        """``t1 >= frontier`` (or none): any write ends the hit, and an
        unchanged measurement keeps it — as one held answer, not a sealed
        entry, which the read after the write overwrites."""
        influx, server, panel = mk()
        first = _answer(influx, server, panel, t0=20.0, t1=t1)
        assert _answer(influx, server, panel, t0=20.0, t1=t1) == first
        assert server.cache_hits == 1
        assert list(held_answers(server._cache)) == [
            ("pmove", server.target_statement(panel.targets[0]))]
        assert not server._cache.by_measurement and len(server._cache) == 1
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 999.0}, 49.0))
        second = _answer(influx, server, panel, t0=20.0, t1=t1)
        assert server.cache_hits == 1 and second != first
        assert (server.cache_misses, server.delta_serves) == (2, 1)
        assert len(held_answers(server._cache)) == len(server._cache) == 1

    def test_a_new_series_older_than_the_window_is_seen(self, mk):
        influx, server, _ = mk()
        every = Panel(id=3, title="all", targets=[Target("cpu", "_cpu0")])
        first = _answer(influx, server, every, t0=0.0, t1=30.0)
        influx.write("pmove", Point("cpu", {"tag": "late"}, {"_cpu0": 999.0}, 5.0))
        second = _answer(influx, server, every, t0=0.0, t1=30.0)
        assert server.cache_hits == 0 and second != first

    def test_a_measurements_first_write_is_seen(self, mk):
        influx, server, _ = mk()
        mem = Panel(id=4, title="mem", targets=[Target("mem", "v")])
        assert _answer(influx, server, mem, t0=0.0, t1=30.0) == {"memv": ([], [])}
        for tag, t in (("a", 40.0), ("b", 20.0), ("c", 45.0), ("d", 45.0)):
            # a new series' first point can land on a shard that never
            # held the measurement: "in order" there says nothing here
            influx.write("pmove", Point("mem", {"tag": tag}, {"v": 1.0}, t))
            _answer(influx, server, mem, t0=0.0, t1=30.0)
            _answer(influx, server, mem, t0=0.0, t1=42.0)
        assert len(_answer(influx, server, mem, t0=0.0, t1=30.0)["memv"][0]) == 1

    def test_a_new_generation_ends_open_entries_a_new_epoch_all(self, mk):
        influx, server, panel = mk()
        for t1 in (10.0, 30.0, 60.0, None):
            _answer(influx, server, panel, t0=0.0, t1=t1)
        filed = server._cache.by_measurement["cpu"]
        # two sealed windows, and one held answer: ``None`` over ``60.0``
        assert (len(filed.sealed), len(server._cache)) == (2, 3)
        assert (server.cache_hits, server.delta_serves) == (0, 1)
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 50.0))
        _answer(influx, server, panel, t0=0.0, t1=10.0)  # sealed: still a hit
        _answer(influx, server, panel, t0=0.0, t1=None)  # open: read again
        assert (server.cache_hits, server.delta_serves) == (1, 2)
        assert (len(filed.sealed), len(server._cache)) == (2, 3)
        check_index(server)
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, 7.0))
        _answer(influx, server, panel, t0=0.0, t1=None)  # the proof, and no delta
        assert (server.cache_hits, server.delta_serves) == (1, 2)
        assert [key[1] for key in server._cache.entries] == [
            server.target_statement(panel.targets[0])]
        check_index(server)

    def test_drop_and_trim_end_closed_windows(self, mk):
        influx, server, panel = mk()
        _answer(influx, server, panel, t0=0.0, t1=30.0)
        influx.set_retention_policy("pmove", 40.0)
        influx.enforce_retention("pmove", 50.0)  # rows below t = 10 go
        times, _ = next(iter(_answer(influx, server, panel, t0=0.0, t1=30.0).values()))
        assert min(times) == 10.0
        influx.delete_series("pmove", "cpu", tags={"tag": "t1"})
        assert _answer(influx, server, panel, t0=0.0, t1=30.0) == {"cpu_cpu0": ([], [])}
        assert server.cache_hits == 0

    @pytest.mark.parametrize("series", ["t1", "t2", "new"])
    def test_every_window_against_every_write(self, mk, series):
        """One window, one write, the window again: a hit exactly when the
        window ended below the newest sample and the write did not."""
        every = Panel(id=3, title="all", targets=[Target("cpu", "_cpu0")])
        for t1 in (None, 10.0, 30.0, 48.0, 48.5, 49.0, 50.0, 60.0):
            for when in (-3.0, 0.0, 10.0, 29.0, 30.0, 31.0, 48.0, 48.5, 49.0, 50.0, 60.0):
                influx, server, _ = mk()
                _answer(influx, server, every, t0=5.0, t1=t1)
                influx.write(
                    "pmove", Point("cpu", {"tag": series}, {"_cpu0": 999.0}, when))
                _answer(influx, server, every, t0=5.0, t1=t1)
                closed = t1 is not None and t1 < 49.0
                assert server.cache_hits == (closed and when >= 49.0), (t1, when)

    def test_a_nan_timestamp_is_refused_and_changes_nothing(self, mk):
        influx, server, panel = mk()
        first = _answer(influx, server, panel, t0=0.0, t1=30.0)
        stamps = influx.freshness("pmove", "cpu")
        with pytest.raises(InfluxError):
            influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 1.0}, math.nan))
        assert influx.freshness("pmove", "cpu") == stamps
        assert _answer(influx, server, panel, t0=0.0, t1=30.0) == first
        assert server.cache_hits == 1


# ----------------------------------------------------------------------
# Dead entries: evicted at the lookup that proves them dead
# ----------------------------------------------------------------------
class ParentCache:
    """The cache as it was before dead entries were evicted and before
    closed windows were kept: one LRU of key → generation per partition,
    nothing leaves except by capacity.  Kept as the reference for which
    reads must (still) hit."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.partitions = {}
        self.hits = self.misses = 0

    def read(self, tenant, key, gen):
        lru = self.partitions.setdefault(tenant, OrderedDict())
        if lru.get(key) == gen:
            lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        lru[key] = gen
        lru.move_to_end(key)
        while len(lru) > self.capacity:
            lru.popitem(last=False)
        return False


class HeldAnswerCache(ParentCache):
    """The rule as plainly as it can be said: an LRU in which a window that
    ended below the frontier is kept under its statement and is good for
    its epoch, and every other window is kept under its target — one per
    target, the newer over the older — and is good for the very window and
    generation it was computed at; nothing leaves except by capacity."""

    def read(self, tenant, target, statement, stamps, window):
        epoch, gen, frontier = stamps
        sealed = window[1] is not None and window[1] < frontier
        key = statement if sealed else target
        lru = self.partitions.setdefault(tenant, OrderedDict())
        was = lru.get(key)
        if was is not None and was[0] == epoch and (sealed or was[1:] == (gen, window)):
            lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        lru[key] = (epoch, gen, window)
        lru.move_to_end(key)
        while len(lru) > self.capacity:
            lru.popitem(last=False)
        return False


def held_answers(part):
    """A partition's held answers: the entries that carry their own stamps
    and window, each under its target's time-free statement."""
    held = {key: entry for key, entry in part.entries.items() if len(entry) == 5}
    assert not any("time >=" in text or "time <=" in text for _, text in held)
    return held


def check_index(server):
    """The measurement index names exactly the sealed keys each partition
    holds, each once; every other entry is a held answer."""
    for part in [server._cache, *server._tenant_caches.values()]:
        indexed = {}
        for measurement, filed in part.by_measurement.items():
            assert filed.sealed, "an emptied measurement leaves the index"
            for key in filed.sealed:
                assert key not in indexed
                indexed[key] = measurement
        held = held_answers(part)
        assert indexed == {key: entry[0] for key, entry in part.entries.items()
                           if key not in held}
        assert len(part) == len(part.entries) == len(indexed) + len(held)


MEASUREMENTS = ("m0", "m1", "m2")
SERIES = ("a", "b")
LATE_SERIES = ("c", "d")  # not preloaded: their first point can be old
TENANTS = (None, "x", "y")

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(MEASUREMENTS),
                  st.sampled_from(SERIES + LATE_SERIES),
                  st.one_of(st.integers(0, 40), st.integers(36, 60)),
                  st.integers(-5, 5)),
        st.tuples(st.just("nan"), st.sampled_from(MEASUREMENTS),
                  st.sampled_from(SERIES)),
        st.tuples(st.just("delete"), st.sampled_from(MEASUREMENTS),
                  st.sampled_from(SERIES + LATE_SERIES)),
        st.tuples(st.just("retain"), st.integers(5, 40)),
        st.tuples(st.just("reshard"), st.sampled_from(["add", "drain", "remove"]),
                  st.integers(0, 5)),
        st.tuples(st.just("read"), st.sampled_from(MEASUREMENTS),
                  st.sampled_from(SERIES + LATE_SERIES + (None,)),
                  st.sampled_from([None, 0, 10, 20]),
                  st.sampled_from([None, 8, 30, 36, 37, 45, 70]),
                  st.sampled_from(TENANTS)),
    ),
    min_size=1, max_size=60,
)


def _engine(kind):
    influx = InfluxDB() if kind == "single" else ShardedInfluxDB(4)
    influx.create_database("pmove")
    influx.write_many("pmove", [
        Point(m, {"tag": s}, {"v": float(i)}, float(i))
        for m in MEASUREMENTS for s in SERIES for i in range(0, 40, 4)
    ])
    return influx


def _reshard(influx, how, i):
    """Membership change on a router (a no-op on a single engine); one the
    router refuses — the last shard — changes nothing."""
    if not isinstance(influx, ShardedInfluxDB):
        return
    try:
        if how == "add":
            influx.add_shard()
        else:
            names = influx.shard_names()
            getattr(influx, f"{how}_shard")(names[i % len(names)])
    except InfluxError:
        pass


class TestDeadEntries:
    def test_a_miss_on_a_new_stamp_drops_the_measurements_old_entries(self):
        """Sealed windows die together at the lookup that sees a new epoch,
        whichever kind of window it asked for; an open target's superseded
        windows never pile up to begin with."""
        influx, server, panel = _mk()
        other = Panel(id=2, title="mem", targets=[Target("mem", "v", tag="t1")])
        influx.write("pmove", Point("mem", {"tag": "t1"}, {"v": 1.0}, 3.0))
        for t1 in (10.0, 20.0):
            server.execute_panel(panel, t1=t1)
        for t0 in (0.0, 10.0, 20.0):  # one held answer, overwritten in place
            server.execute_panel(panel, t0=t0)
        server.execute_panel(other)
        assert len(server._cache) == 4 and len(held_answers(server._cache)) == 2
        assert server.delta_serves == 2  # each slide kept what it still covered
        influx.write("pmove", Point("cpu", {"tag": "t1"}, {"_cpu0": 9.0}, 5.0))
        assert len(server._cache) == 4  # a write alone evicts nothing
        server.execute_panel(other)
        assert server.cache_hits == 1 and len(server._cache) == 4
        got = server.execute_panel(panel, t0=30.0)  # the proving miss
        assert got == GrafanaServer(influx).execute_panel(panel, t0=30.0)
        assert server.delta_serves == 2  # a new epoch: nothing held stands
        assert [key[1] for key in server._cache.entries] == [
            server.target_statement(other.targets[0]),
            server.target_statement(panel.targets[0]),
        ]
        check_index(server)

    def test_partial_results_are_still_not_cached(self):
        influx = ShardedInfluxDB(2)
        influx.create_database("pmove")
        influx.write_many("pmove", [
            Point("cpu", {"tag": f"t{i}"}, {"_cpu0": 1.0}, float(i)) for i in range(8)])
        server = GrafanaServer(influx)
        panel = Panel(id=1, title="cpu", targets=[Target("cpu", "_cpu0")])
        whole = server.execute_panel(panel)
        server.execute_panel(panel, t1=2.0)  # a closed window
        assert len(server._cache) == 2
        (held,) = held_answers(server._cache).values()
        influx.write("pmove", Point("cpu", {"tag": "t0"}, {"_cpu0": 2.0}, 9.0))
        influx.inject_shard_fault("shard-0", NodeCrash(t0=0.0, t1=100.0))
        influx.at(1.0)
        degraded = server.execute_panel(panel)
        # what a cold server serves now: no held row stands in for a lost one
        assert degraded == GrafanaServer(influx).execute_panel(panel)
        assert len(degraded["cpu_cpu0"][0]) < len(whole["cpu_cpu0"][0])
        assert (server.partial_serves, server.delta_serves) == (1, 0)
        # the partial answer did not replace the held one
        assert list(held_answers(server._cache).values()) == [held]
        server.execute_panel(panel, t1=3.0)
        assert server.partial_serves == 2 and len(server._cache) == 2
        check_index(server)
        influx.at(200.0)  # the shard is back: the held answer still stands
        healed = server.execute_panel(panel)
        assert healed == GrafanaServer(influx).execute_panel(panel)
        assert (server.partial_serves, server.delta_serves) == (2, 1)
        assert len(healed["cpu_cpu0"][0]) == len(whole["cpu_cpu0"][0]) + 1

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize("capacity", [3, 64])
    @given(ops=cache_ops)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_writes_drops_trims_and_reads(self, kind, capacity, ops):
        influx = _engine(kind)
        server = GrafanaServer(influx, cache_size=capacity)
        model = HeldAnswerCache(capacity)
        #: (tenant, entry key) → the (stamps, window) it was last computed at
        computed = {}
        for op in ops:
            if op[0] == "write":
                _, m, s, t, v = op
                influx.write("pmove", Point(m, {"tag": s}, {"v": float(v)}, float(t)))
            elif op[0] == "nan":
                with pytest.raises(InfluxError):
                    influx.write("pmove", Point(op[1], {"tag": op[2]}, {"v": 0.0}, math.nan))
            elif op[0] == "delete":
                influx.delete_series("pmove", op[1], tags={"tag": op[2]})
            elif op[0] == "retain":
                influx.set_retention_policy("pmove", float(op[1]))
                influx.enforce_retention("pmove", 40.0)
            elif op[0] == "reshard":
                _reshard(influx, op[1], op[2])
            else:
                _, m, s, t0, t1, tenant = op
                target = Target(m, "v", tag=s or "")
                stmt = server.target_statement(target, t0, t1)
                part, _ = server._partition_for(tenant)
                others = {
                    t: list(p.entries.items())
                    for t, p in [(None, server._cache), *server._tenant_caches.items()]
                    if p is not part
                }
                bystanders = [k for k, e in part.entries.items() if e[0] != m]
                stamps = epoch, gen, frontier = influx.freshness("pmove", m)
                assert gen == influx.generation("pmove", m)
                sealed = t1 is not None and t1 < frontier
                key = ("pmove", stmt if sealed else server.target_statement(target))
                deltas = server.delta_serves

                times, values, hit = server.execute_target(target, t0, t1, tenant=tenant)

                fresh = naive_execute(influx, "pmove", stmt).series()
                assert (list(times), list(values)) == (list(fresh[0]), list(fresh[1]))
                # every read the rule says hits does; evicting the dead
                # early can only leave more room for the living
                want = model.read(tenant, target, stmt, stamps, (t0, t1))
                assert hit or not want
                if hit:
                    # … and only ever on an answer computed in this epoch,
                    # after a write only on one the write cannot have reached
                    assert server.delta_serves == deltas
                    was_stamps, was_window = computed[tenant, key]
                    assert was_stamps[0] == epoch
                    assert sealed or (was_stamps, was_window) == (stamps, (t0, t1))
                else:
                    # a delta only ever extends this epoch's held answer to
                    # a window that starts no earlier
                    if server.delta_serves > deltas:
                        was_stamps, (was_t0, _) = computed[tenant, key]
                        assert not sealed and was_stamps[0] == epoch
                        assert was_t0 == t0 or (None not in (was_t0, t0) and was_t0 <= t0)
                    computed[tenant, key] = (stamps, (t0, t1))
                # nothing sealed of m is left from another epoch, and the
                # target's held answer is the one just served …
                filed = part.by_measurement.get(m)
                for sealed_key in filed.sealed if filed else ():
                    assert filed.epoch == epoch == computed[tenant, sealed_key][0][0]
                if sealed:
                    assert key in filed.sealed
                else:
                    assert part.entries[key][3:] == computed[tenant, key]
                    assert list(part.entries)[-1] == key
                # … other measurements lose entries to capacity only, oldest
                # first, and other partitions are not touched at all
                left = [k for k in bystanders if k in part.entries]
                assert left == bystanders[len(bystanders) - len(left):]
                assert len(left) == len(bystanders) or len(part) == capacity
                for t, before in others.items():
                    p = server._cache if t is None else server._tenant_caches[t]
                    assert list(p.entries.items()) == before
            check_index(server)
            for t in ("x", "y"):
                info = server.tenant_cache_info(t)
                held = server._tenant_caches.get(t, ())
                assert info["entries"] == len(held) <= capacity
                assert info["sealed"] + info["open"] == info["entries"]
        assert server.cache_hits >= model.hits
        assert server.cache_hits + server.cache_misses == model.hits + model.misses


# ----------------------------------------------------------------------
# Sliding refreshes: a held answer plus what the frontier let in
# ----------------------------------------------------------------------
def _same(got, want):
    """(times, values) equality that takes NaN for what it is."""
    return repr((list(got[0]), list(got[1]))) == repr((list(want[0]), list(want[1])))


def _slide(kind, seed, steps=60):
    """A live dashboard's life under everything that can happen to its
    data: a refresh of every target after every mutation, over windows
    whose ``t0`` and ``t1`` advance with the clock — each answer what a
    cache-cold server and the naive scan say.  Returns the server."""
    rng = random.Random(seed)
    influx = _engine(kind)
    server = GrafanaServer(influx, cache_size=rng.choice([3, 64, 64]))
    targets = [Target(m, f, tag=s)
               for m in MEASUREMENTS[:2] for f in ("v", "w") for s in ("a", "c", "")]
    now, width, down_until = 40.0, rng.choice([6.0, 25.0]), -1.0
    for step in range(steps):
        now += rng.choice([0.0, 0.0, 0.5, 1.0, 4.0])  # 0: equal stamps at the frontier
        if isinstance(influx, ShardedInfluxDB):
            influx.at(now)
        m, s = rng.choice(MEASUREMENTS[:2]), rng.choice(SERIES + LATE_SERIES)
        action = rng.random()
        if action < 0.75 or action >= 0.96:  # in order; late if >= 0.96
            t = now if action < 0.75 else now - rng.uniform(0.5, 30.0)
            fields = rng.choice([
                {"v": rng.uniform(-9, 9)}, {"w": 1.0},  # "v" is None in this row
                {"v": math.nan, "w": 2.0}, {"v": 0.5, "w": math.nan}])
            influx.write("pmove", Point(m, {"tag": s}, fields, t))
        elif action < 0.79:
            influx.delete_series("pmove", m, tags={"tag": s})
        elif action < 0.83:
            influx.set_retention_policy("pmove", rng.choice([10.0, 30.0]))
            influx.enforce_retention("pmove", now)
        elif action < 0.88:
            _reshard(influx, rng.choice(["add", "drain", "remove"]), rng.randrange(6))
        elif kind == "sharded" and now > down_until:
            down_until = now + rng.choice([0.5, 3.0])
            influx.inject_shard_fault(
                rng.choice(influx.shard_names()), NodeCrash(t0=now, t1=down_until))
        for target in targets:
            t0 = rng.choice([now - width] * 4 + [now - 2 * width, None])
            t1 = rng.choice([now, now + 5.0, None])
            tenant = rng.choice(TENANTS[:2])
            held_key = ("pmove", server.target_statement(target))
            part, partials = server._partition_for(tenant)[0], server.partial_serves
            held = part.entries.get(held_key)
            times, values, hit = server.execute_target(target, t0, t1, tenant=tenant)
            if hit and kind == "sharded" and "down" in influx.shard_states().values():
                continue  # a hit asks no shard: the whole answer, outage or not
            cold = GrafanaServer(influx).execute_target(target, t0, t1)
            naive = naive_execute(
                influx, "pmove", server.target_statement(target, t0, t1)).series()
            where = f"seed {seed} step {step} {target.measurement}.{target.params}"
            assert _same((times, values), cold[:2]), where
            assert _same((times, values), naive), where
            if server.partial_serves > partials:  # served, never held
                assert part.entries.get(held_key) is held
        check_index(server)
    return server


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestSlidingRefresh:
    def test_refresh_after_every_write_equals_a_cold_server(self, kind):
        served = [_slide(kind, seed) for seed in range(6)]
        assert sum(s.delta_serves for s in served) > 300
        assert sum(s.cache_hits for s in served) > 10
        if kind == "sharded":
            assert sum(s.partial_serves for s in served) > 20

    @pytest.mark.chaos
    def test_refresh_after_every_write_equals_a_cold_server_at_length(self, kind):
        for seed in range(100, 140):
            _slide(kind, seed, steps=80)

    def test_a_slid_refresh_reads_from_the_held_frontier_only(self, kind, monkeypatch):
        """Counted, not timed: the engine is asked for the rows at or above
        the frontier the held answer was computed at, no statement text is
        formatted, and the held rows below it are served as they stand."""
        influx = _engine(kind)
        server = GrafanaServer(influx)
        target = Target("m0", "v", tag="a")
        first = server.execute_target(target, 10.0, 40.0)
        frontier = influx.freshness("pmove", "m0")[2]
        assert frontier == 36.0 and server.delta_serves == 0
        influx.write_many("pmove", [
            Point("m0", {"tag": "a"}, {"v": float(t)}, float(t)) for t in (36, 38, 41)])
        asked, formatted = [], []
        scan = influx.scan_columns
        monkeypatch.setattr(influx, "scan_columns", lambda *a, **kw: (
            asked.append(a[4:6] if len(a) > 4 else (kw.get("t0"), kw.get("t1"))),
            scan(*a, **kw))[1])
        monkeypatch.setattr(GrafanaServer, "target_statement", staticmethod(
            lambda *a, **kw: formatted.append(a) or "never"))
        times, values, hit = server.execute_target(target, 14.0, 45.0)
        assert asked == [(frontier, 45.0)] and not formatted and not hit
        assert (server.delta_serves, server.cache_misses) == (1, 2)
        assert times == [16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 36.0, 38.0, 41.0]
        assert times[:5] == first[0][1:6] and values == times
