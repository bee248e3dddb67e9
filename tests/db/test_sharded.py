"""ShardedInfluxDB behavior: routing, faults, rebalancing, introspection.

Byte-level query equivalence against a single engine lives in
``test_sharded_equivalence.py``; this file pins the router's *own*
semantics — where data lands, how outages degrade, what migration moves,
and what the stats surface reports.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.influx import InfluxDB, InfluxError, Point
from repro.db.influxql import execute, naive_execute
from repro.db.sharded import ShardedInfluxDB
from repro.faults.nodes import NodeCrash, NodeFlap
from repro.viz.grafana import Dashboard, GrafanaServer, Panel, Target


def mk(n=3, series=24, points=40):
    db = ShardedInfluxDB(n)
    db.create_database("pmove")
    pts = [
        Point("cpu_idle", {"obs": f"o{s}"}, {"v": float(s * 100 + i)}, float(i))
        for s in range(series)
        for i in range(points)
    ]
    db.write_many("pmove", pts)
    return db, pts


class TestRouting:
    def test_each_series_lives_on_exactly_one_shard(self):
        db, _ = mk()
        for s in range(24):
            owners = [
                name
                for name, sh in db.shards.items()
                if sh.series_count("pmove", "cpu_idle", {"obs": f"o{s}"})
            ]
            assert owners == [db.shard_for("cpu_idle", {"obs": f"o{s}"})]

    def test_single_series_query_touches_one_shard(self):
        db, _ = mk()
        db.instrument = True
        db.scan_columns("pmove", "cpu_idle", tags={"obs": "o3"})
        assert len(db.last_timings["shard_s"]) == 1

    def test_write_lines_routes_and_counts(self):
        db = ShardedInfluxDB(2)
        db.create_database("pmove")
        n = db.write_lines(
            "pmove",
            "cpu_idle,obs=a v=1.0 0\ncpu_idle,obs=b v=2.0 1000000000\n",
        )
        assert n == 2
        assert db.stats("pmove")["series_count"] == 2

    def test_bad_line_rejects_whole_batch(self):
        db = ShardedInfluxDB(2)
        db.create_database("pmove")
        with pytest.raises(InfluxError):
            db.write_lines("pmove", "cpu_idle,obs=a v=1.0 0\nnonsense\n")
        assert db.stats("pmove")["points_written"] == 0

    def test_unknown_database_raises(self):
        db = ShardedInfluxDB(2)
        with pytest.raises(InfluxError):
            db.write("nope", Point("m", {}, {"v": 1.0}, 0.0))
        with pytest.raises(InfluxError):
            db.scan_columns("nope", "m")

    def test_generation_vector_moves_on_any_shard_write(self):
        db, _ = mk(3)
        g0 = db.generation("pmove", "cpu_idle")
        assert len(g0) == 3
        db.write("pmove", Point("cpu_idle", {"obs": "o1"}, {"v": 1.0}, 99.0))
        g1 = db.generation("pmove", "cpu_idle")
        assert g1 != g0
        assert sum(a != b for a, b in zip(g0, g1)) == 1  # one shard moved


def _on_distinct_shards(db, measurement, n):
    """``n`` tag sets of ``measurement`` that the ring places on ``n``
    different shards."""
    found = {}
    for i in range(200):
        found.setdefault(db.shard_for(measurement, {"obs": f"x{i}"}), {"obs": f"x{i}"})
    assert len(found) >= n
    return list(found.items())[:n]


class TestFreshness:
    def test_shape_vectors_by_shard_name_and_the_lowest_frontier(self):
        db, _ = mk(3)
        epochs, gens, frontier = db.freshness("pmove", "cpu_idle")
        parts = [db.shards[n].freshness("pmove", "cpu_idle") for n in sorted(db.shards)]
        assert epochs == tuple(p[0] for p in parts) and all(epochs)
        assert gens == tuple(p[1] for p in parts) == db.generation("pmove", "cpu_idle")
        assert frontier == 39.0
        assert db.freshness("pmove", "nothing") == ((0, 0, 0), (0, 0, 0), -math.inf)

    def test_in_order_append_moves_one_generation_and_no_epoch(self):
        db, _ = mk(3)
        epochs, gens, _ = db.freshness("pmove", "cpu_idle")
        db.write("pmove", Point("cpu_idle", {"obs": "o0"}, {"v": 1.0}, 39.0))
        after = db.freshness("pmove", "cpu_idle")
        assert after[0] == epochs and after[2] == 39.0
        assert sum(a != b for a, b in zip(after[1], gens)) == 1
        db.write("pmove", Point("cpu_idle", {"obs": "o0"}, {"v": 1.0}, 38.5))
        late = db.freshness("pmove", "cpu_idle")
        assert sum(a != b for a, b in zip(late[0], epochs)) == 1

    def test_the_lowest_shard_frontier_decides(self):
        """A shard's in-order append only promises to lie above *its own*
        newest sample: the router may vouch for nothing above the lowest."""
        db = ShardedInfluxDB(3)
        db.create_database("pmove")
        (_, ahead), (_, behind) = _on_distinct_shards(db, "m", 2)
        db.write_many("pmove", [Point("m", ahead, {"v": float(t)}, float(t))
                                for t in range(0, 61, 10)])
        db.write_many("pmove", [Point("m", behind, {"v": float(t)}, float(t))
                                for t in range(0, 41, 10)])
        assert db.freshness("pmove", "m")[2] == 40.0
        srv = GrafanaServer(db, database="pmove")
        target = Target(measurement="m", params="v")
        srv.execute_target(target, 0.0, 55.0)  # ends above shard "behind"
        db.write("pmove", Point("m", behind, {"v": -1.0}, 50.0))  # in order there
        _, values, hit = srv.execute_target(target, 0.0, 55.0)
        assert not hit and -1.0 in values
        srv.execute_target(target, 0.0, 35.0)  # below both
        db.write("pmove", Point("m", behind, {"v": -2.0}, 50.0))
        assert srv.execute_target(target, 0.0, 35.0)[2]

    def test_a_shards_first_write_of_a_measurement_moves_its_epoch_off_zero(self):
        db = ShardedInfluxDB(3)
        db.create_database("pmove")
        (first_shard, first), (late_shard, late) = _on_distinct_shards(db, "m", 2)
        db.write_many("pmove", [Point("m", first, {"v": 1.0}, float(t)) for t in range(50)])
        names = sorted(db.shards)
        epochs, _, frontier = db.freshness("pmove", "m")
        assert [bool(e) for e in epochs] == [n == first_shard for n in names]
        assert frontier == 49.0
        srv = GrafanaServer(db, database="pmove")
        target = Target(measurement="m", params="v")
        srv.execute_target(target, 0.0, 30.0)
        db.write("pmove", Point("m", late, {"v": 7.0}, 3.0))  # old, on a new shard
        after, _, frontier = db.freshness("pmove", "m")
        assert [bool(e) for e in after] == [n in (first_shard, late_shard) for n in names]
        assert frontier == 3.0
        _, values, hit = srv.execute_target(target, 0.0, 30.0)
        assert not hit and 7.0 in values

    def test_an_epoch_vector_does_not_recur_after_shards_come_and_go(self):
        """Each engine counts its own stamps, so a shard added later could
        repeat an epoch vector seen before over other rows (0.0 was the
        frontier below which a row lay; then the same vector said -inf).
        A new engine's stamps start above every shard's."""
        db = ShardedInfluxDB(3)
        db.create_database("pmove")
        db.write_many("pmove", [Point("m", {"obs": s}, {"v": float(t)}, float(t))
                                for s in "abc" for t in range(0, 25, 3)])
        db.remove_shard("shard-1")
        db.remove_shard("shard-2")
        db.add_shard()
        db.drain_shard(db.shard_names()[0])
        db.write("pmove", Point("m", {"obs": "a"}, {"v": -1.0}, 0.0))
        seen = db.freshness("pmove", "m")
        db.add_shard()
        db.remove_shard(db.shard_names()[1])
        assert db.freshness("pmove", "m")[0] != seen[0]

    def test_a_reused_shard_name_does_not_repeat_a_removed_engines_epoch(self):
        """shard-1 counts higher than shard-0, deletes its series (a bump
        on shard-1 alone) and leaves with no rows to move; a new engine
        under the same name must not stamp its first write with the epoch
        the old one ended on."""
        db = ShardedInfluxDB(2)
        db.create_database("pmove")
        # "a" lands on shard-0 and "b" on shard-1 (ring of two names)
        db.write_many("pmove", [Point("m", {"obs": s}, {"v": float(t)}, float(t))
                                for s in "ab" for t in range(5)])
        assert db.delete_series("pmove", "m", {"obs": "b"}) == 5
        seen = db.freshness("pmove", "m")[0]
        assert seen[1] > db.shards["shard-0"]._gen_seq  # shard-1 counted higher
        db.remove_shard("shard-1")
        assert db.add_shard()["moved_series"] == 0
        db.write("pmove", Point("m", {"obs": "b"}, {"v": 9.0}, 9.0))
        assert db.shards["shard-1"].list_series("pmove") == [("m", {"obs": "b"})]
        assert db.freshness("pmove", "m")[0] != seen

    @pytest.mark.parametrize("change", ["add", "drain", "remove"])
    def test_membership_changes_start_a_new_epoch_vector(self, change):
        db, _ = mk(3)
        srv = GrafanaServer(db, database="pmove")
        target = Target(measurement="cpu_idle", params="v", agg="MEAN", group_by_s=10)
        before = srv.execute_target(target, 0.0, 25.0)[:2]
        epochs = db.freshness("pmove", "cpu_idle")[0]
        if change == "add":
            db.add_shard()
        else:
            getattr(db, f"{change}_shard")("shard-1")
        assert db.freshness("pmove", "cpu_idle")[0] != epochs
        times, values, hit = srv.execute_target(target, 0.0, 25.0)
        assert not hit and (times, values) == before  # moved, not changed

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("write"), st.sampled_from("abcdef"),
                  st.one_of(st.integers(0, 30), st.integers(20, 45))),
        st.tuples(st.just("delete"), st.sampled_from("abcdef")),
        st.tuples(st.just("retain"), st.integers(5, 30)),
        st.tuples(st.just("reshard"), st.sampled_from(["add", "drain", "remove"]),
                  st.integers(0, 5)),
    ), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_below_the_frontier_nothing_moves_while_the_epoch_holds(self, kind, ops):
        """The contract itself, without a cache in the way: remember every
        (epoch, frontier) seen and what lay below that frontier; as long as
        the engine reports the same epoch, exactly that still lies there."""
        db = InfluxDB() if kind == "single" else ShardedInfluxDB(3)
        db.create_database("pmove")
        db.write_many("pmove", [Point("m", {"obs": s}, {"v": float(t)}, float(t))
                                for s in "abc" for t in range(0, 25, 3)])

        def below(frontier):
            if frontier == -math.inf:
                return []
            return naive_execute(
                db, "pmove", f'SELECT "v" FROM "m" WHERE time < {frontier}').rows

        seen = []
        for op in ops:
            if op[0] == "write":
                db.write("pmove", Point("m", {"obs": op[1]}, {"v": -1.0}, float(op[2])))
            elif op[0] == "delete":
                db.delete_series("pmove", "m", tags={"obs": op[1]})
            elif op[0] == "retain":
                db.set_retention_policy("pmove", float(op[1]))
                db.enforce_retention("pmove", 35.0)
            elif kind == "sharded":
                try:
                    if op[1] == "add":
                        db.add_shard()
                    else:
                        names = db.shard_names()
                        getattr(db, f"{op[1]}_shard")(names[op[2] % len(names)])
                except InfluxError:
                    pass  # the last placeable shard stays
            epoch, _, frontier = db.freshness("pmove", "m")
            seen.append((epoch, frontier, below(frontier)))
            for then, old_frontier, rows in seen:
                if then == epoch:
                    assert old_frontier <= frontier
                    assert below(old_frontier) == rows


class TestFaults:
    def test_down_shard_degrades_to_partial(self):
        db, pts = mk(3)
        victim = db.shard_for("cpu_idle", {"obs": "o0"})
        db.inject_shard_fault(victim, NodeCrash(t0=10.0, t1=20.0))
        db.at(15.0)
        rows = db.points("pmove", "cpu_idle")
        assert db.last_partial
        assert db.partial_queries == 1
        assert 0 < len(rows) < len(pts)
        # Untouched series still serve complete results.
        db.points("pmove", "cpu_idle", tags={"obs": "o0"})  # victim's data
        assert db.last_partial
        survivor = next(
            f"o{s}" for s in range(24)
            if db.shard_for("cpu_idle", {"obs": f"o{s}"}) != victim
        )
        got = db.points("pmove", "cpu_idle", tags={"obs": survivor})
        assert not db.last_partial
        assert len(got) == 40

    def test_listing_measurements_in_an_outage_folds_nothing_on_the_down_shard(self):
        db, _ = mk(3)  # written, never read: every row is unfolded
        victim = db.shard_for("cpu_idle", {"obs": "o0"})
        db.inject_shard_fault(victim, NodeCrash(t0=10.0, t1=20.0))
        assert db.at(15.0).measurements("pmove") == ["cpu_idle"]
        assert db.last_partial
        m = db.shards[victim].stats("pmove")["measurements"]["cpu_idle"]
        assert m["rows_unfolded"] == m["points"] > 0

    def test_recovery_restores_complete_results(self):
        db, pts = mk(3)
        victim = db.shard_for("cpu_idle", {"obs": "o0"})
        db.inject_shard_fault(victim, NodeCrash(t0=10.0, t1=20.0))
        assert len(db.at(25.0).points("pmove", "cpu_idle")) == len(pts)
        assert not db.last_partial

    def test_writes_to_down_shard_drop_and_count(self):
        db, _ = mk(3)
        victim = db.shard_for("cpu_idle", {"obs": "o0"})
        db.inject_shard_fault(victim, NodeCrash(t0=0.0, t1=math.inf))
        db.at(1.0)
        wrote = db.write_many(
            "pmove",
            [Point("cpu_idle", {"obs": "o0"}, {"v": 1.0}, float(i))
             for i in range(5)],
        )
        assert wrote == 0
        assert db.dropped_points[victim] == 5
        other = next(
            f"o{s}" for s in range(24)
            if db.shard_for("cpu_idle", {"obs": f"o{s}"}) != victim
        )
        assert db.write_many(
            "pmove", [Point("cpu_idle", {"obs": other}, {"v": 1.0}, 99.0)]
        ) == 1

    def test_flapping_shard_follows_virtual_clock(self):
        db, pts = mk(2)
        victim = sorted(db.shards)[0]
        db.inject_shard_fault(
            victim, NodeFlap(t0=0.0, t1=100.0, period_s=10.0, down_fraction=0.5)
        )
        down = [t for t in (2.0, 7.0, 12.0, 17.0)
                if not db.at(t)._up(victim)]
        assert down  # flap takes the shard down somewhere in the window
        up_t = next(t for t in (2.0, 7.0, 12.0, 17.0, 102.0)
                    if db.at(t)._up(victim))
        assert len(db.at(up_t).points("pmove", "cpu_idle")) == len(pts)

    def test_rebalance_refuses_with_shard_down(self):
        db, _ = mk(3)
        db.inject_shard_fault("shard-1", NodeCrash(t0=0.0, t1=math.inf))
        db.at(1.0)
        with pytest.raises(InfluxError, match="requires every shard up"):
            db.add_shard()


class TestRebalancing:
    def test_drain_empties_shard_and_preserves_data(self):
        db, pts = mk(3)
        ref = InfluxDB()
        ref.create_database("pmove")
        ref.write_many("pmove", pts)
        summary = db.drain_shard("shard-1")
        assert db.shard_states()["shard-1"] == "draining"
        assert db.shards["shard-1"].stats("pmove")["series_count"] == 0
        assert summary["moved_series"] > 0
        assert db.points("pmove", "cpu_idle") == ref.points("pmove", "cpu_idle")
        # New writes no longer land on the drained shard.
        db.write_many("pmove", [
            Point("cpu_idle", {"obs": f"n{i}"}, {"v": 1.0}, 0.0)
            for i in range(20)
        ])
        assert db.shards["shard-1"].stats("pmove")["series_count"] == 0

    def test_remove_shard_detaches(self):
        db, pts = mk(3)
        db.remove_shard("shard-2")
        assert sorted(db.shards) == ["shard-0", "shard-1"]
        assert db.stats("pmove")["series_count"] == 24
        assert len(db.points("pmove", "cpu_idle")) == len(pts)

    def test_cannot_remove_last_shard(self):
        db = ShardedInfluxDB(1)
        with pytest.raises(InfluxError):
            db.remove_shard("shard-0")

    def test_add_shard_inherits_databases_and_retention(self):
        db, _ = mk(2)
        db.set_retention_policy("pmove", 30.0)
        db.add_shard()
        newbie = db.shards["shard-2"]
        assert "pmove" in newbie.databases()
        db.write_many("pmove", [
            Point("cpu_idle", {"obs": f"r{i}"}, {"v": 1.0}, 5.0)
            for i in range(30)
        ])
        assert db.enforce_retention("pmove", 100.0) > 0
        assert db.points("pmove", "cpu_idle") == []

    def test_migration_preserves_aggregates_and_rollups(self):
        db, pts = mk(3, series=12, points=120)
        ref = InfluxDB()
        ref.create_database("pmove")
        ref.write_many("pmove", pts)
        db.add_shard()
        db.remove_shard("shard-0")
        for agg in ("MEAN", "SUM", "MIN", "MAX", "COUNT", "LAST"):
            assert db.aggregate_columns("pmove", "cpu_idle", agg) == (
                ref.aggregate_columns("pmove", "cpu_idle", agg)
            )
            assert db.scan_buckets("pmove", "cpu_idle", agg, 10.0) == (
                ref.scan_buckets("pmove", "cpu_idle", agg, 10.0)
            )


class TestStats:
    def test_totals_match_single_engine(self):
        db, pts = mk(3)
        ref = InfluxDB()
        ref.create_database("pmove")
        ref.write_many("pmove", pts)
        mine, theirs = db.stats("pmove"), ref.stats("pmove")
        for key in ("points_written", "bytes_written", "series_count"):
            assert mine[key] == theirs[key]
        assert sum(s["series_count"] for s in mine["shards"].values()) == 24

    def test_per_measurement_breakdown(self):
        db = InfluxDB()
        db.create_database("pmove")
        db.write_many("pmove", [
            Point("cpu_idle", {"obs": "a"}, {"v": float(i)}, float(i))
            for i in range(150)
        ])
        s = db.stats("pmove")["measurements"]["cpu_idle"]
        assert s["series"] == 1
        assert s["points"] == 150
        assert s["generation"] > 0
        # 150s of 1 Hz data fills 10s and 60s rollup tiers.
        assert s["rollup_buckets"][10.0] == 15
        assert s["rollup_buckets"][60.0] == 3


class TestGrafanaIntegration:
    def _server(self, db):
        srv = GrafanaServer(db, database="pmove")
        dash = Dashboard(id=1, uid="d", title="t", panels=[
            Panel(id=1, title="p", targets=[
                Target(measurement="cpu_idle", params="v", agg="MEAN",
                       group_by_s=10),
            ]),
        ])
        srv.register(dash)
        return srv

    def test_partial_results_are_served_but_not_cached(self):
        db, _ = mk(3)
        srv = self._server(db)
        victim = db.shard_for("cpu_idle", {"obs": "o0"})
        db.inject_shard_fault(victim, NodeCrash(t0=10.0, t1=20.0))
        db.at(15.0)
        srv.render_panel_text("d", 1)
        assert srv.partial_serves == 1
        assert srv.cache_hits == 0
        # Recovery: same statement, same generation vector — but nothing
        # was cached, so the complete result is recomputed, then cached.
        db.at(25.0)
        srv.render_panel_text("d", 1)
        assert srv.partial_serves == 1
        srv.render_panel_text("d", 1)
        assert srv.cache_hits == 1

    def test_generation_vector_invalidates_after_write(self):
        db, _ = mk(3)
        srv = self._server(db)
        srv.render_panel_text("d", 1)
        srv.render_panel_text("d", 1)
        assert srv.cache_hits == 1
        db.write("pmove", Point("cpu_idle", {"obs": "o0"}, {"v": 0.5}, 39.5))
        srv.render_panel_text("d", 1)
        assert srv.cache_hits == 1  # miss: vector moved

    def test_influxql_executes_against_router(self):
        db, _ = mk(2)
        ref = InfluxDB()
        ref.create_database("pmove")
        got = execute(db, "pmove",
                      'SELECT MEAN("v") FROM "cpu_idle" GROUP BY time(10s)')
        assert len(got.rows) == 4
