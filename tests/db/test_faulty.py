"""Tests for the failure-injectable InfluxDB wrapper."""

import pytest

from repro.db import FaultyInfluxDB, InfluxDB, Point, ServiceUnavailable
from repro.faults import DbOutage, NetworkPartition, ServiceFaultSet


def make(faults=None):
    inner = InfluxDB()
    inner.create_database("db")
    return inner, FaultyInfluxDB(inner, faults)


def pt(t=1.0, v=1.0):
    return Point(measurement="m", tags={"tag": "x"}, fields={"f": v}, time=t)


class TestDelegation:
    def test_writes_pass_through_when_healthy(self):
        inner, proxy = make()
        proxy.at(1.0).write("db", pt())
        proxy.write_many("db", [pt(2.0), pt(3.0)])
        proxy.write_lines("db", pt(4.0).to_line())
        assert len(inner.points("db", "m")) == 4
        assert proxy.accepted_writes == 3
        assert proxy.rejected_writes == 0

    def test_reads_and_admin_delegate(self):
        inner, proxy = make()
        proxy.write("db", pt())
        assert proxy.databases() == inner.databases()
        assert proxy.measurements("db") == ["m"]
        assert proxy.points("db", "m") == inner.points("db", "m")
        proxy.create_database("db2")
        assert "db2" in inner.databases()


class TestInjection:
    def test_write_fails_during_outage(self):
        faults = ServiceFaultSet([DbOutage(t0=2.0, t1=4.0)])
        inner, proxy = make(faults)
        proxy.at(1.0).write("db", pt(1.0))
        with pytest.raises(ServiceUnavailable) as err:
            proxy.at(3.0).write("db", pt(3.0))
        assert err.value.reason == "db-outage"
        assert err.value.t == 3.0
        proxy.at(5.0).write("db", pt(5.0))
        assert len(inner.points("db", "m")) == 2
        assert proxy.rejected_writes == 1
        assert proxy.accepted_writes == 2

    def test_all_write_methods_are_guarded(self):
        faults = ServiceFaultSet([NetworkPartition(t0=0.0, t1=10.0)])
        _, proxy = make(faults)
        proxy.at(5.0)
        with pytest.raises(ServiceUnavailable):
            proxy.write("db", pt())
        with pytest.raises(ServiceUnavailable):
            proxy.write_many("db", [pt()])
        with pytest.raises(ServiceUnavailable):
            proxy.write_lines("db", pt().to_line())
        assert proxy.rejected_writes == 3

    def test_reads_survive_the_outage(self):
        faults = ServiceFaultSet()
        inner, proxy = make(faults)
        proxy.at(0.5).write("db", pt(0.5))
        with faults.scoped(DbOutage(t0=1.0, t1=2.0)):
            # Dashboards keep querying whatever made it in.
            assert len(proxy.at(1.5).points("db", "m")) == 1

    def test_default_fault_set_is_empty(self):
        _, proxy = make()
        assert proxy.faults.faults == []
        proxy.at(123.0).write("db", pt())  # no faults: any time is fine

    def test_an_empty_set_handed_in_is_the_one_consulted(self):
        """An empty fault set is falsy; the proxy must keep it, not swap in
        a fresh one, so a fault injected later still bites."""
        faults = ServiceFaultSet()
        _, proxy = make(faults)
        assert proxy.faults is faults
        faults.inject(DbOutage(t0=0.0, t1=10.0))
        with pytest.raises(ServiceUnavailable):
            proxy.at(5.0).write("db", pt())
