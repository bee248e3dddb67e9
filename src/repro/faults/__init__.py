"""Service- and node-level fault injection in virtual time.

Where :mod:`repro.machine.faults` degrades the *target* (throttling,
contention, stragglers), this package breaks the *host-side services* the
telemetry path depends on — the InfluxDB endpoint, the host link, the
insert path — and, one level up, the cluster's *nodes themselves* (crash,
hang, flap), so the resilient shipping layer and the failure-aware
scheduler both have something real to survive.  Every family, the
machine's included, is a configuration of :mod:`.window`'s one fault
window and one schedule.
"""

from .log import ConsumerCrash, LogFaultSet, LogTruncation
from .nodes import (
    NodeCrash,
    NodeFailure,
    NodeFault,
    NodeFaultSet,
    NodeFlap,
    NodeHang,
)
from .services import (
    DbOutage,
    FlakyWrites,
    InsertLatencySpike,
    NetworkPartition,
    ServiceFault,
    ServiceFaultSet,
    ServiceUnavailable,
)

__all__ = [
    "ConsumerCrash",
    "DbOutage",
    "FlakyWrites",
    "InsertLatencySpike",
    "LogFaultSet",
    "LogTruncation",
    "NetworkPartition",
    "NodeCrash",
    "NodeFailure",
    "NodeFault",
    "NodeFaultSet",
    "NodeFlap",
    "NodeHang",
    "ServiceFault",
    "ServiceFaultSet",
    "ServiceUnavailable",
]
