"""Database substrates: the InfluxDB-like time-series store (with line
protocol, retention policies and an InfluxQL subset) and the MongoDB-like
document store the Knowledge Base lives in (§III-A)."""

from .faulty import FaultyInfluxDB, ServiceUnavailable
from .influx import (
    DEFAULT_ROLLUP_TIERS,
    InfluxDB,
    InfluxError,
    Point,
    RetentionPolicy,
)
from .influxql import (
    Query,
    ResultSet,
    execute,
    naive_execute,
    parse_query,
    show_measurements,
)
from .mongo import Collection, MongoDB, MongoError
from .sharded import HashRing, ShardedInfluxDB, series_key

__all__ = [
    "Collection",
    "DEFAULT_ROLLUP_TIERS",
    "FaultyInfluxDB",
    "HashRing",
    "InfluxDB",
    "InfluxError",
    "MongoDB",
    "MongoError",
    "Point",
    "Query",
    "ResultSet",
    "RetentionPolicy",
    "ServiceUnavailable",
    "ShardedInfluxDB",
    "execute",
    "naive_execute",
    "series_key",
    "show_measurements",
    "parse_query",
]
