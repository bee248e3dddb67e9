"""Benchmark-owned span recorder for the per-layer breakdown.

Nothing under ``src/`` is instrumented: :class:`Tracer` replaces each
layer's *public* callables (class attributes and module functions) with a
recording wrapper for the duration of a traced run and puts the originals
back afterwards.  A span is (id, parent id, name, start, end, round id); a
layer's *self time* is its spans' duration minus the part their child spans
cover, so the rows of one phase sum to the wall time spent under the
benchmark's root spans.

Every call is aggregated (calls + self time per span name, per phase);
full span records are kept only for the rounds the runner samples
(``Tracer.keep``), so memory and the trace file stay bounded however many
``TDigest.add`` calls a run makes.

The wrapper's own cost lands mostly in the *caller's* self time (the clock
is read just inside the wrapper), so a layer that makes many tiny calls
into a wrapped leaf — ``db.influx.write`` → ``TDigest.add`` — looks a bit
heavier traced than it is untraced; ``trace.overhead_ratio`` reports the
total.
"""

from __future__ import annotations

import importlib
import sys
import time

__all__ = ["Tracer", "GROUPS", "RESULT_UNITS", "group_of"]

#: group → [(module, class or None, public callables)].  ``None`` = module
#: functions.  Groups are the rows of the breakdown table; the layer is
#: the group name up to the ``src/repro`` module it lives in.
GROUPS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "machine": [
        ("repro.machine.simulator", "SimulatedMachine", (
            "advance", "run_kernel", "read", "read_batch", "read_cpu",
            "read_socket", "busy_fraction", "busy_fractions")),
        ("repro.machine.timeline", "Timeline", (
            "integrate", "integrate_batch", "integrate_many", "add_rate",
            "add_total", "bulk_add")),
        ("repro.machine.activity", "SoftwareState", ("instances", "value")),
    ],
    "pmu": [
        ("repro.pmu.counters", "PMU", (
            "program", "stop", "read", "read_interval", "read_all_cpus",
            "read_events_all_cpus")),
        ("repro.pmu.abstraction", "AbstractionLayer", (
            "formula", "get", "hw_events_needed", "evaluate")),
    ],
    "pcp.pmcd": [("repro.pcp.pmcd", "Pmcd", ("fetch", "available_metrics"))],
    "pcp.sampler": [
        ("repro.pcp.sampler", "Sampler", ("run", "sampling_overhead")),
    ],
    "pcp.transport": [
        ("repro.pcp.transport", "TransportModel", (
            "ship_time", "mean_ship_time", "zero_batch_probability",
            "hiccup_rate")),
    ],
    "pcp.shipper": [
        ("repro.pcp.shipper", "Shipper", (
            "offer", "advance", "drain", "replay_wal")),
    ],
    "pcp.commitlog": [
        ("repro.pcp.commitlog", "CommitLog", (
            "append", "flush", "poll", "commit", "trim", "at", "lag",
            "total_lag", "park", "requeue", "join", "leave", "assignment",
            "committed", "stats")),
        ("repro.pcp.commitlog", "LogProducer", ("produce", "flush")),
    ],
    "pcp.consumers": [
        ("repro.pcp.consumers", "IngestPipeline", (
            "produce", "pump", "drain", "backlog_records", "flat_counters",
            "health")),
        ("repro.pcp.consumers", "LogConsumer", ("step",)),
    ],
    "db.influx.write": [
        ("repro.db.influx", "InfluxDB", (
            "write", "write_many", "write_lines", "import_rows",
            "delete_series", "enforce_retention")),
    ],
    "db.influx.read": [
        ("repro.db.influx", "InfluxDB", (
            "points", "scan_points", "scan_columns", "scan_keyed",
            "aggregate_columns", "scan_buckets", "aggregate_partials",
            "bucket_partials", "quantile_buckets", "quantile_columns",
            "stddev_columns", "stddev_buckets", "distinct_keyed",
            "distinct_values", "count_distinct", "quantile_partials",
            "quantile_bucket_partials", "distinct_partials", "generation",
            "max_seq", "measurements", "series_count", "list_series")),
    ],
    "db.sketch": [
        ("repro.db.sketch", "TDigest", (
            "add", "add_many", "merge_from", "merged", "quantile",
            "to_dict", "from_dict")),
        ("repro.db.sketch", "HyperLogLog", (
            "add", "add_hash", "merge_from", "count", "to_dict",
            "from_dict")),
    ],
    "db.sharded.route": [
        ("repro.db.sharded", "ShardedInfluxDB", (
            "write", "write_many", "write_lines")),
    ],
    "db.sharded.gather": [
        ("repro.db.sharded", "ShardedInfluxDB", (
            "points", "scan_points", "scan_columns", "aggregate_columns",
            "scan_buckets", "quantile_columns", "quantile_buckets",
            "stddev_columns", "stddev_buckets", "distinct_values",
            "count_distinct", "generation", "max_seq", "measurements")),
    ],
    "db.influxql.parse": [("repro.db.influxql", None, ("parse_query",))],
    "db.influxql.execute": [
        ("repro.db.influxql", None, ("execute", "show_measurements")),
    ],
    "db.mongo": [
        ("repro.db.mongo", "Collection", (
            "create_index", "insert_one", "insert_many", "find", "find_one",
            "count_documents", "distinct", "update_one", "update_many",
            "replace_one", "delete_many")),
        ("repro.db.mongo", "MongoDB", ("collection",)),
    ],
    "core.kb": [
        ("repro.core.kb", "KnowledgeBase", (
            "from_probe", "save", "append_entry", "entries_of_type",
            "to_jsonld", "subtree", "get")),
    ],
    "viz.generator": [("repro.viz.generator", None, ("generate_dashboard",))],
    "viz.grafana": [
        ("repro.viz.grafana", "GrafanaServer", (
            "register", "get", "target_statement", "execute_target",
            "execute_panel", "set_tenant_cache_size", "tenant_cache_info")),
    ],
    "serve": [
        ("repro.serve.frontend", "ServingFrontend", (
            "submit", "run", "drain", "health")),
        ("repro.serve.executor", "BoundedExecutor", (
            "schedule_arrival", "enqueue", "run", "drain")),
        ("repro.serve.admission", "AdmissionController", ("admit",)),
    ],
    "core.superdb": [
        ("repro.core.superdb", "SuperDB", (
            "report", "anti_entropy", "sync_status", "compare_metric")),
        ("repro.core.federation", "FederationLink", (
            "report", "anti_entropy", "sync_status")),
    ],
    "core.daemon": [
        ("repro.core.daemon", "PMoVE", (
            "attach_target", "target", "scenario_a", "resolve_events",
            "scenario_b", "enable_durable_ingest", "enable_serving",
            "push_to_superdb", "recall_observation")),
        ("repro.core.queries", None, ("generate_queries", "recall")),
    ],
}

#: span name → units of work in its return value, summed beside the calls
RESULT_UNITS = {
    "Pmcd.fetch": lambda report: report.n_points,
    "generator.generate_dashboard": lambda dashboard: len(dashboard.panels),
}

_SPAN_GROUP: dict[str, str] = {}
for _group, _entries in GROUPS.items():
    for _module, _cls, _names in _entries:
        for _n in _names:
            _SPAN_GROUP[f"{_cls or _module.rsplit('.', 1)[1]}.{_n}"] = _group


def group_of(span: str) -> str:
    """Breakdown row a span name belongs to (``bench.*`` is its own row)."""
    return _SPAN_GROUP.get(span, "bench")


_ABSENT = object()


class Tracer:
    """Patch-in/patch-out span recorder with per-phase aggregates."""

    def __init__(self) -> None:
        self.phase = "idle"
        self.round = -1
        #: keep full span records (not only aggregates) while true
        self.keep = False
        self.spans: list[tuple | None] = []
        self._stack: list[list[int]] = []
        #: span name → [calls, self_ns, units], for the current phase
        self._cells: dict[str, list[int]] = {}
        #: phase → span name → (calls, self_ns, units)
        self.by_phase: dict[str, dict[str, tuple[int, int, int]]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """Recording wrapper around ``fn``; spans aggregate under ``name``."""
        cell = self._cells.setdefault(name, [0, 0, 0])
        stack, spans, clock, tracer = (
            self._stack, self.spans, time.perf_counter_ns, self)
        units = RESULT_UNITS.get(name)
        if units is not None:
            inner = fn

            def fn(*args, **kwargs):
                result = inner(*args, **kwargs)
                cell[2] += units(result)
                return result

        def traced(*args, **kwargs):
            frame = [0, -1]  # ns covered by child spans, own span id
            if tracer.keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                cell[0] += 1
                cell[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] >= 0:
                    spans[frame[1]] = (
                        frame[1], stack[-1][1] if stack else -1, name,
                        t0, t1, tracer.round,
                    )

        traced.__wrapped__ = fn
        return traced

    def set_phase(self, phase: str) -> None:
        """Close the current phase's aggregates and start ``phase``."""
        done = self.by_phase.setdefault(self.phase, {})
        for name, cell in self._cells.items():
            if cell[0]:
                calls, self_ns, units = done.get(name, (0, 0, 0))
                done[name] = (calls + cell[0], self_ns + cell[1], units + cell[2])
                cell[0] = cell[1] = cell[2] = 0
        self.phase = phase

    # ------------------------------------------------------------------
    def install(self, workload=None) -> None:
        """Wrap every callable named in :data:`GROUPS`, and the phases of
        ``workload`` as the ``bench.*`` root spans."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for attr in ("setup", "ingest", "refresh", "after") if workload else ():
            self._patches.append((workload, attr, _ABSENT))
            setattr(workload, attr, self.wrap(f"bench.{attr}", getattr(workload, attr)))
        for entries in GROUPS.values():
            for module_name, cls_name, names in entries:
                module = importlib.import_module(module_name)
                for attr in names:
                    if cls_name is None:
                        self._patch_function(module, attr)
                    else:
                        self._patch_method(getattr(module, cls_name), attr)

    def _patch_method(self, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]  # KeyError = GROUPS names a moved method
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module, attr: str) -> None:
        """Module functions are imported by name elsewhere (``from
        repro.db.influxql import execute``), so every ``repro`` module
        holding a reference is re-pointed, not only the defining one."""
        original = getattr(module, attr)
        wrapped = self.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is _ABSENT:
                delattr(owner, attr)  # instance attribute shadowing a method
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def phase_rows(self, phase: str, scale: float = 1.0) -> dict[str, dict[str, float]]:
        """group → {self_s, calls} for one closed phase; ``scale`` is the
        caller's calibration of that phase's seconds."""
        rows: dict[str, dict[str, float]] = {}
        for name, (calls, self_ns, _) in self.by_phase.get(phase, {}).items():
            row = rows.setdefault(group_of(name), {"self_s": 0.0, "calls": 0})
            row["self_s"] += scale * self_ns / 1e9
            row["calls"] += calls
        return rows

    def span_stat(self, phase: str, *prefixes: str,
                  scale: float = 1.0) -> tuple[int, float, int]:
        """(calls, self seconds, result units) of the spans whose name
        starts with any of ``prefixes``, in one closed phase."""
        calls = self_ns = units = 0
        for name, (c, ns, u) in self.by_phase.get(phase, {}).items():
            if name.startswith(prefixes):
                calls += c
                self_ns += ns
                units += u
        return calls, scale * self_ns / 1e9, units

    def kept_spans(self) -> list[dict]:
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
             "end_ns": s[4], "round": s[5]}
            for s in self.spans if s is not None
        ]
