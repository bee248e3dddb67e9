"""Every callable the benchmark's tracer wraps is where the tracer looks.

``benchmarks/e2e/tracing.py`` patches the names in its ``GROUPS`` table by
``cls.__dict__[name]`` (methods) and module attribute (functions).  A read
moved to a mixin, a base class or ``__getattr__`` passes every test under
``tests/`` and then raises ``KeyError`` in the benchmark driver; this is
where it fails first.  The tracer is loaded by path and not edited.

Each module the tracer wraps also declares what it wraps, as data beside
its code (``__traced__``); the two must name the same calls.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _groups():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


ENTRIES = [
    (module, cls, name)
    for entries in _groups().values()
    for module, cls, names in entries
    for name in names
]


@pytest.mark.parametrize("module, cls, name", ENTRIES,
                         ids=[f"{c or m}.{n}" for m, c, n in ENTRIES])
def test_name_resolves_the_way_the_tracer_patches_it(module, cls, name):
    mod = importlib.import_module(module)
    if cls is None:  # Tracer._patch_function
        assert callable(getattr(mod, name))
        return
    raw = getattr(mod, cls).__dict__[name]  # Tracer._patch_method
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{cls}.{name} is {type(raw).__name__}"


def test_router_reads_keep_the_engine_signatures():
    """The router is a drop-in for the engine: every traced name both
    classes have takes the same parameters, with the same defaults."""
    from repro.db.influx import InfluxDB
    from repro.db.sharded import ShardedInfluxDB

    shared = [n for m, c, n in ENTRIES
              if c == "ShardedInfluxDB" and n in InfluxDB.__dict__]
    assert len(shared) >= 17
    for name in shared:
        engine = inspect.signature(InfluxDB.__dict__[name]).parameters
        router = inspect.signature(ShardedInfluxDB.__dict__[name]).parameters
        assert [(p.name, p.kind, p.default) for p in engine.values()] == [
            (p.name, p.kind, p.default) for p in router.values()], name


def test_every_read_the_aggregate_table_dispatches_to_is_traced():
    """A read an aggregate's record names but ``GROUPS`` does not would
    silently drop out of the per-layer breakdown; here it fails instead.
    The engine serves every read a record names (the router's partial reads
    included), the router the ones ``execute`` calls."""
    from repro.db.aggregates import AGGREGATES

    traced = {(c, n) for _, c, n in ENTRIES}
    for a in AGGREGATES.values():
        answers = {a.ungrouped, a.grouped} - {None}
        for name in answers | set(a.partials or ()) - {None}:
            assert ("InfluxDB", name) in traced, (a.name, name)
        for name in answers:
            assert ("ShardedInfluxDB", name) in traced, (a.name, name)


def declared():
    """Every ``(group, module, class, name)`` a ``repro`` module declares in
    its ``__traced__``."""
    out = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(info.name)
        for group, classes in getattr(mod, "__traced__", {}).items():
            for cls, names in classes.items():
                out.update((group, info.name, cls, n) for n in names)
    return out


def traced(groups):
    return {
        (group, module, cls, name)
        for group, entries in groups.items()
        for module, cls, names in entries
        for name in names
    }


def test_the_declarations_are_the_tracer_table():
    """The union of the modules' ``__traced__`` is ``GROUPS``, exactly."""
    have, want = declared(), traced(_groups())
    assert not have - want, f"declared but not traced: {sorted(have - want, key=str)}"
    assert not want - have, f"traced but not declared: {sorted(want - have, key=str)}"

