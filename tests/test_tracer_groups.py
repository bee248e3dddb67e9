"""Every callable the benchmark's tracer wraps is where the tracer looks.

``benchmarks/e2e/tracing.py`` patches the names in its ``GROUPS`` table by
``cls.__dict__[name]`` (methods) and module attribute (functions).  A read
moved to a mixin, a base class or ``__getattr__`` passes every test under
``tests/`` and then raises ``KeyError`` in the benchmark driver; this is
where it fails first.  The tracer is loaded by path and not edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
