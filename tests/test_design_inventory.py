"""DESIGN.md's "System inventory" names every package and module of
``src/repro`` — and nothing that is gone."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _documented() -> set[str]:
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    found, package = set(), None
    for line in block.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "src/repro/":
            continue
        if tokens[0].endswith("/"):
            package = tokens.pop(0)
            found.add(package)
        elif not line.startswith("    "):
            package = ""  # a module of the root package, e.g. cli.py
        found.update(package + t for t in tokens)
    return found


def _present() -> set[str]:
    src = ROOT / "src" / "repro"
    found = set()
    for path in src.rglob("*.py"):
        rel = path.relative_to(src)
        if len(rel.parts) > 1:
            found.add(rel.parts[0] + "/")
        if path.name != "__init__.py":
            found.add(rel.as_posix())
    return found


def test_every_package_and_module_is_on_the_map():
    documented, present = _documented(), _present()
    assert not present - documented, f"missing from DESIGN.md: {sorted(present - documented)}"
    assert not documented - present, f"DESIGN.md names what is gone: {sorted(documented - present)}"
