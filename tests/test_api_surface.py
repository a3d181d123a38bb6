"""Every name a qkdsim module exports has a caller in the program.

A name in a module's ``__all__`` counts as used when it is referenced in
``src/``, ``scripts/`` or ``bench/`` outside its own definition.
Re-exports in the package ``__init__`` do not count.  Helpers that only
tests call live in the tests; ``tests/oracles.py`` holds the reference
checks.
"""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import qkdsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qkdsim"

# Exported names allowed to have test callers only, with the reason.
EXCEPTIONS = {
    "unicast_capacity": "single-class max-flow oracle; ROADMAP item 3 makes it the "
    "K=1 case of a multi-class capacity solver",
}


def _references() -> dict[str, set[tuple[Path, str]]]:
    """Name -> the (file, top-level definition) pairs that reference it."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    refs: dict[str, set[tuple[Path, str]]] = defaultdict(set)
    for path in files:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "")
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    refs[node.id].add((path, owner))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].add((path, owner))
    return refs


def test_every_export_is_used_outside_tests():
    refs = _references()
    exported, unused = set(), []
    for info in pkgutil.iter_modules(qkdsim.__path__):
        path = PACKAGE / f"{info.name}.py"
        for name in importlib.import_module(f"qkdsim.{info.name}").__all__:
            exported.add(name)
            if name not in EXCEPTIONS and refs[name] <= {(path, name)}:
                unused.append(f"{info.name}.{name}")
    assert unused == []
    assert set(EXCEPTIONS) <= exported
