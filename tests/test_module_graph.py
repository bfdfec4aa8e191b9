"""Every ``src/repro`` module is on the import graph, or named here.

A module that no other ``src/repro`` module and no ``benchmarks/*.py``
file imports runs only under its own unit tests: nothing in the weekly
loop, the CLI or a paper row depends on it.  The import graph is read
statically from the source.  A name imported through a package
``__init__`` counts as a use of the submodule that defines it; the
``__init__`` re-export itself does not count as a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Modules allowed to have no importer, each with the reason it stays.
ALLOWED_ORPHANS = {
    "repro.features.manual_rules": (
        "the paper's Section 3.3 manual-rule baseline, waiting for its "
        "row in the paper-claims gate"
    ),
    "repro.obs.promcheck": (
        "CI's Prometheus exposition validator, run as a script"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _source_modules() -> dict[str, Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _reexports(modules: dict[str, Path]) -> dict[str, dict[str, tuple[str, str]]]:
    """``package -> {exported name: (source module, source name)}``."""
    table: dict[str, dict[str, tuple[str, str]]] = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        names = table.setdefault(name, {})
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return table


def _defining_module(module, name, modules, reexports, seen=()):
    """The source module that ``from module import name`` reaches."""
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    target = reexports.get(module, {}).get(name)
    if target is None or target in seen:
        return module
    return _defining_module(*target, modules, reexports, seen + (target,))


def _used_modules(modules: dict[str, Path]) -> set[str]:
    reexports = _reexports(modules)
    importers = [p for p in modules.values() if p.name != "__init__.py"]
    importers += sorted((ROOT / "benchmarks").glob("*.py"))
    used: set[str] = set()
    for path in importers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module)
                used.update(
                    _defining_module(node.module, alias.name, modules, reexports)
                    for alias in node.names
                )
    return used


def _orphans() -> set[str]:
    modules = _source_modules()
    candidates = {
        name for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    return candidates - _used_modules(modules)


def test_every_module_is_imported_or_allowed():
    unlisted = sorted(_orphans() - set(ALLOWED_ORPHANS))
    assert not unlisted, (
        f"modules nothing imports: {unlisted}; wire them into the system "
        f"or delete them"
    )


def test_allowed_orphans_are_still_orphans():
    stale = sorted(set(ALLOWED_ORPHANS) - _orphans())
    assert not stale, f"now imported, drop from ALLOWED_ORPHANS: {stale}"

