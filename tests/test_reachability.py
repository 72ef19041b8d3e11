"""Every module under ``src/repro`` is reachable from something a user runs.

A static import closure over the AST, no module is executed.  The roots
are the ``repro`` command (``repro.__main__``, ``repro.cli.main`` and
the command modules its ``COMMANDS`` table names), ``examples/``,
``scripts/`` and ``ledger/``.  An edge is an ``import`` statement
(outside ``if TYPE_CHECKING:``), a module path a ``lazy_exports`` table
names, a string that is nothing but a module path (the
``runtime.registry`` rows, ``ledger/trace.py``'s binding sites), with
an optional ``:attribute``, or the imports of a string that is a
``python -c`` program.  Importing ``a.b.c`` imports ``a`` and ``a.b``
too.

A module nothing reaches fails here, in the PR that orphans it; one
kept anyway goes into :data:`UNREACHED` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no root reaches, each with the reason it stays.
UNREACHED: dict[str, str] = {}

_MODULE_PATH = re.compile(r"(repro(?:\.\w+)*)(?::\w+)?")
_CODE = re.compile(r"(from|import) repro\b")


def _modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", "")
    return name == "TYPE_CHECKING"


def _nodes(tree: ast.AST):
    """Every node but those under ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """Module names ``path`` (module ``name``, or a script) imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = _named(ast.parse(path.read_text(encoding="utf-8")), package)
    closed = set()
    for module in found:
        parts = module.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {module for module in closed if module in modules}


def _named(tree: ast.AST, package: str) -> set[str]:
    found: set[str] = set()
    for node in _nodes(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            found.update(
                f"{package}.{key.value}"
                for key in node.args[1].keys
                if isinstance(key, ast.Constant)
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _MODULE_PATH.fullmatch(node.value)
            if match:
                found.add(match.group(1))
            elif _CODE.match(node.value):
                # A ``python -c`` program, as ledger/run.py runs one.
                found |= _named(ast.parse(node.value), package)
    return found


def _roots(modules: dict[str, Path]) -> dict[str, Path]:
    from repro.cli.main import COMMANDS

    roots = {name: modules[name] for name in ("repro.__main__", "repro.cli.main")}
    roots.update(
        (f"repro.cli.{owner}", modules[f"repro.cli.{owner}"])
        for owner, _ in COMMANDS.values()
    )
    for directory in ("examples", "scripts", "ledger"):
        roots.update(
            (f"{directory}/{path.name}", path)
            for path in sorted((ROOT / directory).glob("*.py"))
        )
    return roots


@pytest.fixture(scope="module")
def reached() -> set[str]:
    modules = _modules()
    roots = _roots(modules)
    seen = set(roots) & set(modules)
    frontier = list(roots.items())
    while frontier:
        name, path = frontier.pop()
        for module in _imports(name, path, modules) - seen:
            seen.add(module)
            frontier.append((module, modules[module]))
    return seen


def test_every_module_is_reached(reached):
    orphans = sorted(set(_modules()) - reached - set(UNREACHED))
    assert orphans == [], (
        f"no command, example, script or ledger file imports {orphans}: "
        "delete them, or list them in UNREACHED with the reason they stay"
    )


def test_every_exception_is_still_unreached(reached):
    assert set(UNREACHED) & reached == set()


def test_each_kind_of_edge():
    source = """
from typing import TYPE_CHECKING
import repro.a
from . import b
from .c import name
__getattr__, __dir__ = lazy_exports(globals(), {"d": ("D",)})
ROW = ("repro.e", "Class")
SITE = "repro.f:attribute"
PROGRAM = "from repro.g import h; print(h())"
NOTE = "repro.i is mentioned in prose"
if TYPE_CHECKING:
    import repro.annotation_only
"""
    assert _named(ast.parse(source), "repro.pkg") == {
        "typing", "typing.TYPE_CHECKING", "repro.a", "repro.pkg",
        "repro.pkg.b", "repro.pkg.c", "repro.pkg.c.name", "repro.pkg.d",
        "repro.e", "repro.f", "repro.g", "repro.g.h",
    }
