"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` scan stands in for a linter's F401: every module-level
import binding must be read somewhere in its module, be listed in the
module's ``__all__``, or carry a ``# noqa: F401`` comment on its line
that says why it stays (a re-export).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "repro").rglob("*.py"))


def _module_imports(tree: ast.Module):
    """The import statements at module level, ``if``/``try`` blocks
    (``TYPE_CHECKING``, optional dependencies) included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _bound_names(node: ast.Import | ast.ImportFrom):
    """``(name, line)`` for each binding an import statement makes."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            name = alias.asname
        elif isinstance(node, ast.Import):
            name = alias.name.split(".")[0]
        else:
            name = alias.name
        yield name, getattr(alias, "lineno", node.lineno)


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation else ():
                if isinstance(inner, ast.Constant) and isinstance(
                    inner.value, str
                ):
                    names |= _read_names(ast.parse(inner.value, mode="eval"))
    return names


def _dunder_all(tree: ast.Module) -> set[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ) and node.value is not None:
                exported.update(
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    return exported


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each unused module-level import binding."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _read_names(tree) | _dunder_all(tree)
    return [
        (line, name)
        for node in _module_imports(tree)
        for name, line in _bound_names(node)
        if name not in used
        and "noqa: F401" not in lines[line - 1]
        and "noqa: F401" not in lines[node.lineno - 1]
    ]


def test_the_scan_sees_the_package():
    assert len(MODULES) > 50


def test_no_module_imports_an_unused_name():
    unused = sorted(
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    )
    assert unused == []


@pytest.mark.parametrize(
    "source,expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b  # noqa: F401 (re-export)\n", []),
        ("from a import (\n    b,  # noqa: F401\n    c,\n)\n", ["c"]),
        ("from a import b\ndef f(x: 'b') -> None: ...\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
         "    from a import b\n", ["b"]),
        ("try:\n    import a\nexcept ImportError:\n    import b\n",
         ["a", "b"]),
        ("from __future__ import annotations\n", []),
    ],
)
def test_the_scan_flags_exactly_the_unused_bindings(source, expected):
    assert sorted(name for _, name in unused_imports(source)) == expected
