"""Structural guards on the package source, read with ``ast``.

Every connectivity question goes through ``connectivity.classes`` and
every orientability question through ``connectivity.two_colour``; a
second union-find or BFS queue elsewhere would be a second copy of one
of them.  ``__all__`` is derived from the package imports, so it must
name exactly what they bind.  The command handlers return their output,
and ``cli.main`` alone prints it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import surfclass
from test_no_assert import SOURCES


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_union_find_outside_connectivity():
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("find", "union")
    ]
    assert found == []


def test_no_module_but_connectivity_imports_deque():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if name != "connectivity.py"
        and (
            isinstance(node, ast.ImportFrom) and any(a.name == "deque" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "deque"
        )
    ]
    assert found == []


def test_all_is_every_name_the_package_imports():
    init = Path(surfclass.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(bound) == len(set(bound))
    assert sorted(surfclass.__all__) == sorted(bound)
    assert all(hasattr(surfclass, name) for name in surfclass.__all__)


def test_only_cli_main_prints():
    printers = [
        f"{name}:{node.lineno} {fn.name}"
        for name, tree in _trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert printers and all(p.startswith("cli.py:") and p.endswith(" main") for p in printers)
