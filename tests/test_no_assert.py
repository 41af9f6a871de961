"""The library validates with explicit checks, never ``assert``.

``python -O`` strips assert statements, so an invariant guarded by one
silently stops being checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import surfclass

SOURCES = sorted(Path(surfclass.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 12


def test_no_assert_statements():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
