"""Golden CLI bytes for the chord subcommands.

`golden/chords.json` holds the exact stdout and exit code of
`surfclass chord enum` for n = 0..6, unfiltered and for every genus
0..3, and of `surfclass chord canon` on every catalog chord fixture,
each in text and JSON.  The file was captured before chord enumeration
became orderly; regenerate it (``python tests/test_golden_chords.py``)
only when a change is meant to alter these bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from surfclass.catalog import catalog_get, catalog_list
from surfclass.cli import main
from surfclass.rotation import chord_text

GOLDEN = Path(__file__).parent / "golden" / "chords.json"


def golden_argvs() -> list[list[str]]:
    argvs = []
    for fmt in ("text", "json"):
        for n in range(7):
            argvs.append(["chord", "enum", str(n), "--format", fmt])
            for g in range(4):
                argvs.append(["chord", "enum", str(n), "--genus", str(g), "--format", fmt])
        for name in catalog_list():
            fx = catalog_get(name)
            if fx.kind == "chord":
                argvs.append(["chord", "canon", chord_text(fx.payload), "--format", fmt])
    return argvs


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[tuple[str, ...], dict]:
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(case["argv"]): case for case in cases}


def test_golden_file_covers_every_argv(golden):
    assert list(golden) == [tuple(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_bytes_match_golden(golden, argv):
    assert run_cli(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [run_cli(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
