"""Golden CLI bytes for the chord subcommands.

`golden/chords.json` holds the exact stdout and exit code of
`surfclass chord enum` for n = 0..6, unfiltered and for every genus
0..3, and of `surfclass chord canon` on every catalog chord fixture,
each in text and JSON.  The file was captured before chord enumeration
became orderly; `golden_cli.py` runs and regenerates it with the other
golden families.
"""

from __future__ import annotations

import pytest

from golden_cli import chords_argvs, load, run_cli


@pytest.fixture(scope="module")
def golden() -> dict[tuple[str, ...], dict]:
    return load("chords")


def test_golden_file_covers_every_argv(golden):
    assert list(golden) == [tuple(argv) for argv in chords_argvs()]


@pytest.mark.parametrize("argv", chords_argvs(), ids=" ".join)
def test_cli_bytes_match_golden(golden, argv, tmp_path):
    assert run_cli(argv, tmp_path) == golden[tuple(argv)]
