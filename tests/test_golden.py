"""Golden CLI bytes for every subcommand family but the chord ones.

Each family file under `golden/` was captured before the connectivity
and orientation helpers were merged, except the six `orient` cases on
branched input (`gen/torus_extra_face`, `gen/bowtie_branch`,
`gen/tet_fan3`), regenerated when `orient` began to refuse them with
exit 4; see `golden_cli.py` for what each family covers and how to
regenerate it.
"""

from __future__ import annotations

import pytest

from golden_cli import FAMILIES, load, run_cli, write_inputs

CHECKED = [family for family in FAMILIES if family != "chords"]  # test_golden_chords.py


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    write_inputs(path)
    return path


@pytest.mark.parametrize("family", CHECKED)
def test_golden_file_covers_every_argv(family):
    assert list(load(family)) == [tuple(argv) for argv in FAMILIES[family]()]


@pytest.mark.parametrize(
    "family, argv",
    [(family, argv) for family in CHECKED for argv in FAMILIES[family]()],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_cli_bytes_match_golden(root, family, argv):
    assert run_cli(argv, root) == load(family)[tuple(argv)]
