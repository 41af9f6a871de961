"""Golden CLI bytes: one file per subcommand family under ``golden/``.

Each file is a JSON list of cases, each the argv, the exit code and the
exact stdout of ``surfclass.cli.main``.  An argv names its input files by
the keys of ``inputs()`` (for example ``rcc/torus.cw2``); the runner
writes those texts into a directory and passes their paths to the CLI,
so the stored argv never holds a machine path.

The families and what they cover:

- ``chords``: ``chord enum`` for n = 0..6, unfiltered and for every
  genus 0..3, and ``chord canon`` on every catalog chord fixture;
- ``chord_iso``: ``chord iso`` on every pair of catalog chord fixtures;
- ``complexes``: ``components``, ``surface-check``, ``orient``,
  ``classify`` and ``classify3`` on every catalog complex, in its text
  and its JSON form, and on generated surfaces and 3-complexes;
- ``slw``: ``slw classify`` on every SLW fixture and on ``slw_from_complex``
  of every catalog complex and of a few generated surfaces, and ``slw
  equiv`` on every ordered pair of SLW fixtures;
- ``rot``: ``rot classify`` on every catalog rotation system;
- ``catalog``: ``catalog list``, and ``catalog show`` of every fixture.

Every case runs in text and in JSON output.  Regenerate the files only
when a change is meant to alter these bytes::

    PYTHONPATH=src python tests/golden_cli.py [family ...]
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

from surfclass import (
    SimplicialComplex,
    catalog_get,
    catalog_list,
    close,
    slw_from_complex,
    slw_to_text,
    to_json_obj,
    to_text,
)
from surfclass.cli import main
from surfclass.rotation import chord_text, serialize_rotation

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")
COMPLEX_COMMANDS = ("components", "surface-check", "orient", "classify", "classify3")


def _fixtures(kind: str):
    return [catalog_get(name) for name in catalog_list() if catalog_get(name).kind == kind]


def _solid_klein_bottle(k: int = 3) -> SimplicialComplex:
    """The Freudenthal k^3 ball with its x = k face glued to x = 0 by swapping y and z.

    The swap is a reflection that maps the face triangulation to itself,
    so the quotient is a non-orientable solid: orient3 finds a conflict.
    """
    from test_incidence import freudenthal

    def glue(v: str) -> str:
        x, y, z = v[1:].split("_")
        return f"x0_{z}_{y}" if x == str(k) else v

    return close(tuple(glue(v) for v in tet) for tet in freudenthal(k).tetrahedra())


def _generated() -> dict[str, object]:
    from test_incidence import SOLIDS, SURFACES, grid, pinched

    picked = {
        name: SURFACES[name]
        for name in (
            "torus4", "klein4", "mobius4", "torus5_quads", "klein5_quads", "mobius5_quads",
            "pinched_tori", "pinched_mobius", "torus_extra_face", "bowtie_branch",
            "with_isolated_vertex",
        )
    }
    picked.update((name, SOLIDS[name]) for name in (
        "ball2", "solid_torus3", "boundary_of_4_simplex", "pinched_balls",
        "ball_extra_tet", "tet_with_loose_cells",
    ))
    picked["two_tori"] = pinched(grid("torus", 3), "no-such-vertex")  # disjoint copies
    picked["solid_klein3"] = _solid_klein_bottle()
    picked["tet_fan3"] = close([("0", "1", "2", "3"), ("0", "1", "2", "4"), ("0", "1", "2", "5")])
    return picked


@functools.cache
def inputs() -> dict[str, str]:
    """Every input file the golden argvs name, keyed by its argv token."""
    out: dict[str, str] = {}
    complexes = [(fx.name, fx.kind, fx.payload) for fx in _fixtures("scx") + _fixtures("cw2")]
    for name, kind, cx in complexes:
        out[f"{name}.{kind}"] = to_text(cx)
        out[f"{name}.json"] = json.dumps(to_json_obj(cx))
    generated = _generated()
    for name, cx in generated.items():
        kind = "scx" if isinstance(cx, SimplicialComplex) else "cw2"
        out[f"gen/{name}.{kind}"] = to_text(cx)
    for fx in _fixtures("slw"):
        out[f"{fx.name}.slw"] = slw_to_text(fx.payload)
    for name, _, cx in complexes:
        out[f"{name}.slw"] = slw_to_text(slw_from_complex(cx))
    for name in ("torus4", "klein4", "mobius4", "klein5_quads", "two_tori"):
        out[f"gen/{name}.slw"] = slw_to_text(slw_from_complex(generated[name]))
    return out


def _files(suffix: str, prefix: str = "") -> list[str]:
    return [name for name in inputs() if name.endswith(suffix) and name.startswith(prefix)]


def chords_argvs() -> list[list[str]]:
    argvs = []
    for fmt in FORMATS:
        for n in range(7):
            argvs.append(["chord", "enum", str(n), "--format", fmt])
            for g in range(4):
                argvs.append(["chord", "enum", str(n), "--genus", str(g), "--format", fmt])
        for fx in _fixtures("chord"):
            argvs.append(["chord", "canon", chord_text(fx.payload), "--format", fmt])
    return argvs


def chord_iso_argvs() -> list[list[str]]:
    codes = [chord_text(fx.payload) for fx in _fixtures("chord")]
    return [
        ["chord", "iso", a, b, "--format", fmt]
        for fmt in FORMATS
        for i, a in enumerate(codes)
        for b in codes[i:]
    ]


def complexes_argvs() -> list[list[str]]:
    files = [name for name in inputs() if name.endswith((".scx", ".cw2", ".json"))]
    return [[cmd, f, "--format", fmt] for fmt in FORMATS for cmd in COMPLEX_COMMANDS for f in files]


def slw_argvs() -> list[list[str]]:
    fixtures = _files(".slw", "slw/")
    argvs = []
    for fmt in FORMATS:
        argvs += [["slw", "classify", f, "--format", fmt] for f in _files(".slw")]
        argvs += [["slw", "equiv", a, b, "--format", fmt] for a in fixtures for b in fixtures]
    return argvs


def rot_argvs() -> list[list[str]]:
    return [
        ["rot", "classify", serialize_rotation(fx.payload), "--format", fmt]
        for fmt in FORMATS
        for fx in _fixtures("rot")
    ]


def catalog_argvs() -> list[list[str]]:
    argvs = []
    for fmt in FORMATS:
        argvs.append(["catalog", "list", "--format", fmt])
        argvs += [["catalog", "show", name, "--format", fmt] for name in catalog_list()]
    return argvs


FAMILIES = {
    "chords": chords_argvs,
    "chord_iso": chord_iso_argvs,
    "complexes": complexes_argvs,
    "slw": slw_argvs,
    "rot": rot_argvs,
    "catalog": catalog_argvs,
}


def write_inputs(root: Path) -> None:
    for name, text in inputs().items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_cli(argv: list[str], root: Path) -> dict:
    """One case: stdout and exit code of the CLI, with input names resolved under root."""
    resolved = [str(root / a) if a in inputs() else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@functools.cache
def load(family: str) -> dict[tuple[str, ...], dict]:
    cases = json.loads((GOLDEN / f"{family}.json").read_text(encoding="utf-8"))
    return {tuple(case["argv"]): case for case in cases}


def regenerate(family: str, root: Path) -> None:
    cases = [run_cli(argv, root) for argv in FAMILIES[family]()]
    text = json.dumps(cases, indent=1, ensure_ascii=False) + "\n"
    (GOLDEN / f"{family}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        write_inputs(Path(tmp))
        for family in sys.argv[1:] or FAMILIES:
            regenerate(family, Path(tmp))
