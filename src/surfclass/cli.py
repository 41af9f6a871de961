"""Command-line interface.

One executable, one subcommand per question: connected components,
surface checks, orientation, classification of 2-complexes and
simplicial 3-complexes, SLW-graph equivalence and classification,
rotation-system classification, chord-diagram canonicalization and
enumeration, and a browser for the built-in catalog.

Exit codes: 0 a verdict was computed (even a negative one such as
"non-orientable"), 2 usage or unknown name or bound exceeded, 3 parse
error, 4 the input is not a surface / manifold / nonempty complex
(the partial verdict is still printed).

Each subcommand handler returns its text lines, its JSON object and its
exit code; ``main`` is the only code that writes them out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import Fixture, catalog_get, catalog_list
from .classify import SurfaceType, classify_surface
from .complexes import Complex, parse_complex, to_text
from .connectivity import components
from .errors import (
    BoundExceeded,
    Disconnected,
    EmptyComplex,
    NotLocallyPlanar,
    NotManifold,
    NotSurface,
    ParseError,
    SizeMismatch,
    TopologyError,
    UnknownFixture,
)
from .manifold3 import _triangle_defect, is_3manifold
from .orientation import NonOrientable, orient2, orient3
from .rotation import (
    chord_canonical,
    chord_isomorphic,
    chord_text,
    classify_embedding,
    enumerate_chords,
    parse_chord_code,
    parse_rotation,
    serialize_rotation,
)
from .slw import classify_slw, parse_slw, slw_equivalent, slw_to_text
from .surface import _edge_defect, is_surface

# raised by verdict-bearing failures; the CLI prints and exits 4
_VERDICT_ERRORS = (NotSurface, NotManifold, NotLocallyPlanar, Disconnected, EmptyComplex)
# exit codes of the other failures, first match wins; the message goes to stderr
_ERROR_EXITS = (
    (ParseError, 3),
    ((UnknownFixture, BoundExceeded, ValueError), 2),
    (TopologyError, 4),
)

Output = tuple[list[str], dict, int]  # text lines, JSON object, exit code


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _complex(args) -> Complex:
    return parse_complex(_read(args.file), fmt=args.input)


def _type_obj(t: SurfaceType) -> dict:
    return {
        "name": t.name(),
        "orientable": t.orientable,
        "genus": t.genus,
        "boundary": t.boundary,
        "euler": t.euler,
    }


def _type_line(t: SurfaceType) -> str:
    side = "orientable" if t.orientable else "non-orientable"
    return f"{t.name()}: {side} genus {t.genus}, {t.boundary} boundary, χ={t.euler}"


def _edge_text(e: tuple[str, ...]) -> str:
    return "{" + ",".join(e) + "}"


def _refused(label: str, key: str, defect: Exception | None) -> Output:
    return [f"{label}: no", f"reason: {defect}"], {key: False, "reason": str(defect)}, 4


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def _cmd_components(args) -> Output:
    part = components(_complex(args))
    lines = [f"{part.count()} components"]
    lines += [f"component {i}: " + " ".join(comp) for i, comp in enumerate(part.components)]
    return lines, {"count": part.count(), "components": [list(c) for c in part.components]}, 0


def _cmd_surface_check(args) -> Output:
    chk = is_surface(_complex(args))
    if not chk.surface:
        return _refused("surface", "surface", chk.defect)
    lines = [
        "surface: yes",
        f"closed: {'yes' if chk.closed else 'no'}",
        f"boundary components: {chk.boundary_count}",
    ]
    obj = {"surface": True, "closed": chk.closed, "boundary_components": chk.boundary_count}
    return lines, obj, 0


def _cmd_orient(args) -> Output:
    # orient2/orient3 assume at most two 2-cells on an edge, two tetrahedra on a triangle
    cx = _complex(args)
    if cx.tetrahedra():
        cofaces, defect, orient = cx.incidence.triangle_tets, _triangle_defect, orient3
    else:
        cofaces, defect, orient = cx.incidence.edge_cells, _edge_defect, orient2
    for f, cells in cofaces.items():
        if len(cells) > 2:
            raise defect(f, len(cells))
    res = orient(cx)
    cells = [list(c) for c in res.cells]
    if isinstance(res, NonOrientable):
        kind = "edge" if len(res.conflict) == 2 else "triangle"
        line = f"non-orientable (conflict on {kind} {_edge_text(res.conflict)})"
        return [line], {"orientable": False, "conflict": list(res.conflict), "cells": cells}, 0
    lines = ["orientable"] + [" ".join(cell) for cell in res.cells]
    return lines, {"orientable": True, "cells": cells}, 0


def _cmd_classify(args) -> Output:
    types = classify_surface(_complex(args))
    if len(types) == 1:
        lines = [_type_line(types[0])]
    else:
        lines = [f"component {i}: {_type_line(t)}" for i, t in enumerate(types)]
    return lines, {"components": [_type_obj(t) for t in types]}, 0


def _cmd_classify3(args) -> Output:
    chk = is_3manifold(_complex(args))
    if not chk.manifold:
        return _refused("3-manifold", "manifold", chk.defect)
    names = [t.name() for t in chk.boundary]
    lines = [
        "3-manifold: yes",
        f"closed: {'yes' if chk.closed else 'no'}",
        "boundary: " + (" ".join(names) if names else "none"),
    ]
    boundary = [_type_obj(t) for t in chk.boundary]
    return lines, {"manifold": True, "closed": chk.closed, "boundary": boundary}, 0


def _cmd_slw_equiv(args) -> Output:
    s1 = parse_slw(_read(args.file1))
    s2 = parse_slw(_read(args.file2))
    try:
        wit = slw_equivalent(s1, s2)
    except SizeMismatch as exc:
        return [f"not equivalent ({exc})"], {"equivalent": False, "reason": str(exc)}, 0
    if wit is None:
        return ["not equivalent"], {"equivalent": False}, 0
    lines = ["equivalent"] + [f"{a} -> {wit[a]}" for a in sorted(wit)]
    return lines, {"equivalent": True, "witness": wit}, 0


def _cmd_slw_classify(args) -> Output:
    t = classify_slw(parse_slw(_read(args.file)))
    return [_type_line(t)], {"components": [_type_obj(t)]}, 0


def _cmd_rot_classify(args) -> Output:
    src = args.rotation
    t = classify_embedding(parse_rotation(src if "{" in src else _read(src)))
    return [_type_line(t)], {"components": [_type_obj(t)]}, 0


def _cmd_chord_canon(args) -> Output:
    canon = chord_text(chord_canonical(parse_chord_code(args.code)))
    return [canon], {"canonical": canon}, 0


def _cmd_chord_iso(args) -> Output:
    same = chord_isomorphic(parse_chord_code(args.code1), parse_chord_code(args.code2))
    return ["isomorphic" if same else "not isomorphic"], {"isomorphic": same}, 0


def _cmd_chord_enum(args) -> Output:
    codes = enumerate_chords(args.n, genus_filter=args.genus, bound=args.bound)
    lines = [chord_text(c) for c in codes]
    return lines, {"codes": lines}, 0


def _payload_text(fx: Fixture) -> str:
    if fx.kind in ("scx", "cw2"):
        return to_text(fx.payload)
    if fx.kind == "rot":
        return serialize_rotation(fx.payload)
    if fx.kind == "chord":
        return chord_text(fx.payload)
    return slw_to_text(fx.payload)


def _expected_text(fx: Fixture) -> str:
    if isinstance(fx.expected, SurfaceType):
        return fx.expected.name()
    if isinstance(fx.expected, tuple):
        return "; ".join(" ".join(c) for c in fx.expected)
    return str(fx.expected)


def _cmd_catalog_list(args) -> Output:
    names = catalog_list()
    return names, {"fixtures": names}, 0


def _cmd_catalog_show(args) -> Output:
    fx = catalog_get(args.name)
    obj = {
        "name": fx.name,
        "kind": fx.kind,
        "note": fx.note,
        "expected": _expected_text(fx),
        "payload": _payload_text(fx),
    }
    lines = [f"{key}: {obj[key]}" for key in ("name", "kind", "note", "expected")]
    return lines + ["---"] + obj["payload"].splitlines(), obj, 0


# ---------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------


def _arg(name: str, **options) -> tuple[str, dict]:
    return name, options


_FORMAT = _arg("--format", choices=("text", "json"), default="text")
_COMPLEX = (
    _arg("file", help="complex file, or - for stdin"),
    _FORMAT,
    _arg("--input", choices=("scx", "cw2", "auto"), default="auto"),
)

# (command words, help, arguments in order, handler); a group has no
# handler and takes its subcommands under the dest "<word>_command"
_COMMANDS = (
    ("components", "connected components of a complex", _COMPLEX, _cmd_components),
    ("surface-check", "edge and vertex conditions", _COMPLEX, _cmd_surface_check),
    ("orient", "orient 2-cells (or tetrahedra) consistently", _COMPLEX, _cmd_orient),
    ("classify", "name the surface of every component", _COMPLEX, _cmd_classify),
    ("classify3", "check a simplicial 3-complex is a manifold", _COMPLEX, _cmd_classify3),
    ("slw", "systems of loops and words", (), None),
    ("slw equiv", "find a letter bijection between two SLW files",
     (_arg("file1"), _arg("file2"), _FORMAT), _cmd_slw_equiv),
    ("slw classify", "name the surface an SLW presents",
     (_arg("file", help="SLW file, or - for stdin"), _FORMAT), _cmd_slw_classify),
    ("rot", "rotation systems with edge signs", (), None),
    ("rot classify", "name the surface of an embedding",
     (_arg("rotation", help="rotation text, a file, or - for stdin"), _FORMAT), _cmd_rot_classify),
    ("chord", "chord diagrams", (), None),
    ("chord canon", "canonical form of one diagram", (_arg("code"), _FORMAT), _cmd_chord_canon),
    ("chord iso", "decide whether two diagrams are isomorphic",
     (_arg("code1"), _arg("code2"), _FORMAT), _cmd_chord_iso),
    ("chord enum", "all canonical diagrams with n chords",
     (_arg("n", type=int), _arg("--genus", type=int, default=None),
      _arg("--bound", type=int, default=8), _FORMAT), _cmd_chord_enum),
    ("catalog", "built-in fixtures", (), None),
    ("catalog list", "all fixture names", (_FORMAT,), _cmd_catalog_list),
    ("catalog show", "print one fixture in its file format",
     (_arg("name"), _FORMAT), _cmd_catalog_show),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process's one shared parser, built on first use; do not mutate it."""
    ap = argparse.ArgumentParser(
        prog="surfclass",
        description="Recognize and classify surfaces given combinatorially.",
    )
    subparsers = {"": ap.add_subparsers(dest="command", required=True)}
    for words, help_text, arguments, handler in _COMMANDS:
        group, _, name = words.rpartition(" ")
        p = subparsers[group].add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        if handler is None:
            subparsers[words] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(func=handler)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, obj, code = args.func(args)
    except _VERDICT_ERRORS as exc:
        lines, obj, code = [f"verdict: no ({exc})"], {"verdict": False, "reason": str(exc)}, 4
    except (TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds))
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
