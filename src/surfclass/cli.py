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
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import Fixture, catalog_get, catalog_list
from .classify import SurfaceType, classify_surface
from .complexes import parse_complex, to_text
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
from .manifold3 import is_3manifold
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
from .surface import is_surface

# raised by verdict-bearing failures; the CLI prints and exits 4
_VERDICT_ERRORS = (NotSurface, NotManifold, NotLocallyPlanar, Disconnected, EmptyComplex)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _emit(args, text_lines: list[str], obj: dict) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def _cmd_components(args) -> int:
    cx = parse_complex(_read(args.file), fmt=args.input)
    part = components(cx)
    lines = [f"{part.count()} components"]
    for i, comp in enumerate(part.components):
        lines.append(f"component {i}: " + " ".join(comp))
    _emit(args, lines, {"count": part.count(), "components": [list(c) for c in part.components]})
    return 0


def _cmd_surface_check(args) -> int:
    cx = parse_complex(_read(args.file), fmt=args.input)
    chk = is_surface(cx)
    if not chk.surface:
        _emit(
            args,
            ["surface: no", f"reason: {chk.defect}"],
            {"surface": False, "reason": str(chk.defect)},
        )
        return 4
    lines = [
        "surface: yes",
        f"closed: {'yes' if chk.closed else 'no'}",
        f"boundary components: {chk.boundary_count}",
    ]
    _emit(
        args,
        lines,
        {"surface": True, "closed": chk.closed, "boundary_components": chk.boundary_count},
    )
    return 0


def _cmd_orient(args) -> int:
    cx = parse_complex(_read(args.file), fmt=args.input)
    res = orient3(cx) if cx.tetrahedra() else orient2(cx)
    if isinstance(res, NonOrientable):
        kind = "edge" if len(res.conflict) == 2 else "triangle"
        line = f"non-orientable (conflict on {kind} {_edge_text(res.conflict)})"
        _emit(
            args,
            [line],
            {
                "orientable": False,
                "conflict": list(res.conflict),
                "cells": [list(c) for c in res.cells],
            },
        )
        return 0
    lines = ["orientable"] + [" ".join(cell) for cell in res.cells]
    _emit(args, lines, {"orientable": True, "cells": [list(c) for c in res.cells]})
    return 0


def _cmd_classify(args) -> int:
    cx = parse_complex(_read(args.file), fmt=args.input)
    types = classify_surface(cx)
    if len(types) == 1:
        lines = [_type_line(types[0])]
    else:
        lines = [f"component {i}: {_type_line(t)}" for i, t in enumerate(types)]
    _emit(args, lines, {"components": [_type_obj(t) for t in types]})
    return 0


def _cmd_classify3(args) -> int:
    cx = parse_complex(_read(args.file), fmt=args.input)
    chk = is_3manifold(cx)
    if not chk.manifold:
        _emit(
            args,
            ["3-manifold: no", f"reason: {chk.defect}"],
            {"manifold": False, "reason": str(chk.defect)},
        )
        return 4
    names = [t.name() for t in chk.boundary]
    lines = [
        "3-manifold: yes",
        f"closed: {'yes' if chk.closed else 'no'}",
        "boundary: " + (" ".join(names) if names else "none"),
    ]
    _emit(
        args,
        lines,
        {"manifold": True, "closed": chk.closed, "boundary": [_type_obj(t) for t in chk.boundary]},
    )
    return 0


def _cmd_slw_equiv(args) -> int:
    s1 = parse_slw(_read(args.file1))
    s2 = parse_slw(_read(args.file2))
    try:
        wit = slw_equivalent(s1, s2)
    except SizeMismatch as exc:
        _emit(
            args,
            [f"not equivalent ({exc})"],
            {"equivalent": False, "reason": str(exc)},
        )
        return 0
    if wit is None:
        _emit(args, ["not equivalent"], {"equivalent": False})
        return 0
    lines = ["equivalent"] + [f"{a} -> {wit[a]}" for a in sorted(wit)]
    _emit(args, lines, {"equivalent": True, "witness": wit})
    return 0


def _cmd_slw_classify(args) -> int:
    s = parse_slw(_read(args.file))
    t = classify_slw(s)
    _emit(args, [_type_line(t)], {"components": [_type_obj(t)]})
    return 0


def _cmd_rot_classify(args) -> int:
    src = args.rotation
    text = src if "{" in src else _read(src)
    rs = parse_rotation(text)
    t = classify_embedding(rs)
    _emit(args, [_type_line(t)], {"components": [_type_obj(t)]})
    return 0


def _cmd_chord_canon(args) -> int:
    code = parse_chord_code(args.code)
    canon = chord_canonical(code)
    _emit(args, [chord_text(canon)], {"canonical": chord_text(canon)})
    return 0


def _cmd_chord_iso(args) -> int:
    same = chord_isomorphic(parse_chord_code(args.code1), parse_chord_code(args.code2))
    _emit(
        args,
        ["isomorphic" if same else "not isomorphic"],
        {"isomorphic": same},
    )
    return 0


def _cmd_chord_enum(args) -> int:
    codes = enumerate_chords(args.n, genus_filter=args.genus, bound=args.bound)
    lines = [chord_text(c) for c in codes]
    _emit(args, lines, {"codes": lines})
    return 0


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


def _cmd_catalog_list(args) -> int:
    names = catalog_list()
    _emit(args, names, {"fixtures": names})
    return 0


def _cmd_catalog_show(args) -> int:
    fx = catalog_get(args.name)
    payload = _payload_text(fx)
    lines = [
        f"name: {fx.name}",
        f"kind: {fx.kind}",
        f"note: {fx.note}",
        f"expected: {_expected_text(fx)}",
        "---",
    ] + payload.splitlines()
    _emit(
        args,
        lines,
        {
            "name": fx.name,
            "kind": fx.kind,
            "note": fx.note,
            "expected": _expected_text(fx),
            "payload": payload,
        },
    )
    return 0


# ---------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_input: bool = False) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    if with_input:
        p.add_argument("--input", choices=("scx", "cw2", "auto"), default="auto")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfclass",
        description="Recognize and classify surfaces given combinatorially.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("components", help="connected components of a complex")
    p.add_argument("file", help="complex file, or - for stdin")
    _add_common(p, with_input=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("surface-check", help="edge and vertex conditions")
    p.add_argument("file", help="complex file, or - for stdin")
    _add_common(p, with_input=True)
    p.set_defaults(func=_cmd_surface_check)

    p = sub.add_parser("orient", help="orient 2-cells (or tetrahedra) consistently")
    p.add_argument("file", help="complex file, or - for stdin")
    _add_common(p, with_input=True)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("classify", help="name the surface of every component")
    p.add_argument("file", help="complex file, or - for stdin")
    _add_common(p, with_input=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify3", help="check a simplicial 3-complex is a manifold")
    p.add_argument("file", help="complex file, or - for stdin")
    _add_common(p, with_input=True)
    p.set_defaults(func=_cmd_classify3)

    p = sub.add_parser("slw", help="systems of loops and words")
    slw_sub = p.add_subparsers(dest="slw_command", required=True)
    q = slw_sub.add_parser("equiv", help="find a letter bijection between two SLW files")
    q.add_argument("file1")
    q.add_argument("file2")
    _add_common(q)
    q.set_defaults(func=_cmd_slw_equiv)
    q = slw_sub.add_parser("classify", help="name the surface an SLW presents")
    q.add_argument("file", help="SLW file, or - for stdin")
    _add_common(q)
    q.set_defaults(func=_cmd_slw_classify)

    p = sub.add_parser("rot", help="rotation systems with edge signs")
    rot_sub = p.add_subparsers(dest="rot_command", required=True)
    q = rot_sub.add_parser("classify", help="name the surface of an embedding")
    q.add_argument("rotation", help="rotation text, a file, or - for stdin")
    _add_common(q)
    q.set_defaults(func=_cmd_rot_classify)

    p = sub.add_parser("chord", help="chord diagrams")
    ch_sub = p.add_subparsers(dest="chord_command", required=True)
    q = ch_sub.add_parser("canon", help="canonical form of one diagram")
    q.add_argument("code")
    _add_common(q)
    q.set_defaults(func=_cmd_chord_canon)
    q = ch_sub.add_parser("iso", help="decide whether two diagrams are isomorphic")
    q.add_argument("code1")
    q.add_argument("code2")
    _add_common(q)
    q.set_defaults(func=_cmd_chord_iso)
    q = ch_sub.add_parser("enum", help="all canonical diagrams with n chords")
    q.add_argument("n", type=int)
    q.add_argument("--genus", type=int, default=None)
    q.add_argument("--bound", type=int, default=8)
    _add_common(q)
    q.set_defaults(func=_cmd_chord_enum)

    p = sub.add_parser("catalog", help="built-in fixtures")
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)
    q = cat_sub.add_parser("list", help="all fixture names")
    _add_common(q)
    q.set_defaults(func=_cmd_catalog_list)
    q = cat_sub.add_parser("show", help="print one fixture in its file format")
    q.add_argument("name")
    _add_common(q)
    q.set_defaults(func=_cmd_catalog_show)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownFixture, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VERDICT_ERRORS as exc:
        if args.format == "json":
            print(json.dumps({"verdict": False, "reason": str(exc)}, sort_keys=True))
        else:
            print(f"verdict: no ({exc})")
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
