"""The four workloads: seeded input streams with their checks and replays.

Each workload is an endless stream of cycles, lists of Op records built
from the seed.  Every cycle walks the same slots (family and size), so
every seed and every cycle gives the same mix of work; the seed picks
labels, line order, word rotations, letter names, defect positions and
random codes, fresh in each cycle.  An Op carries the input as text, the real calls (``run``), a check of the
outcome against the generator's closed-form verdict, and the stage
replay used by traced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import gen
import spans

OK, WRONG, FAILED = "ok", "wrong", "failed"


@dataclass
class Op:
    family: str
    text: str  # every input the op reads, hashed to identify the stream
    cells: int  # size units: cells, tetrahedra, chord ends, letters or bytes
    run: Callable[[], object]  # the timed calls; returns the verdict
    check: Callable[[object], str]  # outcome (verdict or exception) -> OK/WRONG/FAILED
    stages: Callable[[spans.Tracer], None]  # traced replay of run()
    fit: str | None = None  # size exponent this input feeds
    repeat: bool | None = None  # chord inputs: repeats an earlier code


def _same_type(got, want: gen.SType) -> bool:
    return ((got.orientable, got.genus, got.boundary, got.euler, got.name())
            == (want.orientable, want.genus, want.boundary, want.euler, want.name()))


def _verdict_check(sc, want_value: Callable[[object], bool]) -> Callable[[object], str]:
    """A returned value is judged by want_value; a TopologyError is a wrong
    verdict; any other exception is a failure."""
    def check(out) -> str:
        if isinstance(out, sc.TopologyError):
            return WRONG
        if isinstance(out, Exception):
            return FAILED
        return OK if want_value(out) else WRONG
    return check


def _defect_matches(defect, want: gen.Defect) -> bool:
    return (type(defect).__name__ == want.kind
            and all(getattr(defect, f, None) == getattr(want, f)
                    for f in ("edge", "face_count", "vertex", "triangle", "count")))


# =====================================================================
# surface2d
# =====================================================================

# (family, n, format, parts); sizes are fixed per slot so that every cycle
# costs the same, and the percentiles fall on slots of known size
SURFACE2D_CYCLE = [
    ("torus", 10, "scx", ()), ("annulus", 15, "scx", ()), ("klein", 12, "scx", ()),
    ("torus", 12, "cw2", ()), ("disk", 14, "scx", ()), ("extra_face", 15, "scx", ()),
    ("torus", 16, "scx", ()), ("sphere", 8, "scx", ()), ("klein", 16, "cw2", ()),
    ("klein", 18, "scx", ()), ("mobius", 18, "scx", ()),
    ("union", 8, "scx", ("mobius", "sphere", "annulus")),
    ("torus", 20, "scx", ()), ("pinch", 8, "scx", ("klein",)), ("torus", 20, "cw2", ()),
    ("klein", 22, "scx", ()), ("annulus", 24, "cw2", ()), ("sphere", 12, "cw2", ()),
    ("torus", 25, "scx", ()), ("extra_face", 20, "cw2", ()), ("mobius", 24, "cw2", ()),
    ("disk", 20, "cw2", ()), ("union", 12, "cw2", ("torus", "klein", "disk")),
    ("pinch", 16, "cw2", ("sphere",)), ("klein", 25, "cw2", ()),
]


def surface2d(sc, seed: int, scratch: str) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    while True:
        yield [_surface_op(sc, gen.surface_input(family, n, fmt, rng, parts))
               for family, n, fmt, parts in SURFACE2D_CYCLE]


def _surface_op(sc, inp: gen.Surface2) -> Op:
    text, want = inp.text, inp.expected

    def run():
        cx = sc.parse_complex(text)
        types = sc.classify_surface(cx)
        return types, [sc.orient2(p) for p in sc.component_subcomplexes(cx)]

    def good(v) -> bool:
        types, orientations = v
        return len(types) == len(want) and all(
            _same_type(g, w) and isinstance(o, sc.OrientationWitness) == w.orientable
            for g, o, w in zip(types, orientations, want))

    def check(out) -> str:
        if isinstance(want, gen.Defect) and isinstance(out, sc.NotSurface):
            hit = out.component == want.component and _defect_matches(out.defect, want)
            return OK if hit else WRONG
        # a planted defect that goes unreported is a wrong verdict
        return _verdict_check(sc, lambda v: not isinstance(want, gen.Defect) and good(v))(out)

    def stages(tr):
        cx = tr.call("complexes.parse_complex", sc.parse_complex, text)
        tr.add("complexes.cells", inp.cells)
        spans.classify_surface(tr, sc, cx)
        if not isinstance(want, gen.Defect):
            subs = tr.call("connectivity.component_subcomplexes", sc.component_subcomplexes, cx)
            for p in subs:
                tr.call("orientation.orient2", sc.orient2, p)

    fit = None if isinstance(want, gen.Defect) else "classify"
    return Op(inp.family, text, inp.cells, run, check, stages, fit=fit)


# =====================================================================
# manifold3d
# =====================================================================

MANIFOLD3D_CYCLE = [
    ("ball", 3), ("solid_torus", 3), ("suspension", 2), ("extra_tet", 3),
    ("ball", 4), ("torus3", 3), ("solid_torus", 5), ("pinch", 2),
    ("suspension", 3), ("ball", 5), ("solid_torus", 8), ("extra_tet", 5),
    ("suspension", 4), ("torus3", 4), ("pinch", 3), ("ball", 6),
    ("suspension", 5), ("solid_torus", 6),
]


def manifold3d(sc, seed: int, scratch: str) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    while True:
        yield [_manifold_op(sc, gen.manifold_input(family, n, rng))
               for family, n in MANIFOLD3D_CYCLE]


def _manifold_op(sc, inp: gen.Complex3) -> Op:
    text, want = inp.text, inp.expected

    def run():
        cx = sc.parse_complex(text)
        chk = sc.is_3manifold(cx)
        return chk, sc.orient3(cx) if chk.manifold and chk.closed else None

    def good(v) -> bool:
        chk, ori = v
        if isinstance(want, gen.Defect):
            return not chk.manifold and _defect_matches(chk.defect, want)
        return (chk.manifold and chk.closed == want.closed
                and len(chk.boundary) == len(want.boundary)
                and all(_same_type(g, w) for g, w in zip(chk.boundary, want.boundary))
                # every closed family here (3-torus, suspended sphere) is orientable
                and (not want.closed or isinstance(ori, sc.OrientationWitness)))

    def stages(tr):
        cx = tr.call("complexes.parse_complex", sc.parse_complex, text)
        tr.add("complexes.cells", inp.cells)
        spans.is_3manifold(tr, sc, cx)
        if isinstance(want, gen.M3) and want.closed:
            tr.call("orientation.orient3", sc.orient3, cx)

    fit = None if isinstance(want, gen.Defect) else "manifold3"
    return Op(inp.family, text, inp.cells, run, _verdict_check(sc, good), stages, fit=fit)


# =====================================================================
# search
# =====================================================================

# One search cycle is 55 ops.  Its six dearest ops cost the same in every
# cycle (two n=6 enumerations, four exhaustive 9-edge inequivalence
# searches), so p90 lands on them.  Sixteen canonicalizations of one size
# sit in the middle of the cost order, so p50 lands among ops of equal
# cost; the rotation systems are cheaper and the isomorphism tests span
# 10 to 40 chords.  The equivalent SLW pairs, whose cost depends on where
# the seeded renaming sits in the search order, stay between p50 and p90.
CHORD_SIZES = [25] * 16
ISO_SIZES = list(range(10, 41, 6))  # 6 isomorphism tests per cycle
ROT_SIZES = [(v, v + (3 * v) % (2 * v + 1)) for v in range(3, 17)]  # 14 (vertices, edges)
SLW_EQUAL = ["tetra", "chain345", "chain3456"]  # 6, 10 and 15 edges
SLW_UNEQUAL = [("annulus", "mobius"), ("mobius", "annulus")] * 2 + [("chain345", "chain354")]
TORUS_CLASSIFY = [10, 15, 20, 25]
TORUS_EXTENDS = [10, 14, 18]  # 648 lists at most, well inside the recursion limit
# identity-map extends_to_homeomorphism on the 25 x 25 torus recurses once
# per list (1250 lists) and raises RecursionError at seed; it runs exactly
# once per run, first in the first cycle, so the failure count repeats exactly
KNOWN_DEFECT_TORUS = 25
REPEAT_SHARE = 0.25


def search(sc, seed: int, scratch: str) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    classes = {n: gen.chord_classes(n) for n in (5, 6)}
    for n, table in classes.items():
        if len(table) != gen.A007769[n]:
            raise RuntimeError(f"chord oracle found {len(table)} classes for n={n}")
    seen: dict[int, list[tuple[str, ...]]] = {}

    def code(n: int) -> tuple[tuple[str, ...], bool]:
        # a repeat keeps the slot's size, so repeats do not move the percentiles
        earlier = seen.setdefault(n, [])
        if earlier and rng.random() < REPEAT_SHARE:
            return rng.choice(earlier), True
        c = gen.random_chord_code(n, rng)
        earlier.append(c)
        return c, False

    ops: list[Op] = [_extends_op(sc, KNOWN_DEFECT_TORUS, rng)]
    while True:
        for n in (5, 6):
            ops.append(_enum_op(sc, n, None, classes[n]))
            ops.append(_enum_op(sc, n, rng.randrange(4), classes[n]))
        for n in CHORD_SIZES:
            ops.append(_canon_op(sc, *code(n)))
        for n in ISO_SIZES:
            c1, rep = code(n)
            c2 = gen.chord_variant(c1, rng) if rng.random() < 0.5 else gen.random_chord_code(n, rng)
            ops.append(_iso_op(sc, c1, c2, rep))
        for v, e in ROT_SIZES:
            ops.append(_rot_op(sc, *gen.random_rotation(v, e, rng)))
        for kind in SLW_EQUAL:
            faces, _ = gen.small_faces(kind, rng)
            ops.append(_slw_equiv_op(sc, gen.slw_text(faces, rng)[0],
                                     gen.slw_text(faces, rng)[0], True))
        for a, b in SLW_UNEQUAL:
            ops.append(_slw_equiv_op(sc, gen.slw_text(gen.small_faces(a, rng)[0], rng)[0],
                                     gen.slw_text(gen.small_faces(b, rng)[0], rng)[0], False))
        for n in TORUS_CLASSIFY:
            ops.append(_slw_classify_op(sc, n, rng))
        for n in TORUS_EXTENDS:
            ops.append(_extends_op(sc, n, rng))
        yield ops
        ops = []


def _enum_op(sc, n: int, genus: int | None, table: dict) -> Op:
    want = sum(1 for g in table.values() if genus is None or g == genus)

    def good(codes) -> bool:
        keys = {gen.chord_key(c) for c in codes}
        return (len(codes) == want == len(keys) and keys <= table.keys()
                and all(genus is None or gen.chord_genus(c) == genus for c in codes))

    text = f"enumerate_chords n={n} genus={genus}"
    return Op("chord_enum", text, 2 * n * gen.A007769[n],
              lambda: sc.enumerate_chords(n, genus_filter=genus), _verdict_check(sc, good),
              lambda tr: spans.enumerate_chords(tr, sc, n, genus))


def _canon_op(sc, code: tuple[str, ...], repeat: bool) -> Op:
    text = gen.chord_text(code)
    want = gen.chord_least_code(code)

    def stages(tr):
        c = tr.call("rotation.parse_chord_code", sc.parse_chord_code, text)
        tr.call("rotation.chord_canonical", sc.chord_canonical, c)

    return Op("chord_canon", text, len(code),
              lambda: sc.chord_canonical(sc.parse_chord_code(text)),
              _verdict_check(sc, lambda got: tuple(got) == want), stages, repeat=repeat)


def _iso_op(sc, c1, c2, repeat: bool) -> Op:
    t1, t2 = gen.chord_text(c1), gen.chord_text(c2)
    want = gen.chord_key(c1) == gen.chord_key(c2)

    def stages(tr):
        a = tr.call("rotation.parse_chord_code", sc.parse_chord_code, t1)
        b = tr.call("rotation.parse_chord_code", sc.parse_chord_code, t2)
        with tr.span("rotation.chord_isomorphic"):
            tr.call("rotation.chord_canonical", sc.chord_canonical, a)
            tr.call("rotation.chord_canonical", sc.chord_canonical, b)

    return Op("chord_iso", t1 + "\n" + t2, len(c1) + len(c2),
              lambda: sc.chord_isomorphic(sc.parse_chord_code(t1), sc.parse_chord_code(t2)),
              _verdict_check(sc, lambda got: got is want), stages, repeat=repeat)


def _rot_op(sc, darts, signs) -> Op:
    text = gen.rotation_text(darts, signs)
    want = gen.rotation_type(darts, signs)

    def stages(tr):
        rs = tr.call("rotation.parse_rotation", sc.parse_rotation, text)
        spans.classify_embedding(tr, sc, rs)

    return Op("rotation", text, 2 * len(signs),
              lambda: sc.classify_embedding(sc.parse_rotation(text)),
              _verdict_check(sc, lambda got: _same_type(got, want)), stages)


def _letters(text: str) -> int:
    return sum(len(ln.split()) for ln in text.splitlines()
               if ln and ln.split()[0] not in ("graph:", "v", "e", "list"))


def _slw_equiv_op(sc, t1: str, t2: str, equivalent: bool) -> Op:
    def run():
        s1, s2 = sc.parse_slw(t1), sc.parse_slw(t2)
        return s1, s2, sc.slw_equivalent(s1, s2)

    def good(v) -> bool:
        s1, s2, witness = v
        if witness is None:
            return not equivalent
        # the witness must itself pass as the given letter map
        return equivalent and sc.slw_equivalent(s1, s2, letter_map=witness) is not None

    def stages(tr):
        s1 = tr.call("slw.parse_slw", sc.parse_slw, t1)
        s2 = tr.call("slw.parse_slw", sc.parse_slw, t2)
        tr.call("slw.slw_equivalent", sc.slw_equivalent, s1, s2)

    family = "slw_equiv" if equivalent else "slw_inequiv"
    return Op(family, t1 + t2, _letters(t1) + _letters(t2), run, _verdict_check(sc, good), stages)


def _torus_slw(n: int, rng: random.Random):
    """SLW text of an n x n triangulated torus, its faces, letter names and type."""
    cells, torus = gen.grid_surface("torus", n, n, quads=False)
    faces = gen.relabel(cells, gen.Labeler(rng).fresh(v for c in cells for v in c))
    text, names = gen.slw_text(faces, rng)
    return text, faces, names, torus


def _slw_classify_op(sc, n: int, rng: random.Random) -> Op:
    text, _, _, torus = _torus_slw(n, rng)

    def stages(tr):
        s = tr.call("slw.parse_slw", sc.parse_slw, text)
        tr.call("slw.classify_slw", sc.classify_slw, s)

    return Op("slw_classify", text, _letters(text),
              lambda: sc.classify_slw(sc.parse_slw(text)),
              _verdict_check(sc, lambda got: _same_type(got, torus)), stages)


def _extends_op(sc, n: int, rng: random.Random) -> Op:
    text, faces, names, _ = _torus_slw(n, rng)
    vmap = {v: v for f in faces for v in f}
    emap = {x: x for x in names.values()}

    def run():
        s = sc.parse_slw(text)
        return sc.extends_to_homeomorphism(s, s, vmap, emap)

    def stages(tr):
        s = tr.call("slw.parse_slw", sc.parse_slw, text)
        tr.call("slw.extends_to_homeomorphism", sc.extends_to_homeomorphism, s, s, vmap, emap)

    # the identity map always extends
    return Op("slw_extends", text, _letters(text), run,
              _verdict_check(sc, lambda got: got is True), stages)


# =====================================================================
# cli_small
# =====================================================================


def _type_line(t: gen.SType) -> str:
    side = "orientable" if t.orientable else "non-orientable"
    return f"{t.name()}: {side} genus {t.genus}, {t.boundary} boundary, χ={t.euler}"


def _type_obj(t: gen.SType) -> dict:
    return {"name": t.name(), "orientable": t.orientable, "genus": t.genus,
            "boundary": t.boundary, "euler": t.euler}


def _types_out(types: list[gen.SType]) -> tuple[list[str], dict]:
    if len(types) == 1:
        lines = [_type_line(types[0])]
    else:
        lines = [f"component {i}: {_type_line(t)}" for i, t in enumerate(types)]
    return lines, {"components": [_type_obj(t) for t in types]}


def _surface_check_out(t: gen.SType) -> tuple[list[str], dict]:
    closed = t.boundary == 0
    return (["surface: yes", f"closed: {'yes' if closed else 'no'}",
             f"boundary components: {t.boundary}"],
            {"surface": True, "closed": closed, "boundary_components": t.boundary})


def _classify3_out(want: gen.M3) -> tuple[list[str], dict]:
    names = [t.name() for t in want.boundary]
    return (["3-manifold: yes", f"closed: {'yes' if want.closed else 'no'}",
             "boundary: " + (" ".join(names) if names else "none")],
            {"manifold": True, "closed": want.closed,
             "boundary": [_type_obj(t) for t in want.boundary]})


def _exact(code: int, lines: list[str], obj: dict):
    """Expect exit code and exactly these text lines or this JSON object."""
    def judge(fmt: str, got_code: int, out: str) -> bool:
        if got_code != code:
            return False
        return json.loads(out) == obj if fmt == "json" else out.splitlines() == lines
    return judge


def _first(code: int, line: str, key: str, value):
    """Expect exit code, the first text line, and one JSON field."""
    def judge(fmt: str, got_code: int, out: str) -> bool:
        if got_code != code:
            return False
        if fmt == "json":
            return json.loads(out).get(key) == value
        return out.splitlines()[:1] == [line]
    return judge


def _enum_judge(n: int, genus: int | None, table: dict):
    want = sum(1 for g in table.values() if genus is None or g == genus)

    def judge(fmt: str, code: int, out: str) -> bool:
        texts = json.loads(out)["codes"] if fmt == "json" else out.splitlines()
        codes = [tuple(t) for t in texts]
        keys = {gen.chord_key(c) for c in codes}
        return (code == 0 and len(codes) == want == len(keys) and keys <= table.keys()
                and all(genus is None or gen.chord_genus(c) == genus for c in codes))
    return judge


def _stype(t) -> gen.SType:
    return gen.SType(t.orientable, t.genus, t.boundary, t.euler)


def _cli_calls(sc, rng: random.Random, files: "_Files", tables: dict) -> list[tuple]:
    """One cycle of (argv, judge, library stages) for cli_small.

    Every catalog fixture goes through each subcommand its expected
    verdict decides, plus small generated inputs with closed-form answers.
    """
    calls: list[tuple] = []

    def complex_calls(path: str, t: gen.SType, fx_text: str) -> None:
        def parse(tr):
            return tr.call("complexes.parse_complex", sc.parse_complex, fx_text)
        calls.append((["classify", path], _exact(0, *_types_out([t])),
                      lambda tr: tr.call("classify.classify_surface", sc.classify_surface, parse(tr))))
        calls.append((["surface-check", path], _exact(0, *_surface_check_out(t)),
                      lambda tr: tr.call("surface.is_surface", sc.is_surface, parse(tr))))
        calls.append((["orient", path],
                      _first(0, "orientable", "orientable", True) if t.orientable
                      else _orient_no(),
                      lambda tr: tr.call("orientation.orient2", sc.orient2, parse(tr))))
        calls.append((["components", path], _first(0, "1 components", "count", 1),
                      lambda tr: tr.call("connectivity.components", sc.components, parse(tr))))

    for name in sc.catalog_list():
        fx = sc.catalog_get(name)
        calls.append((["catalog", "show", name], _first(0, f"name: {name}", "name", name),
                      lambda tr, name=name: tr.call("catalog.catalog_get", sc.catalog_get, name)))
        if fx.kind in ("scx", "cw2"):
            text = sc.to_text(fx.payload)
            path = files.put(text)
            if isinstance(fx.expected, sc.SurfaceType):
                complex_calls(path, _stype(fx.expected), text)
            elif fx.expected == "non-orientable":
                calls.append((["orient", path], _orient_no(),
                              lambda tr, text=text: tr.call(
                                  "orientation.orient2", sc.orient2,
                                  tr.call("complexes.parse_complex", sc.parse_complex, text))))
            else:
                parts = [list(c) for c in fx.expected]
                calls.append((["components", path],
                              _exact(0, [f"{len(parts)} components"]
                                     + [f"component {i}: " + " ".join(c) for i, c in enumerate(parts)],
                                     {"count": len(parts), "components": parts}),
                              lambda tr, text=text: tr.call(
                                  "connectivity.components", sc.components,
                                  tr.call("complexes.parse_complex", sc.parse_complex, text))))
        elif fx.kind == "rot":
            text = sc.serialize_rotation(fx.payload)
            calls.append((["rot", "classify", text], _exact(0, *_types_out([_stype(fx.expected)])),
                          lambda tr, text=text: tr.call(
                              "rotation.classify_embedding", sc.classify_embedding,
                              tr.call("rotation.parse_rotation", sc.parse_rotation, text))))
        elif fx.kind == "chord":
            code = tuple(fx.payload)
            text = gen.chord_text(code)
            canon = gen.chord_text(gen.chord_least_code(code))
            other = gen.chord_text(gen.chord_variant(code, rng))
            calls.append((["chord", "canon", text], _exact(0, [canon], {"canonical": canon}),
                          lambda tr, text=text: tr.call(
                              "rotation.chord_canonical", sc.chord_canonical,
                              tr.call("rotation.parse_chord_code", sc.parse_chord_code, text))))
            calls.append((["chord", "iso", text, other],
                          _exact(0, ["isomorphic"], {"isomorphic": True}),
                          lambda tr, a=text, b=other: tr.call(
                              "rotation.chord_isomorphic", sc.chord_isomorphic,
                              tr.call("rotation.parse_chord_code", sc.parse_chord_code, a),
                              tr.call("rotation.parse_chord_code", sc.parse_chord_code, b))))
            rot = "{" + text + "}"
            calls.append((["rot", "classify", rot],
                          _exact(0, *_types_out([_stype(fx.expected)])),
                          lambda tr, rot=rot: tr.call(
                              "rotation.classify_embedding", sc.classify_embedding,
                              tr.call("rotation.parse_rotation", sc.parse_rotation, rot))))
        else:
            text = sc.slw_to_text(fx.payload)
            path = files.put(text)
            renamed = files.put(gen.rename_slw_letters(text, rng))
            calls.append((["slw", "classify", path], _exact(0, *_types_out([_stype(fx.expected)])),
                          lambda tr, text=text: tr.call(
                              "slw.classify_slw", sc.classify_slw,
                              tr.call("slw.parse_slw", sc.parse_slw, text))))
            calls.append((["slw", "equiv", path, renamed], _first(0, "equivalent", "equivalent", True),
                          lambda tr, text=text, path=renamed: tr.call(
                              "slw.slw_equivalent", sc.slw_equivalent,
                              tr.call("slw.parse_slw", sc.parse_slw, text),
                              tr.call("slw.parse_slw", sc.parse_slw, files.read(path)))))
    names = sc.catalog_list()
    calls.append((["catalog", "list"], _exact(0, names, {"fixtures": names}),
                  lambda tr: tr.call("catalog.catalog_list", sc.catalog_list)))

    for family, n, fmt, parts in [("torus", 3, "scx", ()), ("klein", 3, "cw2", ()),
                                  ("disk", 3, "scx", ()), ("mobius", 4, "cw2", ()),
                                  ("sphere", 2, "scx", ()),
                                  ("union", 3, "cw2", ("torus", "mobius", "sphere"))]:
        inp = gen.surface_input(family, n, fmt, rng, parts)
        path = files.put(inp.text)
        calls.append((["classify", path], _exact(0, *_types_out(list(inp.expected))),
                      lambda tr, text=inp.text: tr.call(
                          "classify.classify_surface", sc.classify_surface,
                          tr.call("complexes.parse_complex", sc.parse_complex, text))))
    bad = gen.surface_input("extra_face", 3, "scx", rng)
    path = files.put(bad.text)
    calls.append((["classify", path], _verdict_no(),
                  lambda tr, text=bad.text: _swallow(sc, lambda: tr.call(
                      "classify.classify_surface", sc.classify_surface,
                      tr.call("complexes.parse_complex", sc.parse_complex, text)))))
    for family, n in [("ball", 1), ("ball", 2), ("torus3", 3), ("solid_torus", 3)]:
        inp = gen.manifold_input(family, n, rng)
        path = files.put(inp.text)
        calls.append((["classify3", path], _exact(0, *_classify3_out(inp.expected)),
                      lambda tr, text=inp.text: tr.call(
                          "manifold3.is_3manifold", sc.is_3manifold,
                          tr.call("complexes.parse_complex", sc.parse_complex, text))))
    for n, genus in [(3, None), (4, 1), (4, None)]:
        argv = ["chord", "enum", str(n)] + ([] if genus is None else ["--genus", str(genus)])
        calls.append((argv, _enum_judge(n, genus, tables[n]),
                      lambda tr, n=n, genus=genus: tr.add("rotation.chord_classes", len(tr.call(
                          "rotation.enumerate_chords", sc.enumerate_chords, n, genus_filter=genus)))))
    code = gen.random_chord_code(10, rng)
    text = gen.chord_text(code)
    canon = gen.chord_text(gen.chord_least_code(code))
    calls.append((["chord", "canon", text], _exact(0, [canon], {"canonical": canon}),
                  lambda tr: tr.call("rotation.chord_canonical", sc.chord_canonical,
                                     tr.call("rotation.parse_chord_code", sc.parse_chord_code, text))))
    return calls


def _orient_no():
    def judge(fmt: str, code: int, out: str) -> bool:
        if code != 0:
            return False
        if fmt == "json":
            return json.loads(out).get("orientable") is False
        return out.startswith("non-orientable (conflict on ")
    return judge


def _verdict_no():
    def judge(fmt: str, code: int, out: str) -> bool:
        if code != 4:
            return False
        if fmt == "json":
            return json.loads(out).get("verdict") is False
        return out.startswith("verdict: no (")
    return judge


def _swallow(sc, fn) -> None:
    try:
        fn()
    except sc.TopologyError:
        pass


class _Files:
    """Input files for the command line, kept in the run's scratch directory."""

    def __init__(self, root: str):
        self.root = root
        self.texts: dict[str, str] = {}

    def put(self, text: str) -> str:
        path = os.path.join(self.root, f"in{len(self.texts)}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.texts[path] = text
        return path

    def read(self, path: str) -> str:
        return self.texts[path]


def cli_small(sc, seed: int, scratch: str) -> Iterator[list[Op]]:
    from surfclass import cli

    rng = random.Random(seed)
    files = _Files(scratch)
    tables = {n: gen.chord_classes(n) for n in (3, 4)}
    cycle = 0
    while True:
        calls = _cli_calls(sc, rng, files, tables)
        rng.shuffle(calls)
        yield [_cli_op(sc, cli, argv + ["--format", fmt], fmt, judge, lib, files)
               for k, (argv, judge, lib) in enumerate(calls)
               for fmt in [("text", "json")[(cycle + k) % 2]]]
        cycle += 1


def _cli_op(sc, cli, argv: list[str], fmt: str, judge, lib, files: _Files) -> Op:
    text = "\0".join(files.texts.get(a, a) for a in argv)  # a file stands for its text

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(outcome) -> str:
        if isinstance(outcome, Exception):
            return FAILED
        code, out = outcome
        try:
            return OK if judge(fmt, code, out) else WRONG
        except (ValueError, KeyError, TypeError):  # unparsable output is a wrong answer
            return WRONG

    return Op("cli_" + argv[0], text, len(text.encode()), run, check, lib)


WORKLOADS = {
    "surface2d": surface2d,
    "manifold3d": manifold3d,
    "search": search,
    "cli_small": cli_small,
}
