"""Built-in named fixtures: small complexes, rotation systems, chord
codes, and SLW-graphs with their expected classifications.

Every fixture is immutable and ships with the verdict the library is
expected to reproduce, so the catalog doubles as a regression corpus
and as ready-made demo input for the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import SurfaceType
from .complexes import close, cw_complex
from .errors import UnknownFixture
from .rotation import parse_chord_code, parse_rotation
from .slw import parse_slw

S2 = SurfaceType(True, 0, 0, 2)
T2 = SurfaceType(True, 1, 0, 0)
F2 = SurfaceType(True, 2, 0, -2)
RP2 = SurfaceType(False, 1, 0, 1)
KL = SurfaceType(False, 2, 0, 0)


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # scx | cw2 | rot | chord | slw
    payload: object
    expected: object
    note: str


def _cycles(*faces: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(c) for c in faces)


def _scx(name: str, simplices, expected, note: str) -> Fixture:
    return Fixture(name, "scx", close(simplices), expected, note)


def _cw2(name: str, faces, expected, note: str) -> Fixture:
    return Fixture(name, "cw2", cw_complex(_cycles(*faces)), expected, note)


def _rot(name: str, text: str, expected, note: str) -> Fixture:
    return Fixture(name, "rot", parse_rotation(text), expected, note)


def _chord(name: str, text: str, expected, note: str) -> Fixture:
    return Fixture(name, "chord", parse_chord_code(text), expected, note)


def _slw(name: str, text: str, expected, note: str) -> Fixture:
    return Fixture(name, "slw", parse_slw(text), expected, note)


_FIXTURES = [
    # ----- worked examples -------------------------------------------
    _scx(
        "example/three-components",
        [("1",), ("2",), ("3",), ("4",), ("5",), ("6",),
         ("1", "2"), ("3", "5"), ("2", "4"), ("1", "4")],
        (("1", "2", "4"), ("3", "5"), ("6",)),
        "1-complex with components {1,2,4}, {3,5}, {6}",
    ),
    _scx(
        "example/two-triangles",
        [("0", "1", "2"), ("0", "1", "3")],
        SurfaceType(True, 0, 1, 1),
        "two triangles on a shared edge: a disk",
    ),
    _scx(
        "example/tetra-boundary",
        [("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")],
        S2,
        "boundary of a tetrahedron",
    ),
    _cw2(
        "example/twisted-quads",
        ["0123", "2345", "0145"],
        "non-orientable",
        "three quads glued with a twist; orientation propagation fails",
    ),
    # ----- regular cell complexes: closed surfaces -------------------
    _cw2("rcc/sphere", ["012", "023", "031", "132"], S2, "sphere as four triangles"),
    _cw2(
        "rcc/torus",
        ["0153", "0284", "0362", "0471", "1265", "1782", "3486", "3574", "5687"],
        T2,
        "torus as nine quads",
    ),
    _cw2(
        "rcc/rp2",
        ["013", "0154", "024", "0253", "125", "1243", "345"],
        RP2,
        "projective plane from triangles and quads",
    ),
    _cw2(
        "rcc/klein",
        ["0153", "0184", "0362", "0472", "1265", "1278", "3486", "3574", "5687"],
        KL,
        "Klein bottle as nine quads",
    ),
    # ----- regular cell complexes: surfaces with boundary ------------
    _cw2(
        "rcc/cylinder",
        ["0154", "0231", "2453"],
        SurfaceType(True, 0, 2, 0),
        "cylinder as three quads",
    ),
    _cw2(
        "rcc/mobius",
        ["0132", "0145", "2354"],
        SurfaceType(False, 1, 1, 0),
        "Moebius strip as three quads",
    ),
    _cw2(
        "rcc/F03",
        ["0123X5", "0671", "2893", "5X9876"],
        SurfaceType(True, 0, 3, -1),
        "sphere with three holes",
    ),
    _cw2(
        "rcc/F11",
        ["01X523", "0671", "2893", "5X9876"],
        SurfaceType(True, 1, 1, -1),
        "torus with one hole",
    ),
    # ----- rotation systems, sphere ----------------------------------
    _rot("rot/R1", "{11}", S2, "one + loop"),
    _rot("rot/R2", "{{1},{1}}", S2, "one edge between two vertices"),
    _rot("rot/R3", "{12, 12}", S2, "two parallel edges"),
    _rot("rot/R4", "{1122}", S2, "two nested loops"),
    _rot("rot/R5", "{1, 12, 2}", S2, "path of two edges"),
    _rot("rot/R6", "{1, 122}", S2, "edge plus a loop"),
    _rot("rot/R7", "{123, 132}", S2, "theta graph, planar rotation"),
    _rot("rot/R8", "{12, 13, 23}", S2, "triangle"),
    _rot("rot/R9", "{1123, 23}", S2, "loop plus two parallel edges"),
    _rot("rot/R10", "{12, 132, 3}", S2, "path with a middle edge doubled"),
    _rot("rot/R11", "{123321}", S2, "three nested loops"),
    _rot("rot/R12", "{1, 12, 23, 3}", S2, "path of three edges"),
    _rot("rot/R13", "{11232, 3}", S2, "loop and two parallel edges, one vertex each"),
    _rot("rot/R14", "{112, 23, 3}", S2, "loop plus a path"),
    _rot("rot/R15", "{112, 233}", S2, "two loops joined by an edge"),
    _rot("rot/R16", "{1213, 2, 3}", S2, "star with a doubled center loop"),
    _rot("rot/R17", "{112233}", S2, "three loops side by side"),
    _rot("rot/R18", "{123, 1, 2, 3}", S2, "three-edge star"),
    _rot("rot/R19", "{11223, 3}", S2, "two loops plus a pendant edge"),
    _rot("rot/R20", "{1123, 2, 3}", S2, "loop plus two pendant edges"),
    # ----- rotation systems, torus ------------------------------------
    _rot("rot/R21", "{1212}", T2, "two interleaved loops"),
    _rot("rot/R22", "{123123}", T2, "three pairwise interleaved loops"),
    _rot("rot/R23", "{123, 123}", T2, "three parallel edges, aligned rotations"),
    _rot("rot/R24", "{123132}", T2, "three loops, two interleavings"),
    _rot("rot/R25", "{1213, 23}", T2, "interleaved loop pair plus an edge"),
    _rot("rot/R26", "{112323}", T2, "loop beside an interleaved pair"),
    _rot("rot/R27", "{12123, 3}", T2, "interleaved pair plus a pendant edge"),
    # ----- rotation systems, orientable genus 2 -----------------------
    _rot("rot/R28", "{12341234}", F2, "four pairwise interleaved loops"),
    _rot("rot/R29", "{12312434}", F2, "four loops, five interleavings"),
    _rot("rot/R30", "{12132434}", F2, "four loops, four interleavings"),
    _rot("rot/R31", "{12123434}", F2, "two interleaved pairs in sequence"),
    # ----- rotation systems, projective plane -------------------------
    _rot("rot/R32", "{11}, u={-}", RP2, "one twisted loop"),
    _rot("rot/R33", "{1212}, u={- -}", RP2, "two interleaved twisted loops"),
    _rot("rot/R34", "{12, 12}, u={- +}", RP2, "parallel edges, one twisted"),
    _rot("rot/R35", "{1122}, u={+ -}", RP2, "plain loop beside a twisted loop"),
    _rot("rot/R36", "{112, 2}, u={- +}", RP2, "twisted loop plus an edge"),
    # ----- rotation systems, Klein bottle ------------------------------
    _rot("rot/R37", "{1212}, u={- +}", KL, "interleaved loops, one twisted"),
    _rot("rot/R38", "{1122}, u={- -}", KL, "two nested twisted loops"),
    # ----- chord diagrams ---------------------------------------------
    _chord("chord/Ch1", "11", S2, "one chord"),
    _chord("chord/Ch2", "1122", S2, "two disjoint chords"),
    _chord("chord/Ch3", "123321", S2, "three nested chords"),
    _chord("chord/Ch4", "112233", S2, "three disjoint chords"),
    _chord("chord/Ch5", "1212", T2, "two crossing chords"),
    _chord("chord/Ch6", "123123", T2, "three pairwise crossing chords"),
    _chord("chord/Ch7", "123132", T2, "two crossings out of three chords"),
    _chord("chord/Ch8", "112323", T2, "one crossing beside a free chord"),
    _chord("chord/Ch9", "12341234", F2, "four pairwise crossing chords"),
    _chord("chord/Ch10", "12312434", F2, "five crossings on four chords"),
    _chord("chord/Ch11", "12132434", F2, "four crossings on four chords"),
    _chord("chord/Ch12", "12123434", F2, "two separate crossing pairs"),
    # ----- SLW-graphs --------------------------------------------------
    _slw(
        "slw/sphere",
        "graph:\nv P\ne a P P\nlist n=0:\na^-1\nlist n=0:\na\n",
        S2,
        "two disks glued along one circle",
    ),
    _slw(
        "slw/torus",
        "graph:\nv P\ne a P P\ne b P P\nlist n=0:\na b a^-1 b^-1\n",
        T2,
        "square with opposite sides glued",
    ),
    _slw(
        "slw/klein",
        "graph:\nv P\ne a P P\ne b P P\nlist n=0:\na a b b\n",
        KL,
        "square glued with both pairs twisted",
    ),
]

_BY_NAME = {f.name: f for f in _FIXTURES}


def catalog_list() -> list[str]:
    """All fixture names, sorted."""
    return sorted(_BY_NAME)


def catalog_get(name: str) -> Fixture:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownFixture(f"no fixture named {name!r}") from None
