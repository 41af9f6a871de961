"""Core combinatorial complexes and their text/JSON formats.

Two cell-complex flavors are supported: simplicial complexes of dimension
at most 3 (vertices, edges, triangles, tetrahedra) and regular CW
2-complexes whose 2-cells are cycles of pairwise distinct vertices.
Vertices are opaque string labels throughout; edges are unordered label
pairs, stored as sorted tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Callable, Iterable, Mapping

from .errors import (
    EmptyComplex,
    MalformedFace,
    NotRegular,
    ParseError,
    UnsupportedDimension,
)

Vertex = str
Edge = tuple[str, str]
Simplex = tuple[str, ...]
Cycle = tuple[str, ...]


def norm_edge(a: str, b: str) -> Edge:
    """Return the unordered edge {a, b} as a sorted pair."""
    if a == b:
        raise ValueError(f"degenerate edge ({a!r}, {b!r})")
    return (a, b) if a < b else (b, a)


def simplex(vertices: Iterable[str], line: int | None = None) -> Simplex:
    """Normalize a vertex collection into a sorted simplex tuple.

    Rejects duplicate vertices and anything above dimension 3 (more than
    4 vertices).
    """
    verts = tuple(sorted(str(v) for v in vertices))
    if not verts:
        raise ParseError("empty simplex", line)
    if len(set(verts)) != len(verts):
        raise ParseError(f"duplicate vertex in simplex {' '.join(verts)}", line)
    if len(verts) > 4:
        raise UnsupportedDimension(
            f"simplex with {len(verts)} vertices exceeds dimension 3", line
        )
    return verts


def canonical_cycle(seq: Iterable[str]) -> Cycle:
    """Rotate/reflect a face cycle into its canonical presentation.

    The smallest vertex comes first and its smaller neighbor second, so
    equal cycles (up to rotation and direction) get equal tuples.
    """
    cyc = tuple(str(v) for v in seq)
    k = len(cyc)
    i = cyc.index(min(cyc))
    rotated = cyc[i:] + cyc[:i]
    if rotated[1] > rotated[-1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


def cycle_edges(cycle: Cycle) -> list[Edge]:
    """Edges of a face cycle: consecutive pairs including last-first."""
    k = len(cycle)
    return [norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


# =====================================================================
# Simplicial complexes
# =====================================================================


@dataclass(eq=False)
class Incidence:
    """Sorted cells and cell incidences of one complex.

    A complex builds its index on first use and keeps it (see the
    ``incidence`` property of each complex class); each incidence map is
    in turn built on first use.  The index is not a dataclass field, so
    equality, hashing and repr of the complex ignore it.
    """

    vertices: frozenset[str]
    edges: frozenset[Edge]
    cells2: tuple[Cycle, ...]
    tetrahedra: tuple[Simplex, ...] = ()

    @cached_property
    def edge_cells(self) -> dict[Edge, list[int]]:
        """Each edge's 2-cells as indices into cells2, keyed in edge order."""
        out: dict[Edge, list[int]] = {e: [] for e in self.edges}
        for i, cell in enumerate(self.cells2):
            for e in cycle_edges(cell):
                out.setdefault(e, []).append(i)
        return dict(sorted(out.items()))

    @cached_property
    def chords(self) -> dict[str, list[Edge]]:
        """Each vertex's link chords, one per incident 2-cell in cells2 order.

        The chord of a cell at v joins v's two neighbors along the cycle.
        """
        out: dict[str, list[Edge]] = {}
        for cell in self.cells2:
            k = len(cell)
            for i, v in enumerate(cell):
                out.setdefault(v, []).append(norm_edge(cell[i - 1], cell[(i + 1) % k]))
        return out

    @cached_property
    def triangle_tets(self) -> dict[Simplex, list[int]]:
        """Each triangle's tetrahedra as indices into tetrahedra, keyed in order."""
        out: dict[Simplex, list[int]] = {t: [] for t in self.cells2}
        for i, tet in enumerate(self.tetrahedra):
            for k in range(4):
                out.setdefault(tet[:k] + tet[k + 1 :], []).append(i)
        return dict(sorted(out.items()))

    @cached_property
    def star(self) -> dict[str, list[tuple[str, ...]]]:
        """Each vertex's edges, 2-cells and tetrahedra."""
        out: dict[str, list[tuple[str, ...]]] = {}
        for s in chain(self.edges, self.cells2, self.tetrahedra):
            for v in s:
                out.setdefault(v, []).append(s)
        return out


@dataclass(frozen=True)
class SimplicialComplex:
    """A face-closed set of simplices of dimension at most 3, each as simplex() makes it."""

    simplices: frozenset[Simplex]

    def __post_init__(self) -> None:
        # the package's own builders make closed sets and skip this check (_scx)
        cells = _cell_list(self.simplices, "simplices")
        bad = [s for s in cells if type(s) is not tuple or not 0 < len(s) <= 4
               or any(type(v) is not str for v in s) or any(a >= b for a, b in zip(s, s[1:]))]
        if bad:
            raise ParseError(f"simplex {min(bad, key=repr)!r} is not a sorted tuple of 1 to 4 distinct labels")
        simplices = frozenset(cells)
        missing = [(s, f) for s in simplices for f in combinations(s, len(s) - 1)
                   if f and f not in simplices]
        if missing:
            raise ParseError("simplex {} lacks its face {}".format(*map(" ".join, min(missing))))
        object.__setattr__(self, "simplices", simplices)

    @cached_property
    def incidence(self) -> Incidence:
        by_dim: tuple[list[Simplex], ...] = ([], [], [], [])
        for s in self.simplices:
            by_dim[len(s) - 1].append(s)
        return Incidence(
            frozenset(s[0] for s in by_dim[0]),
            frozenset(by_dim[1]),  # type: ignore[arg-type]
            tuple(sorted(by_dim[2])),
            tuple(sorted(by_dim[3])),
        )

    def vertex_set(self) -> frozenset[str]:
        return self.incidence.vertices

    def edge_set(self) -> frozenset[Edge]:
        return self.incidence.edges

    def triangles(self) -> tuple[Simplex, ...]:
        return self.incidence.cells2

    def tetrahedra(self) -> tuple[Simplex, ...]:
        return self.incidence.tetrahedra

    def cells2(self) -> tuple[Cycle, ...]:
        """The 2-cells as cycles; a triangle (a,b,c) is its own 3-cycle."""
        return self.incidence.cells2

    def counts(self) -> tuple[int, int, int, int]:
        inc = self.incidence
        return (len(inc.vertices), len(inc.edges), len(inc.cells2), len(inc.tetrahedra))


def close(simplices: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Face closure: add every nonempty subset of every given simplex."""
    return _closure(map(simplex, simplices))


def _closure(tops: Iterable[Simplex]) -> SimplicialComplex:
    # the faces of simplices that simplex() has already normalized
    out: set[Simplex] = set()
    for top in tops:
        for k in range(1, len(top) + 1):
            out.update(combinations(top, k))
    return _scx(frozenset(out))


def _cell_list(cells: object, what: str) -> list:
    # the cells of a directly built complex, from any iterable container
    try:
        return list(cells)  # type: ignore[call-overload]
    except TypeError:
        raise ParseError(f"{what} must be an iterable of cells, got {type(cells).__name__}") from None


def _unchecked(cls: type, *cells: object):
    # a complex the package has built closed, made without its constructor's check
    cx = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, cells):
        object.__setattr__(cx, name, value)
    return cx


def _scx(simplices: frozenset[Simplex]) -> SimplicialComplex:
    return _unchecked(SimplicialComplex, simplices)


# =====================================================================
# Regular CW 2-complexes
# =====================================================================


@dataclass(frozen=True)
class CWComplex2:
    """A regular CW 2-complex.

    Faces are cycles of pairwise distinct vertices; 1-cells are
    identified by their unordered endpoint pair, so there are no
    parallel edges (rotation systems cover multigraph needs).
    """

    vertices: frozenset[str]
    edges: frozenset[Edge]
    faces: tuple[Cycle, ...]

    def __post_init__(self) -> None:
        # the package's own builders make closed complexes and skip this check (_unchecked)
        if not isinstance(self.faces, (list, tuple)):  # face order fixes the witness indices
            raise ParseError(f"faces must be a list or tuple, got {type(self.faces).__name__}")
        verts, edge_list = _cell_list(self.vertices, "vertices"), _cell_list(self.edges, "edges")
        bad = [f"vertex {v!r} is not a str label" for v in verts if type(v) is not str]
        bad += [f"edge {e!r} is not a sorted pair of distinct str labels" for e in edge_list
                if type(e) is not tuple or len(e) != 2 or any(type(v) is not str for v in e) or e[0] >= e[1]]
        bad += [f"face {c!r} is not a tuple of 3 or more distinct str labels" for c in self.faces
                if type(c) is not tuple or any(type(v) is not str for v in c) or len(c) < 3 or len(set(c)) < len(c)]
        if bad:
            raise ParseError(min(bad))
        vertices, edges, faces = frozenset(verts), frozenset(edge_list), tuple(self.faces)
        missing = [(c, e) for c in faces for e in cycle_edges(c) if e not in edges]
        missing += [(e, (v,)) for e in edges for v in e if v not in vertices]
        if missing:
            cell, face = min(missing)
            what = "face {} lacks its edge {}" if len(cell) > 2 else "edge {} lacks its vertex {}"
            raise ParseError(what.format(" ".join(cell), " ".join(face)))
        for name, value in (("vertices", vertices), ("edges", edges), ("faces", faces)):
            object.__setattr__(self, name, value)

    @cached_property
    def incidence(self) -> Incidence:
        return Incidence(self.vertices, self.edges, self.faces)

    def vertex_set(self) -> frozenset[str]:
        return self.vertices

    def edge_set(self) -> frozenset[Edge]:
        return self.edges

    def cells2(self) -> tuple[Cycle, ...]:
        return self.faces

    def tetrahedra(self) -> tuple[Simplex, ...]:
        """Always empty: a CW 2-complex has no 3-cells."""
        return self.incidence.tetrahedra

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces))


def _face_cycle(vertices: Iterable[str], line: int | None = None) -> Cycle:
    """Check a face cycle: at least 3 vertices, none repeated."""
    cyc = tuple(str(v) for v in vertices)
    if len(cyc) < 3:
        raise MalformedFace(f"face cycle {' '.join(cyc)} has fewer than 3 vertices", line)
    if len(set(cyc)) != len(cyc):
        raise NotRegular(f"face cycle {' '.join(cyc)} repeats a vertex", line)
    return cyc


def cw_complex(
    faces: Iterable[Iterable[str]],
    extra_edges: Iterable[tuple[str, str]] = (),
    extra_vertices: Iterable[str] = (),
) -> CWComplex2:
    """Build a CW 2-complex from face cycles plus optional loose cells."""
    return _cw([_face_cycle(raw) for raw in faces], extra_edges, extra_vertices)


def _cw(
    faces: Iterable[Cycle],
    extra_edges: Iterable[tuple[str, str]],
    extra_vertices: Iterable[str],
) -> CWComplex2:
    # the complex of face cycles that _face_cycle() has already checked
    canon_faces = [canonical_cycle(cyc) for cyc in faces]
    edges: set[Edge] = set()
    for cyc in canon_faces:
        edges.update(cycle_edges(cyc))
    for a, b in extra_edges:
        edges.add(norm_edge(str(a), str(b)))
    vertices: set[str] = set(str(v) for v in extra_vertices)
    for cyc in canon_faces:
        vertices.update(cyc)
    for a, b in edges:
        vertices.add(a)
        vertices.add(b)
    return _unchecked(CWComplex2, frozenset(vertices), frozenset(edges), tuple(sorted(canon_faces)))


Complex = SimplicialComplex | CWComplex2


# =====================================================================
# Parsing
# =====================================================================


def _content_lines(text: str) -> list[tuple[int, str]]:
    # '#' starts a comment; blank lines are skipped
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def parse_simplicial(text: str) -> SimplicialComplex:
    """Parse the one-simplex-per-line text format and take the closure."""
    tops = [simplex(line.split(), no) for no, line in _content_lines(text)]
    if not tops:
        raise ParseError("empty input: no simplices")
    return _closure(tops)


def parse_cw2(text: str) -> CWComplex2:
    """Parse the F:/E:/V: line format for CW 2-complexes."""
    faces: list[tuple[str, ...]] = []
    extra_edges: list[tuple[str, str]] = []
    extra_vertices: list[str] = []
    seen = False
    for no, line in _content_lines(text):
        seen = True
        if line.startswith("F:"):
            faces.append(_face_cycle(line[2:].split(), no))
        elif line.startswith("E:"):
            ends = line[2:].split()
            if len(ends) != 2 or ends[0] == ends[1]:
                raise ParseError(f"edge needs two distinct endpoints: {line!r}", no)
            extra_edges.append((ends[0], ends[1]))
        elif line.startswith("V:"):
            labels = line[2:].split()
            if len(labels) != 1:
                raise ParseError(f"vertex line needs exactly one label: {line!r}", no)
            extra_vertices.append(labels[0])
        else:
            raise ParseError(f"expected F:/E:/V: line, got {line!r}", no)
    if not seen:
        raise ParseError("empty input: no cells")
    return _cw(faces, extra_edges, extra_vertices)


def _quote(raw: object) -> str:
    # a bad JSON value for an error message, cut to its first 60 characters
    text = json.dumps(raw)
    return text if len(text) <= 60 else text[:60] + "..."


def _json_labels(raw: object, what: str) -> tuple[str, ...]:
    # vertex labels may be JSON strings or numbers, not booleans (bool is an int)
    if not isinstance(raw, list) or not all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise ParseError(f"{what} must be a list of vertex labels, got {_quote(raw)}")
    return tuple(str(v) for v in raw)


def _json_list(obj: dict, key: str) -> list:
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f'"{key}" must be a list, got {_quote(items)}')
    return items


def _parse_json_obj(obj: object) -> Complex:
    # every shape check on a JSON document happens here, as a ParseError
    if not isinstance(obj, dict):
        raise ParseError("JSON document must be an object")
    if "simplices" in obj:
        items = obj["simplices"]
        if not isinstance(items, list) or not items:
            raise ParseError('"simplices" must be a nonempty list')
        return close(_json_labels(s, "a simplex") for s in items)
    if "faces" in obj or "edges" in obj or "vertices" in obj:
        faces = [_json_labels(f, "a face") for f in _json_list(obj, "faces")]
        edges = [_json_labels(e, "an edge") for e in _json_list(obj, "edges")]
        for e in edges:
            if len(e) != 2 or e[0] == e[1]:
                raise ParseError(f"edge needs two distinct endpoints, got {_quote(e)}")
        vertices = _json_labels(_json_list(obj, "vertices"), '"vertices"')
        if not (faces or edges or vertices):
            raise ParseError("empty input: no cells")
        return cw_complex(faces, edges, vertices)  # type: ignore[arg-type]
    raise ParseError('JSON document needs "simplices" or "faces"/"edges"/"vertices"')


def parse_complex(text: str, fmt: str = "auto") -> Complex:
    """Parse a complex in scx, cw2, or JSON form.

    With fmt="auto", a leading "{" selects JSON, any F:/E:/V: line
    selects cw2, and anything else is read as simplicial text.
    """
    if fmt not in ("auto", "scx", "cw2"):
        raise ValueError(f"unknown format {fmt!r}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return _parse_json_obj(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
        except RecursionError:  # from decoding, or from quoting a bad value in a message
            raise ParseError("bad JSON: nested too deeply") from None
    if fmt == "scx":
        return parse_simplicial(text)
    if fmt == "cw2":
        return parse_cw2(text)
    for _, line in _content_lines(text):
        if line.startswith(("F:", "E:", "V:")):
            return parse_cw2(text)
    return parse_simplicial(text)


# =====================================================================
# Serialization
# =====================================================================


def to_text(cx: Complex) -> str:
    """Canonical text form; parse(to_text(cx)) == cx."""
    obj = to_json_obj(cx)
    if "simplices" in obj:
        lines = [" ".join(s) for s in obj["simplices"]]
    else:
        lines = [f"F: {' '.join(c)}" for c in obj["faces"]]
        lines += [f"E: {a} {b}" for a, b in obj["edges"]]
        lines += [f"V: {v}" for v in obj["vertices"]]
    return "\n".join(lines) + "\n"


def to_json_obj(cx: Complex) -> dict:
    """Canonical JSON-ready dict mirroring the text format."""
    if isinstance(cx, SimplicialComplex):
        return {"simplices": [list(s) for s in sorted(cx.simplices)]}
    in_faces: set[Edge] = set()
    for cyc in cx.faces:
        in_faces.update(cycle_edges(cyc))
    covered = set(v for e in cx.edges for v in e)
    return {
        "faces": [list(c) for c in cx.faces],
        "edges": [list(e) for e in sorted(cx.edges - in_faces)],
        "vertices": sorted(cx.vertices - covered - set(v for c in cx.faces for v in c)),
    }


# =====================================================================
# Basic invariants
# =====================================================================


@dataclass(frozen=True)
class Skeleton1:
    """The 1-skeleton: all vertices and all 1-cells."""

    vertices: frozenset[str]
    edges: frozenset[Edge]


def skeleton1(cx: Complex) -> Skeleton1:
    return Skeleton1(cx.vertex_set(), cx.edge_set())


def euler_characteristic(cx: Complex) -> int:
    """Alternating sum of cell counts (V - E + F - T)."""
    v, e, f, *t = cx.counts()  # a CW 2-complex has no T
    return v - e + f - sum(t)


def relabel(cx: Complex, mapping: Mapping[str, str]) -> Complex:
    """Apply a vertex relabeling; the map must be injective on vertices."""
    verts = cx.vertex_set()
    image = {mapping.get(v, v) for v in verts}
    if len(image) != len(verts):
        raise ValueError("relabeling is not injective on the vertex set")

    def m(v: str) -> str:
        return str(mapping.get(v, v))

    if isinstance(cx, SimplicialComplex):
        return _scx(frozenset(tuple(sorted(m(v) for v in s)) for s in cx.simplices))
    return _unchecked(
        CWComplex2,
        frozenset(m(v) for v in cx.vertices),
        frozenset(norm_edge(m(a), m(b)) for a, b in cx.edges),
        tuple(sorted(canonical_cycle(tuple(m(v) for v in cyc)) for cyc in cx.faces)),
    )


def split_cells(cx: Complex, part: Callable[[tuple[str, ...]], int], n: int) -> list[Complex]:
    """Deal the cells of cx to n complexes in one pass.

    part(cell), given a cell as its vertex tuple, names the complex it
    goes to, or -1 to drop it; each complex keeps cx's order of cells.
    """

    def deal(cells: Iterable[tuple[str, ...]]) -> list[list[tuple[str, ...]]]:
        out: list[list[tuple[str, ...]]] = [[] for _ in range(n + 1)]  # out[n]: dropped
        for cell in cells:
            out[part(cell)].append(cell)
        return out[:n]

    if isinstance(cx, SimplicialComplex):
        return [_scx(frozenset(cells)) for cells in deal(cx.simplices)]
    parts = zip(deal((v,) for v in cx.vertices), deal(cx.edges), deal(cx.faces))
    return [_unchecked(CWComplex2, frozenset(v for (v,) in vs), frozenset(es), tuple(fs)) for vs, es, fs in parts]


def induced_subcomplex(cx: Complex, vertices: Iterable[str]) -> Complex:
    """Restrict to the cells whose vertices all lie in the given set."""
    keep = set(vertices)
    return split_cells(cx, lambda cell: 0 if keep.issuperset(cell) else -1, 1)[0]


def empty_check(cx: Complex) -> None:
    """Raise EmptyComplex when there is not a single vertex."""
    if not cx.vertex_set():
        raise EmptyComplex("complex has no vertices")
