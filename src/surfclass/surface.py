"""Local planarity: deciding whether a 2-complex is a surface.

The edge check counts incident 2-cells per edge (1 = boundary,
2 = interior, anything else fails). The vertex check walks the link of
a vertex: every incident 2-cell contributes the chord joining the
vertex's two neighbors in that cell (for a triangle, its opposite
edge), and the chords must chain into a single path (boundary vertex)
or cycle (interior vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .complexes import Complex, Cycle, Edge
from .errors import NotLocallyPlanar, NotSurface

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class EdgeStatus:
    edge: Edge
    status: str
    faces: tuple[int, ...]  # indices into cx.cells2()


@dataclass(frozen=True)
class VertexLink:
    """The link walk around one vertex, listing its neighbors in order."""

    vertex: str
    walk: tuple[str, ...]
    kind: str  # "path" or "cycle"


@dataclass(frozen=True)
class BoundaryDecomposition:
    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class SurfaceCheck:
    surface: bool
    closed: bool | None
    boundary_count: int | None
    defect: Exception | None = None


def _require_dim2(cx: Complex) -> None:
    if cx.tetrahedra():
        raise NotSurface("complex has 3-dimensional cells")


def _edge_defect(e: Edge, n: int) -> NotLocallyPlanar:
    return NotLocallyPlanar(f"edge {{{e[0]},{e[1]}}} lies in {n} 2-cells", edge=e, face_count=n)


def _facet_status(cofaces: Mapping[tuple, list[int]], status: Callable, defect: Callable) -> list:
    """One status per facet in key order: 1 coface is boundary, 2 interior.

    Any other count raises defect(facet, count).
    """
    out = []
    for f, cells in cofaces.items():
        n = len(cells)
        if n not in (1, 2):
            raise defect(f, n)
        out.append(status(f, BOUNDARY if n == 1 else INTERIOR, tuple(cells)))
    return out


def edge_check(cx: Complex) -> list[EdgeStatus]:
    """Classify every edge as interior or boundary.

    Raises NotLocallyPlanar for an edge lying in no 2-cell or in more
    than two.
    """
    _require_dim2(cx)
    return _facet_status(cx.incidence.edge_cells, EdgeStatus, _edge_defect)


def _ends(edges: list[Edge]) -> dict[str, list[int]]:
    # each end of the given edges, with the indices of its edges
    at: dict[str, list[int]] = {}
    for i, (a, b) in enumerate(edges):
        at.setdefault(a, []).append(i)
        at.setdefault(b, []).append(i)
    return at


def _walk(
    edges: list[Edge], at: dict[str, list[int]], used: list[bool], i: int
) -> tuple[list[str], bool, str | None]:
    """Chain edges[i] with unused edges into a path or a cycle.

    The walk goes right from edges[i] while its end has exactly one
    unused edge, and closes when it comes back to its first vertex;
    otherwise it then goes left the same way. Edges taken are marked in
    used. Returns the walk, whether it closed, and the first end with
    two or more unused edges (None if there was none).
    """
    used[i] = True
    first, end = edges[i]
    right, left = [first, end], [first]
    for side in (right, left):
        end = side[-1]
        while True:
            j = -1
            for k in at[end]:
                if not used[k]:
                    if j >= 0:
                        return right, False, end
                    j = k
            if j < 0:
                break
            used[j] = True
            a, b = edges[j]
            end = b if a == end else a
            if end == first:  # only on the right: the left walk left first by its last unused edge
                return right, True, None
            side.append(end)
    return left[:0:-1] + right, False, None


def vertex_check(cx: Complex, v: str) -> VertexLink:
    """Walk the link chords around v into a single path or cycle.

    The walk starts from the smallest chord, extends to the right
    while a unique continuation exists, then to the left. Branching or
    a disconnected chord set raises NotLocallyPlanar.
    """
    _require_dim2(cx)
    if v not in cx.vertex_set():
        raise ValueError(f"no vertex {v!r} in complex")
    chords = sorted(cx.incidence.chords.get(v, ()))
    if not chords:
        raise NotLocallyPlanar(f"vertex {v} lies in no 2-cell", vertex=v)
    used = [False] * len(chords)
    walk, closed, branch = _walk(chords, _ends(chords), used, 0)
    if branch is not None:
        raise NotLocallyPlanar(
            f"link of vertex {v} branches at {branch}", vertex=v, branch_vertex=branch
        )
    if not all(used):
        raise NotLocallyPlanar(f"link of vertex {v} is disconnected", vertex=v)
    return VertexLink(v, tuple(walk), "cycle" if closed else "path")


def boundary_components(cx: Complex) -> BoundaryDecomposition:
    """Assemble the boundary edges into disjoint cycles.

    Each cycle starts at its smallest vertex and runs toward that
    vertex's smaller boundary neighbor; cycles are listed by smallest
    vertex. Assumes edge_check and vertex_check hold.
    """
    return _boundary_cycles(edge_check(cx))


def _boundary_cycles(statuses: list[EdgeStatus]) -> BoundaryDecomposition:
    edges = [st.edge for st in statuses if st.status == BOUNDARY]
    at = _ends(edges)
    for v, ids in at.items():
        if len(ids) != 2:
            raise NotLocallyPlanar(f"boundary vertex {v} has {len(ids)} boundary edges", vertex=v)
    # in sorted edge order, the first unused edge joins the smallest vertex
    # of a new cycle to that vertex's smaller neighbor
    used = [False] * len(edges)
    cycles = [tuple(_walk(edges, at, used, i)[0]) for i in range(len(edges)) if not used[i]]
    return BoundaryDecomposition(tuple(cycles))


def is_surface(cx: Complex) -> SurfaceCheck:
    """Run edge and vertex checks and summarize the verdict."""
    try:
        statuses = edge_check(cx)
        for v in sorted(cx.vertex_set()):
            vertex_check(cx, v)
    except (NotLocallyPlanar, NotSurface) as exc:
        return SurfaceCheck(False, None, None, exc)
    closed = all(st.status == INTERIOR for st in statuses)
    b = len(_boundary_cycles(statuses).cycles)
    return SurfaceCheck(True, closed, b, None)
