"""Local planarity: deciding whether a 2-complex is a surface.

The edge check counts incident 2-cells per edge (1 = boundary,
2 = interior, anything else fails). The vertex check walks the link of
a vertex: every incident 2-cell contributes the chord joining the
vertex's two neighbors in that cell (for a triangle, its opposite
edge), and the chords must chain into a single path (boundary vertex)
or cycle (interior vertex).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .complexes import Complex, Cycle, Edge, norm_edge
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


def edge_check(cx: Complex) -> list[EdgeStatus]:
    """Classify every edge as interior or boundary.

    Raises NotLocallyPlanar for an edge lying in no 2-cell or in more
    than two.
    """
    _require_dim2(cx)
    out = []
    for e, cells in cx.incidence.edge_cells.items():
        n = len(cells)
        if n == 1:
            out.append(EdgeStatus(e, BOUNDARY, tuple(cells)))
        elif n == 2:
            out.append(EdgeStatus(e, INTERIOR, tuple(cells)))
        else:
            raise NotLocallyPlanar(
                f"edge {{{e[0]},{e[1]}}} lies in {n} 2-cells",
                edge=e,
                face_count=n,
            )
    return out


def vertex_check(cx: Complex, v: str) -> VertexLink:
    """Walk the link chords around v into a single path or cycle.

    The walk starts from the smallest chord, extends to the right
    while a unique continuation exists, then to the left. Branching or
    a disconnected chord set raises NotLocallyPlanar.
    """
    _require_dim2(cx)
    if v not in cx.vertex_set():
        raise ValueError(f"no vertex {v!r} in complex")
    pool = sorted(cx.incidence.chords.get(v, ()))
    if not pool:
        raise NotLocallyPlanar(f"vertex {v} lies in no 2-cell", vertex=v)
    first = pool.pop(0)
    walk = [first[0], first[1]]

    def take(end: str) -> str | None:
        cont = [e for e in pool if end in e]
        if len(cont) > 1:
            raise NotLocallyPlanar(
                f"link of vertex {v} branches at {end}", vertex=v, branch_vertex=end
            )
        if not cont:
            return None
        e = cont[0]
        pool.remove(e)
        return e[1] if e[0] == end else e[0]

    closed = False
    while True:
        nxt = take(walk[-1])
        if nxt is None:
            break
        walk.append(nxt)
        if walk[0] == walk[-1]:
            walk.pop()
            closed = True
            break
    # no chord left contains walk[-1], so the left walk cannot close a cycle
    while not closed:
        prv = take(walk[0])
        if prv is None:
            break
        walk.insert(0, prv)
    if pool:
        raise NotLocallyPlanar(
            f"link of vertex {v} is disconnected", vertex=v
        )
    return VertexLink(v, tuple(walk), "cycle" if closed else "path")


def boundary_components(cx: Complex) -> BoundaryDecomposition:
    """Assemble the boundary edges into disjoint cycles.

    Each cycle starts at its smallest vertex and runs toward that
    vertex's smaller boundary neighbor; cycles are listed by smallest
    vertex. Assumes edge_check and vertex_check hold.
    """
    return _boundary_cycles(edge_check(cx))


def _boundary_cycles(statuses: list[EdgeStatus]) -> BoundaryDecomposition:
    adj: dict[str, list[str]] = defaultdict(list)
    unused: set[Edge] = set()
    for st in statuses:
        if st.status == BOUNDARY:
            a, b = st.edge
            adj[a].append(b)
            adj[b].append(a)
            unused.add(st.edge)
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise NotLocallyPlanar(
                f"boundary vertex {v} has {len(nbrs)} boundary edges", vertex=v
            )
    cycles = []
    while unused:
        start = min(v for e in unused for v in e)
        cur = min(w for w in adj[start] if norm_edge(start, w) in unused)
        unused.discard(norm_edge(start, cur))
        cycle = [start, cur]
        while cur != start:
            nxt = next(w for w in adj[cur] if norm_edge(cur, w) in unused)
            unused.discard(norm_edge(cur, nxt))
            if nxt == start:
                break
            cycle.append(nxt)
            cur = nxt
        cycles.append(tuple(cycle))
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
