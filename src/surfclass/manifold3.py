"""Recognition of triangulated 3-manifolds via vertex links.

A 3-complex is a manifold when every triangle lies in one or two
tetrahedra and every vertex link is a sphere (interior vertex) or a
disk (boundary vertex); is_3manifold decides each link from the
vertex's star, without building the link. The boundary triangles assemble
into closed surfaces, which are classified with the 2-dimensional
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import SurfaceType, classify_surface
from .complexes import Edge, SimplicialComplex, Simplex, _scx, close, euler_characteristic
from .connectivity import classes
from .errors import InvariantError, NotManifold
from .surface import BOUNDARY, _ends, _facet_status, _walk


@dataclass(frozen=True)
class TriangleStatus:
    triangle: Simplex
    status: str
    tetrahedra: tuple[int, ...]  # indices into cx.tetrahedra()


@dataclass(frozen=True)
class Manifold3Check:
    manifold: bool
    closed: bool | None
    boundary: tuple[SurfaceType, ...]
    defect: Exception | None = None


def _triangle_defect(tri: Simplex, n: int) -> NotManifold:
    return NotManifold(f"triangle {' '.join(tri)} lies in {n} tetrahedra", triangle=tri, count=n)


def face_check3(cx: SimplicialComplex) -> list[TriangleStatus]:
    """Classify every triangle as interior (2 tetrahedra) or boundary (1)."""
    if not cx.tetrahedra():
        raise NotManifold("complex has no 3-cells")
    return _facet_status(cx.incidence.triangle_tets, TriangleStatus, _triangle_defect)


def vertex_link3(cx: SimplicialComplex, v: str) -> SimplicialComplex:
    """The link of v: every simplex at v but v itself, with v removed.

    In a face-closed complex these sets are already closed under faces.
    """
    if v not in cx.vertex_set():
        raise ValueError(f"no vertex {v!r} in complex")
    star = cx.incidence.star.get(v, ())
    return _scx(frozenset(tuple(w for w in s if w != v) for s in star))


def _link_ok(star: list[tuple[str, ...]], v: str, chi: int) -> bool:
    """Whether the link of v has Euler characteristic chi, each link vertex
    b after v has its chords chained into one path or cycle, and the link
    is connected.

    The chords of b are the edges opposite {v,b} in its tetrahedra, the
    link chords of v in the link of b too, so an edge is walked at its
    smaller end only.
    """
    # v's star lists its edges, then its triangles, then its tetrahedra
    sizes = list(map(len, star))
    e, t = sizes.count(2), sizes.count(3)
    if len(star) - 2 * t != chi:  # edges - triangles + tetrahedra
        return False
    chords: dict[str, list[Edge]] = {}
    for tet in star[e + t :]:
        i = tet.index(v)
        rest = tet[:i] + tet[i + 1 :]
        for k in range(i, 3):  # the vertices after v
            chords.setdefault(rest[k], []).append(rest[:k] + rest[k + 1 :])
    for cs in chords.values():
        if len(cs) > 1:
            used = [False] * len(cs)
            if _walk(cs, _ends(cs), used, 0)[2] is not None or not all(used):
                return False
    nodes = [b if a == v else a for a, b in star[:e]]
    pairs = [(b, c) if a == v else (a, c) if b == v else (a, b) for a, b, c in star[e : e + t]]
    return len(classes(nodes, pairs)) == 1


def is_3manifold(cx: SimplicialComplex) -> Manifold3Check:
    """Full manifold verdict with classified boundary surfaces."""
    tets = cx.tetrahedra()
    if not tets:
        return Manifold3Check(False, None, (), NotManifold("complex has no 3-cells"))
    if cx.simplices != close(tets).simplices:
        return Manifold3Check(
            False, None, (),
            NotManifold("complex has cells outside the closure of its tetrahedra"),
        )
    try:
        statuses = face_check3(cx)
    except NotManifold as exc:
        return Manifold3Check(False, None, (), exc)
    boundary_tris = [st.triangle for st in statuses if st.status == BOUNDARY]
    boundary_verts = set(v for tri in boundary_tris for v in tri)
    # every triangle lies in 1 or 2 tetrahedra, so each link passes its edge
    # check, and it is closed exactly at an interior vertex; an edge {u,v}
    # with u before v passed when u did
    star = cx.incidence.star
    for v in sorted(cx.vertex_set()):
        need = "disk" if v in boundary_verts else "sphere"
        if not _link_ok(star[v], v, 1 if v in boundary_verts else 2):
            return Manifold3Check(
                False, None, (),
                NotManifold(f"link of vertex {v} is not a {need}", vertex=v),
            )
    closed = not boundary_tris
    boundary_types: tuple[SurfaceType, ...] = ()
    if boundary_tris:  # a closed surface, since every vertex link is a sphere or a disk
        boundary_types = tuple(classify_surface(close(boundary_tris)))
    if closed and euler_characteristic(cx) != 0:
        raise InvariantError(
            f"closed 3-manifold with Euler characteristic {euler_characteristic(cx)}, not 0"
        )
    return Manifold3Check(True, closed, boundary_types, None)
