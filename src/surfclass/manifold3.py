"""Recognition of triangulated 3-manifolds via vertex links.

A 3-complex is a manifold when every triangle lies in one or two
tetrahedra and every vertex link is a sphere (interior vertex) or a
disk (boundary vertex). The boundary triangles themselves assemble
into closed surfaces, which are classified with the 2-dimensional
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import SurfaceType, classify_surface, is_disk, is_sphere
from .complexes import SimplicialComplex, Simplex, close, euler_characteristic
from .errors import InvariantError, NotManifold, NotSurface
from .surface import BOUNDARY, INTERIOR


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


def face_check3(cx: SimplicialComplex) -> list[TriangleStatus]:
    """Classify every triangle as interior (2 tetrahedra) or boundary (1)."""
    if not cx.tetrahedra():
        raise NotManifold("complex has no 3-cells")
    out = []
    for tri, tets in cx.incidence.triangle_tets.items():
        n = len(tets)
        if n == 1:
            out.append(TriangleStatus(tri, BOUNDARY, tuple(tets)))
        elif n == 2:
            out.append(TriangleStatus(tri, INTERIOR, tuple(tets)))
        else:
            raise NotManifold(
                f"triangle {' '.join(tri)} lies in {n} tetrahedra",
                triangle=tri,
                count=n,
            )
    return out


def vertex_link3(cx: SimplicialComplex, v: str) -> SimplicialComplex:
    """The link of v: the closure of the opposite faces of all cells at v.

    Every cell at v is a face of one of v's tetrahedra or of a cell that
    lies in no tetrahedron, so those two kinds span the link.
    """
    if v not in cx.vertex_set():
        raise ValueError(f"no vertex {v!r} in complex")
    tets = cx.tetrahedra()
    opposite = [tuple(w for w in tets[i] if w != v) for i in cx.incidence.vertex_tets.get(v, ())]
    opposite += [tuple(w for w in s if w != v) for s in cx.loose if v in s and len(s) > 1]
    if not opposite:
        return SimplicialComplex(frozenset())
    return close(opposite)


def is_3manifold(cx: SimplicialComplex) -> Manifold3Check:
    """Full manifold verdict with classified boundary surfaces."""
    tets = cx.tetrahedra()
    if not tets:
        return Manifold3Check(False, None, (), NotManifold("complex has no 3-cells"))
    if cx.simplices != cx.tet_closure:
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
    for v in sorted(cx.vertex_set()):
        link = vertex_link3(cx, v)
        if v in boundary_verts:
            ok = is_disk(link)
            need = "disk"
        else:
            ok = is_sphere(link)
            need = "sphere"
        if not ok:
            return Manifold3Check(
                False, None, (),
                NotManifold(f"link of vertex {v} is not a {need}", vertex=v),
            )
    closed = not boundary_tris
    boundary_types: tuple[SurfaceType, ...] = ()
    if boundary_tris:
        try:
            boundary_types = tuple(classify_surface(close(boundary_tris)))
        except NotSurface as exc:  # pragma: no cover - links already vetted
            return Manifold3Check(False, None, (), exc)
    if closed and euler_characteristic(cx) != 0:
        raise InvariantError(
            f"closed 3-manifold with Euler characteristic {euler_characteristic(cx)}, not 0"
        )
    return Manifold3Check(True, closed, boundary_types, None)
