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
from .complexes import SimplicialComplex, Simplex, _scx, close, euler_characteristic
from .errors import InvariantError, NotManifold
from .surface import BOUNDARY, _facet_status


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
    if boundary_tris:  # a closed surface, since every vertex link is a sphere or a disk
        boundary_types = tuple(classify_surface(close(boundary_tris)))
    if closed and euler_characteristic(cx) != 0:
        raise InvariantError(
            f"closed 3-manifold with Euler characteristic {euler_characteristic(cx)}, not 0"
        )
    return Manifold3Check(True, closed, boundary_types, None)
