from __future__ import annotations

import itertools

import pytest

from surfclass import (
    NotManifold,
    ParseError,
    SimplicialComplex,
    SurfaceType,
    close,
    components,
    euler_characteristic,
    face_check3,
    is_3manifold,
    is_sphere,
    vertex_link3,
)
from surfclass import complexes, manifold3

SINGLE_TETRA = close([("0", "1", "2", "3")])
D4_BOUNDARY = close([tuple(sorted(t)) for t in itertools.combinations("01234", 4)])


def test_face_check3_counts_tetrahedra_per_triangle():
    statuses = face_check3(D4_BOUNDARY)
    assert len(statuses) == 10
    assert all(st.status == "interior" and len(st.tetrahedra) == 2 for st in statuses)
    statuses = face_check3(SINGLE_TETRA)
    assert all(st.status == "boundary" and len(st.tetrahedra) == 1 for st in statuses)


def test_face_check3_requires_3_cells():
    with pytest.raises(NotManifold):
        face_check3(close([("0", "1", "2")]))


def test_face_check3_rejects_triple_shared_triangle():
    cx = close([("0", "1", "2", "3"), ("0", "1", "2", "4"), ("0", "1", "2", "5")])
    with pytest.raises(NotManifold) as ei:
        face_check3(cx)
    assert ei.value.triangle == ("0", "1", "2")
    assert ei.value.count == 3


def test_vertex_link3_of_a_tetra_vertex():
    link = vertex_link3(SINGLE_TETRA, "0")
    assert link == close([("1", "2", "3")])


def test_vertex_link3_unknown_vertex():
    with pytest.raises(ValueError):
        vertex_link3(SINGLE_TETRA, "9")


def test_single_tetra_is_manifold_with_sphere_boundary():
    chk = is_3manifold(SINGLE_TETRA)
    assert chk.manifold and not chk.closed
    assert chk.boundary == (SurfaceType(True, 0, 0, 2),)


def test_boundary_of_4_simplex_is_closed_manifold():
    chk = is_3manifold(D4_BOUNDARY)
    assert chk.manifold and chk.closed
    assert chk.boundary == ()
    for v in sorted(D4_BOUNDARY.vertex_set()):
        assert is_sphere(vertex_link3(D4_BOUNDARY, v)), v


def test_two_tetra_stack():
    cx = close([("0", "1", "2", "3"), ("0", "1", "2", "4")])
    chk = is_3manifold(cx)
    assert chk.manifold and not chk.closed
    assert [t.name() for t in chk.boundary] == ["S2"]


def test_rejects_complex_with_no_3_cells():
    chk = is_3manifold(close([("0", "1", "2")]))
    assert not chk.manifold
    assert isinstance(chk.defect, NotManifold)


def test_rejects_stray_cells_outside_tetra_closure():
    cx = close([("0", "1", "2", "3"), ("7", "8")])
    chk = is_3manifold(cx)
    assert not chk.manifold
    assert "closure" in str(chk.defect)


def test_rejects_pinched_vertex_link():
    # two tetrahedra meeting only at vertex 0: its link is two disjoint
    # triangles, not a sphere or disk
    cx = close([("0", "1", "2", "3"), ("0", "4", "5", "6")])
    chk = is_3manifold(cx)
    assert not chk.manifold
    assert isinstance(chk.defect, NotManifold)
    assert chk.defect.vertex == "0"


def test_rejects_edge_pinch():
    # two tetrahedra sharing only the edge {0,1}: the link of 0 is two
    # triangles glued along one vertex, which branches
    cx = close([("0", "1", "2", "3"), ("0", "1", "4", "5")])
    chk = is_3manifold(cx)
    assert not chk.manifold


def test_rejects_tetrahedron_without_its_faces():
    # a tetrahedron without its faces is never a complex, let alone a manifold
    with pytest.raises(ParseError, match="lacks its face 0 1 2$"):
        SimplicialComplex(frozenset({("0", "1", "2", "3")}))


def test_is_3manifold_closes_the_tetrahedra_once(monkeypatch):
    cx = close([("0", "1", "2", "3"), ("0", "1", "2", "4")])
    tets = cx.tetrahedra()
    calls = []
    real = complexes.close

    def counting_close(simplices):
        simplices = list(simplices)
        calls.append(simplices)
        return real(simplices)

    monkeypatch.setattr(complexes, "close", counting_close)
    monkeypatch.setattr(manifold3, "close", counting_close)
    assert is_3manifold(cx).manifold
    assert [c for c in calls if c == list(tets)] == [list(tets)]


def test_cone_over_two_spheres_glued_at_two_points_is_not_a_manifold():
    # two octahedron boundaries glued at one antipodal pair {n, s}: the
    # apex link K is connected, every edge of K lies in two triangles and
    # chi(K) = 2, yet K is no sphere (the links of n and s in K are two circles)
    k = [
        (pole, f"{side}{i}", f"{side}{(i + 1) % 4}")
        for side in "uw"
        for pole in "ns"
        for i in range(4)
    ]
    link = close(k)
    assert components(link).count() == 1
    assert all(len(cells) == 2 for cells in link.incidence.edge_cells.values())
    assert euler_characteristic(link) == 2
    assert not is_sphere(link)
    cone = close([("c",) + tri for tri in k])
    assert vertex_link3(cone, "c") == link
    chk = is_3manifold(cone)
    assert not chk.manifold
    assert str(chk.defect) == "link of vertex c is not a sphere"
    assert chk.defect.vertex == "c"


def test_cone_over_the_double_cone_over_a_2000_cycle_is_a_ball():
    n = 2000
    sphere = close((p, f"a{i}", f"a{(i + 1) % n}") for p in "NS" for i in range(n))
    cx = close(("c",) + tri for tri in sphere.triangles())
    chk = is_3manifold(cx)
    assert chk.manifold and not chk.closed
    assert chk.boundary == (SurfaceType(True, 0, 0, 2),)
    link = vertex_link3(cx, "c")
    assert link == sphere
    for pole in "NS":
        assert sum(pole in e for e in link.edge_set()) == n
