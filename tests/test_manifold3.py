from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import (
    Manifold3Check,
    NotManifold,
    ParseError,
    SimplicialComplex,
    SurfaceType,
    classify_surface,
    close,
    components,
    euler_characteristic,
    face_check3,
    is_3manifold,
    is_disk,
    is_sphere,
    vertex_link3,
)
from surfclass import complexes, manifold3
from test_incidence import SOLIDS, freudenthal

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


# =====================================================================
# The per-vertex route as a reference: build every vertex link as a
# complex and test it with is_sphere / is_disk, in sorted vertex order
# =====================================================================


def ref_is_3manifold(cx):
    tets = cx.tetrahedra()
    if not tets:
        return Manifold3Check(False, None, (), NotManifold("complex has no 3-cells"))
    if cx.simplices != close(tets).simplices:
        return Manifold3Check(
            False, None, (), NotManifold("complex has cells outside the closure of its tetrahedra")
        )
    try:
        statuses = face_check3(cx)
    except NotManifold as exc:
        return Manifold3Check(False, None, (), exc)
    boundary_tris = [s.triangle for s in statuses if s.status == "boundary"]
    boundary_verts = {v for tri in boundary_tris for v in tri}
    for v in sorted(cx.vertex_set()):
        link = vertex_link3(cx, v)
        need = "disk" if v in boundary_verts else "sphere"
        if not (is_disk(link) if v in boundary_verts else is_sphere(link)):
            return Manifold3Check(False, None, (), NotManifold(f"link of vertex {v} is not a {need}", vertex=v))
    boundary = tuple(classify_surface(close(boundary_tris))) if boundary_tris else ()
    return Manifold3Check(True, not boundary_tris, boundary, None)


def verdict(chk):
    """A Manifold3Check in a form that == compares fully: the defect by type, message and fields."""
    defect = chk.defect
    fields = None if defect is None else (type(defect).__name__, str(defect), vars(defect))
    return (chk.manifold, chk.closed, chk.boundary, fields)


def cone(apex, triangles):
    return close((apex,) + tuple(tri) for tri in triangles)


# the 7-vertex torus: a connected closed surface with chi = 0
TORUS7 = [tuple(str((i + d) % 7) for d in ds) for i in range(7) for ds in ((0, 1, 3), (0, 2, 3))]
TETRA_BOUNDARY = [tuple(t) for t in itertools.combinations(("s0", "s1", "s2", "s3"), 3)]
TWO_SPHERES = [(p, f"{side}{i}", f"{side}{(i + 1) % 4}") for side in "uw" for p in "ns" for i in range(4)]
DOUBLE_CONE = [(p, f"a{i}", f"a{(i + 1) % 2000}") for p in "NS" for i in range(2000)]

# every complex the tests of this file build, the apex fixtures below, and
# Freudenthal balls, solid tori and 3-tori
BUILT = {
    "single_tetra": SINGLE_TETRA,
    "boundary_of_4_simplex": D4_BOUNDARY,
    "two_tetra_stack": close([("0", "1", "2", "3"), ("0", "1", "2", "4")]),
    "triple_shared_triangle": close([("0", "1", "2", "3"), ("0", "1", "2", "4"), ("0", "1", "2", "5")]),
    "no_3_cells": close([("0", "1", "2")]),
    "stray_edge": close([("0", "1", "2", "3"), ("7", "8")]),
    "pinched_vertex": close([("0", "1", "2", "3"), ("0", "4", "5", "6")]),
    "edge_pinch": close([("0", "1", "2", "3"), ("0", "1", "4", "5")]),
    "cone_over_two_spheres_glued_at_two_points": cone("c", TWO_SPHERES),
    "cone_over_a_double_cone": cone("c", DOUBLE_CONE),
    "cone_over_torus7": cone("c", TORUS7),
    "cone_over_sphere_and_torus7": cone("c", TETRA_BOUNDARY + TORUS7),
}
for _k in (2, 3, 4):
    BUILT[f"ball{_k}"] = freudenthal(_k)
    BUILT[f"solid_torus{_k}"] = freudenthal(_k, (True, False, False))
    BUILT[f"three_torus{_k}"] = freudenthal(_k, (True, True, True))


@pytest.mark.parametrize("name", sorted({**SOLIDS, **BUILT}))
def test_is_3manifold_matches_the_per_vertex_route(name):
    cx = {**SOLIDS, **BUILT}[name]
    assert verdict(is_3manifold(cx)) == verdict(ref_is_3manifold(cx))


# pure complexes: tetrahedra only, on few labels, so that links overlap and branch
PURE = st.lists(
    st.lists(st.sampled_from("0123456"), min_size=4, max_size=4, unique=True), min_size=1, max_size=8
).map(close)


@settings(max_examples=400, deadline=None)
@given(PURE)
def test_drawn_pure_complexes_match_the_per_vertex_route(cx):
    assert verdict(is_3manifold(cx)) == verdict(ref_is_3manifold(cx))


# =====================================================================
# Each link condition pinned by an apex that fails only that condition
# =====================================================================


def test_cone_over_a_torus_fails_on_the_euler_characteristic():
    # the apex link is a connected closed surface whose every edge link is a
    # cycle; only its chi = 0 tells it from a sphere
    link = vertex_link3(BUILT["cone_over_torus7"], "c")
    assert link == close(TORUS7)
    assert [t.name() for t in classify_surface(link)] == ["T2"]
    chk = is_3manifold(BUILT["cone_over_torus7"])
    assert not chk.manifold
    assert str(chk.defect) == "link of vertex c is not a sphere"
    assert chk.defect.vertex == "c"


def test_cone_over_a_sphere_and_a_torus_fails_on_connectivity():
    # the apex link S2 + T2 has chi = 2 and every edge link a cycle, but two components
    cx = BUILT["cone_over_sphere_and_torus7"]
    link = vertex_link3(cx, "c")
    assert euler_characteristic(link) == 2
    assert [t.name() for t in classify_surface(link)] == ["T2", "S2"]
    chk = is_3manifold(cx)
    assert not chk.manifold
    assert str(chk.defect) == "link of vertex c is not a sphere"
    assert chk.defect.vertex == "c"


def test_is_3manifold_builds_no_vertex_link(monkeypatch):
    def no_link(cx, v):
        raise AssertionError("vertex_link3 called")

    monkeypatch.setattr(manifold3, "vertex_link3", no_link)
    chk = is_3manifold(freudenthal(3))
    assert chk.manifold and not chk.closed
    assert chk.boundary == (SurfaceType(True, 0, 0, 2),)
