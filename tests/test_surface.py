from __future__ import annotations

import pytest

from surfclass import (
    BOUNDARY,
    INTERIOR,
    NotLocallyPlanar,
    NotSurface,
    VertexLink,
    boundary_components,
    close,
    cw_complex,
    edge_check,
    is_disk,
    is_sphere,
    is_surface,
    vertex_check,
)

TWO_TRIANGLES = close([("0", "1", "2"), ("0", "1", "3")])


def test_edge_check_statuses():
    statuses = {st.edge: st.status for st in edge_check(TWO_TRIANGLES)}
    assert statuses[("0", "1")] == INTERIOR
    for e in (("0", "2"), ("0", "3"), ("1", "2"), ("1", "3")):
        assert statuses[e] == BOUNDARY


def test_edge_check_rejects_lonely_edge():
    cx = close([("0", "1", "2"), ("4", "5")])
    with pytest.raises(NotLocallyPlanar) as ei:
        edge_check(cx)
    assert ei.value.edge == ("4", "5")
    assert ei.value.face_count == 0


def test_edge_check_rejects_triple_edge():
    cx = close([("0", "1", "2"), ("0", "1", "3"), ("0", "1", "4")])
    with pytest.raises(NotLocallyPlanar) as ei:
        edge_check(cx)
    assert ei.value.edge == ("0", "1")
    assert ei.value.face_count == 3


def test_edge_check_rejects_3_cells():
    with pytest.raises(NotSurface):
        edge_check(close([("0", "1", "2", "3")]))


def test_vertex_link_path():
    lk = vertex_check(TWO_TRIANGLES, "0")
    assert lk.kind == "path"
    assert lk.walk == ("3", "1", "2")


def test_vertex_link_cycle():
    cx = close([t for t in (("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3"))])
    for v in "0123":
        lk = vertex_check(cx, v)
        assert lk.kind == "cycle"
        assert len(lk.walk) == 3


def test_vertex_link_uses_face_corners_not_far_vertices():
    # the four faces around 0 include two quads that both pass through
    # the far vertex 5; the link of 0 must still be a clean cycle over
    # 0's neighbors only
    cx = cw_complex(
        [("0", "1", "3"), ("0", "1", "5", "4"), ("0", "2", "4"), ("0", "2", "5", "3")]
    )
    lk = vertex_check(cx, "0")
    assert lk.kind == "cycle"
    assert "5" not in lk.walk
    assert sorted(lk.walk) == ["1", "2", "3", "4"]


def test_vertex_check_rejects_branching():
    cx = close([("0", "1", "2"), ("0", "1", "3"), ("0", "1", "4")])
    with pytest.raises(NotLocallyPlanar):
        vertex_check(cx, "0")


def test_vertex_check_rejects_pinched_vertex():
    # two triangle fans meeting only at 0
    cx = close([("0", "1", "2"), ("0", "3", "4")])
    with pytest.raises(NotLocallyPlanar) as ei:
        vertex_check(cx, "0")
    assert "disconnected" in str(ei.value)


def test_vertex_check_rejects_isolated_vertex():
    cx = close([("0", "1", "2"), ("7",)])
    with pytest.raises(NotLocallyPlanar):
        vertex_check(cx, "7")


def test_vertex_check_unknown_vertex():
    with pytest.raises(ValueError):
        vertex_check(TWO_TRIANGLES, "nope")


def test_boundary_single_cycle():
    bd = boundary_components(TWO_TRIANGLES)
    assert bd.cycles == (("0", "2", "1", "3"),)


def test_boundary_cycle_starts_small_and_heads_to_smaller_neighbor():
    # cylinder: two boundary circles, each reported from its smallest vertex
    cx = cw_complex([("0", "1", "5", "4"), ("0", "2", "3", "1"), ("2", "4", "5", "3")])
    bd = boundary_components(cx)
    assert len(bd.cycles) == 2
    for cyc in bd.cycles:
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]


def test_boundary_empty_for_closed_surface():
    cx = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")])
    assert boundary_components(cx).cycles == ()


def test_is_surface_summary():
    chk = is_surface(TWO_TRIANGLES)
    assert chk.surface and not chk.closed and chk.boundary_count == 1
    chk = is_surface(close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")]))
    assert chk.surface and chk.closed and chk.boundary_count == 0


def test_is_surface_reports_defect():
    chk = is_surface(close([("0", "1", "2"), ("0", "1", "3"), ("0", "1", "4")]))
    assert not chk.surface
    assert isinstance(chk.defect, NotLocallyPlanar)


# Large inputs with answers in closed form. A vertex of degree n, or n
# boundary circles, must cost linear time: the old chord pool and
# boundary walk were quadratic here.


def cone(apexes, n):
    """The cones from each apex over the cycle a0 ... a(n-1)."""
    return close((p, f"a{i}", f"a{(i + 1) % n}") for p in apexes for i in range(n))


def test_cone_over_a_20000_cycle_is_a_disk():
    cx = cone("c", 20000)
    assert is_disk(cx)
    link = vertex_check(cx, "c")
    assert link.kind == "cycle" and len(link.walk) == 20000
    (circle,) = boundary_components(cx).cycles
    assert len(circle) == 20000 and circle[:2] == ("a0", "a1")


def test_double_cone_over_a_20000_cycle_is_a_sphere():
    cx = cone("NS", 20000)
    assert is_sphere(cx)
    assert vertex_check(cx, "S") == VertexLink("S", tuple(f"a{i}" for i in range(20000)), "cycle")


def test_5000_disjoint_triangles_have_5000_boundary_circles():
    tris = sorted((f"x{i}", f"y{i}", f"z{i}") for i in range(5000))
    cx = close(tris)
    assert boundary_components(cx).cycles == tuple(tris)
    chk = is_surface(cx)
    assert chk.surface and not chk.closed and chk.boundary_count == 5000
