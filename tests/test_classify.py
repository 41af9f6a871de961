from __future__ import annotations

import pytest

from surfclass import (
    Disconnected,
    EmptyComplex,
    InvalidSurface,
    NotSurface,
    SurfaceType,
    catalog_get,
    classify_component,
    classify_surface,
    close,
    component_subcomplexes,
    cw_complex,
    genus,
    is_disk,
    is_sphere,
)

TETRA_BOUNDARY = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")])


def test_genus_orientable_closed():
    assert genus(2, True, 0) == 0
    assert genus(0, True, 0) == 1
    assert genus(-2, True, 0) == 2


def test_genus_non_orientable_closed():
    assert genus(1, False, 0) == 1
    assert genus(0, False, 0) == 2
    assert genus(-1, False, 0) == 3


def test_genus_with_boundary():
    assert genus(1, True, 1) == 0  # disk
    assert genus(0, True, 2) == 0  # cylinder
    assert genus(-1, True, 1) == 1  # torus with a hole
    assert genus(0, False, 1) == 1  # Moebius strip


def test_genus_rejects_impossible_combinations():
    with pytest.raises(InvalidSurface):
        genus(1, True, 0)  # odd chi is impossible on an orientable surface
    with pytest.raises(InvalidSurface):
        genus(3, False, 0)  # non-orientable genus would drop below 1
    with pytest.raises(InvalidSurface):
        genus(4, True, 0)  # genus would be negative


def test_names_closed():
    assert SurfaceType(True, 0, 0, 2).name() == "S2"
    assert SurfaceType(True, 1, 0, 0).name() == "T2"
    assert SurfaceType(True, 2, 0, -2).name() == "F2"
    assert SurfaceType(False, 1, 0, 1).name() == "RP2"
    assert SurfaceType(False, 2, 0, 0).name() == "Kl"
    assert SurfaceType(False, 3, 0, -1).name() == "N3"


def test_names_with_boundary():
    assert SurfaceType(True, 0, 1, 1).name() == "F_{0,1}"
    assert SurfaceType(True, 0, 2, 0).name() == "F_{0,2}"
    assert SurfaceType(False, 1, 1, 0).name() == "N_{1,1}"
    assert SurfaceType(True, 1, 1, -1).name() == "F_{1,1}"


def test_classify_sphere_and_disk():
    assert classify_surface(TETRA_BOUNDARY) == [SurfaceType(True, 0, 0, 2)]
    disk = close([("0", "1", "2"), ("0", "1", "3")])
    assert classify_surface(disk) == [SurfaceType(True, 0, 1, 1)]


def test_classify_torus_grid():
    faces = [
        "0153", "0284", "0362", "0471", "1265", "1782", "3486", "3574", "5687",
    ]
    cx = cw_complex([tuple(f) for f in faces])
    assert classify_surface(cx) == [SurfaceType(True, 1, 0, 0)]


def test_classify_moebius_strip():
    cx = cw_complex([tuple("0132"), tuple("0145"), tuple("2354")])
    assert classify_surface(cx) == [SurfaceType(False, 1, 1, 0)]


def test_classify_lists_components_in_order():
    cx = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3"),
                ("a", "b", "c"), ("a", "b", "d")])
    types = classify_surface(cx)
    assert types == [SurfaceType(True, 0, 0, 2), SurfaceType(True, 0, 1, 1)]


def test_classify_rejects_non_surface_with_component_index():
    cx = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3"),
                ("x", "y")])
    with pytest.raises(NotSurface) as ei:
        classify_surface(cx)
    assert "component 1" in str(ei.value)


def test_is_sphere_and_is_disk():
    assert is_sphere(TETRA_BOUNDARY)
    assert not is_disk(TETRA_BOUNDARY)
    disk = close([("0", "1", "2"), ("0", "1", "3")])
    assert is_disk(disk)
    assert not is_sphere(disk)
    # chi=1 complexes that are not disks stay rejected
    rp2 = cw_complex(
        [tuple("013"), tuple("0154"), tuple("024"), tuple("0253"),
         tuple("125"), tuple("1243"), tuple("345")]
    )
    assert not is_disk(rp2)
    assert not is_sphere(rp2)


def test_is_sphere_rejects_disconnected():
    two = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3"),
                 ("a", "b", "c"), ("a", "b", "d")])
    assert not is_sphere(two)
    assert not is_disk(two)


def test_5000_disjoint_triangles_are_5000_disks_in_component_order():
    tris = [(f"x{i:04}", f"y{i:04}", f"z{i:04}") for i in range(5000)]
    cx = close(tris)
    assert [sorted(sub.vertex_set()) for sub in component_subcomplexes(cx)] == [list(t) for t in tris]
    types = classify_surface(cx)
    assert [t.name() for t in types] == ["F_{0,1}"] * 5000
    assert set(types) == {SurfaceType(True, 0, 1, 1)}


TORUS = catalog_get("rcc/torus").payload
SPHERE = catalog_get("rcc/sphere").payload


def test_classify_component_of_one_surface():
    assert classify_component(TORUS) == SurfaceType(True, 1, 0, 0)


def test_classify_component_rejects_disjoint_surfaces():
    # a torus and a sphere sum to chi = 2, which reads as one sphere
    sphere = [tuple("s" + v for v in face) for face in SPHERE.faces]
    with pytest.raises(Disconnected):
        classify_component(cw_complex(TORUS.faces + tuple(sphere)))


def test_classify_component_rejects_the_empty_complex():
    with pytest.raises(EmptyComplex):
        classify_component(cw_complex([]))


def test_classify_component_names_component_0_when_not_a_surface():
    with pytest.raises(NotSurface) as ei:
        classify_component(close([("0", "1", "2"), ("0", "1", "3"), ("0", "1", "4")]))
    assert ei.value.component == 0
    assert str(ei.value).startswith("component 0 is not a surface: ")


def test_genus_rejects_a_negative_boundary_count():
    with pytest.raises(InvalidSurface, match="^negative boundary count$"):
        genus(0, True, -1)
