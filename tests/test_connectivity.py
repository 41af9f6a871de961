from __future__ import annotations

import random

import pytest

from surfclass import (
    CWComplex2,
    EmptyComplex,
    SimplicialComplex,
    catalog_get,
    close,
    component_subcomplexes,
    components,
    cw_complex,
    induced_subcomplex,
    is_connected,
)
from test_incidence import grid, pinched


def _union_find_components(cx) -> set[frozenset[str]]:
    """Independent route: union-find over the 1-skeleton."""
    parent = {v: v for v in cx.vertex_set()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in cx.edge_set():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def test_three_component_example():
    cx = close(
        [("1",), ("2",), ("3",), ("4",), ("5",), ("6",),
         ("1", "2"), ("3", "5"), ("2", "4"), ("1", "4")]
    )
    part = components(cx)
    assert part.count() == 3
    assert part.components == (("1", "2", "4"), ("3", "5"), ("6",))


def test_components_ordered_by_smallest_label():
    cx = close([("z", "y"), ("a", "b"), ("m",)])
    part = components(cx)
    assert part.components == (("a", "b"), ("m",), ("y", "z"))


def test_assignment_matches_partition():
    cx = close([("1", "2"), ("3", "5"), ("6",)])
    part = components(cx)
    for i, comp in enumerate(part.components):
        for v in comp:
            assert part.assignment[v] == i


def test_empty_complex_is_rejected():
    with pytest.raises(EmptyComplex):
        components(SimplicialComplex(()))


def test_is_connected():
    assert is_connected(close([("0", "1"), ("1", "2")]))
    assert not is_connected(close([("0", "1"), ("2", "3")]))


def test_component_subcomplexes_partition_the_cells():
    cx = close([("0", "1", "2"), ("5", "6"), ("9",)])
    subs = component_subcomplexes(cx)
    assert len(subs) == 3
    merged = sorted(s for sub in subs for s in sub.simplices)
    assert merged == sorted(cx.simplices)


def test_matches_union_find_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 14)
        verts = [str(i) for i in range(n)]
        gens = [(v,) for v in verts]
        for _ in range(rng.randint(0, 18)):
            a, b = rng.sample(verts, 2)
            gens.append((a, b))
        cx = close(gens)
        got = {frozenset(c) for c in components(cx).components}
        assert got == _union_find_components(cx)


def ref_induced_subcomplex(cx, keep):
    """The per-component rebuild the one-pass split replaced: a scan of every cell."""
    if isinstance(cx, SimplicialComplex):
        return SimplicialComplex(frozenset(s for s in cx.simplices if set(s) <= keep))
    return CWComplex2(
        frozenset(v for v in cx.vertices if v in keep),
        frozenset(e for e in cx.edges if set(e) <= keep),
        tuple(c for c in cx.faces if set(c) <= keep),
    )


def _interleaved_cw():
    # two squares and a loose edge, the faces of the two squares alternating
    # and unsorted, so that the split must keep the whole complex's face order
    faces = (("b1", "b0", "b3", "b2"), ("a2", "a3", "a0", "a1"), ("b0", "b3", "b2", "b1"), ("a0", "a1", "a2", "a3"))
    base = cw_complex(faces, extra_edges=[("c0", "c1")], extra_vertices=["d"])
    return CWComplex2(base.vertices, base.edges, faces)


SPLITS = {
    "three components": catalog_get("example/three-components").payload,
    "two tori": pinched(grid("torus", 3), "no-such-vertex"),
    "two klein quads": pinched(grid("klein", 3, quads=True), "no-such-vertex"),
    "pinched mobius": pinched(grid("mobius", 3), "v5"),
    "interleaved cw": _interleaved_cw(),
    "points and edges": close([("0", "1", "2"), ("5", "6"), ("9",), ("10", "11")]),
}


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_component_split_matches_the_per_component_rebuild(name):
    cx = SPLITS[name]
    ref = [ref_induced_subcomplex(cx, set(comp)) for comp in components(cx).components]
    assert component_subcomplexes(cx) == (ref if len(ref) > 1 else [cx])


def test_component_split_keeps_the_face_order_of_the_whole_complex():
    cx = SPLITS["interleaved cw"]
    subs = component_subcomplexes(cx)
    assert [sub.faces for sub in subs] == [cx.faces[1::2], cx.faces[0::2], (), ()]
    assert [sorted(sub.vertices) for sub in subs][2:] == [["c0", "c1"], ["d"]]


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_induced_subcomplex_matches_the_cell_scan(name):
    cx = SPLITS[name]
    verts = sorted(cx.vertex_set())
    rng = random.Random(name)
    for _ in range(20):
        keep = set(rng.sample(verts, rng.randint(0, len(verts))))
        assert induced_subcomplex(cx, keep) == ref_induced_subcomplex(cx, keep)
